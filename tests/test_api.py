"""The public API: every exported name resolves."""

import importlib
import pkgutil

import pytest

import invar3

MODULES = sorted(f"invar3.{m.name}" for m in pkgutil.iter_modules(invar3.__path__))


def test_package_exports_resolve():
    missing = [name for name in invar3.__all__ if not hasattr(invar3, name)]
    assert not missing


@pytest.mark.parametrize("modname", MODULES)
def test_module_exports_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_quantize_sum_importable_from_equivalence():
    from invar3.equivalence import quantize_sum
    from invar3.quantize import quantize_sum as canonical
    assert quantize_sum is canonical
