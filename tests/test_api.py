"""The public API: every exported name resolves, and so does every function
that the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_traced_layers_resolve():
    """Every target of ``perfbench/spans.py``'s ``LAYERS`` exists, so that a
    traced benchmark run reports no layer as missing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, modname, targets, _ in spans.LAYERS:
        mod = importlib.import_module(modname)
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if getattr(owner, attr, None) is None:
                missing.append(f"{layer}: {modname}.{target}")
    assert not missing
