"""Seeded inputs, operations and output checks of the invar3 benchmark.

The input generator mirrors the fixture builders of the test suite
(random operators, diffeomorphisms, gauges, image boxes) and the
perturbation rule of acceptance criterion 9, but lives here so that later
test edits cannot move the workload.  ``check_generator.py`` verifies that
both still draw the same operators.

The library is driven only through its entry points.  Calls that build
operator fields go through the module attribute (``equivalence.X``) so that
the traced run's rebinding reaches them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from invar3 import cli, equivalence
from invar3.connection import chern_connection
from invar3.equivalence import (DomainGrid, EquivConfig, equivalent_bundle,
                                equivalent_scalar)
from invar3.expr import Expr, coefficient_field, var
from invar3.expr import cos as ecos
from invar3.expr import exp as eexp
from invar3.expr import sin as esin
from invar3.quantize import RAW_SLOTS, Operator3
from invar3.symbol import Symbol3

X, Y = var("x"), var("y")
SLOTS = list(RAW_SLOTS)

EQUIV_GRID = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
# acceptance criterion 9's comparison settings and tolerance
EQUIV_CONFIG = EquivConfig(max_matched_points=16, min_matched_points=8,
                           compare_resolution=10)
EQUIV_TOL = 1e-6

FIELD_GRID_N = 16
# grid-fields operators are drawn from this many seed variants; the
# compact reference in reference.json holds one entry per variant
FIELD_VARIANTS = 32
PARALLEL_TOL = 1e-10      # acceptance criteria 1 and 3
ROUNDTRIP_TOL = 1e-9      # acceptance criterion 5
REFERENCE_RTOL = 1e-9

# criterion 10's operator; on a 16x16 grid 16 points are masked in the
# conformal, operator and bundle modes
HYP_COEFFICIENTS = {
    "a1": "0", "a2": "exp(0.4*x + 0.3*y + 0.2*x*y) / 3",
    "a3": "exp(0.5*y - 0.2*x + 0.15*x^2) / 3", "a4": "0",
    "b1": "0.5 + 0.2*sin(x)", "b2": "0.3*y", "b3": "1 + 0.1*x",
    "c1": "0.4*x", "c2": "0.2 + 0.1*y", "a0": "0.3 + 0.2*x*y",
}

FIELD_COMMANDS = [
    ("classify", ["classify"]),
    ("symbol", ["invariants", "--mode", "symbol", "--check"]),
    ("conformal", ["invariants", "--mode", "conformal"]),
    ("operator", ["invariants", "--mode", "operator"]),
    ("bundle", ["invariants", "--mode", "bundle"]),
    ("split-chern", ["split", "--connection", "chern"]),
    ("split-wagner", ["split", "--connection", "wagner"]),
]


# -- seeded generator (same draws as the test fixtures) ---------------------------

def small_poly(rng, scale: float = 0.5, trig: bool = True) -> Expr:
    c = rng.uniform(-scale, scale, size=6)
    e: Expr = c[0] * X + c[1] * Y + c[2] * X * Y + c[3] * X * X + c[4] * Y * Y
    if trig and rng.random() < 0.5:
        e = e + c[5] * esin(X + Y)
    return e


def three_root_symbol(rng, spread: float = 0.5) -> Symbol3:
    """(a dx + b dy).dx.dy with positive a, b: regular on the unit square."""
    a = eexp(small_poly(rng, spread))
    b = eexp(small_poly(rng, spread))
    return Symbol3(0.0, a / 3.0, b / 3.0, 0.0)


def one_root_symbol(rng, spread: float = 0.4) -> Symbol3:
    """(sin h dx + cos h dy)(dx^2 + dy^2)."""
    h = small_poly(rng, spread) + 0.6 * X + 0.6 * Y
    a, b = esin(h), ecos(h)
    return Symbol3(a, b / 3.0, a / 3.0, b)


def random_operator(rng, sym: Symbol3 | None = None) -> Operator3:
    if sym is None:
        sym = three_root_symbol(rng)
    return Operator3(
        a1=sym.a1, a2=sym.a2, a3=sym.a3, a4=sym.a4,
        b1=0.5 + small_poly(rng, 0.3), b2=small_poly(rng, 0.3),
        b3=1.0 + small_poly(rng, 0.2), c1=small_poly(rng, 0.4),
        c2=0.2 + small_poly(rng, 0.3), a0=0.3 + small_poly(rng, 0.4),
    )


def random_diffeo(rng, strength: float = 0.15):
    """Two triangular shears with an exact expression inverse."""
    c = rng.uniform(-strength, strength, size=4)
    phi1 = X + (c[0] * Y + c[1] * Y * Y * 0.5)
    phi2 = Y + (c[2] * phi1 + c[3] * esin(phi1))
    inv2 = Y - (c[2] * X + c[3] * esin(X))
    inv1 = X - (c[0] * inv2 + c[1] * inv2 * inv2 * 0.5)
    return (phi1, phi2), (inv1, inv2)


def random_gauge(rng, strength: float = 0.3) -> Expr:
    return eexp(small_poly(rng, strength, trig=False))


def image_box(phi, grid: DomainGrid, pad: float = 0.04) -> DomainGrid:
    """Padded bounding rectangle of the grid's image under the map."""
    f = [coefficient_field(c) for c in phi]
    xs, ys = [], []
    for (x, y) in grid.points():
        xs.append(f[0](x, y, 0).value)
        ys.append(f[1](x, y, 0).value)
    dx = (max(xs) - min(xs)) * pad
    dy = (max(ys) - min(ys)) * pad
    return DomainGrid(min(xs) - dx, max(xs) + dx, min(ys) - dy, max(ys) + dy,
                      grid.nx, grid.ny)


def perturb(op: Operator3, slot: int) -> Operator3:
    """Criterion 9's single-coefficient perturbation of slot ``slot``."""
    comps = list(op.components)
    bump = 0.05 * (1.0 + 0.5 * X * Y) if slot >= 4 else 0.05 * eexp(0.3 * X)
    comps[slot] = comps[slot] + bump
    return Operator3(*comps)


# -- equivalence pairs --------------------------------------------------------------

@dataclass(frozen=True)
class PairRecipe:
    """Inputs of one verdict; the moved operator is built per op so that no
    field cache outlives it."""

    kind: str                      # "constructed" or "perturbed"
    op: Operator3
    box: DomainGrid
    phi: tuple | None = None
    phi_inv: tuple | None = None
    gauge: Expr | None = None
    partner: Operator3 | None = None


def constructed_recipe(rng, bundle: bool, action_rng=None) -> PairRecipe:
    """An operator from ``rng``; its diffeomorphism and gauge from
    ``action_rng``, by default the same generator (the fixtures' draw order)."""
    op = random_operator(rng)
    action_rng = rng if action_rng is None else action_rng
    phi, phi_inv = random_diffeo(action_rng)
    box = image_box(phi, EQUIV_GRID)
    gauge = random_gauge(action_rng) if bundle else None
    return PairRecipe("constructed", op, box, phi=phi, phi_inv=phi_inv, gauge=gauge)


def perturbed_recipe(rng, slot: int) -> PairRecipe:
    op = random_operator(rng)
    return PairRecipe("perturbed", op, EQUIV_GRID, partner=perturb(op, slot))


def build_pair(r: PairRecipe) -> tuple[Operator3, Operator3]:
    if r.kind == "perturbed":
        return r.op, r.partner
    moved = equivalence.pushforward_operator(r.op, r.phi, r.phi_inv, EQUIV_GRID)
    if r.gauge is not None:
        moved = equivalence.gauge_transform(moved, r.gauge, r.box)
    return r.op, moved


def check_verdict(kind: str, v) -> str | None:
    """None when the verdict is right, else the reason it is not."""
    want = "yes" if kind == "constructed" else "no"
    if v.equivalent != want:
        return f"verdict {v.equivalent!r}, expected {want!r}"
    if want == "yes" and not v.max_discrepancy <= EQUIV_TOL:
        return f"max_discrepancy {v.max_discrepancy:.3g} above {EQUIV_TOL:g}"
    return None


# -- grid-fields specs and checks ---------------------------------------------------

def field_operators(seed: int) -> dict[str, Operator3 | None]:
    """The three operators of grid-fields: criterion 10's ``hyp`` (given as
    text) plus a seeded three-root and a seeded one-root operator."""
    rng = np.random.default_rng([seed % FIELD_VARIANTS, 10])
    three = random_operator(rng)
    one = random_operator(rng, one_root_symbol(rng))
    return {"hyp": None, "three": three, "one": one}


def spec_document(op: Operator3 | None) -> dict:
    coeffs = (HYP_COEFFICIENTS if op is None
              else {n: str(c) if isinstance(c, Expr) else repr(float(c))
                    for n, c in zip(SLOTS, op.components)})
    return {
        "schema_version": 1,
        "coefficients": coeffs,
        "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0],
                   "nx": FIELD_GRID_N, "ny": FIELD_GRID_N},
    }


_RESIDUAL_KEYS = ("checks.", "roundtrip_residual")


def _flatten(prefix: str, v, out: dict) -> None:
    if isinstance(v, dict):
        for k, w in v.items():
            _flatten(f"{prefix}{k}.", w, out)
    elif isinstance(v, list):
        for k, w in enumerate(v):
            _flatten(f"{prefix}{k}.", w, out)
    elif isinstance(v, (int, float)):
        out[prefix[:-1]] = float(v)
    else:
        # categorical values (the classify kind) are counted per category
        out[f"{prefix[:-1]}={v}"] = 1.0


def point_values(rec: dict) -> dict:
    """Flat numeric values of one point record, residual diagnostics excluded."""
    body = rec.get("values", {k: v for k, v in rec.items()
                              if k not in ("x", "y", "regular", "reason", "error")})
    flat: dict = {}
    _flatten("", body, flat)
    return {k: v for k, v in flat.items() if not k.startswith(_RESIDUAL_KEYS)}


def summarize(doc: dict) -> dict:
    """Compact reference of a document: masked count, and sum and max-abs of
    each field over the regular points."""
    outputs = doc["outputs"]
    if "domain_errors" in outputs:
        regular, masked = outputs["points"], len(outputs["domain_errors"])
    else:
        regular = [r for r in outputs["points"] if r["regular"]]
        masked = len(outputs["points"]) - len(regular)
    fields: dict = {}
    for rec in regular:
        for k, v in point_values(rec).items():
            s, m = fields.get(k, (0.0, 0.0))
            fields[k] = (s + v, max(m, abs(v)))
    return {"masked": masked, "points": len(regular) + masked,
            "fields": {k: [s, m] for k, (s, m) in sorted(fields.items())}}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(1.0, abs(a), abs(b))


def compare_summary(got: dict, ref: dict) -> str | None:
    if got["masked"] != ref["masked"] or got["points"] != ref["points"]:
        return (f"masked {got['masked']}/{got['points']}, reference "
                f"{ref['masked']}/{ref['points']}")
    if set(got["fields"]) != set(ref["fields"]):
        return f"fields {sorted(got['fields'])} differ from the reference"
    for k, (s, m) in got["fields"].items():
        rs, rm = ref["fields"][k]
        if not (_close(s, rs) and _close(m, rm)):
            return f"field {k}: sum {s!r} max-abs {m!r}, reference {rs!r} {rm!r}"
    return None


def residual_failure(name: str, op: Operator3 | None, doc: dict) -> str | None:
    """Intrinsic residuals against the acceptance tolerances, each scaled as
    the acceptance suite scales it.  The scale is at least 1, so the (costly)
    scale is computed only where the raw residual exceeds the tolerance."""
    if name != "symbol" and not name.startswith("split"):
        return None
    if op is None:
        op = Operator3(*(HYP_COEFFICIENTS[n] for n in SLOTS))
    sym = Symbol3(*op.components[:4])
    for rec in doc["outputs"]["points"]:
        if not rec["regular"]:
            continue
        x, y, v = rec["x"], rec["y"], rec["values"]
        if name == "symbol":
            chk = v["checks"]
            if chk["parallel_residual"] > PARALLEL_TOL:
                sp = sym.at(x, y, 3)
                scale = max(max(c.norm() for c in sp.components), 1.0)
                if chk["parallel_residual"] > PARALLEL_TOL * scale:
                    return f"parallel residual {chk['parallel_residual']:.3g} at ({x}, {y})"
            if chk["omega_plus_3theta"] > PARALLEL_TOL:
                _, omega = chern_connection(sym.at(x, y, 3))
                if chk["omega_plus_3theta"] > PARALLEL_TOL * max(1.0, omega.norm()):
                    return f"omega + 3 theta {chk['omega_plus_3theta']:.3g} at ({x}, {y})"
        elif name.startswith("split") and v["roundtrip_residual"] > ROUNDTRIP_TOL:
            if v["roundtrip_residual"] > ROUNDTRIP_TOL * max(1.0, op.at(x, y, 2).norm()):
                return f"split round-trip {v['roundtrip_residual']:.3g} at ({x}, {y})"
    return None


# -- workloads ------------------------------------------------------------------------

@dataclass
class Op:
    """One measured operation: ``run()`` is timed, ``check(result)`` is not
    and returns None or the reason the output is wrong.  A grid-fields check
    sets ``masked`` to (masked points, points) of its document."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] = None
    masked: tuple[int, int] | None = None


# Perturbed slots in a fixed order that spreads the four principal-symbol
# slots evenly among the six lower-order ones, so that runs of any length
# hold the same mix.  A principal-slot verdict is about three times cheaper:
# the invariant signatures differ, so no field is compared.
SLOT_ORDER = (0, 4, 5, 1, 6, 2, 7, 8, 3, 9)


class EquivWorkload:
    """Alternating constructed and perturbed pairs through one verdict API.

    Unit k always uses the k-th operator of two fixed streams; the seed
    draws the diffeomorphism and gauge of every constructed pair.  A verdict's
    cost depends mostly on the operator (coefficient of variation 0.2-0.3
    over operators, 0.12 over diffeomorphisms of one operator), and a run
    holds only a dozen or so verdicts, so fixed operators keep runs with
    different seeds comparable (see NOTES.md).
    """

    UNITS = 16

    def __init__(self, seed: int, bundle: bool):
        self.verdict = equivalent_bundle if bundle else equivalent_scalar
        self.recipes = []
        for k in range(self.UNITS):
            self.recipes.append(constructed_recipe(np.random.default_rng([1, k]), bundle,
                                                   np.random.default_rng([seed, 1, k])))
            self.recipes.append(perturbed_recipe(np.random.default_rng([2, k]),
                                                 SLOT_ORDER[k % len(SLOT_ORDER)]))
        self.warmup_recipe = constructed_recipe(np.random.default_rng([3]), bundle,
                                                np.random.default_rng([seed, 3]))

    def _op(self, r: PairRecipe, name: str) -> Op:
        def run():
            a, b = build_pair(r)
            return self.verdict(a, b, EQUIV_GRID, r.box, tol=EQUIV_TOL, config=EQUIV_CONFIG)
        return Op(name, run, lambda v: check_verdict(r.kind, v))

    def warmup(self) -> Op:
        return self._op(self.warmup_recipe, "warmup")

    def unit(self, k: int) -> list[Op]:
        """The k-th constructed/perturbed pair of ops (the pool repeats)."""
        i = 2 * (k % self.UNITS)
        return [self._op(self.recipes[i], f"constructed-{i // 2}"),
                self._op(self.recipes[i + 1], f"perturbed-{i // 2}")]


class FieldWorkload:
    """Every per-point CLI command on a 16x16 grid for three operators."""

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.variant = seed % FIELD_VARIANTS
        self.workdir = workdir
        self.ops = field_operators(seed)
        self.specs = {}
        for name, op in self.ops.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec_document(op)), encoding="utf-8")
            self.specs[name] = str(path)
        self.reference = reference

    def reference_for(self, opname: str, cmd: str) -> dict | None:
        key = "hyp" if opname == "hyp" else str(self.variant)
        return self.reference.get(key, {}).get(f"{opname}/{cmd}")

    def _op(self, opname: str, cmd: str, argv: list[str]) -> Op:
        out = self.workdir / f"out-{opname}-{cmd}.json"
        full = [argv[0], self.specs[opname], *argv[1:], "--out", str(out)]
        op = Op(f"{opname}/{cmd}", lambda: cli.main(full))

        def check(code):
            if code != 0:
                return f"exit code {code}, expected 0"
            doc = json.loads(out.read_text(encoding="utf-8"))
            got = summarize(doc)
            if cmd != "classify":
                op.masked = (got["masked"], got["points"])
            bad = residual_failure(cmd, self.ops[opname], doc)
            if bad is None and self.reference is not None:
                ref = self.reference_for(opname, cmd)
                bad = (compare_summary(got, ref) if ref is not None
                       else "no reference recorded for this document")
            return bad

        op.check = check
        return op

    def warmup(self) -> Op:
        return self._op("hyp", "operator", ["invariants", "--mode", "operator"])

    def unit(self, k: int) -> list[Op]:
        """One cycle: every command on every operator."""
        return [self._op(opname, cmd, argv)
                for opname in self.ops for (cmd, argv) in FIELD_COMMANDS]


def make_workload(name: str, seed: int, workdir: Path, reference: dict | None = None):
    if name == "equiv-scalar":
        return EquivWorkload(seed, False)
    if name == "equiv-bundle":
        return EquivWorkload(seed, True)
    if name == "grid-fields":
        return FieldWorkload(seed, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")
