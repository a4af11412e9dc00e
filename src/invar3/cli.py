"""Command-line front end: JSON operator specs in, JSON/CSV results out.

Exit codes: 0 success (or "equivalent" for equiv), 1 not equivalent,
2 inconclusive / empty regular region / singular symbol, 3 input error.
Output documents are deterministic: fixed iteration order, sorted keys,
shortest round-trip float serialization.  stdout carries the document,
stderr the human diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .equivalence import (DomainGrid, EquivConfig, equation_equivalent,
                          equivalent_bundle, equivalent_scalar)
from .errors import (DomainEvalError, GeneralPositionError, Invar3Error,
                     ParseError, RegularityError, SingularSymbolError)
from .expr import parse
from .invariants import (basic_invariants, conformal_invariants,
                         operator_invariants)
from .quantize import Operator3, quantize_sum, split
from .symbol import Symbol3, classify, value_of

SCHEMA_VERSION = 1
COEFF_NAMES = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "a0")

DEFAULT_TOLERANCES = {
    "classify_threshold": 1e-9,
    "regularity": 1e-9,
    "equivalence": 1e-6,
}


class SpecError(Invar3Error):
    pass


def load_spec(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise SpecError(f"spec file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"spec file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise SpecError(f"spec file {path} must hold a JSON object")
    coeffs = raw.get("coefficients")
    if not isinstance(coeffs, dict):
        raise SpecError("spec needs a 'coefficients' object with the ten "
                        "expressions a1..a4, b1..b3, c1, c2, a0")
    missing = [n for n in COEFF_NAMES if n not in coeffs]
    if missing:
        raise SpecError(f"missing coefficient expressions: {', '.join(missing)}")
    parsed = {}
    for name in COEFF_NAMES:
        text = coeffs[name]
        if isinstance(text, (int, float)):
            text = repr(float(text))
        try:
            parsed[name] = parse(text)
        except ParseError as err:
            raise SpecError(f"coefficient {name}: {err}") from err
    dom = raw.get("domain", {})
    try:
        grid = DomainGrid(float(dom.get("x", [0.0, 1.0])[0]),
                          float(dom.get("x", [0.0, 1.0])[1]),
                          float(dom.get("y", [0.0, 1.0])[0]),
                          float(dom.get("y", [0.0, 1.0])[1]),
                          int(dom.get("nx", 8)), int(dom.get("ny", 8)))
    except (ValueError, TypeError, IndexError) as err:
        raise SpecError(f"bad domain block: {err}") from err
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, v in raw.get("tolerances", {}).items():
        if key not in tolerances:
            raise SpecError(f"unknown tolerance override {key!r}")
        tolerances[key] = float(v)
    return {
        "operator": Operator3(**parsed),
        "grid": grid,
        "bundle": bool(raw.get("bundle", False)),
        "tolerances": tolerances,
        "echo": raw,
    }


def document(command: str, spec_echo, config: dict, outputs: dict,
             diagnostics: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "command": command,
        "input": spec_echo,
        "configuration": config,
        "outputs": outputs,
        "diagnostics": diagnostics or {},
    }


def emit(doc: dict, out: str | None, csv_rows=None, csv_header=None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")
    if csv_rows is not None:
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        sys.stdout.write("\n".join(lines) + "\n")


def _point_record(x: float, y: float, payload: dict) -> dict:
    return {"x": x, "y": y, **payload}


# -- subcommands -----------------------------------------------------------------

def cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    op: Operator3 = spec["operator"]
    sym = Symbol3(*op.components[:4])
    threshold = spec["tolerances"]["classify_threshold"]
    records = []
    errors = []

    def one(pt):
        x, y = pt
        try:
            sp = sym.at(x, y, 0)
            c = classify(sp, threshold)
            return _point_record(x, y, {"kind": c.kind.value, "delta": c.delta})
        except (DomainEvalError, Invar3Error) as err:
            return _point_record(x, y, {"error": str(err)})

    for pt in spec["grid"].points():
        rec = one(pt)
        (errors if "error" in rec else records).append(rec)
    doc = document("classify", spec["echo"],
                   {"threshold": threshold, "tolerances": spec["tolerances"]},
                   {"points": records, "domain_errors": errors})
    csv_rows = None
    header = None
    if args.csv:
        header = ["x", "y", "kind", "delta"]
        csv_rows = [(r["x"], r["y"], r["kind"], r["delta"]) for r in records]
    emit(doc, args.out, csv_rows, header)
    if errors:
        print(f"{len(errors)} grid points hit evaluation domain errors",
              file=sys.stderr)
        return 3
    return 0


def cmd_invariants(args) -> int:
    spec = load_spec(args.spec)
    op: Operator3 = spec["operator"]
    sym = Symbol3(*op.components[:4])
    mode = args.mode
    records = []
    masked = 0

    def one(pt):
        x, y = pt
        try:
            if mode == "symbol":
                iv = basic_invariants(sym, x, y)
                payload = {f"I{k + 1}": v for k, v in enumerate(iv.values())}
            elif mode == "conformal":
                iv = conformal_invariants(sym, x, y)
                payload = {f"I{k + 1}": value_of(c) for k, c in enumerate(iv.components)}
                payload["pivot"] = iv.pivot
                payload.update({f"ratio{k + 1}": r for k, r in enumerate(iv.ratios)})
            else:
                inv = operator_invariants(op, x, y,
                                          mode="bundle" if mode == "bundle" else "scalar")
                payload = inv.flat()
            if args.check:
                payload["checks"] = _residual_checks(sym, x, y)
            return _point_record(x, y, {"values": payload, "regular": True})
        except (Invar3Error, ZeroDivisionError, FloatingPointError) as err:
            return _point_record(x, y, {"regular": False, "reason": str(err)})

    for pt in spec["grid"].points():
        rec = one(pt)
        records.append(rec)
        if not rec["regular"]:
            masked += 1
    doc = document("invariants", spec["echo"],
                   {"mode": mode, "check": bool(args.check),
                    "tolerances": spec["tolerances"]},
                   {"points": records, "masked_points": masked,
                    "regular_points": len(records) - masked})
    csv_rows = None
    header = None
    if args.csv:
        keys = sorted({k for r in records if r["regular"]
                       for k in r["values"] if k != "checks"})
        header = ["x", "y", "regular"] + keys
        csv_rows = [
            (r["x"], r["y"], int(r["regular"]),
             *[r["values"].get(k, "") if r["regular"] else "" for k in keys])
            for r in records
        ]
    emit(doc, args.out, csv_rows, header)
    if masked == len(records):
        print("no grid point satisfies the regularity conditions", file=sys.stderr)
        return 2
    return 0


def _residual_checks(sym: Symbol3, x: float, y: float) -> dict:
    from .connection import (chern_connection, covariant_derivative_sym3,
                             curvature, torsion_form, wagner_connection)
    sp = sym.at(x, y, 3)
    gamma = wagner_connection(sp)
    res = covariant_derivative_sym3(gamma, sp)
    gamma_c, omega = chern_connection(sp)
    theta = torsion_form(gamma)
    R = curvature(gamma)
    omega_p3 = omega + theta.scale(3.0)
    return {
        "parallel_residual": max(r.norm() for r in res),
        "omega_plus_3theta": omega_p3.norm(),
        "parallel_curvature": max(R[k][j].r.norm() for k in range(2) for j in range(2)),
    }


def cmd_split(args) -> int:
    spec = load_spec(args.spec)
    op: Operator3 = spec["operator"]
    records = []
    singular = 0

    def one(pt):
        x, y = pt
        try:
            opp = op.at(x, y, 2)
            ts = split(opp, args.connection)
            if args.connection == "chern":
                from .connection import chern_connection
                gamma, _ = chern_connection(opp.principal_symbol())
            else:
                from .connection import wagner_connection
                gamma = wagner_connection(opp.principal_symbol())
            back = quantize_sum(ts, gamma)
            resid = max(abs(value_of(getattr(opp, n)) - value_of(getattr(back, n)))
                        for n in COEFF_NAMES)
            payload = {
                "sigma3": [value_of(c) for c in ts.sigma3.components],
                "sigma2": [value_of(c) for c in ts.sigma2],
                "sigma1": [value_of(c) for c in ts.sigma1],
                "sigma0": value_of(ts.sigma0),
                "roundtrip_residual": resid,
            }
            return _point_record(x, y, {"values": payload, "regular": True})
        except (SingularSymbolError, RegularityError, Invar3Error) as err:
            return _point_record(x, y, {"regular": False, "reason": str(err)})

    for pt in spec["grid"].points():
        rec = one(pt)
        records.append(rec)
        if not rec["regular"]:
            singular += 1
    doc = document("split", spec["echo"],
                   {"connection": args.connection, "tolerances": spec["tolerances"]},
                   {"points": records, "masked_points": singular})
    csv_rows = None
    header = None
    if args.csv:
        header = ["x", "y", "regular", "s3_1", "s3_2", "s3_3", "s3_4",
                  "s2_1", "s2_2", "s2_3", "s1_1", "s1_2", "s0", "residual"]
        csv_rows = []
        for r in records:
            if r["regular"]:
                v = r["values"]
                csv_rows.append((r["x"], r["y"], 1, *v["sigma3"], *v["sigma2"],
                                 *v["sigma1"], v["sigma0"], v["roundtrip_residual"]))
            else:
                csv_rows.append((r["x"], r["y"], 0) + ("",) * 11)
    emit(doc, args.out, csv_rows, header)
    if singular == len(records):
        print("principal symbol singular on the whole grid", file=sys.stderr)
        return 2
    return 0


def cmd_equiv(args) -> int:
    spec_a = load_spec(args.spec_a)
    spec_b = load_spec(args.spec_b)
    tol = args.tol if args.tol is not None else spec_a["tolerances"]["equivalence"]
    config = EquivConfig()
    runner = {"diffeo": equivalent_scalar, "aut": equivalent_bundle,
              "equation": equation_equivalent}[args.mode]
    try:
        verdict = runner(spec_a["operator"], spec_b["operator"],
                         spec_a["grid"], spec_b["grid"], tol=tol, config=config)
    except (GeneralPositionError, RegularityError, SingularSymbolError,
            Invar3Error) as err:
        doc = document("equiv", {"a": spec_a["echo"], "b": spec_b["echo"]},
                       {"mode": args.mode, "tolerance": tol},
                       {"verdict": "inconclusive", "error": str(err)})
        emit(doc, args.out)
        print(f"equivalence test aborted: {err}", file=sys.stderr)
        return 2
    outputs = {
        "verdict": verdict.equivalent,
        "max_discrepancy": verdict.max_discrepancy,
        "overlap_fraction": verdict.overlap_fraction,
        "matched_points": verdict.matched_points,
        "field_diagnostics": verdict.field_diagnostics,
        "selection": list(verdict.selection) if verdict.selection else None,
        "notes": verdict.notes,
        "chart_note": "bundle trivialized over a simply connected rectangle; "
                      "topological obstructions are vacuous here",
    }
    if verdict.obstruction is not None:
        outputs["obstruction"] = verdict.obstruction
    doc = document("equiv", {"a": spec_a["echo"], "b": spec_b["echo"]},
                   {"mode": args.mode, "tolerance": tol, **verdict.config},
                   outputs)
    emit(doc, args.out)
    return {"yes": 0, "no": 1, "inconclusive": 2}[verdict.equivalent]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invar3",
        description="Differential invariants and equivalence of third-order "
                    "linear operators on a 2D chart.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="discriminant sign classification per grid point")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("invariants", help="invariant fields and regularity masks")
    p.add_argument("spec")
    p.add_argument("--mode", choices=["symbol", "conformal", "operator", "bundle"],
                   default="symbol")
    p.add_argument("--check", action="store_true",
                   help="also emit residual diagnostics (parallel residual, "
                        "omega + 3 theta, curvature)")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("split", help="total-symbol decomposition per grid point")
    p.add_argument("spec")
    p.add_argument("--connection", choices=["chern", "wagner"], default="chern")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("equiv", help="pairwise operator equivalence")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--mode", choices=["diffeo", "aut", "equation"], default="diffeo")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_equiv)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 3
    except ParseError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
