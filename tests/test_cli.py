"""CLI contract: exit codes, document shape, determinism."""

import json
import re
import warnings

import pytest

from invar3.cli import COEFF_NAMES, main

HYP = {
    "schema_version": 1,
    "coefficients": {
        "a1": "0", "a2": "exp(0.4*x + 0.3*y + 0.2*x*y) / 3",
        "a3": "exp(0.5*y - 0.2*x + 0.15*x^2) / 3", "a4": "0",
        "b1": "0.5 + 0.2*sin(x)", "b2": "0.3*y", "b3": "1 + 0.1*x",
        "c1": "0.4*x", "c2": "0.2 + 0.1*y", "a0": "0.3 + 0.2*x*y",
    },
    "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0], "nx": 8, "ny": 8},
}

ULT = {
    "schema_version": 1,
    "coefficients": {
        "a1": "1", "a2": "0", "a3": "0", "a4": "1",
        "b1": "0", "b2": "0", "b3": "0", "c1": "0", "c2": "0", "a0": "0",
    },
    "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0], "nx": 8, "ny": 8},
}

CONST = {
    "schema_version": 1,
    "coefficients": {
        "a1": "0.3", "a2": "0.5", "a3": "-0.2", "a4": "1.0",
        "b1": "0.1", "b2": "0.2", "b3": "0.3", "c1": "0.4", "c2": "0.5",
        "a0": "0.6",
    },
    "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0], "nx": 8, "ny": 8},
}

LOG_BAD = {
    "schema_version": 1,
    "coefficients": {
        "a1": "ln(x)", "a2": "0.4", "a3": "0.3", "a4": "0.1",
        "b1": "0", "b2": "0", "b3": "0", "c1": "0", "c2": "0", "a0": "0",
    },
    "domain": {"x": [-0.5, 0.5], "y": [0.0, 1.0], "nx": 8, "ny": 8},
}


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_classify_hyperbolic(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "classify", spec)
    assert code == 0
    assert doc["schema_version"] == 1
    kinds = {p["kind"] for p in doc["outputs"]["points"]}
    assert kinds == {"hyperbolic"}


def test_classify_one_root(tmp_path):
    spec = write_spec(tmp_path, "ult.json", ULT)
    code, doc = run(tmp_path, "classify", spec)
    assert code == 0
    kinds = {p["kind"] for p in doc["outputs"]["points"]}
    assert kinds == {"ultrahyperbolic"}
    deltas = {p["delta"] for p in doc["outputs"]["points"]}
    assert deltas == {-1.0}


def test_classify_domain_errors_exit_3(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", LOG_BAD)
    code, doc = run(tmp_path, "classify", spec)
    assert code == 3
    assert doc["outputs"]["domain_errors"]
    assert "domain" in capsys.readouterr().err


def test_invariants_regular_family(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "invariants", spec, "--mode", "symbol")
    assert code == 0
    assert doc["outputs"]["masked_points"] == 0
    point = doc["outputs"]["points"][0]
    assert set(point["values"]) == {"I1", "I2", "I3", "I4"}


def test_invariants_constant_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "const.json", CONST)
    code, doc = run(tmp_path, "invariants", spec, "--mode", "symbol")
    assert code == 2
    assert doc["outputs"]["regular_points"] == 0
    assert "regularity" in capsys.readouterr().err


def test_invariants_check_flag_emits_residuals(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "invariants", spec, "--check")
    assert code == 0
    checks = doc["outputs"]["points"][0]["values"]["checks"]
    assert checks["parallel_residual"] <= 1e-10
    assert checks["omega_plus_3theta"] <= 1e-10
    assert checks["parallel_curvature"] <= 1e-8


def test_split_round_trip_field(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "split", spec, "--connection", "chern")
    assert code == 0
    for p in doc["outputs"]["points"]:
        assert p["regular"]
        assert p["values"]["roundtrip_residual"] <= 1e-9


def test_split_singular_exit_2(tmp_path):
    bad = dict(CONST)
    bad["coefficients"] = dict(CONST["coefficients"], a1="1", a2="0", a3="0", a4="0")
    spec = write_spec(tmp_path, "sing.json", bad)
    code, doc = run(tmp_path, "split", spec)
    assert code == 2


def test_equiv_identical_exit_0(tmp_path):
    a = write_spec(tmp_path, "a.json", HYP)
    b = write_spec(tmp_path, "b.json", HYP)
    code, doc = run(tmp_path, "equiv", a, b, "--mode", "diffeo")
    assert code == 0
    assert doc["outputs"]["verdict"] == "yes"


def test_equiv_perturbed_exit_1(tmp_path):
    a = write_spec(tmp_path, "a.json", HYP)
    perturbed = json.loads(json.dumps(HYP))
    perturbed["coefficients"]["a0"] = "0.3 + 0.2*x*y + 0.1"
    b = write_spec(tmp_path, "b.json", perturbed)
    code, doc = run(tmp_path, "equiv", a, b, "--mode", "diffeo")
    assert code == 1
    assert doc["outputs"]["verdict"] == "no"


def test_equiv_constant_pair_exit_2(tmp_path):
    a = write_spec(tmp_path, "a.json", CONST)
    b = write_spec(tmp_path, "b.json", CONST)
    code, doc = run(tmp_path, "equiv", a, b)
    assert code == 2
    assert doc["outputs"]["verdict"] == "inconclusive"


def test_missing_coefficient_exit_3(tmp_path, capsys):
    broken = json.loads(json.dumps(CONST))
    del broken["coefficients"]["a0"]
    spec = write_spec(tmp_path, "broken.json", broken)
    assert main(["classify", spec]) == 3
    assert "missing coefficient" in capsys.readouterr().err


def test_bad_expression_exit_3(tmp_path, capsys):
    broken = json.loads(json.dumps(CONST))
    broken["coefficients"]["a1"] = "3*a"
    spec = write_spec(tmp_path, "broken.json", broken)
    assert main(["classify", spec]) == 3
    assert "a1" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"tolerances": 5},
    {"tolerances": {"equivalence": "abc"}},
    {"domain": [0, 1]},
    {"coefficients": dict(CONST["coefficients"], a2=None)},
], ids=["tolerances-not-object", "tolerance-not-number", "domain-not-object",
        "null-coefficient"])
def test_malformed_spec_exit_3(tmp_path, capsys, change):
    spec = write_spec(tmp_path, "broken.json", {**CONST, **change})
    assert main(["classify", spec]) == 3
    assert "input error" in capsys.readouterr().err


def test_documents_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    for command, *options in (["invariants", "--mode", "symbol"],
                              ["invariants", "--mode", "bundle"], ["classify"]):
        outs = []
        for k in range(2):
            out = tmp_path / f"run{k}.json"
            assert main([command, spec, *options, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_csv_output(tmp_path, capsys):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    assert main(["classify", spec, "--csv", "--out", str(tmp_path / "r.json")]) == 0
    captured = capsys.readouterr().out
    lines = captured.strip().splitlines()
    assert lines[0] == "x,y,kind,delta"
    assert len(lines) == 65  # header + 8x8 grid


def test_invariants_conformal_and_operator_modes(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "invariants", spec, "--mode", "conformal")
    assert code == 0
    reg = [p for p in doc["outputs"]["points"] if p["regular"]]
    assert reg and "ratio1" in reg[0]["values"]
    code, doc = run(tmp_path, "invariants", spec, "--mode", "operator")
    assert code == 0
    reg = [p for p in doc["outputs"]["points"] if p["regular"]]
    assert reg and "J3_1" in reg[0]["values"] and "K" not in reg[0]["values"]
    code, doc = run(tmp_path, "invariants", spec, "--mode", "bundle")
    assert code == 0
    reg = [p for p in doc["outputs"]["points"] if p["regular"]]
    assert reg and "K" in reg[0]["values"]


def test_split_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    assert main(["split", spec, "--csv", "--out", str(tmp_path / "s.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("x,y,regular,s3_1")
    assert len(lines) == 65


def test_threads_env_var_keeps_documents_identical(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    out1 = tmp_path / "t1.json"
    assert main(["classify", spec, "--out", str(out1)]) == 0
    monkeypatch.setenv("INVAR3_THREADS", "4")
    out2 = tmp_path / "t2.json"
    assert main(["classify", spec, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def hyp_variant(tmp_path, name, tolerances=None, **coefficients):
    """Criterion 10's operator with some coefficients replaced."""
    payload = json.loads(json.dumps(HYP))
    payload["coefficients"].update(coefficients)
    if tolerances is not None:
        payload["tolerances"] = tolerances
    return write_spec(tmp_path, name, payload)


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def run_quietly(tmp_path, capsys, *argv):
    """:func:`run`, checking that no numpy ``RuntimeWarning`` is raised
    or written to stderr on the way, and parsing the document strictly
    (``NaN`` and ``Infinity`` are not JSON)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    return code, json.loads((tmp_path / "out.json").read_text(), parse_constant=_not_json)


EXP_OVERFLOW = "exp overflows: a series coefficient at constant term 800"


def test_overflowing_coefficient_masks_split_points(tmp_path, capsys):
    # exp(800 x) overflows a double on the column x = 1
    spec = hyp_variant(tmp_path, "ovf.json", b1="exp(800*x)")
    code, doc = run_quietly(tmp_path, capsys, "split", spec)
    assert code == 0
    masked = [p for p in doc["outputs"]["points"] if not p["regular"]]
    assert doc["outputs"]["masked_points"] == len(masked) == 8
    assert {p["x"] for p in masked} == {1.0}
    assert all(p["reason"] for p in masked)
    # the reason names the function and the constant term that overflowed
    assert {p["reason"] for p in masked} == {EXP_OVERFLOW}
    # the invariants overflow from x = 3/7 on: those points are masked with
    # the names of the non-finite values, not written as NaN
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "bundle")
    assert code == 0
    masked = [p for p in doc["outputs"]["points"] if not p["regular"]]
    assert doc["outputs"]["masked_points"] == len(masked) == 40
    reasons = {(round(7 * p["x"]), p["reason"]) for p in masked}
    assert reasons == {(3, "non-finite J0"), (4, "non-finite J0, J1_1, J1_2"),
                       (5, "non-finite J0, J1_1, J1_2"), (6, "non-finite J0, J1_1, J1_2"),
                       (7, "conformal frame failed: quadratic form is degenerate")}


def test_overflowing_symbol_masks_points(tmp_path, capsys):
    spec = hyp_variant(tmp_path, "ovf.json", a2="exp(800*x) / 3")
    code, doc = run_quietly(tmp_path, capsys, "classify", spec)
    assert code == 3
    assert len(doc["outputs"]["domain_errors"]) == 48
    # from x = 2/7 on, the fourth power of the coefficient scale overflows;
    # on x = 1, exp itself does
    reasons = {(round(7 * e["x"]), e["error"]) for e in doc["outputs"]["domain_errors"]}
    assert {r for k, r in reasons if k == 7} == {EXP_OVERFLOW}
    scales = [r for k, r in reasons if k < 7]
    assert sorted({k for k, _ in reasons}) == [2, 3, 4, 5, 6, 7] and len(scales) == 5
    assert all(r.startswith("symbol coefficient scale ")
               and r.endswith(": its fourth power overflows") for r in scales)
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "symbol")
    assert code == 0
    assert 0 < doc["outputs"]["masked_points"] < 64
    assert {p["reason"] for p in doc["outputs"]["points"] if p["x"] == 1.0} == {EXP_OVERFLOW}
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "conformal")
    assert code == 2
    assert doc["outputs"]["regular_points"] == 0
    code, doc = run_quietly(tmp_path, capsys, "split", spec)
    assert code == 0
    assert doc["outputs"]["masked_points"] == 56
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "bundle")
    assert code == 2
    assert doc["outputs"]["regular_points"] == 0


def test_a_math_function_off_its_domain_masks_its_points(tmp_path, capsys):
    # (10 x)^400 is infinite from x = 5/7 on, where cos of it has no value
    spec = hyp_variant(tmp_path, "dom.json", a1="1 + 0.1*cos((10*x)^400)")
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec)
    assert code in (0, 1, 2, 3)
    masked = [p for p in doc["outputs"]["points"] if not p["regular"]]
    assert doc["outputs"]["masked_points"] == len(masked) == 56
    assert all(p["reason"] for p in masked)
    assert {round(7 * p["x"]) for p in masked
            if p["reason"] == "cos is not defined at constant term inf"} == {5, 6, 7}
    assert {round(7 * p["x"]) for p in masked} == set(range(1, 8))


def test_an_overflowing_symbol_scale_is_named(tmp_path, capsys):
    spec = hyp_variant(tmp_path, "scale.json", a1="1 + 0.1*sin((2*x)^400)")
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "symbol")
    assert code == 0
    reasons = {(round(7 * p["x"]), p["reason"]) for p in doc["outputs"]["points"]
               if not p["regular"] and "scale" in p["reason"]}
    assert reasons == {
        (6, "symbol coefficient scale 1.73674e+95: its fourth power overflows"),
        (7, "symbol coefficient scale 1.02443e+122: its fourth power overflows")}


def test_a_failed_connection_solve_names_its_check(tmp_path, capsys):
    spec = hyp_variant(tmp_path, "ovf.json", a2="exp(800*x) / 3")
    code, doc = run_quietly(tmp_path, capsys, "invariants", spec, "--mode", "symbol")
    assert code == 0
    # short of x = 1 the coefficients are finite, but so far apart that the
    # parallel solve's condition number passes its bound; where the smallest
    # singular value is 0 the reason gives the largest
    reasons = {p["reason"] for p in doc["outputs"]["points"]
               if not p["regular"] and p["x"] < 1.0}
    finite = r"parallel connection: condition number [0-9.]+e\+[0-9]+ above 1e15"
    assert reasons and all(re.fullmatch(finite, r) for r in reasons if "inf" not in r)
    assert {r for r in reasons if "inf" in r} == {
        f"parallel connection: condition number inf above 1e15 "
        f"(smallest singular value 0, largest {largest})"
        for largest in ("1.85e+99", "3.42e+198", "1.47e+248", "6.34e+297")}


def test_regularity_tolerance_is_applied(tmp_path):
    default = hyp_variant(tmp_path, "default.json")
    code, doc = run(tmp_path, "invariants", default, "--mode", "conformal")
    assert code == 0 and doc["outputs"]["masked_points"] == 8
    strict = hyp_variant(tmp_path, "strict.json", tolerances={"regularity": 1e6})
    code, doc = run(tmp_path, "invariants", strict, "--mode", "conformal")
    assert code == 2
    assert doc["outputs"]["regular_points"] == 0
    assert doc["configuration"]["tolerances"]["regularity"] == 1e6


def test_invariants_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    assert main(["invariants", spec, "--mode", "conformal", "--csv",
                 "--out", str(tmp_path / "i.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,regular,I1,I2,I3,I4,pivot,ratio1,ratio2,ratio3,ratio4"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 64
    masked = [r for r in rows if r[2] == "0"]
    assert len(masked) == 8 and all(v == "" for r in masked for v in r[3:])


def test_spec_file_errors_exit_3(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.json")]) == 3
    assert "not found" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{\"coefficients\": ", encoding="utf-8")
    assert main(["classify", str(broken)]) == 3
    assert "not valid JSON" in capsys.readouterr().err


def test_spec_numeric_coefficients_and_bundle_key(tmp_path):
    from invar3.cli import load_spec
    from invar3.expr import parse
    payload = json.loads(json.dumps(CONST))
    payload["coefficients"].update(a0=0.6, c1=2)
    payload["bundle"] = True
    spec = load_spec(write_spec(tmp_path, "num.json", payload))
    assert spec["operator"].a0 == parse("0.6")
    assert spec["operator"].c1 == parse("2.0")
    assert "bundle" not in spec and spec["echo"]["bundle"] is True


def test_equiv_aut_reports_closed_obstruction(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", HYP)
    code, doc = run(tmp_path, "equiv", spec, spec, "--mode", "aut")
    assert code == 0
    obstruction = doc["outputs"]["obstruction"]
    assert obstruction["closed"] is True
    assert obstruction["points"] == doc["outputs"]["matched_points"] > 0
    assert obstruction["residual"] <= doc["configuration"]["closedness_tol"]


GRID_COMMANDS = [
    ("classify", ["classify"]),
    ("symbol", ["invariants", "--mode", "symbol", "--check"]),
    ("conformal", ["invariants", "--mode", "conformal"]),
    ("operator", ["invariants", "--mode", "operator"]),
    ("bundle", ["invariants", "--mode", "bundle"]),
    ("chern", ["split", "--connection", "chern"]),
    ("wagner", ["split", "--connection", "wagner"]),
]


def _one_point(name: str, op, x: float, y: float) -> dict:
    """The values of a grid record at one point, from the library's
    one-point calls (raising the error that masks the point)."""
    from invar3.cli import _residual_checks
    from invar3.invariants import (basic_invariants, conformal_invariants,
                                   operator_invariants)
    from invar3.quantize import _connection_for, quantize_sum, split
    from invar3.symbol import Symbol3, classify, value_of
    sym = Symbol3(*op.components[:4])
    if name == "classify":
        c = classify(sym.at(x, y, 0))
        return {"kind": c.kind.value, "delta": c.delta}
    if name == "symbol":
        iv = basic_invariants(sym, x, y)
        return {**{f"I{k + 1}": v for k, v in enumerate(iv.values())},
                "checks": _residual_checks(sym, x, y)}
    if name == "conformal":
        iv = conformal_invariants(sym, x, y)
        return {**{f"I{k + 1}": v for k, v in enumerate(iv.values())}, "pivot": iv.pivot,
                **{f"ratio{k + 1}": r for k, r in enumerate(iv.ratios)}}
    if name in ("operator", "bundle"):
        mode = "bundle" if name == "bundle" else "scalar"
        return operator_invariants(op, x, y, mode=mode).flat()
    opp = op.at(x, y, 2)
    gamma = _connection_for(opp.principal_symbol(), name)
    ts = split(opp, name)
    back = quantize_sum(ts, gamma)
    return {"sigma3": [value_of(c) for c in ts.sigma3.components],
            "sigma2": [value_of(c) for c in ts.sigma2],
            "sigma1": [value_of(c) for c in ts.sigma1], "sigma0": value_of(ts.sigma0),
            "roundtrip_residual": max(abs(value_of(getattr(opp, n)) - value_of(getattr(back, n)))
                                      for n in COEFF_NAMES)}


def random_spec(seed: int, n: int) -> dict:
    """A spec of a fixture random operator on an n x n grid."""
    from conftest import random_operator, rng_for
    op = random_operator(rng_for(seed))
    coefficients = {k: str(c) if not isinstance(c, float) else repr(c)
                    for k, c in zip(COEFF_NAMES, op.components)}
    return {"schema_version": 1, "coefficients": coefficients,
            "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0], "nx": n, "ny": n}}


@pytest.mark.parametrize("payload", [
    {**HYP, "domain": {"x": [0.0, 1.0], "y": [0.0, 1.0], "nx": 16, "ny": 16}},
    random_spec(11, 8),
], ids=["hyp-16x16", "random-8x8"])
def test_grid_commands_make_one_pass_with_one_point_records(tmp_path, monkeypatch, payload):
    from invar3 import cli, invariants
    spec = write_spec(tmp_path, "spec.json", payload)
    op = cli.load_spec(spec)["operator"]
    ranks = []

    def counted_pass(compute, xs, ys):
        def counted(x, y):
            ranks.append(isinstance(x, list))
            return compute(x, y)
        return invariants._per_point(counted, xs, ys)

    monkeypatch.setattr(cli, "_per_point", counted_pass)
    for name, argv in GRID_COMMANDS:
        ranks.clear()
        code, doc = run(tmp_path, argv[0], spec, *argv[1:])
        assert code in (0, 2, 3)
        points = doc["outputs"]["points"]
        if name == "classify":
            masked = doc["outputs"]["domain_errors"]
            regular = points
        else:
            masked = [p for p in points if not p["regular"]]
            regular = [p for p in points if p["regular"]]
        # one batched pass, which names the masked points itself
        assert ranks == [True]
        for rec in regular:
            values = rec if name == "classify" else rec["values"]
            want = _one_point(name, op, rec["x"], rec["y"])
            got = {k: values[k] for k in want}
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        for rec in masked:
            with pytest.raises(Exception) as err:
                _one_point(name, op, rec["x"], rec["y"])
            assert str(err.value) == rec["error" if name == "classify" else "reason"]
