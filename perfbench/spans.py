"""Per-layer spans recorded from outside the library.

Functions of the ``invar3`` modules are wrapped at run time; nothing under
``src/`` is edited.  Every binding of a wrapped function is replaced: the
module attribute, names imported into other ``invar3`` modules, module-level
tables such as ``expr._FUNCTIONS``, and class attributes that alias the same
function (``Jet2.__rmul__`` is ``Jet2.__mul__``).

Spans live in memory and are written out when the run ends.  Each span
knows its op and its parent span; its self time is its duration minus the
time of its child spans.  Spans of the fine-grained ring layers (jet
arithmetic, expression evaluation, symbol evaluation) run into the hundreds
of thousands per op, so they are kept as one aggregate per parent span and
layer rather than one record each.  A layer's inclusive time counts only
its outermost call, so a layer that calls itself (``asinh`` calls ``ln``) is
not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path
from time import perf_counter

# (layer, module, targets, fine); a target is a module-level function name or
# "Class.attribute".  A layer whose targets are not all present is reported
# as missing.
LAYERS = [
    ("jets.mul", "invar3.jets", ["Jet2.__mul__"], True),
    ("jets.series", "invar3.jets",
     ["exp", "ln", "sin", "cos", "sqrt", "cbrt", "asinh", "real_power",
      "_reciprocal"], True),
    ("jets.compose", "invar3.jets", ["compose"], True),
    ("expr.eval_jet", "invar3.expr", ["eval_jet"], True),
    ("symbol.at", "invar3.symbol", ["Symbol3.at"], True),
    ("linalg.solve", "invar3.linalg", ["solve_jet_system"], False),
    ("connection.chern", "invar3.connection", ["chern_connection"], False),
    ("connection.wagner", "invar3.connection", ["wagner_connection"], False),
    ("quantize.quantize", "invar3.quantize", ["quantize"], False),
    ("quantize.split", "invar3.quantize", ["split"], False),
    ("invariants.symbol_coframe", "invar3.invariants", ["symbol_coframe_point"], False),
    ("invariants.conformal_frame", "invar3.invariants", ["conformal_frame_data"], False),
    ("invariants.operator_invariants", "invar3.invariants", ["operator_invariants"], False),
    ("equivalence.line_bundle", "invar3.equivalence", ["line_bundle_connection"], False),
    ("equivalence.candidates", "invar3.equivalence", ["_candidate_invariants"], False),
    ("equivalence.stage_one", "invar3.equivalence", ["_stage_one"], False),
    ("equivalence.select_pair", "invar3.equivalence", ["_select_pair"], False),
    ("equivalence.assemble", "invar3.equivalence", ["_assemble_model"], False),
    ("equivalence.compare", "invar3.equivalence", ["_compare_models"], False),
    # Delaunay point location; find_simplex costs 0.1-0.9 s on some charts
    ("equivalence.contains_coord", "invar3.equivalence", ["NaturalModel.contains_coord"], False),
    ("equivalence.invert_chart", "invar3.equivalence", ["_invert_chart"], False),
    ("equivalence.newton", "invar3.equivalence", ["_newton_solve"], False),
    ("equivalence.obstruction", "invar3.equivalence", ["_obstruction_report"], False),
    # the pushforward and gauge fields are closures: the component callables
    # of the returned Operator3 are wrapped
    ("equivalence.pushforward_field", "invar3.equivalence", ["pushforward_operator"], False),
    ("equivalence.gauge_field", "invar3.equivalence", ["gauge_transform"], False),
    ("cli.emit", "invar3.cli", ["emit"], False),
]
LAYER_NAMES = [name for name, *_ in LAYERS]
FIELD_LAYERS = ("equivalence.pushforward_field", "equivalence.gauge_field")


def _newton_failed(result) -> bool:
    return result is None


class Tracer:
    """Wraps the layers, records spans while an op is open, aggregates."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.failed = [0] * n
        self.active = [0] * n
        self.stack: list = []    # open frames: [child time, id of the nearest coarse span]
        self.spans: list = []    # [id, parent, op, layer, start, busy, self, failed]
        self.fine: dict = {}     # (op, parent span, layer) -> [calls, busy, self, failed]
        self.counters = {"grid_points": 0, "points": 0, "masked_points": 0,
                         "field_evals": 0, "field_repeats": 0}
        self.op = -1
        self.ops = 0
        self.seen: dict = {}     # (field owner, x, y) -> highest order evaluated
        self.missing: list[str] = []
        self._undo: list = []
        self._t0 = 0.0

    # -- op boundaries ------------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.ops += 1
        self.seen = {}

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- span bookkeeping ---------------------------------------------------------

    def _open(self, idx: int):
        """A new span record for a coarse layer."""
        parent = self.stack[-1][1] if self.stack else 0
        rec = [len(self.spans) + 1, parent, self.op, idx, perf_counter() - self._t0,
               0.0, 0.0, False]
        self.spans.append(rec)
        self.calls[idx] += 1
        return rec

    def _segment(self, idx: int, rec, call):
        """Run ``call()`` as one busy segment of a coarse span."""
        stack = self.stack
        frame = [0.0, rec[0]]
        stack.append(frame)
        self.active[idx] += 1
        failed = True
        t0 = perf_counter()
        try:
            result = call()
            failed = False
            return result
        except StopIteration:
            failed = False   # a generator span ending is not a failure
            raise
        finally:
            d = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += d
            self.active[idx] -= 1
            if not self.active[idx]:
                self.incl[idx] += d
            self.self_s[idx] += d - frame[0]
            rec[5] += d
            rec[6] += d - frame[0]
            if failed:
                self._mark_failed(rec)

    def _mark_failed(self, rec) -> None:
        if not rec[7]:
            rec[7] = True
            self.failed[rec[3]] += 1

    # -- wrappers -----------------------------------------------------------------

    def _wrap_fine(self, idx: int, fn):
        stack, active, calls, incl, self_s, failed, fine = (
            self.stack, self.active, self.calls, self.incl, self.self_s,
            self.failed, self.fine)

        # the hot path of jet arithmetic: _segment's bookkeeping inlined, with
        # one aggregate per (op, parent span, layer) instead of a record
        def wrapper(*args, **kwargs):
            op = self.op
            coarse = stack[-1][1] if stack else 0
            frame = [0.0, coarse]
            stack.append(frame)
            active[idx] += 1
            bad = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                bad = 0
                return result
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                s = d - frame[0]
                active[idx] -= 1
                if not active[idx]:
                    incl[idx] += d
                calls[idx] += 1
                self_s[idx] += s
                failed[idx] += bad
                agg = fine.get((op, coarse, idx))
                if agg is None:
                    fine[(op, coarse, idx)] = [1, d, s, bad]
                else:
                    agg[0] += 1
                    agg[1] += d
                    agg[2] += s
                    agg[3] += bad
        return wrapper

    def _wrap_coarse(self, idx: int, fn, failed_if=None, on_result=None):
        def wrapper(*args, **kwargs):
            rec = self._open(idx)
            result = self._segment(idx, rec, lambda: fn(*args, **kwargs))
            if failed_if is not None and failed_if(result):
                self._mark_failed(rec)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _wrap_generator(self, idx: int, fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            rec = self._open(idx)
            try:
                while True:
                    try:
                        item = self._segment(idx, rec, lambda: next(gen))
                    except StopIteration:
                        return
                    yield item
            finally:
                gen.close()
        return wrapper

    def _wrap_field_factory(self, idx: int, factory):
        """Wrap every component callable of the Operator3 the factory returns."""
        def wrapper(*args, **kwargs):
            op = factory(*args, **kwargs)
            owner = object()
            wrapped = {f.name: self._wrap_field(idx, owner, getattr(op, f.name))
                       for f in fields(op)}
            return type(op)(**wrapped)
        return wrapper

    def _wrap_field(self, idx: int, owner, component):
        def field(x, y, order):
            key = (owner, x, y)
            prev = self.seen.get(key)
            self.counters["field_evals"] += 1
            if prev is not None and prev >= order:
                self.counters["field_repeats"] += 1
            if prev is None or order > prev:
                self.seen[key] = order
            rec = self._open(idx)
            return self._segment(idx, rec, lambda: component(x, y, order))
        return field

    def _on_stage_one(self, result) -> None:
        self.count("grid_points", len(result[0]))

    def _on_assemble(self, model) -> None:
        mask = model.chart.mask
        self.count("points", int(mask.size))
        self.count("masked_points", int(mask.size - mask.sum()))

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; record missing targets instead of failing."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "invar3" or name.startswith("invar3.")]
        hooks = {"_newton_solve": {"failed_if": _newton_failed},
                 "_stage_one": {"on_result": self._on_stage_one},
                 "_assemble_model": {"on_result": self._on_assemble}}
        for idx, (layer, modname, targets, fine) in enumerate(LAYERS):
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{layer} ({modname})")
                continue
            found = []
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{layer} ({modname}.{target})")
                    break
                found.append((owner, fn))
            else:
                for owner, fn in found:
                    if layer in FIELD_LAYERS:
                        w = self._wrap_field_factory(idx, fn)
                    elif inspect.isgeneratorfunction(fn):
                        w = self._wrap_generator(idx, fn)
                    elif fine:
                        w = self._wrap_fine(idx, fn)
                    else:
                        w = self._wrap_coarse(idx, fn, **hooks.get(fn.__name__, {}))
                    if inspect.isclass(owner):
                        self._rebind_class(owner, fn, w)
                    else:
                        self._rebind_modules(mods, fn, w)
        self._t0 = perf_counter()

    def _rebind_class(self, cls, fn, w) -> None:
        for k, v in list(vars(cls).items()):
            if v is fn:
                setattr(cls, k, w)
                self._undo.append((setattr, cls, k, fn))

    def _rebind_modules(self, mods, fn, w) -> None:
        for mod in mods:
            for k, v in list(vars(mod).items()):
                if v is fn:
                    setattr(mod, k, w)
                    self._undo.append((setattr, mod, k, fn))
                elif isinstance(v, dict):
                    for dk, dv in list(v.items()):
                        if dv is fn:
                            v[dk] = w
                            self._undo.append((dict.__setitem__, v, dk, fn))

    def uninstall(self) -> None:
        for setter, owner, key, fn in reversed(self._undo):
            setter(owner, key, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        """Per-op averages of every layer plus the derived ratios; a missing
        layer's metrics carry a null value and name what is missing."""
        ops = max(self.ops, 1)
        missing = {m.split(" ")[0]: m for m in self.missing}
        out = {}
        for idx, layer in enumerate(LAYER_NAMES):
            values = {"calls": (self.calls[idx] / ops, "count"),
                      "s": (self.incl[idx] / ops, "s"),
                      "self_s": (self.self_s[idx] / ops, "s"),
                      "failed": (self.failed[idx] / ops, "count")}
            for key, (v, unit) in values.items():
                entry = {"value": v, "unit": unit}
                if layer in missing:
                    entry = {"value": None, "unit": unit, "missing": missing[layer]}
                out[f"{layer}.{key}"] = entry
        c = self.counters
        idx = LAYER_NAMES.index

        def ratio(num, den):
            return num / den if den else 0.0

        # name -> (value, layers it is derived from)
        ratios = {
            "equivalence.candidate_per_point":
                (ratio(self.calls[idx("equivalence.candidates")], c["grid_points"]),
                 ("equivalence.candidates", "equivalence.stage_one")),
            "field.repeat_share":
                (ratio(c["field_repeats"], c["field_evals"]), FIELD_LAYERS),
            "equivalence.newton.fail_share":
                (ratio(self.failed[idx("equivalence.newton")],
                       self.calls[idx("equivalence.newton")]), ("equivalence.newton",)),
            "linalg.solve.fail_share":
                (ratio(self.failed[idx("linalg.solve")], self.calls[idx("linalg.solve")]),
                 ("linalg.solve",)),
            "invariants.masked_share":
                (ratio(c["masked_points"], c["points"]), ("equivalence.assemble",)),
            "trace.overhead_frac": (overhead_frac, ()),
        }
        for name, (v, layers) in ratios.items():
            gone = [missing[layer] for layer in layers if layer in missing]
            out[name] = ({"value": None, "unit": "ratio", "missing": "; ".join(gone)}
                         if gone else {"value": v, "unit": "ratio"})
        return out

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines: a header naming the layers and columns, then
        one array per coarse span and one per (op, parent span, fine layer)
        aggregate.  Parent 0 is the op itself."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                **header, "layers": LAYER_NAMES, "missing": self.missing,
                "counters": self.counters,
                "span": ["id", "parent", "op", "layer", "start", "s", "self_s", "failed"],
                "aggregate": ["op", "parent", "layer", "calls", "s", "self_s", "failed"],
            }) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(["span", *rec]) + "\n")
            for key, agg in self.fine.items():
                fh.write(json.dumps(["aggregate", *key, *agg]) + "\n")
