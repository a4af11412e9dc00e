#!/usr/bin/env python3
"""invar3 benchmark: closed-loop workloads with checked outputs.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload equiv-bundle --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Each workload is a closed loop with one client in one process.  With
``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to ``.perfbench_out/``.  A table with
units, ops attempted and the failed fraction goes to stderr.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("equiv-scalar", "equiv-bundle", "grid-fields")
SETUP_PROBES = 5
# share of --seconds the traced run spends untraced, to measure the overhead
UNTRACED_SHARE = 1.0 / 3.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import invar3 from this checkout's src/, never from elsewhere."""
    if not (SRC / "invar3" / "__init__.py").is_file():
        fail(f"no invar3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import invar3
    if not Path(invar3.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"invar3 was imported from {invar3.__file__}, not from {SRC}")
    import workloads
    return workloads


def probe_setup(workload: str, seed: int) -> None:
    """Child-process mode: time importing invar3 and generating the inputs."""
    t0 = time.perf_counter()
    wl_mod = import_library()
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl_mod.make_workload(workload, seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over several fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe exited with code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Loop:
    """Runs ops, times each one, checks its output outside the timing."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.tracer = tracer

    def run(self, op) -> None:
        # start every op from a collected heap, so that no op pays for the
        # garbage of the one before it
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as err:  # a failing op is counted, never fatal
            result, error = None, f"{type(err).__name__}: {err}"
        dt = time.perf_counter() - t0
        if error is None:
            try:
                error = op.check(result)
            except Exception as err:
                error = f"check raised {type(err).__name__}: {err}"
        self.attempted += 1
        self.busy += dt
        # a failed op misses any latency limit
        self.latencies.append(dt if error is None else math.inf)
        if error is not None:
            self.failures.append((op.name, error))
        print(f"perfbench: op {op.name} {dt:.4f} s {error or 'ok'}", file=sys.stderr)
        if self.tracer is not None and op.masked is not None:
            self.tracer.count("masked_points", op.masked[0])
            self.tracer.count("points", op.masked[1])

    def units(self, workload, seconds: float = math.inf, count: int | None = None) -> int:
        """Run ``count`` whole units, or stop at the unit boundary nearest to
        ``seconds`` of busy time: another unit runs only while its expected
        end, at the mean unit time so far, overshoots less than stopping now
        undershoots.  A grid-fields cycle takes about 19 s, so stopping at the
        first boundary past ``seconds`` could stretch a run by half."""
        k = 0
        start = self.busy
        while count is None or k < count:
            done = self.busy - start
            if count is None and k and done + 0.5 * done / k >= seconds:
                break
            for op in workload.unit(k):
                self.run(op)
            k += 1
        return k

    def p50(self) -> float | None:
        m = statistics.median(self.latencies)
        return None if math.isinf(m) else m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(correct: bool, loop: Loop, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": loop.attempted,
                       "failed": len(loop.failures), "metrics": metrics})


def report(workload: str, loop: Loop, metrics: dict) -> None:
    frac = len(loop.failures) / max(loop.attempted, 1)
    print(f"== {workload}: {loop.attempted} ops attempted, {len(loop.failures)} failed "
          f"(failed_frac {frac:.4g})", file=sys.stderr)
    for name, m in metrics.items():
        v = m["value"]
        shown = "null" if v is None else f"{v:.6g}"
        print(f"   {name:44s} {shown:>14s} {m['unit']}", file=sys.stderr)


def run_workload(wl_mod, name: str, seed: int, seconds: float, trace: bool) -> str:
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        workload = wl_mod.make_workload(name, seed, workdir, reference)
        warm = Loop()
        warm.run(workload.warmup())   # untimed: lazy imports and first-call costs
        if trace:
            return traced_run(name, seed, seconds, workload, warm)
        setup = setup_seconds(name, seed)
        loop = Loop()
        loop.units(workload, seconds)
        p50 = loop.p50()
        metrics = {
            "ops_per_s": {"value": (loop.attempted - len(loop.failures)) / loop.busy,
                          "unit": "1/s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        report(name, loop, metrics)
        return result_line(not loop.failures and not warm.failures, loop, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(name, seed, seconds, workload, warm) -> str:
    """The same units untraced, then traced; per-layer metrics per traced op."""
    from spans import Tracer

    loop = Loop()
    units = loop.units(workload, seconds * UNTRACED_SHARE)
    untraced = loop.busy
    tracer = Tracer()
    tracer.install()
    try:
        loop.tracer = tracer
        loop.units(workload, count=units)
    finally:
        tracer.uninstall()
    traced = loop.busy - untraced
    metrics = tracer.metrics(overhead_frac=traced / untraced - 1.0)
    for missing in tracer.missing:
        print(f"perfbench: traced layer missing: {missing}", file=sys.stderr)
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl",
                 {"workload": name, "seed": seed, "ops": tracer.ops})
    report(name, loop, metrics)
    return result_line(not loop.failures and not warm.failures, loop, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # the thread pool knob is left at its default: one client, one thread
    os.environ.pop("INVAR3_THREADS", None)
    # OpenBLAS otherwise keeps a worker spinning after each call; on a
    # two-core machine it competes with the measured thread
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    wl_mod = import_library()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        line = run_workload(wl_mod, name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(f"workload {name}")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
