#!/usr/bin/env python3
"""Record the compact grid-fields reference (perfbench/reference.json).

For every seed variant it runs each CLI command of the grid-fields workload
on the seeded operators (criterion 10's ``hyp`` operator once), checks the
intrinsic residuals, and stores per document the masked count and the sum
and max-abs of each field over the regular points.  The benchmark compares
against this file at 1e-9 relative, so re-record only when a change to the
library is meant to change its outputs:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    wl_mod = run.import_library()
    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    try:
        for variant in range(wl_mod.FIELD_VARIANTS):
            workload = wl_mod.FieldWorkload(variant, workdir, None)
            for op in workload.unit(0):
                opname = op.name.split("/")[0]
                key = "hyp" if opname == "hyp" else str(variant)
                if opname == "hyp" and variant > 0:
                    continue
                bad = op.check(op.run())
                if bad is not None:
                    print(f"variant {variant} {op.name}: {bad}", file=sys.stderr)
                    return 1
                doc = json.loads((workdir / f"out-{op.name.replace('/', '-')}.json")
                                 .read_text(encoding="utf-8"))
                reference.setdefault(key, {})[op.name] = wl_mod.summarize(doc)
            print(f"variant {variant} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
