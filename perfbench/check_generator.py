#!/usr/bin/env python3
"""Check that the benchmark's input generator draws the test fixtures' operators.

The workloads use their own copy of the fixture builders so that test edits
cannot move them.  This check compares the two for a few of acceptance
criterion 9's seeds: the constructed pairs (seeds 3000+s: operator,
diffeomorphism and inverse, image box, gauge) and the perturbed pairs
(seeds 4000+s, slot s mod 10).  Exit code 0 when they agree:

    python3 perfbench/check_generator.py
"""

from __future__ import annotations

import sys

import run

SEEDS = (0, 1, 7, 33, 61, 99)


def main() -> int:
    wl = run.import_library()
    sys.path.insert(0, str(run.ROOT / "tests"))
    import conftest as fx

    mismatches = []
    for s in SEEDS:
        bundle = s >= 60
        rng = fx.rng_for(3000 + s)
        op = fx.random_operator(rng)
        phi, phinv = fx.random_diffeo(rng)
        box = fx.image_box(phi, wl.EQUIV_GRID)
        gauge = fx.random_gauge(rng) if bundle else None
        got = wl.constructed_recipe(fx.rng_for(3000 + s), bundle)
        want = wl.PairRecipe("constructed", op, box, phi=phi, phi_inv=phinv, gauge=gauge)
        if got != want:
            mismatches.append(f"constructed pair, criterion 9 seed {s}")

        rng = fx.rng_for(4000 + s)
        op = fx.random_operator(rng)
        slot = s % 10
        comps = list(op.components)
        bump = (0.05 * (1.0 + 0.5 * fx.X * fx.Y) if slot >= 4
                else 0.05 * fx.eexp(0.3 * fx.X))
        comps[slot] = comps[slot] + bump
        got = wl.perturbed_recipe(fx.rng_for(4000 + s), slot)
        if (got.op, got.partner) != (op, wl.Operator3(*comps)):
            mismatches.append(f"perturbed pair, criterion 9 seed {4000 + s}")

    for m in mismatches:
        print(f"generator differs from the test fixtures: {m}", file=sys.stderr)
    print(f"{len(SEEDS) * 2 - len(mismatches)}/{len(SEEDS) * 2} pairs agree")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
