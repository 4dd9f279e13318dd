#!/usr/bin/env python3
"""Compare the engine's streaming row space against the batch elimination path.

Run from a checkout where the package is installed:

    python benchmarks/bench_kernels.py

Each row times one field of `compute_wcdim` (one enumeration fed into a
row space that stops at full rank) against enumerating the sets,
assembling the whole difference system and eliminating it with `rank` and
`nullspace_basis`; both must give the same rank and basis.
"""

import time

from wellcovered import (
    FieldSpec,
    build_difference_system,
    compute_wcdim,
    enumerate_mis,
    nullspace_basis,
    rank,
)
from wellcovered.graphs import random_graph


def bench(fn, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def batch_path(g, f):
    diff = build_difference_system(enumerate_mis(g))
    return rank(diff, f), nullspace_basis(diff, f)


def row_space_path(g, f):
    report = compute_wcdim(g, f)
    return report.diff_rank, list(report.basis)


def main():
    print(f"{'elimination path':44} {'batch':>12} {'row space':>12}   speedup")
    for n, seed in [(40, 7), (50, 11)]:
        g = random_graph(n, 0.3, seed)
        for f in (FieldSpec(0), FieldSpec(2), FieldSpec(10007)):
            label = f"rank + basis, n={n} random graph, {f}"
            old_dt, old = bench(lambda: batch_path(g, f))
            new_dt, new = bench(lambda: row_space_path(g, f))
            assert old == new, f"paths disagree on {label}"
            print(f"{label:44} {old_dt * 1e3:10.2f}ms {new_dt * 1e3:10.2f}ms   {old_dt / new_dt:6.1f}x")


if __name__ == "__main__":
    main()
