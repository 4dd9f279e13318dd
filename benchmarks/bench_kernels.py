#!/usr/bin/env python3
"""Compare the compiled and pure-Python kernel lanes on the two hot loops,
then the engine's streaming row space against the batch elimination path.

Run from a checkout where the package is installed:

    python benchmarks/bench_kernels.py

The second table times one field of `compute_wcdim` (one enumeration fed
into a row space that stops at full rank) against enumerating the sets,
assembling the whole difference system and eliminating it with `rank` and
`nullspace_basis`, in the active kernel lane; both must give the same rank
and basis.
"""

import random
import time

from wellcovered import (
    KERNEL_IMPLEMENTATION,
    FieldSpec,
    build_difference_system,
    compute_wcdim,
    enumerate_mis,
    nullspace_basis,
    rank,
)
from wellcovered import _kernels_py
from wellcovered.graphs import random_graph

try:
    from wellcovered import _speedups
except ImportError:
    _speedups = None


def complement_masks(g):
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        m = 0
        for u in g.adj[v]:
            m |= 1 << u
        out.append(full & ~m & ~(1 << v))
    return out


def bench(label, fn, repeats=5):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return label, best, result


def main():
    lanes = [("python", _kernels_py)]
    if _speedups is not None:
        lanes.append(("c", _speedups))
    else:
        print("compiled lane not built; showing the pure lane only")

    print(f"{'benchmark':40} " + " ".join(f"{name:>12}" for name, _ in lanes) + "   speedup")

    cases = []

    for n, seed in [(30, 3), (40, 7), (50, 11)]:
        g = random_graph(n, 0.3, seed)
        masks = complement_masks(g)
        cases.append(
            (
                f"independent sets, n={n} random graph",
                lambda lane, masks=masks: len(lane.maximal_cliques(masks, 10**7)),
            )
        )

    rng = random.Random(0)
    for rows, cols, p in [(200, 60, 2), (200, 60, 10007), (400, 120, 10007)]:
        entries = [rng.randint(-50, 50) for _ in range(rows * cols)]
        cases.append(
            (
                f"gf rank {rows}x{cols} mod {p}",
                lambda lane, e=entries, r=rows, c=cols, p=p: lane.gf_rank(e, r, c, p),
            )
        )

    for label, runner in cases:
        times = []
        results = []
        for _, lane in lanes:
            _, dt, result = bench(label, lambda lane=lane: runner(lane))
            times.append(dt)
            results.append(result)
        assert len(set(results)) == 1, f"lanes disagree on {label}: {results}"
        row = f"{label:40} " + " ".join(f"{dt * 1e3:10.2f}ms" for dt in times)
        if len(times) == 2 and times[1] > 0:
            row += f"   {times[0] / times[1]:6.1f}x"
        print(row)


def batch_path(g, f):
    diff = build_difference_system(enumerate_mis(g))
    return rank(diff, f), nullspace_basis(diff, f)


def row_space_path(g, f):
    report = compute_wcdim(g, f)
    return report.diff_rank, list(report.basis)


def main_paths():
    print(f"\n{'elimination path (' + KERNEL_IMPLEMENTATION + ' lane)':44} "
          f"{'batch':>12} {'row space':>12}   speedup")
    for n, seed in [(40, 7), (50, 11)]:
        g = random_graph(n, 0.3, seed)
        for f in (FieldSpec(0), FieldSpec(2), FieldSpec(10007)):
            label = f"rank + basis, n={n} random graph, {f}"
            _, old_dt, old = bench(label, lambda: batch_path(g, f), repeats=3)
            _, new_dt, new = bench(label, lambda: row_space_path(g, f), repeats=3)
            assert old == new, f"paths disagree on {label}"
            print(f"{label:44} {old_dt * 1e3:10.2f}ms {new_dt * 1e3:10.2f}ms   {old_dt / new_dt:6.1f}x")


if __name__ == "__main__":
    main()
    main_paths()
