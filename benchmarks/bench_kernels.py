#!/usr/bin/env python3
"""Compare the engine's streaming row space against the batch elimination path.

Run from a checkout where the package is installed:

    python benchmarks/bench_kernels.py

Each row times one field of `compute_wcdim` (one enumeration fed into the
integer row space, which stops at full rank) against enumerating the sets,
assembling the whole difference system and eliminating it with `rank` and
`nullspace_basis`; both must give the same rank and basis.  GF(p) is read
off the integer space when p does not divide its common pivot D, and is
eliminated on its own otherwise.  The random graphs reach full rank after
about n rows; 8 disjoint triangles (6,561 sets, rank 16 of 24) feed every
row, so they show the cost of the rows that turn out dependent.  crown:20
has k - 2 = 18 = 2 * 3^2, so GF(2) and GF(3) are eliminated on their own:
GF(2) in an XOR basis, GF(3) in the same packed integer elimination as Q,
with every pivot chosen to be a unit mod 3.  The last column feeds the
modular decomposition's spanning family instead of every set: 17 sets and
no enumeration for the triangles, while the random graphs and the crown
have no module and feed the same rows as the row space column.
"""

import time

from wellcovered import (
    FieldSpec,
    build_difference_system,
    complete,
    compute_wcdim_fields,
    crown,
    disjoint_union,
    enumerate_mis,
    nullspace_basis,
    rank,
)
from wellcovered.graphs import random_graph


def bench(fn, repeats):
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


def row_space_path(g, f, decompose):
    report = compute_wcdim_fields(g, (f,), decompose=decompose)[0]
    return report.diff_rank, list(report.basis)


def triangles(k):
    g = complete(3)
    for _ in range(k - 1):
        g = disjoint_union(g, complete(3))
    return g


def main():
    three = (FieldSpec(0), FieldSpec(2), FieldSpec(10007))
    graphs = [
        (f"n={n} random graph", random_graph(n, 0.3, seed), 3, three)
        for n, seed in [(40, 7), (50, 11)]
    ]
    graphs.append(("8 disjoint triangles", triangles(8), 1, three))
    graphs.append(("crown:20", crown(20), 5, (FieldSpec(2), FieldSpec(3))))
    print(f"{'elimination path':44} {'batch':>12} {'row space':>12}   speedup {'decomposed':>12}   speedup")
    for name, g, repeats, fields in graphs:
        for f in fields:
            label = f"rank + basis, {name}, {f}"
            old_dt, old = bench(lambda: batch_path(g, f), repeats)
            new_dt, new = bench(lambda: row_space_path(g, f, False), repeats)
            dec_dt, dec = bench(lambda: row_space_path(g, f, True), repeats)
            assert old == new == dec, f"paths disagree on {label}"
            print(
                f"{label:44} {old_dt * 1e3:10.2f}ms {new_dt * 1e3:10.2f}ms   {old_dt / new_dt:6.1f}x"
                f" {dec_dt * 1e3:10.2f}ms   {old_dt / dec_dt:6.1f}x"
            )


if __name__ == "__main__":
    main()
