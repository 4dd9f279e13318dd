"""A fixed pure-Python task that measures how fast the host runs right now.

The benchmark shares its machine with other tenants, and the speed at which
the same interpreter code runs drifts by up to a factor of two over minutes.
The reference task is timed between blocks of jobs, and every job time is
rescaled to the speed at which the task takes `REFERENCE_MS`: a job that
took 100 ms while the task took 2 * REFERENCE_MS counts as 50 ms.  The task
is made of the same kinds of work as a job (fraction-free integer
elimination, a Fraction row reduction and bitmask Bron-Kerbosch), written
here rather than imported from the package, so that no change to the
package changes the yardstick.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_MS = 10.0

_rng = random.Random(12345)
_MATRIX = [[_rng.randrange(-1, 2) for _ in range(30)] for _ in range(40)]
_N = 26
_ADJ = [0] * _N
for _v in range(_N):
    for _u in range(_v + 1, _N):
        if _rng.randrange(10) < 7:
            _ADJ[_v] |= 1 << _u
            _ADJ[_u] |= 1 << _v


def _bareiss_rank(rows: list[list[int]]) -> int:
    nr, nc = len(rows), len(rows[0])
    rank, prev = 0, 1
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv, top = rows[rank][c], rows[rank]
        for r in range(rank + 1, nr):
            f, row = rows[r][c], rows[r]
            for j in range(c, nc):
                row[j] = (pv * row[j] - f * top[j]) // prev
        prev = pv
        rank += 1
    return rank


def _fraction_rref(rows: list[list[Fraction]]) -> None:
    for i in range(len(rows)):
        if not rows[i][i]:
            continue
        inv = 1 / rows[i][i]
        rows[i] = [x * inv for x in rows[i]]
        for k in range(len(rows)):
            if k != i and rows[k][i]:
                f = rows[k][i]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]


def _maximal_cliques(adj: list[int]) -> int:
    count = 0

    def expand(p: int, x: int) -> None:
        nonlocal count
        if not p and not x:
            count += 1
            return
        px = p | x
        pivot = max((v for v in range(len(adj)) if px >> v & 1), key=lambda v: (p & adj[v]).bit_count())
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            expand(p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v
            cand &= cand - 1

    expand((1 << len(adj)) - 1, 0)
    return count


def reference_seconds() -> float:
    """Wall time of one run of the fixed task."""
    rows = [row[:] for row in _MATRIX]
    fractions = [[Fraction(x, 3) for x in row] for row in _MATRIX[:10]]
    t0 = time.perf_counter()
    _bareiss_rank(rows)
    _fraction_rref(fractions)
    _maximal_cliques(_ADJ)
    return time.perf_counter() - t0


def scale(seconds_before: float, seconds_after: float) -> float:
    """Factor that turns a time measured between two reference runs into
    the time it would take at the reference speed."""
    return REFERENCE_MS / 1000 / ((seconds_before + seconds_after) / 2)
