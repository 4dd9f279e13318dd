"""Independent reference implementations used as test oracles.

Nothing here calls the package's enumeration or elimination code: maximal
independent sets come from filtering all 2^n subsets with a direct
definition check, and ranks come from plain Gaussian elimination over
Fractions or residues.  Agreement between these and the package is the
point of the tests, so keep them separate.
"""

from fractions import Fraction
from itertools import combinations

from wellcovered import Graph


def brute_force_mis(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets by filtering every subset, sorted."""
    out = []
    for bits in range(1 << g.n):
        s = [v for v in range(g.n) if bits >> v & 1]
        sset = set(s)
        if any(g.adj[u] & sset for u in s):
            continue
        if any(v not in sset and not (g.adj[v] & sset) for v in range(g.n)):
            continue
        out.append(tuple(s))
    out.sort()
    return out


def ref_rank(rows, char: int) -> int:
    """Plain Gaussian elimination rank (partial pivoting by first nonzero)."""
    if not rows:
        return 0
    if char == 0:
        work = [[Fraction(x) for x in r] for r in rows]
    else:
        work = [[x % char for x in r] for r in rows]
    cols = len(work[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank][c]
        for i in range(rank + 1, len(work)):
            if work[i][c] == 0:
                continue
            if char == 0:
                f = work[i][c] / pivot
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
            else:
                f = work[i][c] * pow(pivot, -1, char) % char
                work[i] = [(a - f * b) % char for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def ref_nullspace(rows, cols: int, char: int) -> list[tuple]:
    """Canonical nullspace basis by plain Gauss-Jordan over Fractions or residues.

    One vector per free column in ascending order, with a 1 there; the
    pivot entries are the negated reduced-row entries of that column.
    """
    if char == 0:
        work = [[Fraction(x) for x in r] for r in rows]
    else:
        work = [[x % char for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        if char == 0:
            work[r] = [x / work[r][c] for x in work[r]]
        else:
            inv = pow(work[r][c], -1, char)
            work[r] = [x * inv % char for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                if char:
                    work[i] = [a % char for a in work[i]]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0) if char == 0 else 0] * cols
        vec[fc] = Fraction(1) if char == 0 else 1
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc] if char == 0 else -work[i][fc] % char
        basis.append(tuple(vec))
    return basis


def ref_wcdim(g: Graph, char: int) -> int:
    """n minus the rank of the difference system, all via the reference code."""
    mis = brute_force_mis(g)
    base = mis[0]
    rows = []
    for s in mis[1:]:
        row = [0] * g.n
        for v in s:
            row[v] += 1
        for v in base:
            row[v] -= 1
        rows.append(row)
    return g.n - ref_rank(rows, char)


def all_graphs(n: int):
    """Every labelled graph on n vertices (use only for tiny n)."""
    from wellcovered import new_graph

    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield new_graph(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])
