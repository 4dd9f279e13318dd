"""Independent reference implementations used as test oracles.

Nothing here calls the package's enumeration or elimination code: maximal
independent sets come from filtering all 2^n subsets with a direct
definition check, maximal cliques in discovery order from a plain recursive
Bron-Kerbosch, simplicial cliques from checking each closed neighbourhood
against the adjacency masks, and ranks come from plain Gaussian elimination
over the integers (fraction-free, for Q) or over residues.  Agreement
between these and the package is the point of the tests, so keep them
separate.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

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


def ref_maximal_cliques(adj_masks: list[int]) -> list[int]:
    """Maximal cliques as vertex bitmasks, in the discovery order of `kernels.maximal_cliques`.

    Recursive Bron-Kerbosch that expands every state in full: the pivot is
    the first vertex of P | X, ascending, with the most neighbours in P, and
    the candidates P minus the pivot's neighbours are branched on in
    ascending order.
    """
    out = []

    def members(mask):
        return [v for v in range(len(adj_masks)) if mask >> v & 1]

    def expand(r, p, x):
        if not p:
            if not x:
                out.append(r)
            return
        pivot = max(members(p | x), key=lambda v: (p & adj_masks[v]).bit_count())
        for v in members(p & ~adj_masks[pivot]):
            expand(r | 1 << v, p & adj_masks[v], x & adj_masks[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << len(adj_masks)) - 1, 0)
    return out


def _integer_gauss_jordan(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan over the integers: (the nonzero reduced rows, their pivots).

    Each row is first scaled by the lcm of its denominators, and every row
    is kept primitive (its gcd divided out) after each update.  The RREF
    entry in row i, column j is rows[i][j] / rows[i][pivots[i]].
    """
    work = []
    for r in rows:
        r = [Fraction(x) for x in r]
        scale = lcm(1, *(x.denominator for x in r))
        work.append([int(x * scale) for x in r])
    cols = len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        b = top[c]
        for i in range(len(work)):
            a = work[i][c]
            if i != r and a != 0:
                row = [b * x - a * y for x, y in zip(work[i], top)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return work[: len(pivots)], pivots


def _residues(rows, char: int) -> list[list[int]]:
    """Each entry as a residue mod char: a Fraction a/b becomes a * b^-1 mod char.

    Raises ValueError for an entry whose denominator char divides.
    """
    out = []
    for r in rows:
        row = []
        for x in r:
            if isinstance(x, Fraction):
                if x.denominator % char == 0:
                    raise ValueError(f"{x} has no residue mod {char}")
                x = x.numerator * pow(x.denominator, -1, char)
            row.append(x % char)
        out.append(row)
    return out


def ref_rank(rows, char: int) -> int:
    """Plain Gaussian elimination rank (partial pivoting by first nonzero)."""
    if not rows:
        return 0
    if char == 0:
        return len(_integer_gauss_jordan(rows)[1])
    work = _residues(rows, char)
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
            f = work[i][c] * pow(pivot, -1, char) % char
            work[i] = [(a - f * b) % char for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def ref_nullspace(rows, cols: int, char: int) -> list[tuple]:
    """Canonical nullspace basis by plain Gauss-Jordan over the integers or residues.

    One vector per free column in ascending order, with a 1 there; the
    pivot entries are the negated reduced-row entries of that column, as
    Fractions over Q.
    """
    if char == 0:
        work, pivots = _integer_gauss_jordan(rows)
        basis = []
        for fc in (c for c in range(cols) if c not in pivots):
            vec = [Fraction(0)] * cols
            vec[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                vec[pc] = Fraction(-work[i][fc], work[i][pc])
            basis.append(tuple(vec))
        return basis
    work = _residues(rows, char)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, char)
        work[r] = [x * inv % char for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [(a - f * b) % char for a, b in zip(work[i], work[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc] % char
        basis.append(tuple(vec))
    return basis


def ref_wcdim(g: Graph, char: int) -> int:
    """n minus the rank of the difference system, all via the reference code."""
    return g.n - ref_rank(_difference_rows(brute_force_mis(g), g.n), char)


def ref_is_well_covered_weighting(g: Graph, w, char: int) -> bool:
    """True iff every maximal independent set has the same w-sum, taken mod char unless it is 0.

    Every set's sum is taken first, over `brute_force_mis`; for char > 0
    they become residues by `_residues`' rule, which raises ValueError if
    one has none, whatever the other sums are.
    """
    sums = [sum((Fraction(w[v]) for v in s), Fraction(0)) for s in brute_force_mis(g)]
    if char:
        sums = _residues([sums], char)[0]
    return len(set(sums)) <= 1


def _indicator(s, n: int) -> list[int]:
    row = [0] * n
    for v in s:
        row[v] = 1
    return row


def _difference_rows(sets, n: int) -> list[list[int]]:
    base = _indicator(sets[0], n)
    return [[x - y for x, y in zip(_indicator(s, n), base)] for s in sets[1:]]


def ref_lex_fibre_dimension(g: Graph, h: Graph, char: int) -> int:
    """wcdim of the lexicographic product g . h from the factors alone.

    A maximal independent set of g . h is a maximal independent set S of g
    with one maximal independent set of h chosen in the fibre over each
    vertex of S.  So a weighting is well-covered exactly when each fibre
    carries a well-covered weighting of h and the fibre sums form a
    well-covered weighting of g.  With a = |V(g)|, b = |V(h)|, n = wcdim(g)
    and m = wcdim(h), the fibre-sum functional on h's space is onto the
    scalars exactly when h's sum system (one 0/1 row per set) has rank
    b - m + 1, giving a(m - 1) + n; otherwise every fibre sum is 0 and the
    fibres are free, giving am.
    """
    a, b = g.n, h.n
    n, m = ref_wcdim(g, char), ref_wcdim(h, char)
    sum_rank = ref_rank([_indicator(t, b) for t in brute_force_mis(h)], char)
    if sum_rank == b - m + 1:
        return a * (m - 1) + n
    return a * m


def ref_uniform_lex_dimension(g: Graph, h: Graph, char: int) -> int:
    """Dimension of the weightings of g . h constant on its uniform sets.

    The uniform sets are S x T for S a maximal independent set of g and T
    one of h: the same h-set in every fibre over S.  Vertex (u, w) of the
    product is u * |V(h)| + w, as in `lex_product`.
    """
    b = h.n
    mis_h = brute_force_mis(h)
    sets = [tuple(u * b + w for u in s for w in t) for s in brute_force_mis(g) for t in mis_h]
    return g.n * b - ref_rank(_difference_rows(sets, g.n * b), char)


def ref_simplicial_cliques(g: Graph) -> list[int]:
    """The simplicial cliques of g as vertex bitmasks, ascending, read off g.masks alone.

    N[v] is a simplicial clique exactly when N(v) is a clique: every u in
    N(v) has N[u] containing N[v].  Twins in one such clique give it once.
    """
    out = set()
    for v, mask in enumerate(g.masks):
        closed = mask | 1 << v
        if all((g.masks[u] | 1 << u) & closed == closed for u in range(g.n) if mask >> u & 1):
            out.add(closed)
    return sorted(out)


def all_graphs(n: int):
    """Every labelled graph on n vertices (use only for tiny n)."""
    from wellcovered import new_graph

    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield new_graph(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])
