"""Complete enumeration of maximal independent sets, in a canonical order.

A vertex set is maximal independent exactly when it is a maximal clique of
the complement graph, so enumeration runs Bron-Kerbosch with pivoting
(`kernels.maximal_cliques`) over complement adjacency bitmasks.  A greedy
pass would only find some maximal set; the linear systems downstream need
all of them, which is why full clique enumeration is used.  Everything
here reads the graph's own adjacency bitmasks, `Graph.masks`: a
co-adjacency mask is one XOR away, and the decomposition compares
neighbourhoods as integers.

Every enumeration stops at `DEFAULT_MIS_LIMIT` sets (10^6) and raises
CapacityError past it, since the count can be exponential in n.  The
limit is a constant, not a parameter: `_cliques` is the one place that
reads it, for every graph and quotient enumerated here.

`mis_masks` returns the sets as bitmasks in the kernel's depth-first
discovery order.  `enumerate_mis` sorts them into the canonical order
(lexicographic by sorted member lists), so the assembled batch systems are
reproducible byte for byte.

`mis_family` is what the engine streams into its row spaces, whose
canonical basis depends only on the span of the sets: the exact set count
and a few sets spanning the same affine hull as all of them, found by
modular decomposition.  If X is a module of G (every vertex outside X sees
all of X or none of it) and Q is G with X contracted to a vertex x, the
maximal independent sets of G are those of Q without x, and those of Q
with x replaced by any maximal independent set of G[X].  So the sets of
G[X], plus those of Q with x replaced by one fixed set of G[X], span the
sets of G, and the count is a sum over the sets of Q of the product of
the counts of their modules (Gallai 1967).  The well-coveredness tests
below sum over that family alone, so they answer wherever the engine does.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import kernels
from .errors import CapacityError, InputError
from .exactlin import FieldSpec, Scalar
from .graphs import Graph, bits
from .records import Record

# the bound every enumeration uses; read only by `_cliques`, at call time
DEFAULT_MIS_LIMIT = 10**6


class MisList(Record):
    """All maximal independent sets of a graph, canonically ordered."""

    _fields = ("sets", "graph_n")
    sets: tuple[tuple[int, ...], ...]
    graph_n: int

    def __init__(self, sets: tuple[tuple[int, ...], ...], graph_n: int) -> None:
        self.__dict__.update(sets=sets, graph_n=graph_n)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sets)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.sets[i]


def _cliques(co_masks: list[int], within: int, what: str) -> list[int]:
    limit = DEFAULT_MIS_LIMIT
    try:
        return kernels.maximal_cliques(co_masks, limit, within)
    except ValueError as exc:
        raise CapacityError(f"{what} has more than {limit} maximal independent sets") from exc


def mis_masks(g: Graph) -> list[int]:
    """Every maximal independent set of g as a vertex bitmask, in discovery order.

    Raises CapacityError if the count exceeds DEFAULT_MIS_LIMIT.
    """
    full = (1 << g.n) - 1
    co_masks = [full ^ mask ^ 1 << v for v, mask in enumerate(g.masks)]
    return _cliques(co_masks, full, "graph")


def _parts(adj: tuple[int, ...], s: int, flip: int) -> list[int]:
    """Components of G[s] (flip 0) or its complement (flip -1); a search ends once it covers s."""
    parts = []
    while s:
        part = frontier = s & -s
        while frontier and part != s:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1] ^ flip
                frontier ^= low
            frontier = reach & s & ~part
            part |= frontier
        parts.append(part)
        s ^= part
    return parts


def _twin(adj: tuple[int, ...], s: int, r: int) -> int:
    """The lowest twin of r in G[s] (same neighbours apart from each other), or -1."""
    ar = adj[r] & s
    rbit = 1 << r
    m = s ^ rbit
    while m:
        low = m & -m
        u = low.bit_length() - 1
        if not ((adj[u] & s) ^ ar) & ~(low | rbit):
            return u
        m ^= low
    return -1


def _contract(
    r: int, u: int, adj: tuple[int, ...], count: list[int], family: list[list[int]],
) -> None:
    """Merge the count and family of u's module into those of its twin r."""
    fr, fu = family[r], family[u]
    if adj[r] >> u & 1:  # adjacent modules: each set lies in one of them
        count[r] += count[u]
        family[r] = fr + fu
    else:  # each set meets both; vary one module at a time from both first sets
        count[r] *= count[u]
        family[r] = [fr[0] | fu[0]] + [t | fu[0] for t in fr[1:]] + [t | fr[0] for t in fu[1:]]
    family[u] = []


def _merge_twins(adj: tuple[int, ...], s: int, count: list[int], family: list[list[int]]) -> int:
    """Contract twin modules of G[s] until none is left; returns what is left of s.

    On the whole graph the masks already are the open keys, so a twin-free graph builds no list.
    """
    if s.bit_count() == len(adj) == len(set(adj)) == len({a | 1 << v for v, a in enumerate(adj)}):
        return s
    verts = bits(s)
    keys = [adj[v] & s for v in verts]
    keys += [k | 1 << v for k, v in zip(keys, verts)]
    # an open key never equals a closed one, so one dict holds both kinds;
    # each vertex is contracted into the first one with its key
    first: dict[int, int] = {}
    grown: dict[int, None] = {}
    for k, v in zip(keys, verts + verts):
        r = first.setdefault(k, v)
        if r != v:
            _contract(r, v, adj, count, family)
            s ^= 1 << v
            grown[r] = None
    # contracting u into its twin r keeps every other pair's difference
    # (u and r differ only on each other), so a new twin pair contains r
    work = list(grown)
    while work:
        r = work.pop()
        u = _twin(adj, s, r) if s >> r & 1 else -1
        if u >= 0:
            _contract(r, u, adj, count, family)
            s ^= 1 << u
            work.append(r)
    return s


def mis_family(g: Graph) -> tuple[int, list[int], int]:
    """(exact count, spanning family, pieces enumerated) of g's maximal independent sets.

    The family is a list of maximal independent sets of g with the same
    affine hull as all of them, so it spans the same difference rows.
    Modules are twin classes (same open or closed neighbourhood), connected
    components and co-components, found again on every quotient until none
    is left; each module is contracted to one of its vertices, which then
    carries the count and family of the subgraph it stands for.  Only the
    quotients with no module left are enumerated, and DEFAULT_MIS_LIMIT
    applies to each of them (CapacityError); the count itself is unbounded.
    A graph with no module gets exactly `mis_masks(g)` back, in the same order.
    """
    n = g.n
    if n < 2:
        masks = mis_masks(g)
        return len(masks), masks, 1
    adj = g.masks
    full = (1 << n) - 1
    co_masks = [full ^ a ^ 1 << v for v, a in enumerate(adj)]
    count = [1] * n
    family = [[1 << v] for v in range(n)]
    alive = full
    pieces = 0
    # modules still to contract, innermost last; the work list stands in for
    # recursion, since a cograph's decomposition can be n levels deep
    stack = [full]
    while stack:
        s = _merge_twins(adj, stack[-1] & alive, count, family)
        alive &= ~stack[-1] | s
        if not s & (s - 1):
            stack.pop()
            continue
        parts = _parts(adj, s, 0)
        if len(parts) == 1:
            parts = _parts(adj, s, -1)
        if len(parts) > 1:
            # contract each part, then come back to s, whose parts are then twins
            stack += [part for part in parts if part & (part - 1)]
            continue
        pieces += 1
        if s == full:  # nothing contracted: the family is every set
            masks = _cliques(co_masks, s, "graph")
            return len(masks), masks, pieces
        total = 0
        out = []
        # modules with more than one set, varied in the first set of Q that holds them
        unvaried = sum(1 << v for v in bits(s) if len(family[v]) > 1)
        for q in _cliques(co_masks, s, "an enumerated quotient of the graph"):
            base = 0
            c = 1
            for v in bits(q):
                base |= family[v][0]
                c *= count[v]
            total += c
            out.append(base)
            for v in bits(q & unvaried):
                fam = family[v]
                out += [base ^ fam[0] | t for t in fam[1:]]
            unvaried &= ~q
        r = (s & -s).bit_length() - 1
        count[r] = total
        family[r] = out
        alive &= ~s | 1 << r
        stack.pop()
    r = alive.bit_length() - 1
    return count[r], family[r], pieces


def enumerate_mis(g: Graph) -> MisList:
    """Every maximal independent set of g, sorted canonically.

    The zero-vertex graph has exactly one maximal independent set, the empty
    set.  Raises CapacityError if the count exceeds DEFAULT_MIS_LIMIT.
    """
    masks = mis_masks(g)
    sets = sorted(tuple(v for v in range(g.n) if mask >> v & 1) for mask in masks)
    return MisList(tuple(sets), g.n)


def _vertex_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n = {g.n}")
        mask |= 1 << v
    return mask


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two members of s are adjacent in g."""
    mask = _vertex_mask(g, s)
    return not any(g.masks[v] & mask for v in bits(mask))


def is_maximal_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is independent and no vertex outside s can be added."""
    mask = _vertex_mask(g, s)
    if any(g.masks[v] & mask for v in bits(mask)):
        return False
    return all(mask >> v & 1 or g.masks[v] & mask for v in range(g.n))


def is_well_covered_weighting(g: Graph, w: Sequence[Scalar], f: FieldSpec = FieldSpec(0)) -> bool:
    """True iff every maximal independent set of g has the same w-sum in f.

    The weights must be ints or Fractions, so the sums are exact.  Only the
    sets of `mis_family` are summed: every maximal independent set is an
    affine combination of them with integer coefficients, so their sums
    agree exactly when all sums do, over Q and over every GF(p), and one of
    them has no residue mod p exactly when some set's sum has none; that
    raises InputError, as every sum is taken before any is compared.
    """
    from fractions import Fraction

    if len(w) != g.n:
        raise InputError(f"weight vector length {len(w)} != n = {g.n}")
    for x in w:
        if not isinstance(x, (int, Fraction)):
            raise InputError(f"weights must be ints or Fractions, got {x!r}")
    sums = {sum(w[v] for v in bits(m)) for m in mis_family(g)[1]}
    if p := f.characteristic:  # an int's denominator is 1
        for t in sums:
            if t.denominator % p == 0:
                raise InputError(f"weight sum {t} has no residue mod {p}")
        sums = {t.numerator * pow(t.denominator, -1, p) % p for t in sums}
    return len(sums) <= 1


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets of g share one cardinality (all-ones over Q)."""
    return is_well_covered_weighting(g, [1] * g.n)
