"""Immutable simple undirected graphs and the constructions built on them.

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask
per vertex: bit u of `masks[v]` is set exactly when u and v are adjacent.
This is the form every consumer works in: the clique kernel branches on
`P & masks[v]`, the modular decomposition compares neighbourhoods as
integers, and every construction here shifts and ORs whole masks.
The neighbour sets of `Graph.adj` are only a derived view, built on first
use, for the tests and their brute-force oracle.

Outside data is checked once, where it enters: `new_graph` checks its edge
list, the edge-list parser in `cli` checks every edge, and the public
`Graph(n, masks)` constructor checks the masks it is given.  The package's
own constructions are symmetric and loop-free by construction and build
their result with `Graph.unchecked`, without a second pass over the edges.
A construction that adds vertices keeps every old label and appends the
new ones: `blowup` keeps v and puts its new twins after vertex n - 1, so
`multi_blowup` labels its result as `blowup` folded over the original
vertices would.

Every graph has at most `MAX_VERTICES` vertices; larger inputs raise
CapacityError before anything per vertex is allocated.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CapacityError, InputError
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction

# Enumeration keeps n co-adjacency masks of n bits each: n^2 bits, which is
# 32 MB at this bound.  A vertex count above it is refused before any
# per-vertex allocation, so an impossible header fails at once instead of
# running the process out of memory.
MAX_VERTICES = 1 << 14


def check_vertex_count(n: int, what: str = "graph") -> None:
    """Raise CapacityError if a graph on n vertices would exceed MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise CapacityError(f"{what} has {n} vertices; at most {MAX_VERTICES} are supported")


def bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph(Record):
    """Simple undirected graph: no loops, no multi-edges, symmetric adjacency.

    `masks[v]` is the bitmask of v's neighbours.  The constructor checks that
    every mask lies within 0..n-1, has no loop and is mirrored by the masks
    of its members, and raises InputError otherwise.  The repr lists the
    neighbour sets, which read more easily than n-bit integers.
    """

    _fields = ("n", "masks")
    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, masks: Sequence[int]) -> None:
        masks = tuple(masks)
        if n < 0 or len(masks) != n:
            raise InputError(f"adjacency length {len(masks)} != n = {n}")
        for v, mask in enumerate(masks):
            if not isinstance(mask, int) or mask < 0:
                raise InputError(f"adjacency of vertex {v} is not a non-negative bitmask: {mask!r}")
            if mask >> n:
                raise InputError(f"neighbour {mask.bit_length() - 1} of vertex {v} out of range")
            if mask >> v & 1:
                raise InputError(f"self-loop at vertex {v}")
            for u in bits(mask):
                if not masks[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        self.__dict__.update(n=n, masks=masks)

    @classmethod
    def unchecked(cls, n: int, masks: tuple[int, ...]) -> Graph:
        """A graph on masks its caller has already made valid, built without checking.

        For the package's own constructions and the parser, which establish
        the invariants as they build; outside data goes through `Graph(n,
        masks)` or `new_graph`.
        """
        g = object.__new__(cls)
        d = g.__dict__
        d["n"] = n
        d["masks"] = masks
        return g

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets, derived from the masks on first use."""
        return tuple(frozenset(bits(mask)) for mask in self.masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, adj={self.adj!r})"

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and bool(self.masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (u, v) pairs with u < v."""
        return [(u, v) for u, mask in enumerate(self.masks) for v in bits(mask >> u << u)]

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; edges are symmetrised and deduplicated."""
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    check_vertex_count(n)
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n = {n}")
        if u == v:
            raise InputError(f"self-loop ({u}, {v}) not allowed")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.unchecked(n, tuple(masks))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: vertex v of g becomes perm[v] of the result."""
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm is not a permutation of the vertex range")
    masks = [0] * g.n
    for v, mask in enumerate(g.masks):
        out = 0
        for u in bits(mask):
            out |= 1 << perm[u]
        masks[perm[v]] = out
    return Graph.unchecked(g.n, tuple(masks))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph.unchecked(g.n, tuple(full ^ mask ^ 1 << v for v, mask in enumerate(g.masks)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are re-indexed by offset |V(g)|."""
    check_vertex_count(g.n + h.n)
    return Graph.unchecked(g.n + h.n, g.masks + tuple(mask << g.n for mask in h.masks))


def blowup(g: Graph, v: int, t: int) -> Graph:
    """Replace vertex v by an independent set of t twins sharing v's neighbourhood.

    Every label is kept: v is the first twin, and the t - 1 new ones take
    n, ..., n + t - 2.  So t = 1 gives g back.
    """
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n = {g.n}")
    if t < 1:
        raise InputError(f"blowup size must be positive, got {t}")
    n = g.n
    check_vertex_count(n + t - 1)
    twins = ((1 << (t - 1)) - 1) << n
    masks = tuple(mask | twins if mask >> v & 1 else mask for mask in g.masks)
    return Graph.unchecked(n + t - 1, masks + (g.masks[v],) * (t - 1))


def multi_blowup(g: Graph, ts: Sequence[int]) -> Graph:
    """Blow up every original vertex v into ts[v] twins: `blowup` folded over
    the original vertices in ascending order.  Every blowup only appends, so
    each original vertex keeps its label, and the new twins of v follow
    those of every lower vertex.

    Built in one pass rather than by the fold: v's class is v with its new
    twins, each original mask is the union of its neighbours' classes, and
    each twin copies its vertex's mask.
    """
    n = g.n
    if len(ts) != n:
        raise InputError(f"expected {n} blowup sizes, got {len(ts)}")
    if any(t < 1 for t in ts):
        raise InputError("blowup sizes must all be positive")
    check_vertex_count(sum(ts))
    classes = []
    start = n  # the label of v's first new twin
    for v, t in enumerate(ts):
        classes.append(1 << v | ((1 << (t - 1)) - 1) << start)
        start += t - 1
    masks = []
    for mask in g.masks:
        out = 0
        for u in bits(mask):
            out |= classes[u]
        masks.append(out)
    for v, t in enumerate(ts):
        masks += [masks[v]] * (t - 1)
    return Graph.unchecked(len(masks), tuple(masks))


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: vertex (u, w) is flattened to u * |V(h)| + w;
    (u, w) ~ (u', w') iff uu' is an edge of g, or u = u' and ww' is an edge of h."""
    b = h.n
    check_vertex_count(g.n * b)
    block = (1 << b) - 1
    masks = []
    for u, mask in enumerate(g.masks):
        outer = 0
        for u2 in bits(mask):
            outer |= block << u2 * b
        masks += [outer | inner << u * b for inner in h.masks]
    return Graph.unchecked(g.n * b, tuple(masks))


def disjunctive_product(g: Graph, h: Graph) -> Graph:
    """Disjunctive product, labelled as `lex_product`: (u, w) ~ (u', w') iff uu'
    is an edge of g or ww' is an edge of h.  So it is lex_product(g, h) with
    each (u, w) also joined to (u', w') for every u' and every neighbour w' of w."""
    b = h.n
    lex = lex_product(g, h)
    every = sum(1 << u * b for u in range(g.n))  # the lowest vertex of each copy of h
    masks = tuple(m | h.masks[v % b] * every for v, m in enumerate(lex.masks))
    return Graph.unchecked(lex.n, masks)


def random_graph(n: int, edge_prob: Fraction | float | int, seed: int) -> Graph:
    """Erdos-Renyi style graph with an exactly rational edge probability.

    The pseudorandom stream is fully determined by the seed, so identical
    (n, edge_prob, seed) triples always produce identical graphs.
    """
    from fractions import Fraction

    p = edge_prob if isinstance(edge_prob, Fraction) else Fraction(edge_prob)
    num, den = p.numerator, p.denominator
    if not 0 <= num <= den:
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    check_vertex_count(n)
    # each pair draws what rng.randrange(den) draws: k-bit words until one
    # is below den, with k and the bound method looked up once
    k = den.bit_length()
    draw = random.Random(seed).getrandbits
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            r = draw(k)
            while r >= den:
                r = draw(k)
            if r < num:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Graph.unchecked(n, tuple(masks))
