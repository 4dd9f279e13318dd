"""Immutable simple undirected graphs: the `Graph` record, its checks, `new_graph` and `relabel`.

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask
per vertex: bit u of `masks[v]` is set exactly when u and v are adjacent.
This is the form every consumer works in: the clique kernel branches on
`P & masks[v]`, the modular decomposition compares neighbourhoods as
integers, and every construction shifts and ORs whole masks.
The neighbour sets of `Graph.adj` are only a derived view, built on first
use, for the tests and their brute-force oracle.

Outside data is checked once, where it enters: `new_graph` checks its edge
list, the edge-list parser in `cli` checks every edge, and the public
`Graph(n, masks)` constructor checks the masks it is given.  The package's
own constructions, the named families and the graphs built from other
graphs (`complement`, `disjoint_union`, `blowup`, `multi_blowup`,
`lex_product`, `disjunctive_product`, `random_graph`), live in `families`,
which `import wellcovered` does not load; they are symmetric and loop-free
by construction and build their result with `Graph.unchecked`, without a
second pass over the edges.

Every graph has at most `MAX_VERTICES` vertices; larger inputs raise
CapacityError before anything per vertex is allocated.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapacityError, InputError
from .records import Record

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
