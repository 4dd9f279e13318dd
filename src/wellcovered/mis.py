"""Complete enumeration of maximal independent sets, in a canonical order.

A vertex set is maximal independent exactly when it is a maximal clique of
the complement graph, so enumeration runs Bron-Kerbosch with pivoting
(`kernels.maximal_cliques`) over complement adjacency bitmasks.  A greedy
pass would only find some maximal set; the linear systems downstream need
all of them, which is why full clique enumeration is used.

`mis_masks` returns the sets as bitmasks in the kernel's depth-first
discovery order; the engine streams those into its row spaces, whose
canonical basis does not depend on the order.  `enumerate_mis` sorts them
into the canonical order (lexicographic by sorted member lists), so the
assembled batch systems are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import kernels
from .errors import CapacityError, InputError
from .graphs import Graph

DEFAULT_MIS_LIMIT = 10**6


@dataclass(frozen=True)
class MisList:
    """All maximal independent sets of a graph, canonically ordered."""

    sets: tuple[tuple[int, ...], ...]
    graph_n: int

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sets)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.sets[i]


def mis_masks(g: Graph, limit: int = DEFAULT_MIS_LIMIT) -> list[int]:
    """Every maximal independent set of g as a vertex bitmask, in discovery order.

    Raises CapacityError if the count exceeds `limit` (the count can be
    exponential in n, so unbounded enumeration would be a foot-gun).
    """
    co_masks = []
    full = (1 << g.n) - 1
    for v in range(g.n):
        mask = 0
        for u in g.adj[v]:
            mask |= 1 << u
        co_masks.append(full & ~mask & ~(1 << v))
    try:
        return kernels.maximal_cliques(co_masks, limit)
    except ValueError as exc:
        raise CapacityError(
            f"graph has more than {limit} maximal independent sets"
        ) from exc


def enumerate_mis(g: Graph, limit: int = DEFAULT_MIS_LIMIT) -> MisList:
    """Every maximal independent set of g, sorted canonically.

    The zero-vertex graph has exactly one maximal independent set, the empty
    set.  Raises CapacityError if the count exceeds `limit`.
    """
    masks = mis_masks(g, limit)
    sets = sorted(tuple(v for v in range(g.n) if mask >> v & 1) for mask in masks)
    return MisList(tuple(sets), g.n)


def _check_vertices(g: Graph, s: Iterable[int]) -> list[int]:
    members = list(s)
    for v in members:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n = {g.n}")
    return members


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two members of s are adjacent in g."""
    members = _check_vertices(g, s)
    mset = set(members)
    return all(not (g.adj[v] & mset) for v in mset)


def is_maximal_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is independent and no vertex outside s can be added."""
    members = _check_vertices(g, s)
    mset = set(members)
    if any(g.adj[v] & mset for v in mset):
        return False
    return all(v in mset or (g.adj[v] & mset) for v in range(g.n))


def is_well_covered(g: Graph, limit: int = DEFAULT_MIS_LIMIT) -> bool:
    """True iff all maximal independent sets of g share one cardinality."""
    return len({len(s) for s in enumerate_mis(g, limit)}) <= 1
