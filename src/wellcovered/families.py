"""Deterministic generators for the named graph families under study.

Generators accept parameters below the ranges their dimension formulas
require (a UserWarning is emitted there), so the harness can probe edge
cases; the closed-form predictors in `formulas` enforce the strict ranges.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple, Sequence

from .errors import InputError
from .graphs import Graph, check_vertex_count, new_graph


class FamilySpec(NamedTuple):
    """A named family instance, e.g. FamilySpec('crown', (5,))."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def _cycle_masks(n: int) -> list[int]:
    """Masks of the cycle 0-1-...-(n-1)-0, for n >= 3."""
    return [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    check_vertex_count(n)
    full = (1 << n) - 1
    return Graph.unchecked(n, tuple(full ^ 1 << v for v in range(n)))


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise InputError(f"empty graph needs n >= 1, got {n}")
    check_vertex_count(n)
    return Graph.unchecked(n, (0,) * n)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Blocks occupy contiguous index ranges in input order; edges join distinct blocks."""
    if not sizes or any(s < 1 for s in sizes):
        raise InputError(f"block sizes must be a nonempty list of positive ints, got {list(sizes)}")
    n = sum(sizes)
    check_vertex_count(n)
    full = (1 << n) - 1
    masks: list[int] = []
    for s in sizes:
        others = full ^ ((1 << s) - 1) << len(masks)
        masks += [others] * s
    return Graph.unchecked(n, tuple(masks))


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with block sizes as equal as possible."""
    return complete_multipartite(turan_block_sizes(n, r))


def turan_block_sizes(n: int, r: int) -> list[int]:
    if r < 1 or r > n:
        raise InputError(f"turan graph needs 1 <= r <= n, got n={n}, r={r}")
    check_vertex_count(n)
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def crown(n: int) -> Graph:
    """Complete bipartite graph K_{n,n} minus a perfect matching.

    Parts are {0..n-1} and {n..2n-1}; i is adjacent to n+j exactly when i != j.
    """
    if n < 1:
        raise InputError(f"crown graph needs n >= 1, got {n}")
    check_vertex_count(2 * n)
    if n < 3:
        warnings.warn(f"crown({n}) is below the range n >= 3 of its dimension formula")
    side = (1 << n) - 1
    left = [(side ^ 1 << i) << n for i in range(n)]
    right = [side ^ 1 << j for j in range(n)]
    return Graph.unchecked(2 * n, tuple(left + right))


def path(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path needs n >= 1, got {n}")
    check_vertex_count(n)
    masks = ((1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0) for v in range(n))
    return Graph.unchecked(n, tuple(masks))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    check_vertex_count(n)
    return Graph.unchecked(n, tuple(_cycle_masks(n)))


def gear(n: int) -> Graph:
    """Rim vertices 0..2n-1 in a cycle; hub 2n adjacent to the even rim vertices."""
    if n < 3:
        raise InputError(f"gear graph needs n >= 3, got {n}")
    hub = 2 * n
    check_vertex_count(hub + 1)
    masks = _cycle_masks(hub)
    for i in range(0, hub, 2):
        masks[i] |= 1 << hub
    masks.append(sum(1 << i for i in range(0, hub, 2)))
    return Graph.unchecked(hub + 1, tuple(masks))


def petersen() -> Graph:
    """Standard Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes i..5+i."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges.extend((5 + i, 5 + (i + 2) % 5) for i in range(5))
    edges.extend((i, 5 + i) for i in range(5))
    return new_graph(10, edges)


class FamilyBuilder(NamedTuple):
    """One family kind: how to build it and how `wellcovered families` lists it."""

    build: Callable[[tuple[int, ...]], Graph]
    arity: int | None  # parameter count; None means any length >= 1
    params: str  # the parameters as written after "kind:" in a spec
    about: str


FAMILY_BUILDERS = {
    "complete": FamilyBuilder(lambda p: complete(*p), 1, "n", "complete graph on n vertices"),
    "empty": FamilyBuilder(lambda p: empty_graph(*p), 1, "n", "edgeless graph on n vertices"),
    "kpartite": FamilyBuilder(
        lambda p: complete_multipartite(list(p)), None, "s1,s2,...",
        "complete multipartite graph with the given block sizes",
    ),
    "turan": FamilyBuilder(
        lambda p: turan(*p), 2, "n,r",
        "Turan graph: r blocks on n vertices, sizes as equal as possible",
    ),
    "crown": FamilyBuilder(
        lambda p: crown(*p), 1, "n", "complete bipartite K_{n,n} minus a perfect matching",
    ),
    "path": FamilyBuilder(lambda p: path(*p), 1, "n", "path on n vertices"),
    "cycle": FamilyBuilder(lambda p: cycle(*p), 1, "n", "cycle on n vertices (n >= 3)"),
    "gear": FamilyBuilder(
        lambda p: gear(*p), 1, "n", "2n-cycle plus a hub adjacent to the even rim vertices",
    ),
    "petersen": FamilyBuilder(lambda p: petersen(), 0, "", "the Petersen graph"),
}


def build_family(spec: FamilySpec) -> Graph:
    if spec.kind not in FAMILY_BUILDERS:
        raise InputError(f"unknown graph family {spec.kind!r}")
    family = FAMILY_BUILDERS[spec.kind]
    arity = family.arity
    if arity is None:
        if not spec.params:
            raise InputError(f"family {spec.kind!r} needs at least one parameter")
    elif len(spec.params) != arity:
        raise InputError(f"family {spec.kind!r} takes {arity} parameter(s), got {len(spec.params)}")
    return family.build(spec.params)
