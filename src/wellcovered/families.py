"""Deterministic generators for the named graph families under study.

Generators accept parameters below the ranges their dimension formulas
require (a UserWarning is emitted there), so the harness can probe edge
cases; the closed-form predictors in `formulas` enforce the strict ranges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .graphs import Graph, check_vertex_count, new_graph


@dataclass(frozen=True)
class FamilySpec:
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


# kind -> (builder over the params tuple, expected arity; None means any length >= 1)
FAMILY_BUILDERS = {
    "complete": (lambda p: complete(*p), 1),
    "empty": (lambda p: empty_graph(*p), 1),
    "kpartite": (lambda p: complete_multipartite(list(p)), None),
    "turan": (lambda p: turan(*p), 2),
    "crown": (lambda p: crown(*p), 1),
    "path": (lambda p: path(*p), 1),
    "cycle": (lambda p: cycle(*p), 1),
    "gear": (lambda p: gear(*p), 1),
    "petersen": (lambda p: petersen(), 0),
}


def build_family(spec: FamilySpec) -> Graph:
    if spec.kind not in FAMILY_BUILDERS:
        raise InputError(f"unknown graph family {spec.kind!r}")
    builder, arity = FAMILY_BUILDERS[spec.kind]
    if arity is None:
        if not spec.params:
            raise InputError(f"family {spec.kind!r} needs at least one parameter")
    elif len(spec.params) != arity:
        raise InputError(f"family {spec.kind!r} takes {arity} parameter(s), got {len(spec.params)}")
    return builder(spec.params)
