"""Deterministic generators for the named graph families under study, and
the graphs built from other graphs.

Generators accept parameters below the ranges their dimension formulas
require (a UserWarning is emitted there), so the harness can probe edge
cases; the closed-form predictors in `formulas` enforce the strict ranges.

The constructions on graphs (`complement`, `disjoint_union`, `blowup`,
`multi_blowup`, `lex_product`, `disjunctive_product`) and `random_graph`
serve the verify harness and the tests; no `compute` runs them, so they
load here, with the families, and not with `import wellcovered`.  A
construction that adds vertices keeps every old label and appends the new
ones: `blowup` keeps v and puts its new twins after vertex n - 1, so
`multi_blowup` labels its result as `blowup` folded over the original
vertices would.
"""

from __future__ import annotations

import random
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import InputError
from .graphs import Graph, bits, check_vertex_count, new_graph

if TYPE_CHECKING:
    from fractions import Fraction


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
