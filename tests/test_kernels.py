import random
import sys

import pytest

from wellcovered import kernels
from wellcovered.graphs import random_graph
from wellcovered.mis import enumerate_mis

from helpers import brute_force_mis


def complement_masks(g):
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        m = 0
        for u in g.adj[v]:
            m |= 1 << u
        out.append(full & ~m & ~(1 << v))
    return out


def test_limit_enforced():
    g = random_graph(9, 0.5, 4)
    masks = complement_masks(g)
    count = len(kernels.maximal_cliques(masks, 10**6))
    assert count > 1
    with pytest.raises(ValueError):
        kernels.maximal_cliques(masks, count - 1)


def test_more_than_64_vertices():
    # vertex sets are Python integers, so no word size bounds the graph
    from wellcovered.families import empty_graph

    g = empty_graph(70)
    assert enumerate_mis(g).sets == (tuple(range(70)),)


def test_zero_vertex_clique_enumeration():
    assert kernels.maximal_cliques([], 10) == [0]


def mask_to_tuple(mask, n):
    return tuple(v for v in range(n) if mask >> v & 1)


def test_cliques_match_brute_force_mis():
    # maximal cliques of the complement are the maximal independent sets
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 11)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6))
        got = sorted(
            mask_to_tuple(m, n) for m in kernels.maximal_cliques(complement_masks(g), 10**6)
        )
        assert got == brute_force_mis(g)


def test_pure_lane_has_no_recursion_depth_limit():
    # the edgeless graph's complement is complete: one clique, found at depth n
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    masks = [full & ~(1 << v) for v in range(n)]
    assert kernels.maximal_cliques(masks, 10) == [full]


def test_pure_lane_limit_contract():
    g = random_graph(12, 0.4, 6)
    masks = complement_masks(g)
    cliques = kernels.maximal_cliques(masks, 10**6)
    assert len(cliques) == len(set(cliques)) > 2
    assert kernels.maximal_cliques(masks, len(cliques)) == cliques
    with pytest.raises(ValueError):
        kernels.maximal_cliques(masks, len(cliques) - 1)
