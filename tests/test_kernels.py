import random
import sys

import pytest

from wellcovered import kernels
from wellcovered import _kernels_py
from wellcovered.graphs import random_graph
from wellcovered.mis import enumerate_mis

from helpers import brute_force_mis

try:
    from wellcovered import _speedups
except ImportError:
    _speedups = None

lanes = [_kernels_py] + ([_speedups] if _speedups is not None else [])


def complement_masks(g):
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        m = 0
        for u in g.adj[v]:
            m |= 1 << u
        out.append(full & ~m & ~(1 << v))
    return out


def test_a_lane_was_selected():
    assert kernels.IMPLEMENTATION in ("c", "python")


@pytest.mark.skipif(_speedups is None, reason="compiled lane not built")
def test_lanes_agree_on_cliques():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph(rng.randint(0, 12), 0.5, rng.randrange(10**6))
        masks = complement_masks(g)
        a = sorted(_kernels_py.maximal_cliques(masks, 10**6))
        b = sorted(_speedups.maximal_cliques(masks, 10**6))
        assert a == b


@pytest.mark.skipif(_speedups is None, reason="compiled lane not built")
def test_lanes_agree_on_gf_rank():
    rng = random.Random(2)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = [rng.randint(-20, 20) for _ in range(rows * cols)]
        for p in (2, 3, 10007):
            assert _kernels_py.gf_rank(entries, rows, cols, p) == _speedups.gf_rank(
                entries, rows, cols, p
            )


@pytest.mark.parametrize("lane", lanes, ids=lambda m: m.IMPLEMENTATION)
def test_limit_enforced(lane):
    g = random_graph(9, 0.5, 4)
    masks = complement_masks(g)
    count = len(lane.maximal_cliques(masks, 10**6))
    assert count > 1
    with pytest.raises(ValueError):
        lane.maximal_cliques(masks, count - 1)


@pytest.mark.skipif(_speedups is None, reason="compiled lane not built")
def test_compiled_lane_refuses_wide_graphs():
    with pytest.raises(ValueError):
        _speedups.maximal_cliques([0] * 65, 10)


def test_dispatch_handles_more_than_64_vertices():
    # the selector must route wide graphs to the pure lane transparently
    from wellcovered.families import empty_graph

    g = empty_graph(70)
    assert enumerate_mis(g).sets == (tuple(range(70)),)


def test_zero_vertex_clique_enumeration():
    for lane in lanes:
        assert lane.maximal_cliques([], 10) == [0]


def mask_to_tuple(mask, n):
    return tuple(v for v in range(n) if mask >> v & 1)


@pytest.mark.parametrize("lane", lanes, ids=lambda m: m.IMPLEMENTATION)
def test_cliques_match_brute_force_mis(lane):
    # maximal cliques of the complement are the maximal independent sets
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 11)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6))
        got = sorted(mask_to_tuple(m, n) for m in lane.maximal_cliques(complement_masks(g), 10**6))
        assert got == brute_force_mis(g)


def test_pure_lane_has_no_recursion_depth_limit():
    # the edgeless graph's complement is complete: one clique, found at depth n
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    masks = [full & ~(1 << v) for v in range(n)]
    assert _kernels_py.maximal_cliques(masks, 10) == [full]


def test_pure_lane_limit_contract():
    g = random_graph(12, 0.4, 6)
    masks = complement_masks(g)
    cliques = _kernels_py.maximal_cliques(masks, 10**6)
    assert len(cliques) == len(set(cliques)) > 2
    assert _kernels_py.maximal_cliques(masks, len(cliques)) == cliques
    with pytest.raises(ValueError):
        _kernels_py.maximal_cliques(masks, len(cliques) - 1)
