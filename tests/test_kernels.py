import hashlib
import random
import sys

import pytest

from wellcovered import kernels
from wellcovered.families import crown, cycle, petersen
from wellcovered.graphs import lex_product, random_graph
from wellcovered.mis import enumerate_mis

from helpers import all_graphs, brute_force_mis, ref_maximal_cliques, ref_rank


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


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_edgeless_graph_reads_each_adjacency_a_bounded_number_of_times():
    # the complement is complete: a chain of n nested states, one per vertex,
    # and the pivot scan stops at the first vertex, which has |P| - 1
    # candidate neighbours; rescanning P at every state costs about n^2 / 2
    n = 2000
    full = (1 << n) - 1
    masks = CountingList(full & ~(1 << v) for v in range(n))
    assert kernels.maximal_cliques(masks, 10) == [full]
    assert masks.reads <= 3 * n


@pytest.mark.parametrize("k", [3, 10, 40, 160, 300])
def test_crown_complement_reads_a_linear_number_of_masks(k):
    # crown(k)'s complement is two k-cliques joined by a perfect matching.
    # The scan stops at the first vertex that sees |P| - 1 of P, which each
    # of its ~k states reaches early; a scan of all of P | X at each of
    # them costs about k^2 reads
    masks = CountingList(complement_masks(crown(k)))
    assert len(kernels.maximal_cliques(masks, 10**6)) == k + 2
    assert masks.reads <= 16 * k


# sha256 of the clique lists, in discovery order, of the complements of
# random_graph(n, p, 7000 + n) for n = 0..32, one line per graph; recorded
# before the pivot scan learned to stop early, which must change neither the
# lists nor their order
CLIQUE_LIST_DIGESTS = {
    0.1: "d0d7380d0b9487538cdd9270412ddf8057e32d96cd376ff0b1ab17e59dbf2806",
    0.3: "09ff546a3fe83795b4dce1d9713cec1263a96f05a774c02800bd84e792edcf11",
    0.5: "c3ed303185f999f5298d9c18896d93da57a2ca0677271814eeae1a16e0a1af05",
    0.8: "f2260459c6262845144b2894aa7004b2d484287719cf53be38f507051fd908fe",
}


@pytest.mark.parametrize("p", sorted(CLIQUE_LIST_DIGESTS))
def test_clique_lists_keep_their_discovery_order(p):
    h = hashlib.sha256()
    for n in range(33):
        cliques = kernels.maximal_cliques(complement_masks(random_graph(n, p, 7000 + n)), 10**6)
        h.update((" ".join(map(str, cliques)) + "\n").encode())
    assert h.hexdigest() == CLIQUE_LIST_DIGESTS[p]


def test_cliques_match_the_recursive_oracle_on_every_small_graph():
    # a state with at most two candidates is settled in place; what it emits,
    # and in which order, must be what expanding it in full emits
    for n in range(6):
        for g in all_graphs(n):
            masks = complement_masks(g)
            assert kernels.maximal_cliques(masks, 10**6) == ref_maximal_cliques(masks)


def test_cliques_match_the_recursive_oracle_on_crowns_and_lex_products():
    # the scan stops at |P| - 1 in many of these states (the random graphs
    # below also reach states where it passes over a vertex of X that sees
    # all of P, and must open only states that emit nothing)
    graphs = [crown(k) for k in range(3, 25)]
    graphs += [lex_product(cycle(5), cycle(5)), lex_product(petersen(), cycle(5))]
    for g in graphs:
        masks = complement_masks(g)
        assert kernels.maximal_cliques(masks, 10**6) == ref_maximal_cliques(masks)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_cliques_match_the_recursive_oracle_in_order(p):
    # unlike the graphs above, these reach every settled state with X nonempty,
    # such as an adjacent pair that one vertex of X sees both of
    for n in range(41):
        for seed in (8000 + n, 9000 + n):
            masks = complement_masks(random_graph(n, p, seed))
            assert kernels.maximal_cliques(masks, 10**6) == ref_maximal_cliques(masks)


def test_within_matches_the_relabelled_induced_subgraph():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(0, 14)
        masks = complement_masks(random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6)))
        picks = [0, rng.getrandbits(n)]
        if n:
            picks += [1 << rng.randrange(n), sum(1 << v for v in rng.sample(range(n), min(n, 2)))]
        for s in picks:
            verts = [v for v in range(n) if s >> v & 1]
            sub = [sum(1 << j for j, u in enumerate(verts) if masks[v] >> u & 1) for v in verts]
            want = [
                sum(1 << verts[j] for j in range(len(verts)) if c >> j & 1)
                for c in kernels.maximal_cliques(sub, 10**6)
            ]
            assert kernels.maximal_cliques(masks, 10**6, within=s) == want


# random_graph(n, p, seed) whose complement's last settled state emits two
# cliques at once (a non-adjacent candidate pair that X sees neither of)
LAST_STATE_EMITS_TWO = [(9, 0.2, 0), (11, 0.2, 3), (12, 0.4, 3)]


def test_limit_contract_at_every_limit():
    # [0, 0]: two non-adjacent vertices, so the root itself settles with two cliques
    cases = [[], [0, 0], complement_masks(random_graph(9, 0.5, 4))]
    cases += [complement_masks(random_graph(12, 0.4, 6))]
    cases += [complement_masks(random_graph(*args)) for args in LAST_STATE_EMITS_TWO]
    for masks in cases:
        cliques = kernels.maximal_cliques(masks, 10**6)
        for limit in range(len(cliques) + 1):
            if len(cliques) > limit:
                with pytest.raises(ValueError):
                    kernels.maximal_cliques(masks, limit)
            else:
                assert kernels.maximal_cliques(masks, limit) == cliques
    for args in LAST_STATE_EMITS_TWO:
        before, last = kernels.maximal_cliques(complement_masks(random_graph(*args)), 10**6)[-2:]
        assert (before ^ last).bit_count() == 2 and before < last


@pytest.mark.parametrize("p", [2, 3, 5, 10007])
def test_gf_rank_matches_the_reference_elimination(p):
    # general integer entries, reduced mod p by gf_rank itself
    rng = random.Random(p + 17)
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        dense = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        entries = [x for row in dense for x in row]
        assert kernels.gf_rank(entries, rows, cols, p) == ref_rank(dense, p)
