import pytest

from wellcovered import (
    CapacityError,
    InputError,
    complete,
    crown,
    cycle,
    empty_graph,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    is_well_covered,
    lex_product,
    mis,
    new_graph,
    path,
    petersen,
    random_graph,
)

from helpers import all_graphs, brute_force_mis

# number of maximal independent sets of the n-cycle (Perrin sequence)
PERRIN = {3: 3, 4: 2, 5: 5, 6: 5, 7: 7, 8: 10, 9: 12, 10: 17}


class TestEnumerate:
    def test_c4_diagonals(self):
        assert enumerate_mis(cycle(4)).sets == ((0, 2), (1, 3))

    def test_crown3_five_sets(self):
        assert enumerate_mis(crown(3)).sets == (
            (0, 1, 2),
            (0, 3),
            (1, 4),
            (2, 5),
            (3, 4, 5),
        )

    def test_complete_gives_singletons(self):
        for n in (1, 3, 6):
            assert enumerate_mis(complete(n)).sets == tuple((v,) for v in range(n))

    def test_petersen_count_and_profile(self):
        mis = enumerate_mis(petersen())
        assert len(mis) == 15
        assert sorted(len(s) for s in mis) == [3] * 10 + [4] * 5

    def test_zero_vertex_graph(self):
        assert enumerate_mis(new_graph(0, [])).sets == ((),)

    def test_edgeless_graph_has_one_set(self):
        assert enumerate_mis(empty_graph(4)).sets == ((0, 1, 2, 3),)

    def test_canonical_order(self):
        for seed in range(10):
            sets = enumerate_mis(random_graph(7, 0.5, seed)).sets
            assert list(sets) == sorted(sets)

    def test_capacity_limit(self, monkeypatch):
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 10)
        with pytest.raises(CapacityError):
            enumerate_mis(petersen())

    def test_cycle_counts_follow_perrin(self):
        for n, count in PERRIN.items():
            assert len(enumerate_mis(cycle(n))) == count


class TestBruteForceCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        n = seed % 10
        g = random_graph(n, 0.5, seed * 31 + 1)
        assert list(enumerate_mis(g).sets) == brute_force_mis(g)

    @pytest.mark.parametrize(
        "g",
        [petersen(), crown(3), crown(4), path(9), cycle(12), complete(8)],
        ids=["petersen", "crown3", "crown4", "path9", "cycle12", "complete8"],
    )
    def test_named_graphs(self, g):
        assert list(enumerate_mis(g).sets) == brute_force_mis(g)


class TestPredicates:
    def test_is_independent(self):
        c4 = cycle(4)
        assert is_independent(c4, [0, 2])
        assert not is_independent(c4, [0, 1])
        assert is_independent(c4, [])

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            is_independent(cycle(4), [0, 7])
        with pytest.raises(InputError):
            is_maximal_independent(cycle(4), [-1])

    def test_is_maximal_independent(self):
        p3 = path(3)
        assert is_maximal_independent(p3, [1])
        assert not is_maximal_independent(p3, [0])  # vertex 2 can still be added
        assert is_maximal_independent(crown(3), [0, 1, 2])
        assert not is_maximal_independent(p3, [0, 1, 2])  # not independent: 0 ~ 1

    def test_well_covered(self):
        assert is_well_covered(cycle(7))
        assert not is_well_covered(cycle(8))
        assert is_well_covered(complete(5))

    def test_well_covered_reads_the_spanning_family(self, monkeypatch):
        # 13 disjoint triangles have 3^13 = 1,594,323 sets, past the limit,
        # and a family of 27, all of size 13
        assert is_well_covered(lex_product(empty_graph(13), complete(3)))
        # a prime graph is enumerated whole: path(12) has 28 sets
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 27)
        with pytest.raises(CapacityError):
            is_well_covered(path(12))
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 28)
        assert not is_well_covered(path(12))

    def test_well_covered_agrees_with_every_sets_sizes(self):
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [random_graph(seed % 13, 0.5, seed) for seed in range(200)]
        for g in graphs:
            assert is_well_covered(g) == (len(set(map(int.bit_count, mis.mis_masks(g)))) <= 1), g


class TestLexProductStructure:
    def test_mis_of_product_factor_through_the_fibres(self):
        # every maximal independent set of g . h picks one maximal independent
        # set of h for each vertex of a maximal independent set of g
        from itertools import product as iproduct

        cases = [
            (path(4), path(4)),
            (empty_graph(2), complete(2)),
            (cycle(4), path(3)),
            (random_graph(4, 0.5, 5), random_graph(4, 0.5, 6)),
        ]
        for g, h in cases:
            got = set(enumerate_mis(lex_product(g, h)).sets)
            mis_g = enumerate_mis(g).sets
            mis_h = enumerate_mis(h).sets
            expected = set()
            for s in mis_g:
                for choice in iproduct(mis_h, repeat=len(s)):
                    members = []
                    for u, t in zip(s, choice):
                        members.extend(u * h.n + w for w in t)
                    expected.add(tuple(sorted(members)))
            assert got == expected
