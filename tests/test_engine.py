import random
from fractions import Fraction

import pytest

from wellcovered import (
    FieldSpec,
    InputError,
    build_difference_system,
    build_sum_system,
    complete,
    compute_wcdim,
    crown,
    cycle,
    disjoint_union,
    empty_graph,
    enumerate_mis,
    is_well_covered,
    is_well_covered_weighting,
    new_graph,
    path,
    path_weight_structure,
    petersen,
    random_graph,
    rank,
    reduce_first_row,
    relabel,
)
from wellcovered.mis import MisList

from helpers import ref_wcdim

Q = FieldSpec(0)


class TestDifferenceSystem:
    def test_k2(self):
        m = build_difference_system(enumerate_mis(complete(2)))
        assert m.row_list() == [(-1, 1)]

    def test_c4(self):
        m = build_difference_system(enumerate_mis(cycle(4)))
        assert m.row_list() == [(-1, 1, -1, 1)]

    def test_crown_with_second_part_as_baseline_matches_the_block_matrix(self):
        # rebuilding against the baseline {b_1..b_n} gives exactly the rows of
        # [[I, I-J], [1, -1]] (as a set; canonical order differs)
        n = 4
        mis = enumerate_mis(crown(n))
        baseline = mis.sets.index(tuple(range(n, 2 * n)))
        got = set(build_difference_system(mis, baseline=baseline).row_list())
        want = set()
        for i in range(n):
            row = [0] * (2 * n)
            row[i] = 1
            for j in range(n):
                row[n + j] = (1 if j == i else 0) - 1
            want.add(tuple(row))
        want.add(tuple([1] * n + [-1] * n))
        assert got == want

    def test_empty_mis_list_rejected(self):
        with pytest.raises(InputError):
            build_difference_system(MisList((), 0))

    def test_baseline_out_of_range(self):
        with pytest.raises(InputError):
            build_difference_system(enumerate_mis(cycle(4)), baseline=2)


class TestSumSystem:
    def test_k2_is_identity(self):
        m = build_sum_system(enumerate_mis(complete(2)))
        assert m.row_list() == [(1, 0), (0, 1)]

    def test_c4(self):
        m = build_sum_system(enumerate_mis(cycle(4)))
        assert m.row_list() == [(1, 0, 1, 0), (0, 1, 0, 1)]

    def test_reducing_the_sum_system_gives_the_difference_system(self):
        for seed in range(50):
            g = random_graph(seed % 8 + 1, 0.5, seed)
            mis = enumerate_mis(g)
            reduced = reduce_first_row(build_sum_system(mis))
            diff = build_difference_system(mis)
            assert reduced == diff
            assert rank(reduced, Q) == rank(diff, Q)


class TestComputeWcdim:
    @pytest.mark.parametrize("char", [0, 2, 3, 5])
    def test_petersen_has_dimension_zero(self, char):
        assert compute_wcdim(petersen(), FieldSpec(char)).wcdim == 0

    @pytest.mark.parametrize("char", [0, 2, 7])
    def test_complete_and_edgeless(self, char):
        f = FieldSpec(char)
        for n in range(1, 7):
            assert compute_wcdim(complete(n), f).wcdim == 1
            assert compute_wcdim(empty_graph(n), f).wcdim == n

    def test_crown_characteristic_dependence(self):
        assert compute_wcdim(crown(4), FieldSpec(2)).wcdim == 4
        assert compute_wcdim(crown(4), Q).wcdim == 3

    def test_cycles(self):
        assert compute_wcdim(cycle(4), Q).wcdim == 3
        assert compute_wcdim(cycle(6), Q).wcdim == 2
        assert compute_wcdim(cycle(8), Q).wcdim == 0

    def test_zero_vertex_graph(self):
        report = compute_wcdim(new_graph(0, []), Q)
        assert report.wcdim == 0 and report.basis == () and report.mis_count == 1

    def test_report_invariants(self):
        for seed in range(15):
            g = random_graph(seed % 7 + 1, 0.5, seed + 500)
            for f in (Q, FieldSpec(3)):
                r = compute_wcdim(g, f, with_sum_rank=True)
                assert r.wcdim == g.n - r.diff_rank
                assert 0 <= r.wcdim <= g.n
                assert len(r.basis) == r.wcdim
                assert r.sum_rank in (r.diff_rank, r.diff_rank + 1)
                for w in r.basis:
                    assert is_well_covered_weighting(g, w, f)

    def test_basis_is_read_off_once_on_first_access(self, monkeypatch):
        from wellcovered.exactlin import RowSpace

        calls = []
        real = RowSpace.basis
        monkeypatch.setattr(RowSpace, "basis", lambda *a: calls.append(a) or real(*a))
        report = compute_wcdim(path(6), Q, with_sum_rank=True)
        full_rank = compute_wcdim(petersen(), Q)
        assert calls == []
        assert report.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
        assert report.basis is report.basis and len(calls) == 1
        assert full_rank.basis == () and len(calls) == 1

    def test_stats_count_rows_without_the_baseline(self):
        report = compute_wcdim(crown(40))
        s = report.stats
        assert (s.sets, s.method) == (42, "integer")
        # the baseline's own row M_0 - M_0 is never fed: 41 rows, all independent
        assert (s.rows_fed, s.rows_kept, s.rows_vanished) == (41, 41, 0)
        assert not s.stopped_at_full_rank
        assert report.diff_rank == 41
        full = compute_wcdim(random_graph(20, 0.5, 3)).stats
        assert full.stopped_at_full_rank and full.rows_kept == 20
        assert full.rows_fed < full.sets - 1 and full.rows_vanished == full.rows_fed - 20

    def test_reports_of_the_same_computation_are_equal(self):
        # elapsed, stats and the row space stay out of the comparison
        assert compute_wcdim(crown(5)) == compute_wcdim(crown(5))
        assert compute_wcdim(crown(5)) != compute_wcdim(crown(5), FieldSpec(3))

    def test_matches_reference_oracle(self):
        for seed in range(25):
            g = random_graph(seed % 8, 0.5, seed * 13 + 7)
            for char in (0, 2, 5):
                assert compute_wcdim(g, FieldSpec(char)).wcdim == ref_wcdim(g, char)


class TestWeightingPredicate:
    def test_constant_one_on_well_covered(self):
        assert is_well_covered_weighting(complete(3), [1, 1, 1], Q)

    def test_zero_vector_everywhere(self):
        for g in (cycle(8), petersen()):
            assert is_well_covered_weighting(g, [0] * g.n, Q)

    def test_unbalanced_vector_on_c4(self):
        assert not is_well_covered_weighting(cycle(4), [1, 0, 0, 0], Q)

    def test_mod_p_sums(self):
        # on the 4-cycle the two sums are w0+w2 and w1+w3: 2 vs 0, equal mod 2
        assert is_well_covered_weighting(cycle(4), [1, 0, 1, 0], FieldSpec(2))
        assert not is_well_covered_weighting(cycle(4), [1, 0, 1, 0], FieldSpec(3))

    def test_fractional_weights(self):
        assert is_well_covered_weighting(complete(2), [Fraction(1, 2), Fraction(1, 2)], Q)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            is_well_covered_weighting(cycle(4), [1, 2], Q)


class TestPathStructure:
    def test_path5_passes(self):
        result = path_weight_structure(path(5), Q)
        assert result.ok and result.wcdim == 2

    def test_path8_passes(self):
        assert path_weight_structure(path(8), Q).ok

    def test_path6_basis_is_the_two_end_pairs(self):
        report = compute_wcdim(path(6), Q)
        assert report.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))

    def test_mod_p(self):
        assert path_weight_structure(path(7), FieldSpec(3)).ok

    def test_short_path_rejected(self):
        with pytest.raises(InputError):
            path_weight_structure(path(4), Q)

    def test_non_path_rejected(self):
        with pytest.raises(InputError):
            path_weight_structure(cycle(5), Q)


class TestEngineInvariants:
    def test_relabelling_invariance(self):
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            for f in (Q, FieldSpec(2)):
                assert compute_wcdim(g, f).wcdim == compute_wcdim(h, f).wcdim

    def test_prime_field_dimension_never_smaller(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10**6))
            d0 = compute_wcdim(g, Q).wcdim
            for p in (2, 3, 5, 7):
                assert compute_wcdim(g, FieldSpec(p)).wcdim >= d0

    def test_union_additivity(self):
        rng = random.Random(15)
        for _ in range(50):
            g = random_graph(rng.randint(1, 6), 0.5, rng.randrange(10**6))
            h = random_graph(rng.randint(1, 6), 0.5, rng.randrange(10**6))
            f = FieldSpec(rng.choice([0, 2, 5]))
            assert (
                compute_wcdim(disjoint_union(g, h), f).wcdim
                == compute_wcdim(g, f).wcdim + compute_wcdim(h, f).wcdim
            )

    def test_well_covered_graphs_admit_the_all_ones_weighting(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10**6))
            if is_well_covered(g):
                assert is_well_covered_weighting(g, [1] * g.n, Q)

    def test_baseline_choice_does_not_change_the_rank(self):
        rng = random.Random(44)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10**6))
            mis = enumerate_mis(g)
            ranks = {
                rank(build_difference_system(mis, baseline=b), Q) for b in range(len(mis))
            }
            assert len(ranks) == 1
