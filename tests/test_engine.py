import random
from collections import Counter
from fractions import Fraction

import pytest

from wellcovered import (
    CapacityError,
    FieldSpec,
    InputError,
    RowSpace,
    complete,
    compute_wcdim,
    compute_wcdim_fields,
    compute_wcdim_sets,
    crown,
    cycle,
    disjoint_union,
    empty_graph,
    enumerate_mis,
    is_well_covered,
    is_well_covered_weighting,
    lex_product,
    new_graph,
    path,
    petersen,
    random_graph,
    relabel,
)
from wellcovered.batch import build_difference_system, build_sum_system, reduce_first_row
from wellcovered.engine import WcdimReport
from wellcovered.mis import MisList, mis_masks

from helpers import (
    all_graphs,
    ref_is_well_covered_weighting,
    ref_rank,
    ref_simplicial_cliques,
    ref_wcdim,
)

Q = FieldSpec(0)


def prime_factors(d):
    """The primes dividing a nonzero integer, by trial division."""
    d, out, p = abs(d), [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return out + [d] * (d > 1)


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
            assert ref_rank(reduced.row_list(), 0) == ref_rank(diff.row_list(), 0)


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

    def test_reports_read_their_field_by_characteristic(self, monkeypatch):
        # every plan: the integer space and an odd own elimination (3 | D) on
        # crown:5; the integer space, GF(2)'s own XOR basis and a read-off
        # (3 ∤ D) on crown:6.  No read compares two FieldSpecs.
        cases = [(crown(5), (0, 3)), (crown(6), (0, 2, 3))]

        def reads(g, chars):
            reports = compute_wcdim_fields(g, [FieldSpec(p) for p in chars])
            return [(r.stats.method, r.sum_rank, r.basis, r.basis_lines) for r in reports]

        want = [reads(g, chars) for g, chars in cases]
        assert [[method for method, *_ in case] for case in want] == [
            ["integer", "own elimination"],
            ["integer", "own elimination", "read off (p ∤ D)"],
        ]

        def refuse(self, other):
            raise AssertionError("two FieldSpecs were compared")

        monkeypatch.setattr(FieldSpec, "__eq__", refuse)
        assert [reads(g, chars) for g, chars in cases] == want

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
                r = compute_wcdim(g, f)
                assert r.wcdim == g.n - r.diff_rank
                assert 0 <= r.wcdim <= g.n
                assert len(r.basis) == r.wcdim
                assert r.sum_rank in (r.diff_rank, r.diff_rank + 1)
                for w in r.basis:
                    assert ref_is_well_covered_weighting(g, w, f.characteristic)

    def test_basis_is_read_off_once_on_first_access(self, monkeypatch):
        from wellcovered.exactlin import RowSpace

        calls = []
        real = RowSpace.basis
        monkeypatch.setattr(RowSpace, "basis", lambda *a: calls.append(a) or real(*a))
        report = compute_wcdim(path(6), Q)
        full_rank = compute_wcdim(petersen(), Q)
        assert calls == []
        assert report.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
        assert report.basis is report.basis and len(calls) == 1
        assert full_rank.basis == () and len(calls) == 1

    def test_sum_rank_is_read_off_once_on_first_access(self, monkeypatch):
        from wellcovered.exactlin import RowSpace

        calls = []
        real = RowSpace.independent
        monkeypatch.setattr(RowSpace, "independent", lambda *a: calls.append(a) or real(*a))
        report = compute_wcdim(path(6), Q)
        assert calls == []
        # the path's sets span a space of dimension diff_rank + 1
        assert report.sum_rank == report.diff_rank + 1 == 5
        assert report.sum_rank == 5 and len(calls) == 1  # kept from the first read

    def test_stats_count_rows_without_the_baseline(self):
        report = compute_wcdim(crown(40))
        s = report.stats
        assert (report.mis_count, s.method) == (42, "integer")
        # the baseline's own row M_0 - M_0 is never fed: 41 rows, all independent
        assert (s.rows_fed, report.diff_rank, report.rows_vanished) == (41, 41, 0)
        assert not s.stopped_at_full_rank
        full = compute_wcdim(random_graph(20, 0.5, 3))
        assert full.stats.stopped_at_full_rank and full.diff_rank == 20
        assert full.stats.rows_fed < full.mis_count - 1
        assert full.rows_vanished == full.stats.rows_fed - 20

    def test_engine_reports_keep_the_dataclass_contract(self, monkeypatch):
        # the report the engine builds must be the one the public constructor
        # builds, with the contract a frozen dataclass had: the five compared
        # fields in order, equality and hash on them, a pinned repr, and
        # AttributeError on assignment and deletion
        from wellcovered.exactlin import RowSpace

        calls = Counter()
        for name in ("basis", "basis_lines", "independent"):
            real = getattr(RowSpace, name)
            monkeypatch.setattr(
                RowSpace, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        report = compute_wcdim(path(6), Q)
        compared = ("n", "field", "mis_count", "wcdim", "diff_rank")
        stored = compared + ("space", "base", "stats")
        public = WcdimReport(**{name: getattr(report, name) for name in stored})
        assert tuple(vars(report)) == stored
        assert list(vars(report).items()) == list(vars(public).items())
        assert report == public and hash(report) == hash(public)
        assert repr(report) == repr(public) == (
            "WcdimReport(n=6, field=FieldSpec(characteristic=0), mis_count=5, wcdim=2, diff_rank=4)"
        )
        with pytest.raises(AttributeError):
            report.wcdim = 0
        with pytest.raises(AttributeError):
            del report.n
        assert (report.wcdim, report.n) == (2, 6)
        assert not calls
        for _ in range(2):
            assert report.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
            assert report.basis_lines == ("1 1 0 0 0 0", "0 0 0 0 1 1")
            assert report.sum_rank == 5
        assert calls == {"basis": 1, "basis_lines": 1, "independent": 1}
        assert (public.basis, public.basis_lines, public.sum_rank) == (
            report.basis, report.basis_lines, report.sum_rank
        )

    def test_reports_of_the_same_computation_are_equal(self):
        # stats and the row space stay out of the comparison
        assert compute_wcdim(crown(5)) == compute_wcdim(crown(5))
        assert compute_wcdim(crown(5)) != compute_wcdim(crown(5), FieldSpec(3))

    def test_matches_reference_oracle(self):
        for seed in range(25):
            g = random_graph(seed % 8, 0.5, seed * 13 + 7)
            for char in (0, 2, 5):
                assert compute_wcdim(g, FieldSpec(char)).wcdim == ref_wcdim(g, char)


class TestComputeWcdimSets:
    def test_matches_reference_ranks_on_any_family(self):
        # arbitrary families of vertex sets, not just maximal independent ones;
        # every field comes from one call, as the Kronecker check asks for them
        rng = random.Random(3)
        chars = (0, 2, 3, 5)
        methods = set()
        for _ in range(300):
            n = rng.randint(1, 7)
            sets = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
            rows = [[m >> v & 1 for v in range(n)] for m in sets]
            diff = [[x - y for x, y in zip(row, rows[0])] for row in rows[1:]]
            reports = compute_wcdim_sets(n, sets, [FieldSpec(c) for c in chars])
            for c, r in zip(chars, reports):
                assert (r.diff_rank, r.sum_rank) == (ref_rank(diff, c), ref_rank(rows, c))
                assert r.wcdim == n - r.diff_rank and r.mis_count == len(sets)
                methods.add(r.stats.method)
        # the families reach every path: Q, read off (p not dividing D), own elimination
        assert methods == {"integer", "read off (p ∤ D)", "own elimination"}

    def test_matches_the_graph_computation_on_its_sets(self):
        g = crown(4)
        fs = [FieldSpec(c) for c in (0, 2, 3)]
        sets = [sum(1 << v for v in s) for s in enumerate_mis(g)]
        from_sets = compute_wcdim_sets(g.n, sets, fs)
        from_graph = [compute_wcdim(g, f) for f in fs]
        assert from_sets == from_graph
        # report equality leaves the sum rank out, as it is read on demand
        assert [r.sum_rank for r in from_sets] == [r.sum_rank for r in from_graph] == [5, 5, 5]

    def test_rows_are_fed_in_eight_strided_passes(self, monkeypatch):
        # every space is fed the passes sets[s::8] for s = 0..7, in turn,
        # without the baseline, the first set of fewest vertices
        from wellcovered import engine

        orders = []
        real = engine._feed
        monkeypatch.setattr(
            engine, "_feed", lambda space, order, *a: orders.append(list(order)) or real(space, order, *a)
        )
        rng = random.Random(8)
        for k in range(1, 41):
            sets = rng.sample(range(1 << 6), k)
            for family in (sets, tuple(sets)):
                orders.clear()
                reports = compute_wcdim_sets(6, family, [Q, FieldSpec(2), FieldSpec(3)])
                fewest = min(m.bit_count() for m in sets)
                b = next(i for i, m in enumerate(sets) if m.bit_count() == fewest)
                strided = [i for s in range(8) for i in range(s, k, 8)]
                want = [sets[i] for i in strided if i != b]
                assert orders and all(order == want for order in orders), (k, orders)
                assert all(r.base == sets[b] for r in reports)

    def test_the_baseline_is_the_first_set_of_fewest_vertices_and_changes_no_answer(self):
        # rotating a family puts every set first once, which moves the
        # baseline's place and reorders the strided passes; no answer may
        # change over Q, GF(2), GF(3) or a prime dividing any rotation's D
        graphs = [g for n in range(6) for g in all_graphs(n)] + [crown(k) for k in range(3, 13)]
        assert len(graphs) == 1_100 + 10
        for g in graphs:
            sets = mis_masks(g)
            rotations = [sets[r:] + sets[:r] for r in range(len(sets))]
            chars = {0, 2, 3}
            for family in rotations:
                d = compute_wcdim_sets(g.n, family, [Q])[0].space.common_pivot
                chars.update(prime_factors(d))
            fields = [FieldSpec(c) for c in sorted(chars)]
            answers = set()
            for family in rotations:
                reports = compute_wcdim_sets(g.n, family, fields)
                fewest = min(m.bit_count() for m in family)
                first = next(m for m in family if m.bit_count() == fewest)
                assert all(r.base == first for r in reports), (g, family)
                answers.add(tuple((r.wcdim, r.diff_rank, r.sum_rank, r.basis_lines) for r in reports))
            assert len(answers) == 1, g

    @pytest.mark.parametrize(
        ("g", "want"),
        [
            (crown(20), [("integer", 21), ("own elimination", 21), ("own elimination", 21)]
             + [("read off (p ∤ D)", 21)] * 2),
            (random_graph(28, 0.3, 28), [("integer", 28), ("own elimination", 30)]
             + [("read off (p ∤ D)", 28)] * 3),
        ],
        ids=["crown:20", "G(28,3/10)"],
    )
    def test_rows_fed_per_field_are_pinned(self, g, want):
        # how many rows each space takes before its full rank depends on the
        # feed order; these were recorded before the order was built by slicing
        fields = [FieldSpec(c) for c in (0, 2, 3, 5, 10007)]
        reports = compute_wcdim_sets(g.n, mis_masks(g), fields)
        assert [(r.stats.method, r.stats.rows_fed) for r in reports] == want

    def test_small_families_match_feeding_the_strided_order_row_by_row(self):
        # a family of at most eight sets is fed in its own order, which is
        # what the eight strided passes give it; every labelled graph on at
        # most 5 vertices, its sets repeated up to the 8/9 boundary, and
        # every prefix of 1..9 sets, against one `RowSpace.add` per row
        fields = [FieldSpec(c) for c in (0, 2, 3, 5)]

        def fed(space, order, base, most):
            rows = 0
            for m in order:
                if space.rank == most:
                    break
                space.add(m & ~base, base & ~m)
                rows += 1
            return rows

        def by_hand(n, sets):
            base = min(sets, key=int.bit_count)
            order = [m for s in range(8) for m in sets[s::8]]
            order.remove(base)
            integer = RowSpace(n, Q)
            rows = fed(integer, order, base, n)
            out = []
            for f in fields:
                space, own_rows = integer, rows
                if f.characteristic and not integer.reads_off(f):
                    space = RowSpace(n, f)
                    own_rows = fed(space, order, base, integer.rank)
                out.append((
                    n - space.rank, space.rank, space.rank + space.independent(base, 0, f),
                    tuple(space.basis_lines(f)),
                    own_rows, own_rows < len(order), space.field, space.common_pivot,
                ))
            return out

        sizes = Counter()
        for n in range(6):
            for g in all_graphs(n):
                sets = mis_masks(g)
                repeated = sets * 9
                families = [sets, repeated[:8], repeated[:9]] + [repeated[:k] for k in range(1, 10)]
                for family in families:
                    sizes[len(family)] += 1
                    # the space each field is read from, and its D, depend on the order too
                    got = [
                        (r.wcdim, r.diff_rank, r.sum_rank, r.basis_lines, r.stats.rows_fed,
                         r.stats.stopped_at_full_rank, r.space.field, r.space.common_pivot)
                        for r in compute_wcdim_sets(n, family, fields)
                    ]
                    assert got == by_hand(n, family), (g, family)
        assert sorted(sizes) == list(range(1, 10))

    def test_an_own_elimination_names_the_integer_pass_it_waited_for(self):
        g = crown(6)  # 2 divides 6 - 2, so GF(2) is eliminated on its own
        [gf2] = compute_wcdim_sets(g.n, mis_masks(g), [FieldSpec(2)])
        waited = gf2.stats.integer
        assert gf2.stats.method == "own elimination"
        assert (waited.method, waited.rows_fed, waited.integer) == ("integer", 7, None)
        q, gf2, gf3 = compute_wcdim_sets(g.n, mis_masks(g), [Q, FieldSpec(2), FieldSpec(3)])
        assert gf2.stats.integer is q.stats and q.stats.integer is gf3.stats.integer is None

    def test_empty_family_rejected(self):
        with pytest.raises(InputError):
            compute_wcdim_sets(3, [], [Q])

    def test_set_beyond_the_vertices_rejected(self):
        with pytest.raises(InputError):
            compute_wcdim_sets(3, [1, 0b1000], [Q])

    def test_negative_set_rejected(self):
        with pytest.raises(InputError):
            compute_wcdim_sets(3, [1, -2], [Q])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InputError):
            compute_wcdim_sets(-1, [0], [Q])

    def test_a_vertex_count_above_the_limit_raises_capacity_error(self):
        from wellcovered.graphs import MAX_VERTICES

        with pytest.raises(CapacityError, match="at most 16384"):
            compute_wcdim_sets(MAX_VERTICES + 1, [1], [Q])
        [report] = compute_wcdim_sets(MAX_VERTICES, [1], [Q])
        assert report.wcdim == MAX_VERTICES

    def test_empty_field_list_builds_no_space(self, monkeypatch):
        from wellcovered import engine

        monkeypatch.setattr(engine, "RowSpace", lambda *a: pytest.fail("built a row space"))
        assert compute_wcdim_sets(3, [1, 2], []) == []

    def test_empty_field_list_enumerates_nothing(self, monkeypatch):
        from wellcovered import engine

        monkeypatch.setattr(engine, "mis_family", lambda g: pytest.fail("enumerated"))
        assert compute_wcdim_fields(cycle(5), []) == []


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

    def test_inexact_weights_rejected(self):
        # on the path 0-2-1 the sets are {0, 1} and {2}; in floating point
        # 0.1 + 0.2 != 0.3, so such weights would give a wrong answer
        g = new_graph(3, [(0, 2), (1, 2)])
        assert is_well_covered_weighting(g, [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)], Q)
        for w in ([0.1, 0.2, 0.3], [1, 1, 2.0], [1, 1, "2"]):
            for f in (Q, FieldSpec(5)):
                with pytest.raises(InputError):
                    is_well_covered_weighting(g, w, f)

    def test_a_sum_without_a_residue_raises_whatever_the_set_order(self):
        # the sets of P4 are {0, 2}, {0, 3} and {1, 3}; in the first vector
        # the first two sums differ before the third, 1/3, is reached
        for w in ([0, Fraction(1, 3), 1, 0], [Fraction(1, 3), 0, 1, 0]):
            with pytest.raises(InputError, match="no residue mod 3"):
                is_well_covered_weighting(path(4), w, FieldSpec(3))
            assert not is_well_covered_weighting(path(4), w, Q)

    def test_agrees_with_the_brute_force_oracle_on_every_graph_up_to_five_vertices(self):
        rng = random.Random(32)
        outcomes = Counter()
        for n in range(6):
            for g in all_graphs(n):
                for c in (0, 2, 3):
                    f = FieldSpec(c)
                    weightings = [[1] * n] + [[1] + [0] * (n - 1)] * (n > 0)
                    weightings += compute_wcdim(g, f).basis
                    weightings += [
                        [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n)]
                        for _ in range(2)
                    ]
                    for w in weightings:
                        try:
                            want = ref_is_well_covered_weighting(g, w, c)
                        except ValueError:
                            with pytest.raises(InputError):
                                is_well_covered_weighting(g, w, f)
                            outcomes["no residue"] += 1
                        else:
                            assert is_well_covered_weighting(g, w, f) == want, (g, w, c)
                            outcomes[want] += 1
        assert min(outcomes[True], outcomes[False], outcomes["no residue"]) > 100, outcomes

    def test_reads_the_spanning_family_past_the_limit(self):
        # 13 disjoint triangles have 3^13 = 1,594,323 sets and a family of 27
        g = lex_product(empty_graph(13), complete(3))
        for f in (Q, FieldSpec(3)):
            assert is_well_covered_weighting(g, [1] * g.n, f)
            assert not is_well_covered_weighting(g, [1] + [0] * (g.n - 1), f)
        with pytest.raises(CapacityError):
            is_well_covered_weighting(path(60), [1] * 60, Q)  # a prime graph's family is every set


def end_pairs(n):
    """The canonical basis of path(n) for n >= 5: its two end edges' indicators."""
    return ((1, 1) + (0,) * (n - 2), (0,) * (n - 2) + (1, 1))


class TestPathStructure:
    def test_path5_passes(self):
        report = compute_wcdim(path(5), Q)
        assert report.wcdim == 2 and report.basis == end_pairs(5)

    def test_path8_passes(self):
        assert compute_wcdim(path(8), Q).basis == end_pairs(8)

    def test_path6_basis_is_the_two_end_pairs(self):
        report = compute_wcdim(path(6), Q)
        assert report.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))

    def test_mod_p(self):
        assert compute_wcdim(path(7), FieldSpec(3)).basis == end_pairs(7)


CHORDAL_FIELDS = [FieldSpec(c) for c in (0, 2, 3, 5)]


def is_chordal(g):
    """True iff deleting a simplicial vertex at a time empties g."""
    alive = (1 << g.n) - 1
    while alive:
        for v in range(g.n):
            nbrs = g.masks[v] & alive
            if alive >> v & 1 and all(
                (g.masks[u] | 1 << u) & nbrs == nbrs for u in range(g.n) if nbrs >> u & 1
            ):
                alive ^= 1 << v
                break
        else:
            return False
    return True


def random_chordal_graph(n, rng):
    """Each new vertex joined to a random nonempty part of a clique of the
    earlier ones (a part of a clique is a clique), then the labels shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    cliques, edges = [], []
    for v in range(n):
        clique = rng.choice(cliques) if cliques else 0
        members = [u for u in range(v) if clique >> u & 1]
        joined = rng.sample(members, rng.randint(1, len(members))) if members else []
        cliques.append(sum(1 << u for u in joined) | 1 << v)
        edges += [(label[u], label[v]) for u in joined]
    return new_graph(n, edges)


def assert_chordal_law(g):
    """wcdim is the number k of simplicial cliques, and their indicators span the space."""
    cliques = ref_simplicial_cliques(g)
    # each clique has a vertex no other one has, so the indicators are
    # independent over every field
    for mask in cliques:
        others = 0
        for other in cliques:
            if other != mask:
                others |= other
        assert mask & ~others, g
    indicators = [[mask >> v & 1 for v in range(g.n)] for mask in cliques]
    k = len(indicators)
    for f, report in zip(CHORDAL_FIELDS, compute_wcdim_fields(g, CHORDAL_FIELDS)):
        c = f.characteristic
        assert report.wcdim == k, (g, c)
        assert ref_rank(list(report.basis) + indicators, c) == k, (g, c)


class TestChordalLaw:
    """On a chordal graph the well-covered space is the span of the
    simplicial-clique indicators, over every field (Brown & Nowakowski)."""

    # labelled chordal graphs on n vertices (OEIS A058862), 19,048 in all
    COUNTS = {1: 1, 2: 2, 3: 8, 4: 61, 5: 822, 6: 18154}

    @pytest.mark.parametrize("n", sorted(COUNTS))
    def test_every_chordal_graph_on_at_most_6_vertices(self, n):
        chordal = [g for g in all_graphs(n) if is_chordal(g)]
        assert len(chordal) == self.COUNTS[n]
        for g in chordal:
            assert_chordal_law(g)

    def test_seeded_random_chordal_graphs_on_7_to_18_vertices(self):
        rng = random.Random(21)
        for n in range(7, 19):
            for _ in range(50):
                g = random_chordal_graph(n, rng)
                assert is_chordal(g)
                assert_chordal_law(g)


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
            assert is_well_covered(g) == ref_is_well_covered_weighting(g, [1] * g.n, 0), g

    def test_baseline_choice_does_not_change_the_rank(self):
        rng = random.Random(44)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10**6))
            mis = enumerate_mis(g)
            ranks = {
                ref_rank(build_difference_system(mis, baseline=b).row_list(), 0)
                for b in range(len(mis))
            }
            assert len(ranks) == 1
