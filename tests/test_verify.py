import random
import re
from itertools import chain

import pytest

from wellcovered import (
    FieldSpec,
    complete,
    compute_wcdim,
    crown,
    cycle,
    empty_graph,
    gear,
    lex_product,
    mis,
    new_graph,
    path,
    random_graph,
)
from wellcovered.batch import build_sum_system
from wellcovered.families import FamilySpec
from wellcovered.formulas import kron_rank_case
from wellcovered.mis import enumerate_mis
from wellcovered.verify import (
    _lex_fibre_dimension,
    check_blowup,
    check_family,
    check_kron_remark,
    check_lex,
    check_multi_blowup,
    check_union,
    run_suite,
    summarize,
)

from helpers import all_graphs, brute_force_mis, ref_rank

Q = FieldSpec(0)


def fields(*chars):
    return [FieldSpec(c) for c in chars]


class TestCheckFamily:
    def test_crown5_across_characteristics(self):
        report = check_family(FamilySpec("crown", (5,)), fields(0, 2, 3, 5))
        assert report.verdict == "pass"
        assert report.predicted == (4, 4, 5, 4)
        assert report.engine == (4, 4, 5, 4)

    def test_cycle8(self):
        report = check_family(FamilySpec("cycle", (8,)), fields(0, 2))
        assert report.verdict == "pass" and report.engine == (0, 0)

    def test_gear5(self):
        report = check_family(FamilySpec("gear", (5,)), fields(0))
        assert report.verdict == "pass" and report.engine == (0,)

    def test_capacity_becomes_skip(self, monkeypatch):
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 5)
        report = check_family(FamilySpec("petersen"), fields(0))
        assert report.verdict == "skip"

    def test_a_family_too_large_to_build_is_a_skip(self):
        report = check_family(FamilySpec("complete", (20000,)), fields(0, 2))
        assert report.verdict == "skip" and report.characteristics == (0, 2)
        assert report.predicted == report.engine == ()
        assert "graph has 20000 vertices; at most 16384 are supported" in report.detail


class TestCheckBlowup:
    def test_c4_blowup(self):
        report = check_blowup(cycle(4), 0, 3, [Q])[0]
        assert report.verdict == "pass" and report.engine == (5,)

    def test_trivial_blowup(self):
        report = check_blowup(complete(3), 1, 1, [Q])[0]
        assert report.verdict == "pass"

    def test_random_sweep(self):
        import random

        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng.randint(1, 6), 0.5, rng.randrange(10**6))
            rep = check_blowup(
                g, rng.randrange(g.n), rng.randint(1, 3), [FieldSpec(rng.choice([0, 2, 3]))]
            )[0]
            assert rep.verdict == "pass", rep

    def test_a_size_one_blowup_enumerates_its_graph_once(self, monkeypatch):
        # blowing up by 1 gives the graph back, so the check's memo meets it twice
        from wellcovered import verify

        calls = []
        real = verify.mis_masks
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a) or real(*a))
        g = random_graph(6, 0.5, 27)
        reports = check_blowup(g, 0, 1, fields(0, 2, 3))
        assert [r.verdict for r in reports] == ["pass"] * 3
        assert len(calls) == 1


class TestCheckMultiBlowup:
    def test_k2(self):
        report = check_multi_blowup(complete(2), [2, 2], [Q])[0]
        assert report.verdict == "pass" and report.engine == (3,)

    def test_all_ones(self):
        g = random_graph(5, 0.5, 77)
        report = check_multi_blowup(g, [1] * 5, [Q])[0]
        assert report.verdict == "pass"
        assert report.engine == (compute_wcdim(g, Q).wcdim,)


class TestCheckUnion:
    def test_k3_with_c4(self):
        report = check_union(complete(3), cycle(4), [Q])[0]
        assert report.verdict == "pass" and report.engine == (4,)


class TestCheckLex:
    def test_designed_pairs_pass(self):
        assert check_lex(complete(2), complete(2), [Q])[0].engine == (1,)
        assert check_lex(complete(2), empty_graph(2), [Q])[0].engine == (3,)
        assert check_lex(cycle(4), empty_graph(2), [Q])[0].engine == (7,)
        for g, h in [(complete(2), complete(2)), (cycle(4), empty_graph(2))]:
            assert check_lex(g, h, [Q])[0].verdict == "pass"

    def test_edgeless_first_factor_refutes_the_closed_form(self):
        # the product of the 2-vertex edgeless graph with K_2 is two disjoint
        # edges: dimension 2 by union additivity, but the closed form says 3
        report = check_lex(empty_graph(2), complete(2), [Q])[0]
        assert report.verdict == "fail"
        assert report.predicted == (3,) and report.engine == (2,)
        assert "fibre-structure value 2" in report.detail

    def test_path4_square_refutes_the_closed_form(self):
        report = check_lex(path(4), path(4), [Q])[0]
        assert report.verdict == "fail"
        assert report.predicted == (8,) and report.engine == (6,)


class TestFibreDimension:
    @pytest.mark.parametrize("char", [0, 2])
    def test_matches_engine_on_every_small_pair(self, char):
        # exhaustive over all graph pairs with at most 3 vertices per factor
        f = FieldSpec(char)
        small = [g for n in (1, 2, 3) for g in all_graphs(n)]
        for g in small:
            for h in small:
                truth = compute_wcdim(lex_product(g, h), f).wcdim
                rank_a = ref_rank(build_sum_system(enumerate_mis(h)).row_list(), char)
                got = _lex_fibre_dimension(
                    g.n,
                    compute_wcdim(g, f).wcdim,
                    compute_wcdim(h, f).wcdim,
                    h.n,
                    rank_a,
                )
                assert got == truth, (g.edges(), h.edges(), char)


def reduced(rows):
    """The first-row reduction: every later row minus the first."""
    return [[x - y for x, y in zip(row, rows[0])] for row in rows[1:]]


def kron_oracle(g, h, chars):
    """The kron check's (predicted, engine) pair per characteristic, from reference code.

    M and A are the brute-force sum systems of g and h, C the first-row
    reduction of A (x) M, and the engine value the product's dimension.
    """
    a, b = g.n, h.n
    M = [[int(u in s) for u in range(a)] for s in brute_force_mis(g)]
    A = [[int(j in t) for j in range(b)] for t in brute_force_mis(h)]
    C = reduced([[x * y for x in row_a for y in row_m] for row_a in A for row_m in M])
    product = brute_force_mis(lex_product(g, h))
    P = reduced([[int(v in s) for v in range(a * b)] for s in product])
    out = []
    for c in chars:
        k, q = ref_rank(reduced(M), c), ref_rank(reduced(A), c)
        rank_m, rank_a, rank_c = ref_rank(M, c), ref_rank(A, c), ref_rank(C, c)
        want = kron_rank_case(k, q, rank_m < len(M), rank_a < len(A))
        out.append(((want, a * b - rank_c), (rank_c, a * b - ref_rank(P, c))))
    return out


class TestCheckKron:
    def test_matches_the_reference_oracle(self):
        # every pair of graphs on at most 3 vertices, plus seeded pairs on up to 4
        small = [g for n in (1, 2, 3) for g in all_graphs(n)]
        rng = random.Random(11)
        seeded = [
            tuple(random_graph(rng.randint(1, 4), 0.5, rng.randrange(2**32)) for _ in "gh")
            for _ in range(20)
        ]
        for g, h in [(g, h) for g in small for h in small] + seeded:
            reports = check_kron_remark(g, h, fields(0, 2, 3))
            assert [(r.predicted, r.engine) for r in reports] == kron_oracle(g, h, (0, 2, 3)), (
                g.edges(), h.edges()
            )

    def test_both_complete(self):
        report = check_kron_remark(complete(2), complete(2), [Q])[0]
        assert report.verdict == "pass"
        assert report.predicted == (3, 1) and report.engine == (3, 1)

    def test_edgeless_second_factor(self):
        report = check_kron_remark(complete(2), empty_graph(2), [Q])[0]
        assert report.verdict == "pass"
        assert report.engine == (1, 3)

    def test_dimension_shortcut_fails_for_edgeless_first_factor(self):
        report = check_kron_remark(empty_graph(2), complete(2), [Q])[0]
        assert report.verdict == "fail"
        assert "ab - rank(C)" in report.detail

    def test_rank_table_fails_on_an_affine_degenerate_factor(self):
        # two disjoint edges make the sum system rows dependent without the
        # usual rank drop, so the row-count keyed table mispredicts
        g = new_graph(4, [(0, 3), (1, 2)])
        report = check_kron_remark(g, complete(2), [Q])[0]
        assert report.verdict == "fail"
        assert "rank table" in report.detail
        assert "rank-drop keyed table gives 5" in report.detail


BATCHED = ("check_blowup", "check_multi_blowup", "check_union", "check_lex", "check_kron_remark")


class TestBatchedChecks:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_suite_equals_single_field_calls(self, seed, monkeypatch):
        # every batched call the suite makes is replayed one field at a time
        from wellcovered import verify

        singles = []

        def differential(real):
            def check(*args, **kwargs):
                *head, fs = args
                batched = real(*args, **kwargs)
                one_by_one = [r for f in fs for r in real(*head, [f], **kwargs)]
                assert batched == one_by_one
                singles.extend(one_by_one)
                return batched

            return check

        for name in BATCHED:
            monkeypatch.setattr(verify, name, differential(getattr(verify, name)))
        reports = run_suite(seed=seed)
        assert [r for r in reports if r.check != "family"] == singles
        assert {r.check for r in singles} == {"blowup", "multi-blowup", "union", "lex", "kron"}

    def test_each_graph_is_enumerated_once_for_all_fields(self, monkeypatch):
        from wellcovered import verify

        calls = []
        # every check enumerates its graphs itself, with mis_masks
        real = verify.mis_masks
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a) or real(*a))
        fs = fields(0, 2, 3, 5)
        # crown(4) has dimension 3, but 4 over GF(2), so a report that read
        # another field's result would differ from the single-field call
        g, h = crown(4), path(3)
        checks = [
            (check_blowup, (g, 0, 2)),
            (check_multi_blowup, (g, [2] * 8)),
            (check_union, (g, h)),
            (check_lex, (g, h)),
            (check_kron_remark, (g, h)),
        ]
        batched = [check(*args, fs) for check, args in checks]
        # two graphs per blowup check, three per union and lex check, and
        # four per kron check: g, h and both products
        assert len(calls) == 2 + 2 + 3 + 3 + 4
        for (check, args), reports in zip(checks, batched):
            assert [r.characteristics for r in reports] == [(0,), (2,), (3,), (5,)]
            assert reports == [check(*args, [f])[0] for f in fs]

    def test_empty_field_list_enumerates_nothing(self, monkeypatch):
        from wellcovered import verify

        calls = []
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a))
        monkeypatch.setattr(verify, "compute_wcdim_sets", lambda *a: calls.append(a))
        g, h = cycle(5), path(3)
        assert check_blowup(g, 0, 2, []) == []
        assert check_multi_blowup(g, [2] * 5, []) == []
        assert check_union(g, h, []) == []
        assert check_lex(g, h, []) == []
        assert check_kron_remark(g, h, []) == []
        assert calls == []

    def test_family_check_rejects_an_empty_field_list(self, monkeypatch):
        # one report per call, so an empty list would be a pass with no comparison
        from wellcovered import InputError, verify

        calls = []
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a))
        monkeypatch.setattr(verify, "build_family", lambda *a: calls.append(a))
        with pytest.raises(InputError):
            check_family(FamilySpec("petersen"), [])
        assert calls == []

    def test_capacity_overrun_skips_every_field(self, monkeypatch):
        # cycle(4) has two maximal independent sets, one more than the limit
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 1)
        fs = fields(0, 2, 3)
        g, h = cycle(4), complete(2)
        for reports in (
            check_blowup(g, 0, 2, fs),
            check_multi_blowup(g, [2] * 4, fs),
            check_union(g, h, fs),
            check_lex(g, h, fs),
            check_kron_remark(g, h, fs),
        ):
            assert [r.verdict for r in reports] == ["skip"] * 3
            assert [r.characteristics for r in reports] == [(0,), (2,), (3,)]
            assert all(r.predicted == r.engine == () for r in reports)
            assert reports[0].detail and len({r.detail for r in reports}) == 1

    def test_a_graph_too_large_to_build_skips_every_field(self):
        # g and h fit, but the blowup, union or product has more than
        # MAX_VERTICES vertices, so building it is the capacity overrun
        fs = fields(0, 2)
        g, h = empty_graph(9000), empty_graph(2)
        for reports in (
            check_blowup(g, 0, 8000, fs),
            check_multi_blowup(g, [2] * 9000, fs),
            check_union(g, g, fs),
            check_lex(g, h, fs),
            check_kron_remark(g, h, fs),
        ):
            assert [r.verdict for r in reports] == ["skip"] * 2
            assert all("at most 16384 are supported" in r.detail for r in reports)


class TestOneRunComputesEachGraphOnce:
    def test_each_distinct_graph_is_enumerated_once_per_run(self, monkeypatch):
        from wellcovered import verify

        calls = []
        real = verify.mis_masks
        monkeypatch.setattr(
            verify, "mis_masks", lambda g, *a: calls.append((g.n, g.masks)) or real(g, *a)
        )
        reports = run_suite(seed=1, checks=("lex",))
        # three graphs per pair, three designed pairs and 50 drawn ones,
        # but their small factors repeat
        assert len(calls) == len(set(calls)) < 3 * (3 + 50)
        # nothing survives a run: the next one enumerates every graph again
        first = list(calls)
        calls.clear()
        assert run_suite(seed=1, checks=("lex",)) == reports
        assert calls == first

    def test_each_distinct_graph_is_eliminated_once_per_field_list(self, monkeypatch):
        from wellcovered import verify

        calls = []
        real = verify.compute_wcdim_sets
        monkeypatch.setattr(
            verify,
            "compute_wcdim_sets",
            lambda n, sets, fs: calls.append((n, tuple(sets), tuple(fs))) or real(n, sets, fs),
        )
        reports = run_suite(seed=2, checks=("blowup", "union"), trials=20)
        assert len(calls) == len(set(calls))
        # the same graphs, each computed by a check of its own, give the same reports
        calls.clear()
        rng = random.Random("2:blowup")
        alone = []
        for _ in range(20):
            g, desc = verify._draw(rng, 7)
            v, t = rng.randrange(g.n), rng.randint(1, 3)
            alone.extend(check_blowup(g, v, t, fields(0, 2, 3), instance=desc))
        rng = random.Random("2:union")
        for g, h, desc in verify._pairs(rng, 20, 7):
            alone.extend(check_union(g, h, fields(0, 2, 5), instance=desc))
        assert alone == reports
        assert len(calls) > len(set(calls))

    def test_each_kron_family_is_eliminated_once_per_run(self, monkeypatch):
        from wellcovered import verify

        calls = []
        real = verify.compute_wcdim_sets

        def counted(n, sets, fs):
            calls.append((n, tuple(sets), tuple(f.characteristic for f in fs)))
            return real(n, sets, fs)

        monkeypatch.setattr(verify, "compute_wcdim_sets", counted)
        # across every section of a run no family reaches the engine twice
        run_suite(seed=1)
        assert len(calls) == len(set(calls))
        calls.clear()
        reports = run_suite(seed=1, checks=("kron",))
        in_run = list(calls)
        # on their own the checks give the same reports, and eliminate the
        # families the run eliminates, some of them again: pairs repeat
        calls.clear()
        rng = random.Random("1:kron")
        pairs = list(chain(verify._designed_pairs()[:2], verify._pairs(rng, 30, 4)))
        alone = []
        for g, h, desc in pairs:
            alone.extend(check_kron_remark(g, h, fields(0, 2, 3), instance=desc))
        assert alone == reports
        assert sorted(in_run) == sorted(set(calls)) and len(in_run) < len(calls)
        assert any(1 in (g.n, h.n) for g, h, _ in pairs)
        # with a one-vertex factor both products are the other factor: only
        # the two factors reach the engine
        g, k1 = cycle(5), empty_graph(1)
        for pair in ((g, k1), (k1, g)):
            calls.clear()
            check_kron_remark(*pair, fields(0, 2))
            assert sorted(calls) == sorted(
                (x.n, tuple(verify.mis_masks(x)), (0, 2)) for x in pair
            )

    def test_a_check_called_on_its_own_computes_afresh(self, monkeypatch):
        from wellcovered import verify

        calls = []
        real = verify.mis_masks
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a) or real(*a))
        g = cycle(5)
        first = check_union(g, g, fields(0, 2))
        # the repeated factor g is enumerated once per call, and again by the next call
        assert [c[0].n for c in calls] == [5, 10]
        assert check_union(g, g, fields(0, 2)) == first
        assert calls[2:] == calls[:2]

    def test_a_capacity_overrun_is_not_kept(self, monkeypatch):
        from wellcovered import CapacityError, verify

        calls = []
        real = verify.mis_masks
        monkeypatch.setattr(verify, "mis_masks", lambda *a: calls.append(a) or real(*a))
        # cycle(4) has two maximal independent sets: one more than a limit of 1
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 1)
        seen = {}
        for _ in range(2):
            with pytest.raises(CapacityError):
                verify._computed([cycle(4)], fields(0), seen)
        assert seen == {}
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 2)
        for _ in range(2):
            [reports] = verify._computed([cycle(4)], fields(0), seen)
            assert [r.mis_count for r in reports] == [2]
        assert len(calls) == 3


    def test_the_memo_keeps_each_graphs_sets_once_and_its_reports_per_field_list(
        self, monkeypatch
    ):
        from wellcovered import verify

        enumerated, eliminated = [], []
        real_masks, real_sets = verify.mis_masks, verify.compute_wcdim_sets
        monkeypatch.setattr(
            verify, "mis_masks", lambda g: enumerated.append(g) or real_masks(g)
        )
        monkeypatch.setattr(
            verify,
            "compute_wcdim_sets",
            lambda n, sets, fs: eliminated.append((n, tuple(f.characteristic for f in fs)))
            or real_sets(n, sets, fs),
        )
        seen = {}
        graphs = [cycle(5), crown(3), cycle(5)]
        first = verify._computed(graphs, fields(0, 2), seen)
        again = verify._computed(graphs, fields(0, 2), seen)
        other = verify._computed(graphs, fields(0, 3), seen)
        # two distinct graphs: each enumerated once, and eliminated once per field list
        assert enumerated == [cycle(5), crown(3)]
        assert eliminated == [(5, (0, 2)), (6, (0, 2)), (5, (0, 3)), (6, (0, 3))]
        assert first[0] is first[2] is again[0] and first[1] is again[1]
        assert [r.field.characteristic for r in other[0]] == [0, 3]
        assert [[r.wcdim for r in rs] for rs in first] == [[1, 1], [2, 2], [1, 1]]


class TestDraws:
    def test_below_draws_what_randrange_randint_and_choice_draw(self):
        from wellcovered.verify import _below

        bounds = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100, 2**31, 2**32, 2**32 + 1)
        for seed in range(200):
            methods, helper = random.Random(seed), random.Random(seed)
            bits = helper.getrandbits
            for k in bounds:
                assert _below(bits, k) == methods.randrange(k), (seed, k)
                assert 1 + _below(bits, k) == methods.randint(1, k), (seed, k)
                if k <= 100:
                    seq = tuple(range(10, 10 + k))
                    assert seq[_below(bits, len(seq))] == methods.choice(seq), (seed, k)
            # the streams are in step after every draw
            assert helper.getstate() == methods.getstate()

    def test_below_refuses_an_empty_range(self):
        from wellcovered.verify import _below

        with pytest.raises(ValueError):
            _below(random.Random(0).getrandbits, 0)

    def test_a_drawn_graph_is_what_choice_and_randrange_give(self):
        from wellcovered.verify import DEFAULT_SIZES, _draw

        for seed in range(100):
            for cap in range(1, 10):
                methods, helper = random.Random(f"{seed}:{cap}"), random.Random(f"{seed}:{cap}")
                n = methods.choice([s for s in DEFAULT_SIZES if s <= cap])
                sub = methods.randrange(2**32)
                g, desc = _draw(helper, cap)
                assert g == random_graph(n, 0.5, sub)
                assert desc == f"random(n={n},p=1/2,seed={sub})"
                assert helper.getstate() == methods.getstate()


class TestRunSuite:
    def test_deterministic(self):
        assert run_suite(seed=3, trials=4) == run_suite(seed=3, trials=4)

    def test_a_family_sweep_builds_each_instance_when_it_reaches_it(self, monkeypatch):
        # a turan sweep to 1000 has 500,500 instances, 74 MB as a list
        import tracemalloc

        from wellcovered import verify

        class Reached(Exception):
            pass

        def first(spec, fs):
            raise Reached(str(spec))

        monkeypatch.setattr(verify, "check_family", first)
        tracemalloc.start()
        try:
            with pytest.raises(Reached, match="^turan:1,1$"):
                run_suite(checks=("family",), family_kind="turan", family_max_n=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22

    def test_section_filter(self):
        reports = run_suite(seed=1, checks=("union",), trials=5)
        assert reports and all(r.check == "union" for r in reports)

    def test_sections_replay_identically_inside_the_full_suite(self):
        full = [r for r in run_suite(seed=5, trials=4) if r.check == "blowup"]
        alone = run_suite(seed=5, checks=("blowup",), trials=4)
        assert full == alone

    def test_default_suite_verdict_profile(self):
        # every check of a dimension identity that actually holds passes; the
        # lexicographic closed form and its rank shortcut are refuted
        reports = run_suite(seed=1)
        _, fails, skips = summarize(reports)
        assert skips == 0
        for r in reports:
            if r.check in ("family", "blowup", "multi-blowup", "union"):
                assert r.verdict == "pass", r
        assert any(r.verdict == "fail" for r in reports if r.check == "lex")

    def test_failures_are_reproducible_from_their_descriptors(self):
        reports = run_suite(seed=1, checks=("lex",), trials=10)
        failed = [r for r in reports if r.verdict == "fail"]
        assert failed
        pat = re.compile(r"random\(n=(\d+),p=1/2,seed=(\d+)\)")
        for r in failed[:3]:
            (n1, s1), (n2, s2) = pat.findall(r.instance)
            g = random_graph(int(n1), 0.5, int(s1))
            h = random_graph(int(n2), 0.5, int(s2))
            replay = check_lex(g, h, [FieldSpec(r.characteristics[0])])[0]
            assert replay.verdict == "fail"
            assert replay.predicted == r.predicted and replay.engine == r.engine

    def test_unknown_section_rejected(self):
        from wellcovered import InputError

        with pytest.raises(InputError):
            run_suite(seed=1, checks=("nonsense",))

    @pytest.mark.parametrize(
        "section",
        ["blowup", "multi-blowup", "lex", "union", "kron"],
        ids=["blowup", "multi_blowup", "lex", "union", "kron"],
    )
    def test_negative_trial_count_rejected(self, section):
        from wellcovered import InputError

        with pytest.raises(InputError):
            run_suite(seed=1, checks=(section,), trials=-1)

    @pytest.mark.parametrize(
        "section, check, designed, default",
        [
            ("blowup", "check_blowup", 0, 100),
            ("multi-blowup", "check_multi_blowup", 0, 50),
            ("union", "check_union", 0, 50),
            ("lex", "check_lex", 3, 50),
            ("kron", "check_kron_remark", 2, 30),
        ],
    )
    def test_default_trial_counts(self, monkeypatch, section, check, designed, default):
        # each check is looked up on the module when the suite calls it
        from wellcovered import verify

        instances = []
        monkeypatch.setattr(
            verify, check, lambda *a, instance, **kw: instances.append(instance) or []
        )
        assert run_suite(seed=1, checks=(section,)) == []
        assert len(instances) == designed + default
        assert sum("random(" in i for i in instances) == default

    @pytest.mark.parametrize(
        "request_, swept",
        [
            ({"chars": (11,)}, "[0, 2, 3, 5, 7]"),
            ({"checks": ("lex",), "chars": (3,)}, "[0, 2]"),
            ({"checks": ("kron",), "chars": (5,)}, "[0, 2, 3]"),
            ({"checks": ("family",), "family_kind": "petersen", "chars": (7,)}, "[0, 2, 3, 5]"),
        ],
        ids=["all-11", "lex-3", "kron-5", "petersen-7"],
    )
    def test_characteristics_no_section_sweeps_are_rejected(self, request_, swept):
        # these used to compare nothing and report 0 passed, 0 failed
        from wellcovered import InputError

        with pytest.raises(InputError, match=re.escape(f"they sweep {swept}")):
            run_suite(seed=1, **request_)

    def test_a_section_that_sweeps_a_given_characteristic_still_runs(self):
        # family and union sweep 5; the other sections are skipped silently
        reports = run_suite(seed=1, chars=(5,), trials=2)
        assert {r.check for r in reports} == {"family", "union"}
        assert all(5 in r.characteristics for r in reports)
        assert run_suite(seed=1, checks=("blowup",), trials=0) == []

    @pytest.mark.parametrize(
        "request_, message",
        [
            ({"checks": ("lex",), "family_kind": "crown"}, "family kind or size bound"),
            ({"checks": ("union", "kron"), "family_max_n": 3}, "family kind or size bound"),
            ({"checks": ("family",), "trials": 0}, "trial count"),
            # these four used to sweep as if the bound were absent, or only
            # each kind's lowest size
            ({"family_kind": "petersen", "family_max_n": 9}, "'petersen' takes no size bound"),
            ({"family_kind": "kpartite", "family_max_n": 3}, "'kpartite' takes no size bound"),
            ({"checks": ("family",), "family_max_n": 0}, "size bound must lie in 1..16384, got 0"),
            ({"family_max_n": -5}, "size bound must lie in 1..16384, got -5"),
        ],
        ids=[
            "lex-kind", "union-kron-max-n", "family-trials",
            "petersen-max-n", "kpartite-max-n", "family-max-n-0", "all-max-n-negative",
        ],
    )
    def test_options_no_requested_section_reads_are_rejected(self, request_, message):
        from wellcovered import InputError

        with pytest.raises(InputError, match=message):
            run_suite(seed=1, **request_)

    def test_the_full_suite_takes_every_option(self):
        reports = run_suite(seed=1, family_kind="crown", family_max_n=4, trials=0)
        family = [r.instance for r in reports if r.check == "family"]
        assert family == ["crown:3", "crown:4"]
        # with no random trial, only the designed lex and kron pairs remain
        assert {r.check for r in reports} == {"family", "lex", "kron"}
        assert all("random(" not in r.instance for r in reports)

    def test_no_batch_elimination_runs(self, monkeypatch):
        # every check reads its ranks off the engine's row spaces
        from wellcovered import exactlin, kernels

        want = run_suite(seed=1)

        def refuse(*args, **kwargs):
            raise AssertionError("a batch elimination ran")

        monkeypatch.setattr(exactlin.ExactMatrix, "__init__", refuse)
        monkeypatch.setattr(kernels, "gf_rank", refuse)
        assert run_suite(seed=1) == want

    def test_unknown_family_kind_rejected(self):
        from wellcovered import InputError

        with pytest.raises(InputError, match="moebius"):
            run_suite(seed=1, checks=("family",), family_kind="moebius")
