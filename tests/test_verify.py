import re

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
    new_graph,
    path,
    random_graph,
)
from wellcovered.engine import build_sum_system
from wellcovered.exactlin import rank
from wellcovered.families import FamilySpec
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

from helpers import all_graphs

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

    def test_capacity_becomes_skip(self):
        report = check_family(FamilySpec("petersen"), fields(0), limit=5)
        assert report.verdict == "skip"


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
                rank_a = rank(build_sum_system(enumerate_mis(h)), f)
                got = _lex_fibre_dimension(
                    g.n,
                    compute_wcdim(g, f).wcdim,
                    compute_wcdim(h, f).wcdim,
                    h.n,
                    rank_a,
                )
                assert got == truth, (g.edges(), h.edges(), char)


class TestCheckKron:
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
        from wellcovered import engine, verify

        calls = []
        for mod, name in ((engine, "mis_masks"), (verify, "enumerate_mis")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _real=real: calls.append(a) or _real(*a))
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
        # two graphs per blowup check, three per union, lex and kron check
        assert len(calls) == 2 + 2 + 3 + 3 + 3
        for (check, args), reports in zip(checks, batched):
            assert [r.characteristics for r in reports] == [(0,), (2,), (3,), (5,)]
            assert reports == [check(*args, [f])[0] for f in fs]

    def test_empty_field_list_enumerates_nothing(self, monkeypatch):
        from wellcovered import engine, verify

        calls = []
        monkeypatch.setattr(engine, "mis_masks", lambda *a: calls.append(a))
        monkeypatch.setattr(verify, "enumerate_mis", lambda *a: calls.append(a))
        g, h = cycle(5), path(3)
        assert check_blowup(g, 0, 2, []) == []
        assert check_multi_blowup(g, [2] * 5, []) == []
        assert check_union(g, h, []) == []
        assert check_lex(g, h, []) == []
        assert check_kron_remark(g, h, []) == []
        assert calls == []

    def test_family_check_rejects_an_empty_field_list(self, monkeypatch):
        # one report per call, so an empty list would be a pass with no comparison
        from wellcovered import InputError, engine, verify

        calls = []
        monkeypatch.setattr(engine, "mis_masks", lambda *a: calls.append(a))
        monkeypatch.setattr(verify, "build_family", lambda *a: calls.append(a))
        with pytest.raises(InputError):
            check_family(FamilySpec("petersen"), [])
        assert calls == []

    def test_capacity_overrun_skips_every_field(self):
        # cycle(4) has two maximal independent sets, one more than the limit
        fs = fields(0, 2, 3)
        g, h = cycle(4), complete(2)
        for reports in (
            check_blowup(g, 0, 2, fs, limit=1),
            check_multi_blowup(g, [2] * 4, fs, limit=1),
            check_union(g, h, fs, limit=1),
            check_lex(g, h, fs, limit=1),
            check_kron_remark(g, h, fs, limit=1),
        ):
            assert [r.verdict for r in reports] == ["skip"] * 3
            assert [r.characteristics for r in reports] == [(0,), (2,), (3,)]
            assert all(r.predicted == r.engine == () for r in reports)
            assert reports[0].detail and len({r.detail for r in reports}) == 1


class TestRunSuite:
    def test_empty_sizes_give_empty_report(self):
        assert run_suite(seed=1, sizes=()) == []

    def test_deterministic(self):
        a = run_suite(seed=3, lex_trials=4, blowup_trials=4, multi_blowup_trials=4,
                      union_trials=4, kron_trials=4)
        b = run_suite(seed=3, lex_trials=4, blowup_trials=4, multi_blowup_trials=4,
                      union_trials=4, kron_trials=4)
        assert a == b

    def test_section_filter(self):
        reports = run_suite(seed=1, checks=("union",), union_trials=5)
        assert reports and all(r.check == "union" for r in reports)

    def test_sections_replay_identically_inside_the_full_suite(self):
        full = [r for r in run_suite(seed=5, blowup_trials=6, multi_blowup_trials=2,
                                     lex_trials=2, union_trials=2, kron_trials=2)
                if r.check == "blowup"]
        alone = run_suite(seed=5, checks=("blowup",), blowup_trials=6)
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
        reports = run_suite(seed=1, checks=("lex",), lex_trials=10)
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
        "section", ["blowup", "multi_blowup", "lex", "union", "kron"]
    )
    def test_negative_trial_count_rejected(self, section):
        from wellcovered import InputError

        with pytest.raises(InputError):
            run_suite(seed=1, **{f"{section}_trials": -1})

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
        reports = run_suite(seed=1, chars=(5,), union_trials=2, blowup_trials=0,
                            multi_blowup_trials=0, lex_trials=0, kron_trials=0)
        assert {r.check for r in reports} == {"family", "union"}
        assert all(5 in r.characteristics for r in reports)
        assert run_suite(seed=1, checks=("blowup",), blowup_trials=0) == []

    def test_unknown_family_kind_rejected(self):
        from wellcovered import InputError

        with pytest.raises(InputError, match="moebius"):
            run_suite(seed=1, checks=("family",), family_kind="moebius")

    @pytest.mark.parametrize("bad", [{"chars": (4,)}, {"checks": ("nonsense",)}])
    def test_bad_argument_rejected_with_empty_sizes(self, bad):
        from wellcovered import InputError

        with pytest.raises(InputError):
            run_suite(seed=1, sizes=(), **bad)
