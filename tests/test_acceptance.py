"""Acceptance gate: one test per criterion, exact integer comparisons only.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line.  Two
criteria cover published identities that the engine refutes, and check the
refutation exactly rather than the identities: c11b checks that the engine
matches the brute-force oracle and the fibre-structure dimension on every
seeded lexicographic product, and that the closed form is reported failing
exactly where it misses the oracle (the counterexamples are printed); c12b
checks that ab - rank(C) is an upper bound on the product's dimension, with
equality whenever every product set is uniform.  See the README for the
refutation write-up.
"""

import random
import re
from fractions import Fraction

import pytest

from wellcovered import (
    FieldSpec,
    complete,
    complete_multipartite,
    compute_wcdim,
    crown,
    cycle,
    empty_graph,
    enumerate_mis,
    gear,
    lex_product,
    path,
    petersen,
    random_graph,
    turan,
)
from wellcovered.cli import parse_family_spec
from wellcovered.families import build_family
from wellcovered.formulas import f_crown, f_cycle, f_gear, f_lex, f_multipartite, f_path, f_turan
from wellcovered.verify import check_kron_remark, run_suite, summarize

from helpers import (
    brute_force_mis,
    ref_is_well_covered_weighting,
    ref_lex_fibre_dimension,
    ref_uniform_lex_dimension,
    ref_wcdim,
)


def F(c):
    return FieldSpec(c)


def report(num, desc, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({desc}): {status}")
    assert not failures, (
        f"criterion {num}: {len(failures)} failing instance(s); first: {failures[0]}"
    )


def test_c01_petersen_dimension_zero():
    failures = []
    for c in (0, 2, 3, 5):
        got = compute_wcdim(petersen(), F(c)).wcdim
        if got != 0:
            failures.append((c, got))
    report(1, "Petersen graph has dimension 0", failures)


def test_c02_complete_and_edgeless():
    failures = []
    for n in range(1, 9):
        for c in (0, 2, 3, 5, 7):
            got = compute_wcdim(complete(n), F(c)).wcdim
            if got != 1:
                failures.append(("complete", n, c, got))
            got = compute_wcdim(empty_graph(n), F(c)).wcdim
            if got != n:
                failures.append(("empty", n, c, got))
    report(2, "complete graphs give 1, edgeless give n", failures)


def test_c03_crown_sweep():
    failures = []
    for n in range(3, 10):
        for c in (0, 2, 3, 5, 7):
            got = compute_wcdim(crown(n), F(c)).wcdim
            want = f_crown(n, F(c)).value
            if got != want:
                failures.append((n, c, got, want))
    spot = [
        (4, 2, 4),
        (5, 3, 5),
        (9, 7, 9),
        (5, 0, 4),
    ]
    for n, c, want in spot:
        if compute_wcdim(crown(n), F(c)).wcdim != want:
            failures.append(("spot", n, c, want))
    report(3, "crown dimension follows the divisibility dichotomy", failures)


def test_c04_complete_multipartite_random_sizes():
    rng = random.Random(401)
    failures = []
    for _ in range(20):
        k = rng.randint(1, 5)
        sizes = [rng.randint(1, 4) for _ in range(k)]
        want = f_multipartite(sizes).value
        for c in (0, 2, 3):
            got = compute_wcdim(complete_multipartite(sizes), F(c)).wcdim
            if got != want:
                failures.append((sizes, c, got, want))
    report(4, "complete multipartite matches sum - (k-1)", failures)


def test_c05_turan_full_range():
    failures = []
    for n in range(1, 11):
        for r in range(1, n + 1):
            want = f_turan(n, r).value
            if n % r == 0 and want != n - (r - 1):
                failures.append(("reduction", n, r))
            for c in (0, 2, 3, 5):
                got = compute_wcdim(turan(n, r), F(c)).wcdim
                if got != want:
                    failures.append((n, r, c, got, want))
    report(5, "Turan graphs match the corollary formula", failures)


def test_c06_paths_dimensions_and_weight_structure():
    failures = []
    for n in range(1, 11):
        want = f_path(n).value
        for c in (0, 2, 3, 5):
            r = compute_wcdim(path(n), F(c))
            if r.wcdim != want:
                failures.append((n, c, r.wcdim, want))
            if n >= 5:
                # the end pairs are the path's simplicial cliques
                for w in r.basis:
                    if w[0] != w[1] or w[n - 2] != w[n - 1] or any(w[2 : n - 2]):
                        failures.append((n, c, w))
    report(6, "path dimensions 1,1,2,2,... and end-pair weight structure", failures)


def test_c07_cycles():
    want_by_n = {3: 1, 4: 3, 5: 1, 6: 2, 7: 1, 8: 0, 9: 0, 10: 0, 11: 0, 12: 0}
    failures = []
    for n, want in want_by_n.items():
        assert f_cycle(n).value == want
        for c in (0, 2, 3, 5):
            got = compute_wcdim(cycle(n), F(c)).wcdim
            if got != want:
                failures.append((n, c, got, want))
    report(7, "cycle dimensions 1,3,1,2,1,0,...", failures)


def test_c08_gears():
    failures = []
    for n, want in [(3, 3), (4, 0), (5, 0), (6, 0)]:
        assert f_gear(n).value == want
        for c in (0, 2, 3, 5):
            got = compute_wcdim(gear(n), F(c)).wcdim
            if got != want:
                failures.append((n, c, got, want))
    report(8, "gear dimensions 3,0,0,0", failures)


def test_c09_blowup_lemma_seeded():
    reports = run_suite(seed=1, checks=("blowup",), trials=100, chars=(0, 2, 3))
    assert len(reports) == 300
    failures = [r for r in reports if r.verdict != "pass"]
    report(9, "blowup lemma m + t - 1 on 100 seeded graphs", failures)


def test_c10_multi_blowup_theorem_seeded():
    reports = run_suite(seed=1, checks=("multi-blowup",), trials=50, chars=(0, 2, 3))
    assert len(reports) == 150
    failures = [r for r in reports if r.verdict != "pass"]
    report(10, "multi-blowup theorem (m - n) + sum(t) on 50 seeded graphs", failures)


def test_c11a_lex_theorem_designed_pairs():
    cases = [
        (complete(2), complete(2), 1),
        (complete(2), empty_graph(2), 3),
        (cycle(4), empty_graph(2), 7),
    ]
    from wellcovered.verify import check_lex

    failures = []
    for g, h, want in cases:
        r = check_lex(g, h, [F(0)])[0]
        if r.verdict != "pass" or r.engine != (want,):
            failures.append(r)
    report("11a", "lexicographic product closed form on the designed pairs", failures)


def lex_factors(instance):
    """Rebuild (g, h) from a lex or kron report's instance descriptor."""
    def build(desc):
        m = re.fullmatch(r"random\(n=(\d+),p=1/2,seed=(\d+)\)", desc)
        if m:
            return random_graph(int(m.group(1)), Fraction(1, 2), int(m.group(2)))
        return build_family(parse_family_spec(desc))

    dg, dh = re.fullmatch(r"g\[(.+)\];h\[(.+)\]", instance).groups()
    return build(dg), build(dh)


def test_c11b_lex_theorem_seeded_pairs():
    # the published closed form is refuted: it is symmetric under swapping
    # the factors' roles, (a, n, j) <-> (b, m, i), while the product is not.
    # What is checked is that the engine agrees with the brute-force oracle
    # and with the fibre-structure dimension, and that check_lex fails
    # exactly the pairs on which the closed form misses the oracle
    reports = run_suite(seed=1, checks=("lex",), trials=50)
    assert len(reports) == 106
    failures = []
    refuted = []
    for r in reports:
        if r.verdict == "skip":
            failures.append(("skipped", r))
            continue
        c = r.characteristics[0]
        g, h = lex_factors(r.instance)
        oracle = ref_wcdim(lex_product(g, h), c)
        if r.engine != (oracle,):
            failures.append(("engine != oracle", oracle, r))
        if ref_lex_fibre_dimension(g, h, c) != oracle:
            failures.append(("fibre dimension != oracle", oracle, r))
        want = f_lex(g.n, h.n, ref_wcdim(g, c), ref_wcdim(h, c),
                     len(brute_force_mis(h)), len(brute_force_mis(g))).value
        if r.predicted != (want,):
            failures.append(("closed form misfed", want, r))
        if (r.verdict == "fail") != (want != oracle):
            failures.append(("verdict", oracle, r))
        if want != oracle:
            refuted.append(r)
    for r in refuted[:5]:
        print(f"  counterexample: {r.instance} char {r.characteristics[0]}: "
              f"formula {r.predicted[0]} vs engine {r.engine[0]}")
    if not any("random(" in r.instance for r in refuted):
        failures.append("no seeded pair refutes the closed form")

    # smallest counterexample: E2 . K2 = 2K2 (dimension 2) and K2 . E2 = C4
    # (dimension 3), but the closed form gives 3 for both orientations
    for g, h, want in ((empty_graph(2), complete(2), 2), (complete(2), empty_graph(2), 3)):
        closed = f_lex(g.n, h.n, ref_wcdim(g, 0), ref_wcdim(h, 0),
                       len(brute_force_mis(h)), len(brute_force_mis(g))).value
        oracle = ref_wcdim(lex_product(g, h), 0)
        if (closed, oracle) != (3, want):
            failures.append(("symmetric counterexample", closed, oracle, want))
    report("11b", "lexicographic product closed form refuted exactly on 50 seeded pairs",
           failures)


def test_c12a_kron_rank_table_seeded():
    reports = run_suite(seed=1, checks=("kron",), trials=30)
    failures = [r for r in reports if r.verdict != "pass" and "rank table" in r.detail]
    report("12a", "four-case rank table for the reduced Kronecker system", failures)


def all_sets_uniform(g, h):
    """Whether every maximal independent set of g . h repeats one h-set per fibre."""
    b = h.n
    for s in brute_force_mis(lex_product(g, h)):
        fibres = {}
        for v in s:
            fibres.setdefault(v // b, set()).add(v % b)
        if len({frozenset(t) for t in fibres.values()}) > 1:
            return False
    return True


def test_c12b_kron_dimension_shortcut_seeded():
    # the rows of A (x) M are the uniform sets S x T only, so ab - rank(C)
    # is the dimension of the weightings constant on those sets: an upper
    # bound on the product's dimension, equal to it when every product set
    # is uniform (h has one set, or g is complete)
    reports = run_suite(seed=1, checks=("kron",), trials=30)
    assert len(reports) == 96
    failures = []
    strict = []
    uniform = {}  # instance -> whether every product set is uniform
    for r in reports:
        if r.verdict == "skip":
            failures.append(("skipped", r))
            continue
        c = r.characteristics[0]
        g, h = lex_factors(r.instance)
        oracle = ref_wcdim(lex_product(g, h), c)
        shortcut, dim = r.predicted[1], r.engine[1]
        if dim != oracle:
            failures.append(("engine != oracle", oracle, r))
        if shortcut != ref_uniform_lex_dimension(g, h, c):
            failures.append(("shortcut is not the uniform-set dimension", r))
        if shortcut < oracle:
            failures.append(("shortcut below the dimension", oracle, r))
        if r.instance not in uniform:
            uniform[r.instance] = all_sets_uniform(g, h)
        if uniform[r.instance] and shortcut != oracle:
            failures.append(("all sets uniform but shortcut != dimension", oracle, r))
        if (r.verdict == "fail") != (r.predicted != r.engine):
            failures.append(("verdict", r))
        if shortcut != oracle and "random(" in r.instance:
            strict.append(r)
    for r in strict[:5]:
        print(f"  strict bound: {r.instance} char {r.characteristics[0]}: "
              f"ab - rank(C) = {r.predicted[1]} > dimension {r.engine[1]}")
    if not any(uniform.values()):
        failures.append("no pair with only uniform product sets")
    if not strict:
        failures.append("no seeded pair with a strict bound")

    # two 4-paths: the shortcut gives 8, the product's dimension is 6
    p4 = check_kron_remark(path(4), path(4), [F(0)])[0]
    if (p4.predicted[1], p4.engine[1]) != (8, 6) or ref_wcdim(lex_product(path(4), path(4)), 0) != 6:
        failures.append(("P4 . P4", p4))
    report("12b", "ab - rank(C) bounds the product dimension on 30 seeded pairs", failures)


def test_c13_union_additivity_seeded():
    reports = run_suite(seed=1, checks=("union",), trials=50, chars=(0, 2, 5))
    assert len(reports) == 150
    failures = [r for r in reports if r.verdict != "pass"]
    report(13, "disjoint union additivity on 50 seeded pairs", failures)


def suite_graphs_up_to_ten():
    graphs = [("petersen", petersen())]
    for n in range(1, 9):
        graphs.append((f"complete:{n}", complete(n)))
        graphs.append((f"empty:{n}", empty_graph(n)))
    for n in range(3, 6):
        graphs.append((f"crown:{n}", crown(n)))
    for n in range(1, 11):
        for r in range(1, n + 1):
            graphs.append((f"turan:{n},{r}", turan(n, r)))
        graphs.append((f"path:{n}", path(n)))
    for n in range(3, 11):
        graphs.append((f"cycle:{n}", cycle(n)))
    for n in (3, 4):
        graphs.append((f"gear:{n}", gear(n)))
    rng = random.Random(1401)
    for k in range(25):
        n = rng.randint(0, 10)
        seed = rng.randrange(10**6)
        graphs.append((f"random(n={n},p=1/2,seed={seed})", random_graph(n, 0.5, seed)))
    return graphs


def test_c14_oracle_equivalence_and_basis_validity():
    failures = []
    for name, g in suite_graphs_up_to_ten():
        if list(enumerate_mis(g).sets) != brute_force_mis(g):
            failures.append(("mis", name))
            continue
        for c in (0, 2):
            r = compute_wcdim(g, F(c))
            for w in r.basis:
                if not ref_is_well_covered_weighting(g, w, c):
                    failures.append(("basis", name, c, w))
    report(14, "enumeration matches the 2^n oracle; bases re-verify", failures)
