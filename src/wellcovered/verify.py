"""Oracle harness: replay every closed-form predictor against the engine.

Every check compares a formula with the engine, exact integers with no
tolerance; even the Kronecker check reads its ranks off the engine's
reports for graphs, the disjunctive product among them, so nothing here
runs a second elimination.  Failed reports always carry the instance
descriptor needed to rebuild the inputs: family parameters, or the
(n, p, seed) triple of a random graph.  Capacity overruns are recorded as
skips, never as passes or failures.  Every check reaches the engine one
way: it enumerates every set of each graph once with `mis_masks`, bounded
like every enumeration by the constant `mis.DEFAULT_MIS_LIMIT`, and
eliminates them once for all fields with `compute_wcdim_sets`.  So the
engine runs without modular decomposition: the blowup, union and lex
checks replace vertices by graphs, which is what the decomposition relies
on, so they must not test it against itself.
Within one `run_suite` call every check shares one memo, keyed by graph:
(n, masks) for the enumeration and (n, masks, characteristics) for the
elimination, so each distinct labelled graph is enumerated once and
eliminated once per field list, however many checks meet it.  Small
random graphs recur within a section, so do the graphs built from them, a
blowup by 1 is its base graph again, and with a one-vertex factor both
kron products are the other factor.  A check called on its own keeps a
memo for that call only.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import families, formulas
from .engine import WcdimReport, compute_wcdim_sets
from .errors import CapacityError, InputError
from .exactlin import FieldSpec
from .families import FAMILY_BUILDERS, FamilySpec, build_family
from .graphs import (
    MAX_VERTICES, Graph, blowup, disjoint_union, disjunctive_product, lex_product, multi_blowup,
    random_graph,
)
from .mis import mis_masks

# perfbench/trace.py instruments these names here; nothing in this module calls them
from .engine import build_sum_system, compute_wcdim  # noqa: F401
from .exactlin import kronecker, move_dependent_row_first, rank, reduce_first_row  # noqa: F401
from .mis import enumerate_mis  # noqa: F401

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Family(NamedTuple):
    chars: tuple[int, ...]  # characteristics swept
    sizes: tuple[int, int] | None  # default lowest and highest first parameter
    predict: Callable[[tuple[int, ...], FieldSpec], int]  # dimension of (params, field)


# the family section sweeps the kinds in this order; petersen has no
# parameter and kpartite draws its block sizes
FAMILIES = {
    "petersen": Family((0, 2, 3, 5), None, lambda p, f: 0),
    "complete": Family((0, 2, 3, 5, 7), (1, 8), lambda p, f: 1),
    "empty": Family((0, 2, 3, 5, 7), (1, 8), lambda p, f: p[0]),
    "crown": Family((0, 2, 3, 5, 7), (3, 9), lambda p, f: formulas.f_crown(p[0], f).value),
    "path": Family((0, 2, 3, 5), (1, 10), lambda p, f: formulas.f_path(p[0]).value),
    "cycle": Family((0, 2, 3, 5), (3, 12), lambda p, f: formulas.f_cycle(p[0]).value),
    "gear": Family((0, 2, 3, 5), (3, 6), lambda p, f: formulas.f_gear(p[0]).value),
    "turan": Family((0, 2, 3, 5), (1, 10), lambda p, f: formulas.f_turan(*p).value),
    "kpartite": Family((0, 2, 3), None, lambda p, f: formulas.f_multipartite(list(p)).value),
}

# section -> (characteristics swept, default number of random trials); the
# family section sweeps each kind over its own characteristics and draws none
SECTIONS = {
    "family": (tuple(sorted({c for family in FAMILIES.values() for c in family.chars})), None),
    "blowup": ((0, 2, 3), 100),
    "multi-blowup": ((0, 2, 3), 50),
    "union": ((0, 2, 5), 50),
    "lex": ((0, 2), 50),
    "kron": ((0, 2, 3), 30),
}
ALL_CHECKS = tuple(SECTIONS)

DEFAULT_SIZES = tuple(range(1, 8))
DEFAULT_CHARS = (0, 2, 3, 5, 7)

_HALF = Fraction(1, 2)

# the memo of the running `run_suite` call, see `_computed`; unset outside one
_SEEN: ContextVar[dict] = ContextVar("_SEEN")


class CheckReport(NamedTuple):
    """One engine-vs-formula comparison, with everything needed to replay it."""

    check: str
    instance: str
    characteristics: tuple[int, ...]
    predicted: tuple[int, ...]
    engine: tuple[int, ...]
    verdict: str
    detail: str = ""


def _graph_descriptor(g: Graph) -> str:
    return f"n={g.n};edges={g.edges()}"


def _random_descriptor(n: int, seed: int) -> str:
    return f"random(n={n},p=1/2,seed={seed})"


def _computed(
    graphs: Iterable[Graph], fields: Sequence[FieldSpec], seen: dict
) -> list[list[WcdimReport]]:
    """Each graph's reports over fields, in graph order.

    `seen` keeps each graph's sets under (n, masks) and its reports under
    (n, masks, characteristics).  Every graph is enumerated before any is
    eliminated, so a CapacityError propagates before anything is
    eliminated; it is not kept, and the next call enumerates that graph again.
    """
    chars = tuple([f.characteristic for f in fields])
    families = []
    for g in graphs:
        key = (g.n, g.masks)
        sets = seen.get(key)
        if sets is None:
            sets = seen[key] = mis_masks(g)
        families.append((g.n, sets, key + (chars,)))
    out = []
    for n, sets, key in families:
        reports = seen.get(key)
        if reports is None:
            reports = seen[key] = compute_wcdim_sets(n, sets, fields)
        out.append(reports)
    return out


def check_family(spec: FamilySpec, chars: Sequence[FieldSpec]) -> CheckReport:
    """Engine wcdim must equal the family's formula for every characteristic.

    Raises InputError for an empty characteristic list, which would
    otherwise pass after comparing nothing.
    """
    if not chars:
        raise InputError("check_family needs at least one characteristic")
    predict = FAMILIES[spec.kind].predict
    predicted = tuple(predict(spec.params, f) for f in chars)
    swept = tuple(f.characteristic for f in chars)
    try:
        [reports] = _computed([build_family(spec)], chars, _SEEN.get({}))
    except CapacityError as exc:
        return CheckReport("family", str(spec), swept, (), (), SKIP, str(exc))
    engine = tuple(r.wcdim for r in reports)
    verdict = PASS if predicted == engine else FAIL
    return CheckReport("family", str(spec), swept, predicted, engine, verdict)


def _replay(
    check: str, desc: str, graphs: Callable[[], Sequence[Graph]], fields: Sequence[FieldSpec],
    compare: Callable[..., tuple[tuple[int, ...], tuple[int, ...], str]],
) -> list[CheckReport]:
    """One report per field, in field order, comparing a formula with the engine.

    `graphs` builds the graphs the formula relates; each is enumerated once
    and eliminated once for all fields, and `compare` maps their reports
    over one field, in that order, to (predicted, engine, detail).  A
    capacity overrun, in building or enumerating a graph every field
    shares, skips every field.  An empty field list builds nothing.
    """
    if not fields:
        return []
    try:
        computed = _computed(graphs(), fields, _SEEN.get({}))
    except CapacityError as e:
        return [CheckReport(check, desc, (f.characteristic,), (), (), SKIP, str(e)) for f in fields]
    reports = []
    for f, *rs in zip(fields, *computed):
        want, got, detail = compare(*rs)
        verdict = PASS if want == got else FAIL
        reports.append(CheckReport(check, desc, (f.characteristic,), want, got, verdict, detail))
    return reports


def check_blowup(
    g: Graph, v: int, t: int, fields: Sequence[FieldSpec], instance: str = "",
) -> list[CheckReport]:
    """wcdim of the blowup must be m + t - 1 where m is wcdim of g.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or _graph_descriptor(g)
    return _replay(
        "blowup", f"{desc};v={v};t={t}", lambda: (g, blowup(g, v, t)), fields,
        lambda rg, rb: ((formulas.f_blowup(rg.wcdim, t).value,), (rb.wcdim,), ""),
    )


def check_multi_blowup(
    g: Graph, ts: Sequence[int], fields: Sequence[FieldSpec], instance: str = "",
) -> list[CheckReport]:
    """wcdim after blowing every vertex must be (m - n) + sum(ts).

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or _graph_descriptor(g)
    return _replay(
        "multi-blowup", f"{desc};ts={list(ts)}", lambda: (g, multi_blowup(g, ts)), fields,
        lambda rg, rb: ((formulas.f_multi_blowup(rg.wcdim, g.n, ts).value,), (rb.wcdim,), ""),
    )


def _lex_fibre_dimension(a: int, n: int, m: int, b: int, rank_a: int) -> int:
    """Dimension of the product space implied directly by the MIS structure.

    Every maximal independent set of the product picks one maximal
    independent set of h per vertex of a maximal independent set of g, so a
    weighting is well-covered exactly when each fibre carries a well-covered
    weighting of h and the fibre sums form a well-covered weighting of g.
    The fibre-sum functional is onto the scalars exactly when the h sum
    system has rank (b - m) + 1; otherwise every fibre sum is forced to 0.
    """
    if rank_a == (b - m) + 1:
        return a * (m - 1) + n
    return a * m


def check_lex(
    g: Graph, h: Graph, fields: Sequence[FieldSpec], instance: str = "",
) -> list[CheckReport]:
    """Engine wcdim of the lexicographic product vs the published closed form.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"
    a, b = g.n, h.n

    def compare(rg: WcdimReport, rh: WcdimReport, rp: WcdimReport) -> tuple:
        n, m = rg.wcdim, rh.wcdim
        i, j = rh.mis_count, rg.mis_count
        want, got = formulas.f_lex(a, b, n, m, i, j).value, rp.wcdim
        detail = ""
        if want != got:
            fibre = _lex_fibre_dimension(a, n, m, b, rh.sum_rank)
            detail = (
                f"closed form {want} != engine {got}; "
                f"fibre-structure value {fibre} (a={a},b={b},n={n},m={m},i={i},j={j})"
            )
        return (want,), (got,), detail

    return _replay("lex", desc, lambda: (g, h, lex_product(g, h)), fields, compare)


def check_union(
    g: Graph, h: Graph, fields: Sequence[FieldSpec], instance: str = "",
) -> list[CheckReport]:
    """wcdim of a disjoint union must be the sum of the parts' dimensions.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"
    return _replay(
        "union", desc, lambda: (g, h, disjoint_union(g, h)), fields,
        lambda rg, rh, ru: ((formulas.f_union(rg.wcdim, rh.wcdim).value,), (ru.wcdim,), ""),
    )


def check_kron_remark(
    g: Graph, h: Graph, fields: Sequence[FieldSpec], instance: str = "",
) -> list[CheckReport]:
    """Replay the reduced-Kronecker rank table and the product rank shortcut.

    M and A are the 0/1 sum systems of g and h, and C is the first-row
    reduction of A (x) M.  The published table predicts rank(C) from
    k = rank(reduced M), q = rank(reduced A) and the row-dependency flags,
    and the product's dimension is asserted to be ab - rank(C).  Every rank
    is read off the engine: k and rank(M) are the difference and sum ranks
    of g's sets, q and rank(A) those of h's.  The maximal independent sets
    of the disjunctive product G v H are the products S x T, the rows of
    A (x) M with the columns permuted, so rank(C) is its difference rank
    and ab - rank(C) its dimension: the remark reads wcdim(G . H) =
    wcdim(G v H).  One report per field, in field order; each graph is
    enumerated once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"

    def compare(rg: WcdimReport, rh: WcdimReport, rp: WcdimReport, rc: WcdimReport) -> tuple:
        k, rank_m, q, rank_a = rg.diff_rank, rg.sum_rank, rh.diff_rank, rh.sum_rank
        rank_c = rc.diff_rank
        want_rank = formulas.kron_rank_case(k, q, rank_m < rg.mis_count, rank_a < rh.mis_count)
        want_dim, got_dim = rc.wcdim, rp.wcdim
        detail = ""
        if want_rank != rank_c:
            # diagnostic: key the table on rank(X) == rank(reduced X) instead of
            # row counts; that keying matches rank(C) on every instance seen
            alt = formulas.kron_rank_case(k, q, rank_m == k, rank_a == q)
            detail = (
                f"rank table {want_rank} != rank(C) {rank_c}; rank-drop keyed table gives {alt}"
            )
        elif want_dim != got_dim:
            detail = f"ab - rank(C) = {want_dim} != engine {got_dim}"
        return (want_rank, want_dim), (rank_c, got_dim), detail

    return _replay(
        "kron", desc, lambda: (g, h, lex_product(g, h), disjunctive_product(g, h)), fields, compare
    )


def _effective(check_chars: Sequence[int], chars: Sequence[int]) -> list[FieldSpec]:
    return [FieldSpec(c) for c in check_chars if c in set(chars)]


def _family_specs(rng: random.Random, kind: str | None, max_n: int | None) -> Iterator[FamilySpec]:
    """Every instance the family section checks, kind by kind in FAMILIES order.

    Built one at a time as the sweep reaches it, so a turan sweep, about
    max_n^2 / 2 instances, never holds them all.
    """
    for k, family in FAMILIES.items():
        if kind not in (None, k):
            continue
        arity = FAMILY_BUILDERS[k].arity
        if arity == 0:
            yield FamilySpec(k)
        elif arity is None:
            for _ in range(20):
                blocks = rng.randint(1, 5)
                yield FamilySpec(k, tuple(rng.randint(1, 4) for _ in range(blocks)))
        else:
            lo, hi = family.sizes
            ns = range(lo, (hi if max_n is None else max(lo, max_n)) + 1)
            if arity == 1:
                yield from (FamilySpec(k, (n,)) for n in ns)
            else:  # turan:n,r, with every r from 1 to n
                yield from (FamilySpec(k, (n, r)) for n in ns for r in range(1, n + 1))


def _draw(rng: random.Random, cap: int) -> tuple[Graph, str]:
    """A G(n, 1/2) with n from DEFAULT_SIZES up to cap, and the descriptor that rebuilds it."""
    n = rng.choice([s for s in DEFAULT_SIZES if s <= cap])
    sub = rng.randrange(2**32)
    return random_graph(n, _HALF, sub), _random_descriptor(n, sub)


def _pairs(rng: random.Random, count: int, cap: int) -> Iterator[tuple[Graph, Graph, str]]:
    for _ in range(count):
        g, dg = _draw(rng, cap)
        h, dh = _draw(rng, cap)
        yield g, h, f"g[{dg}];h[{dh}]"


def _designed_pairs() -> list[tuple[Graph, Graph, str]]:
    """The lex section's hand-picked pairs; the kron section replays the first two."""
    k2, e2 = families.complete(2), families.empty_graph(2)
    return [
        (k2, k2, "g[complete:2];h[complete:2]"),
        (k2, e2, "g[complete:2];h[empty:2]"),
        (families.cycle(4), e2, "g[cycle:4];h[empty:2]"),
    ]


def run_suite(
    seed: int = 1,
    chars: Sequence[int] = DEFAULT_CHARS,
    checks: Sequence[str] = ALL_CHECKS,
    family_kind: str | None = None,
    family_max_n: int | None = None,
    trials: int | None = None,
) -> list[CheckReport]:
    """The deterministic check suite, section by section in SECTIONS order.

    `trials` sets the number of random instances of every section that
    draws them; None keeps each section's default from SECTIONS.  Each
    section draws from its own stream seeded with (seed, section name), so
    running one section alone replays exactly the instances it would see
    inside the full suite.  Every random instance descriptor embeds the
    sub-seed that regenerates its graph.  A negative trial count, a size
    bound outside 1..MAX_VERTICES (every sized family has at least n
    vertices at parameter n, so a larger bound would only add capacity
    skips), an unknown check section or family kind, an invalid
    characteristic, an option no requested section or family kind reads, or
    characteristics that no requested section sweeps (which would pass after
    comparing nothing) raise InputError.
    Each distinct labelled graph is enumerated once per call, up to the
    constant `mis.DEFAULT_MIS_LIMIT` sets (an overrun is a skip), and
    eliminated once per field list, for every check that meets it; nothing
    is kept between calls.
    """
    if trials is not None and trials < 0:
        raise InputError("trial counts must be non-negative")
    for c in checks:
        if c not in SECTIONS:
            raise InputError(f"unknown check section {c!r}")
    if "family" not in checks and (family_kind is not None or family_max_n is not None):
        raise InputError("a family kind or size bound is only valid with the family section")
    if trials is not None and all(SECTIONS[c][1] is None for c in checks):
        raise InputError("a trial count is only valid with a section that draws random trials")
    if family_kind is not None and family_kind not in FAMILIES:
        raise InputError(f"unknown graph family {family_kind!r}")
    if family_max_n is not None:
        if not 1 <= family_max_n <= MAX_VERTICES:
            raise InputError(
                f"the family size bound must lie in 1..{MAX_VERTICES}, got {family_max_n}"
            )
        if family_kind is not None and FAMILIES[family_kind].sizes is None:
            raise InputError(f"family {family_kind!r} takes no size bound")
    for c in chars:
        FieldSpec(c)  # reject invalid characteristics up front

    def sweep(section: str) -> tuple[int, ...]:
        if section == "family" and family_kind is not None:
            return FAMILIES[family_kind].chars
        return SECTIONS[section][0]

    swept = {c for section in checks for c in sweep(section)}
    if not swept & set(chars):
        raise InputError(
            f"no requested check sweeps characteristic(s) {sorted(set(chars))}; "
            f"they sweep {sorted(swept)}"
        )
    reports: list[CheckReport] = []
    token = _SEEN.set({})  # the memo every check of this run shares
    try:
        for section, (_, default_trials) in SECTIONS.items():
            fs = _effective(sweep(section), chars)
            if section not in checks or not fs:
                continue
            rng = random.Random(f"{seed}:{section}")
            count = default_trials if trials is None else trials
            if section == "family":
                kind_fs = {k: _effective(family.chars, chars) for k, family in FAMILIES.items()}
                for spec in _family_specs(rng, family_kind, family_max_n):
                    if kind_fs[spec.kind]:
                        reports.append(check_family(spec, kind_fs[spec.kind]))
            elif section == "blowup":
                for _ in range(count):
                    g, desc = _draw(rng, 7)
                    v = rng.randrange(g.n)
                    t = rng.randint(1, 3)
                    reports.extend(check_blowup(g, v, t, fs, instance=desc))
            elif section == "multi-blowup":
                for _ in range(count):
                    g, desc = _draw(rng, 7)
                    ts = [rng.randint(1, 3) for _ in range(g.n)]
                    reports.extend(check_multi_blowup(g, ts, fs, instance=desc))
            elif section == "union":
                for g, h, desc in _pairs(rng, count, 7):
                    reports.extend(check_union(g, h, fs, instance=desc))
            elif section == "lex":
                for g, h, desc in chain(_designed_pairs(), _pairs(rng, count, 4)):
                    reports.extend(check_lex(g, h, fs, instance=desc))
            else:  # kron
                for g, h, desc in chain(_designed_pairs()[:2], _pairs(rng, count, 4)):
                    reports.extend(check_kron_remark(g, h, fs, instance=desc))
    finally:
        _SEEN.reset(token)
    return reports


def summarize(reports: Sequence[CheckReport]) -> tuple[int, int, int]:
    """Counts of (passes, failures, skips)."""
    passes = sum(1 for r in reports if r.verdict == PASS)
    fails = sum(1 for r in reports if r.verdict == FAIL)
    skips = sum(1 for r in reports if r.verdict == SKIP)
    return passes, fails, skips
