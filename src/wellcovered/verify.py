"""Oracle harness: replay every closed-form predictor against the engine.

Each check compares two independently computed integers (formula vs
nullity of an exactly eliminated system) with no tolerance.  Failed reports
always carry the instance descriptor needed to rebuild the inputs: family
parameters, or the (n, p, seed) triple of a random graph.  Capacity
overruns are recorded as skips, never as passes or failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import families, formulas
from .engine import build_sum_system, compute_wcdim_fields
from .engine import compute_wcdim  # noqa: F401  (perfbench/trace.py instruments verify.compute_wcdim)
from .errors import CapacityError, InputError
from .exactlin import FieldSpec, kronecker, move_dependent_row_first, rank, reduce_first_row
from .families import FamilySpec, build_family
from .graphs import Graph, blowup, disjoint_union, lex_product, multi_blowup, random_graph
from .mis import DEFAULT_MIS_LIMIT, enumerate_mis

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

# characteristic sweeps per check, mirroring the acceptance gate
FAMILY_CHARS = {
    "petersen": (0, 2, 3, 5),
    "complete": (0, 2, 3, 5, 7),
    "empty": (0, 2, 3, 5, 7),
    "crown": (0, 2, 3, 5, 7),
    "kpartite": (0, 2, 3),
    "turan": (0, 2, 3, 5),
    "path": (0, 2, 3, 5),
    "cycle": (0, 2, 3, 5),
    "gear": (0, 2, 3, 5),
}
BLOWUP_CHARS = (0, 2, 3)
MULTI_BLOWUP_CHARS = (0, 2, 3)
LEX_CHARS = (0, 2)
UNION_CHARS = (0, 2, 5)
KRON_CHARS = (0, 2, 3)

DEFAULT_SIZES = tuple(range(1, 8))
DEFAULT_CHARS = (0, 2, 3, 5, 7)


@dataclass(frozen=True)
class CheckReport:
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


def _family_prediction(spec: FamilySpec, f: FieldSpec) -> int:
    kind, params = spec.kind, spec.params
    if kind == "petersen":
        return 0
    if kind == "complete":
        return 1
    if kind == "empty":
        return params[0]
    if kind == "crown":
        return formulas.f_crown(params[0], f).value
    if kind == "kpartite":
        return formulas.f_multipartite(list(params)).value
    if kind == "turan":
        return formulas.f_turan(*params).value
    if kind == "path":
        return formulas.f_path(params[0]).value
    if kind == "cycle":
        return formulas.f_cycle(params[0]).value
    if kind == "gear":
        return formulas.f_gear(params[0]).value
    raise InputError(f"no dimension formula for family {kind!r}")


def check_family(
    spec: FamilySpec,
    chars: Sequence[FieldSpec],
    limit: int = DEFAULT_MIS_LIMIT,
) -> CheckReport:
    """Engine wcdim must equal the family's formula for every characteristic.

    Raises InputError for an empty characteristic list, which would
    otherwise pass after comparing nothing.
    """
    if not chars:
        raise InputError("check_family needs at least one characteristic")
    g = build_family(spec)
    predicted = [_family_prediction(spec, f) for f in chars]
    try:
        engine = [r.wcdim for r in compute_wcdim_fields(g, chars, limit=limit)]
    except CapacityError as exc:
        return CheckReport(
            "family", str(spec), tuple(f.characteristic for f in chars),
            (), (), SKIP, str(exc),
        )
    verdict = PASS if predicted == engine else FAIL
    return CheckReport(
        "family", str(spec), tuple(f.characteristic for f in chars),
        tuple(predicted), tuple(engine), verdict,
    )


def _skips(
    check: str, desc: str, fields: Sequence[FieldSpec], exc: CapacityError,
) -> list[CheckReport]:
    # a capacity overrun comes from the enumeration, which every field shares
    return [CheckReport(check, desc, (f.characteristic,), (), (), SKIP, str(exc)) for f in fields]


def _compared(
    check: str, desc: str, f: FieldSpec,
    predicted: tuple[int, ...], engine: tuple[int, ...], detail: str = "",
) -> CheckReport:
    verdict = PASS if predicted == engine else FAIL
    return CheckReport(check, desc, (f.characteristic,), predicted, engine, verdict, detail)


def check_blowup(
    g: Graph, v: int, t: int, fields: Sequence[FieldSpec],
    instance: str = "", limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """wcdim of the blowup must be m + t - 1 where m is wcdim of g.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or _graph_descriptor(g)
    desc = f"{desc};v={v};t={t}"
    try:
        base = compute_wcdim_fields(g, fields, limit)
        blown = compute_wcdim_fields(blowup(g, v, t), fields, limit)
    except CapacityError as exc:
        return _skips("blowup", desc, fields, exc)
    return [
        _compared("blowup", desc, f, (formulas.f_blowup(rg.wcdim, t).value,), (rb.wcdim,))
        for f, rg, rb in zip(fields, base, blown)
    ]


def check_multi_blowup(
    g: Graph, ts: Sequence[int], fields: Sequence[FieldSpec],
    instance: str = "", limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """wcdim after blowing every vertex must be (m - n) + sum(ts).

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or _graph_descriptor(g)
    desc = f"{desc};ts={list(ts)}"
    try:
        base = compute_wcdim_fields(g, fields, limit)
        blown = compute_wcdim_fields(multi_blowup(g, ts), fields, limit)
    except CapacityError as exc:
        return _skips("multi-blowup", desc, fields, exc)
    return [
        _compared(
            "multi-blowup", desc, f,
            (formulas.f_multi_blowup(rg.wcdim, g.n, ts).value,), (rb.wcdim,),
        )
        for f, rg, rb in zip(fields, base, blown)
    ]


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
    g: Graph, h: Graph, fields: Sequence[FieldSpec],
    instance: str = "", limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """Engine wcdim of the lexicographic product vs the published closed form.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"
    try:
        rgs = compute_wcdim_fields(g, fields, limit)
        rhs = compute_wcdim_fields(h, fields, limit, with_sum_rank=True)
        products = compute_wcdim_fields(lex_product(g, h), fields, limit)
    except CapacityError as exc:
        return _skips("lex", desc, fields, exc)
    a, b = g.n, h.n
    reports = []
    for f, rg, rh, rp in zip(fields, rgs, rhs, products):
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
        reports.append(_compared("lex", desc, f, (want,), (got,), detail))
    return reports


def check_union(
    g: Graph, h: Graph, fields: Sequence[FieldSpec],
    instance: str = "", limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """wcdim of a disjoint union must be the sum of the parts' dimensions.

    One report per field, in field order; each graph is enumerated once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"
    try:
        rgs = compute_wcdim_fields(g, fields, limit)
        rhs = compute_wcdim_fields(h, fields, limit)
        unions = compute_wcdim_fields(disjoint_union(g, h), fields, limit)
    except CapacityError as exc:
        return _skips("union", desc, fields, exc)
    return [
        _compared("union", desc, f, (formulas.f_union(rg.wcdim, rh.wcdim).value,), (ru.wcdim,))
        for f, rg, rh, ru in zip(fields, rgs, rhs, unions)
    ]


def check_kron_remark(
    g: Graph, h: Graph, fields: Sequence[FieldSpec],
    instance: str = "", limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """Replay the reduced-Kronecker rank table and the product rank shortcut.

    M and A are the 0/1 sum systems of g and h; after moving a dependent row
    (if any) to the front of each, C is the first-row reduction of A (x) M.
    The published table predicts rank(C) from k = rank(reduced M),
    q = rank(reduced A) and the row-dependency flags, and the product's
    dimension is asserted to be ab - rank(C).  One report per field, in
    field order; each graph is enumerated and each sum system built once.
    """
    desc = instance or f"g[{_graph_descriptor(g)}];h[{_graph_descriptor(h)}]"
    if not fields:
        return []
    try:
        mis_g = enumerate_mis(g, limit)
        mis_h = enumerate_mis(h, limit)
        products = compute_wcdim_fields(lex_product(g, h), fields, limit)
    except CapacityError as exc:
        return _skips("kron", desc, fields, exc)
    sum_g = build_sum_system(mis_g)
    sum_h = build_sum_system(mis_h)
    reports = []
    for f, rp in zip(fields, products):
        M = move_dependent_row_first(sum_g, f)
        A = move_dependent_row_first(sum_h, f)
        k = rank(reduce_first_row(M), f)
        q = rank(reduce_first_row(A), f)
        rank_m = rank(M, f)
        rank_a = rank(A, f)
        rank_c = rank(reduce_first_row(kronecker(A, M)), f)
        want_rank = formulas.kron_rank_case(k, q, rank_m < M.rows, rank_a < A.rows)
        want_dim = g.n * h.n - rank_c
        got_dim = rp.wcdim
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
        reports.append(_compared("kron", desc, f, (want_rank, want_dim), (rank_c, got_dim), detail))
    return reports


def _effective(check_chars: Sequence[int], chars: Sequence[int]) -> list[FieldSpec]:
    return [FieldSpec(c) for c in check_chars if c in set(chars)]


ALL_CHECKS = ("family", "blowup", "multi-blowup", "union", "lex", "kron")

# default upper parameter bounds for the family sweeps
FAMILY_RANGES = {
    "complete": (1, 8),
    "empty": (1, 8),
    "crown": (3, 9),
    "turan": (1, 10),
    "path": (1, 10),
    "cycle": (3, 12),
    "gear": (3, 6),
}


def _family_specs(rng: random.Random, kind: str | None, max_n: int | None) -> list[FamilySpec]:
    def hi(k: str) -> int:
        lo, default_hi = FAMILY_RANGES[k]
        return max(lo, max_n) if max_n is not None else default_hi

    specs: list[FamilySpec] = []
    wanted = lambda k: kind is None or kind == k
    if wanted("petersen"):
        specs.append(FamilySpec("petersen"))
    for k in ("complete", "empty", "crown", "path", "cycle", "gear"):
        if wanted(k):
            specs.extend(FamilySpec(k, (n,)) for n in range(FAMILY_RANGES[k][0], hi(k) + 1))
    if wanted("turan"):
        for n in range(1, hi("turan") + 1):
            specs.extend(FamilySpec("turan", (n, r)) for r in range(1, n + 1))
    if wanted("kpartite"):
        for _ in range(20):
            k = rng.randint(1, 5)
            specs.append(FamilySpec("kpartite", tuple(rng.randint(1, 4) for _ in range(k))))
    return specs


def run_suite(
    seed: int = 1,
    sizes: Sequence[int] = DEFAULT_SIZES,
    chars: Sequence[int] = DEFAULT_CHARS,
    checks: Sequence[str] = ALL_CHECKS,
    family_kind: str | None = None,
    family_max_n: int | None = None,
    blowup_trials: int = 100,
    multi_blowup_trials: int = 50,
    lex_trials: int = 50,
    union_trials: int = 50,
    kron_trials: int = 30,
    limit: int = DEFAULT_MIS_LIMIT,
) -> list[CheckReport]:
    """The deterministic check suite; empty sizes produce an empty report.

    Each section draws from its own stream seeded with (seed, section name),
    so running one section alone replays exactly the instances it would see
    inside the full suite.  Every random instance descriptor embeds the
    sub-seed that regenerates its graph.  A negative trial count raises
    InputError.
    """
    if min(blowup_trials, multi_blowup_trials, lex_trials, union_trials, kron_trials) < 0:
        raise InputError("trial counts must be non-negative")
    sizes = tuple(s for s in sizes if s >= 1)
    if not sizes:
        return []
    for c in checks:
        if c not in ALL_CHECKS:
            raise InputError(f"unknown check section {c!r}")
    for c in chars:
        FieldSpec(c)  # reject invalid characteristics up front
    reports: list[CheckReport] = []

    def section_rng(name: str) -> random.Random:
        return random.Random(f"{seed}:{name}")

    def draw(rng: random.Random, cap: int) -> tuple[Graph, str]:
        pool = [s for s in sizes if s <= cap] or [min(sizes)]
        n = rng.choice(pool)
        sub = rng.randrange(2**32)
        return random_graph(n, Fraction(1, 2), sub), _random_descriptor(n, sub)

    if "family" in checks:
        rng = section_rng("family")
        for spec in _family_specs(rng, family_kind, family_max_n):
            fs = _effective(FAMILY_CHARS[spec.kind], chars)
            if fs:
                reports.append(check_family(spec, fs, limit))

    if "blowup" in checks:
        rng = section_rng("blowup")
        fs = _effective(BLOWUP_CHARS, chars)
        for _ in range(blowup_trials):
            g, desc = draw(rng, 7)
            v = rng.randrange(g.n)
            t = rng.randint(1, 3)
            reports.extend(check_blowup(g, v, t, fs, instance=desc, limit=limit))

    if "multi-blowup" in checks:
        rng = section_rng("multi-blowup")
        fs = _effective(MULTI_BLOWUP_CHARS, chars)
        for _ in range(multi_blowup_trials):
            g, desc = draw(rng, 7)
            ts = [rng.randint(1, 3) for _ in range(g.n)]
            reports.extend(check_multi_blowup(g, ts, fs, instance=desc, limit=limit))

    if "union" in checks:
        rng = section_rng("union")
        fs = _effective(UNION_CHARS, chars)
        for _ in range(union_trials):
            g, dg = draw(rng, 7)
            h, dh = draw(rng, 7)
            reports.extend(check_union(g, h, fs, instance=f"g[{dg}];h[{dh}]", limit=limit))

    designed = [
        (families.complete(2), "complete:2", families.complete(2), "complete:2"),
        (families.complete(2), "complete:2", families.empty_graph(2), "empty:2"),
        (families.cycle(4), "cycle:4", families.empty_graph(2), "empty:2"),
    ]

    if "lex" in checks:
        rng = section_rng("lex")
        fs = _effective(LEX_CHARS, chars)
        for g, dg, h, dh in designed:
            reports.extend(check_lex(g, h, fs, instance=f"g[{dg}];h[{dh}]", limit=limit))
        for _ in range(lex_trials):
            g, dg = draw(rng, 4)
            h, dh = draw(rng, 4)
            reports.extend(check_lex(g, h, fs, instance=f"g[{dg}];h[{dh}]", limit=limit))

    if "kron" in checks:
        rng = section_rng("kron")
        fs = _effective(KRON_CHARS, chars)
        for g, dg, h, dh in designed[:2]:
            reports.extend(check_kron_remark(g, h, fs, instance=f"g[{dg}];h[{dh}]", limit=limit))
        for _ in range(kron_trials):
            g, dg = draw(rng, 4)
            h, dh = draw(rng, 4)
            reports.extend(check_kron_remark(g, h, fs, instance=f"g[{dg}];h[{dh}]", limit=limit))

    return reports


def summarize(reports: Sequence[CheckReport]) -> tuple[int, int, int]:
    """Counts of (passes, failures, skips)."""
    passes = sum(1 for r in reports if r.verdict == PASS)
    fails = sum(1 for r in reports if r.verdict == FAIL)
    skips = sum(1 for r in reports if r.verdict == SKIP)
    return passes, fails, skips
