"""The dimension pipeline: maximal independent sets -> row space -> rank.

A weighting w is well-covered when every maximal independent set has the
same weight sum.  Fixing any set M_0 as baseline, that is the homogeneous
system (M_i - M_0) . w = 0 for i >= 1, so the well-covered space is the
nullspace of the difference system and its dimension is n - rank.

The system is never assembled.  Each graph's sets are enumerated once, as
bitmasks, and the rows M_i - M_0 are streamed into one integer `RowSpace`,
a fraction-free Gauss-Jordan elimination that keeps at most n rows, each
D times its RREF row, and stops absorbing once its rank is n (the
enumeration itself always runs to the end, so the set count is exact).
By default the sets are `mis.mis_family`'s: modular decomposition gives
the exact count and a few sets spanning the same rows, enumerating only
the quotients with no module left; `decompose=False` feeds every set.
That one space answers over Q and over every GF(p) with p not dividing D;
only a field with p | D is eliminated on its own, over the same rows.  The
canonical basis is defined as the one read off the RREF of the row space,
so it does not depend on the baseline or on the row order; the engine is
free to feed the rows in whatever order reaches full rank soonest.  A
report keeps its field's row space and reads the basis off it on demand,
the first time `WcdimReport.basis` is accessed, so callers that need only
the dimension never pay for it.  `build_difference_system` and
`build_sum_system` assemble the batch systems for callers and tests that
want them explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError
from .exactlin import ExactMatrix, FieldSpec, RowSpace, Scalar
# perfbench/trace.py instruments engine.rank and engine.nullspace_basis
from .exactlin import nullspace_basis, rank  # noqa: F401
from .graphs import Graph
from .mis import DEFAULT_MIS_LIMIT, MisList, enumerate_mis, mis_family, mis_masks


class Stats(NamedTuple):
    """Where one report's time and rows went; `compute --stats` prints it.

    `method` says how the field's row space was obtained: "integer" (Q),
    "read off (p ∤ D)" (a prime field served by the integer space) or "own
    elimination" (p | D).  The elimination figures are those of the space
    the field was read from, so a read-off field shows the shared integer
    elimination.  `stopped_at_full_rank` is True when the space reached the
    largest rank it can have (n, or for an own elimination the rank over
    Q) before the rows ran out, leaving the rest unfed.  `sets` is the exact
    set count and `pieces` the number of quotients enumerated to find the
    fed sets (0 when the decomposition needed none); rows are those fed.
    """

    enumerate_ms: float
    sets: int
    pieces: int
    method: str
    elimination_ms: float
    rows_fed: int
    rows_kept: int
    stopped_at_full_rank: bool

    @property
    def rows_vanished(self) -> int:
        return self.rows_fed - self.rows_kept


@dataclass(frozen=True)
class WcdimReport:
    """Result of one well-covered dimension computation.

    `space` holds the row space the field was read from (at most n rows):
    for Q and for every GF(p) with p not dividing D it is the shared integer
    space.  `basis`, the canonical basis of the well-covered space, is read
    off those rows the first time it is accessed and kept from then on;
    `elapsed` covers enumeration and elimination, not the basis.
    """

    n: int
    field: FieldSpec
    mis_count: int
    wcdim: int
    diff_rank: int
    sum_rank: int | None
    elapsed: float = dataclass_field(compare=False)
    space: RowSpace = dataclass_field(repr=False, compare=False)
    stats: Stats = dataclass_field(repr=False, compare=False)

    @cached_property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        if self.wcdim == 0:
            return ()
        return tuple(self.space.basis(self.field))


def build_difference_system(mis: MisList, baseline: int = 0) -> ExactMatrix:
    """(k-1) x n integer matrix with rows M_i - M_baseline in canonical order.

    Row entries are +1 on M_i \\ M_base, -1 on M_base \\ M_i, 0 elsewhere.
    """
    k = len(mis)
    if k == 0:
        raise InputError("difference system needs a nonempty MIS list")
    if not 0 <= baseline < k:
        raise InputError(f"baseline index {baseline} out of range for {k} sets")
    n = mis.graph_n
    base = set(mis[baseline])
    rows = []
    for i, s in enumerate(mis):
        if i == baseline:
            continue
        row = [0] * n
        for v in s:
            row[v] += 1
        for v in base:
            row[v] -= 1
        rows.append(row)
    return ExactMatrix.from_rows(rows, n)


def build_sum_system(mis: MisList) -> ExactMatrix:
    """k x n 0/1 incidence matrix; row i is the indicator vector of M_i."""
    if len(mis) == 0:
        raise InputError("sum system needs a nonempty MIS list")
    n = mis.graph_n
    rows = []
    for s in mis:
        row = [0] * n
        for v in s:
            row[v] = 1
        rows.append(row)
    return ExactMatrix.from_rows(rows, n)


def _feed(space: RowSpace, order: Sequence[int], base: int, most: int) -> int:
    """Stream the rows M - M_0 of `order` into space until its rank is `most`; returns rows fed."""
    fed = 0
    for m in order:
        if space.rank == most:
            break
        space.add(m & ~base, base & ~m)
        fed += 1
    return fed


def compute_wcdim_fields(
    g: Graph,
    fields: Sequence[FieldSpec],
    limit: int = DEFAULT_MIS_LIMIT,
    with_sum_rank: bool = False,
    decompose: bool = True,
) -> list[WcdimReport]:
    """Well-covered dimension of g over each field, from one enumeration.

    One integer row space serves Q and every GF(p) with p not dividing its
    common pivot D; only a field with p | D is eliminated on its own, over
    the same rows, until it reaches the rank over Q.  The rows come from
    `mis_family`, where `limit` bounds each enumerated quotient, or with
    `decompose=False` from every set of g, where it bounds their count.
    Each report's `elapsed` is the shared enumeration and integer
    elimination time plus the time spent on its own field.  An empty field
    list enumerates nothing.
    """
    if not fields:
        return []
    t0 = time.perf_counter()
    if decompose:
        count, masks, pieces = mis_family(g, limit)
    else:
        masks = mis_masks(g, limit)
        count, pieces = len(masks), 1
    enum_s = time.perf_counter() - t0
    n = g.n
    base = masks[0]
    # depth-first discovery order clusters similar sets; eight interleaved
    # strided passes spread them out, so full rank comes after about n rows
    # instead of after most of the list
    order = [m for start in range(8) for m in masks[start::8]]
    del order[0]  # the baseline itself, whose row M_0 - M_0 is zero
    t1 = time.perf_counter()
    integer = RowSpace(n, FieldSpec(0))
    integer_fed = _feed(integer, order, base, n)
    integer_s = time.perf_counter() - t1
    reports = []
    for f in fields:
        t2 = time.perf_counter()
        if f == integer.field:
            space, method, fed = integer, "integer", integer_fed
        elif integer.reads_off(f):
            space, method, fed = integer, "read off (p ∤ D)", integer_fed
        else:
            # an integer matrix has no larger rank mod p than over Q, so the
            # span is complete once it reaches the integer space's rank
            space, method = RowSpace(n, f), "own elimination"
            fed = _feed(space, order, base, integer.rank)
        r = space.rank
        # the sets span span{M_0} + span{M_i - M_0}, so the sum system's rank
        # is r + 1 exactly when M_0 is independent of the difference rows
        sum_rank = r + space.independent(base, 0, f) if with_sum_rank else None
        field_s = time.perf_counter() - t2
        elim_s = integer_s if space is integer else field_s
        reports.append(
            WcdimReport(
                n=n,
                field=f,
                mis_count=count,
                wcdim=n - r,
                diff_rank=r,
                sum_rank=sum_rank,
                elapsed=enum_s + integer_s + field_s,
                space=space,
                stats=Stats(
                    enumerate_ms=enum_s * 1e3,
                    sets=count,
                    pieces=pieces,
                    method=method,
                    elimination_ms=elim_s * 1e3,
                    rows_fed=fed,
                    rows_kept=r,
                    stopped_at_full_rank=fed < len(order),
                ),
            )
        )
    return reports


def compute_wcdim(
    g: Graph,
    f: FieldSpec = FieldSpec(0),
    limit: int = DEFAULT_MIS_LIMIT,
    with_sum_rank: bool = False,
) -> WcdimReport:
    """Well-covered dimension of g over f; the report reads its basis on demand."""
    return compute_wcdim_fields(g, (f,), limit, with_sum_rank)[0]


def is_well_covered_weighting(
    g: Graph,
    w: Sequence[Scalar],
    f: FieldSpec = FieldSpec(0),
    limit: int = DEFAULT_MIS_LIMIT,
) -> bool:
    """True iff every maximal independent set of g has the same w-sum in f."""
    if len(w) != g.n:
        raise InputError(f"weight vector length {len(w)} != n = {g.n}")
    p = f.characteristic
    sums = set()
    for s in enumerate_mis(g, limit):
        total: Scalar = sum((w[v] for v in s), start=Fraction(0) if p == 0 else 0)
        if p == 0:
            sums.add(Fraction(total))
        else:
            if isinstance(total, Fraction):
                if total.denominator % p == 0:
                    raise InputError(f"weight sum {total} has no residue mod {p}")
                total = total.numerator * pow(total.denominator, -1, p)
            sums.add(total % p)
        if len(sums) > 1:
            return False
    return True


@dataclass(frozen=True)
class PathStructureResult:
    """Outcome of the path weight-structure check."""

    ok: bool
    wcdim: int
    witness: str | None = None


def path_weight_structure(g: Graph, f: FieldSpec = FieldSpec(0)) -> PathStructureResult:
    """Check the weight structure of a path on n >= 5 vertices.

    Every basis vector w of the well-covered space must satisfy
    w[0] = w[1], w[2] = ... = w[n-3] = 0, and w[n-2] = w[n-1].
    """
    n = g.n
    if n < 5:
        raise InputError(f"path structure check needs n >= 5, got {n}")
    for v in range(n):
        expected = {u for u in (v - 1, v + 1) if 0 <= u < n}
        if set(g.adj[v]) != expected:
            raise InputError("graph is not a path with consecutive labels")
    report = compute_wcdim(g, f)
    for idx, w in enumerate(report.basis):
        if w[0] != w[1]:
            return PathStructureResult(False, report.wcdim, f"basis[{idx}]: w[0] != w[1]: {w}")
        if w[n - 2] != w[n - 1]:
            return PathStructureResult(False, report.wcdim, f"basis[{idx}]: w[n-2] != w[n-1]: {w}")
        for v in range(2, n - 2):
            if w[v] != 0:
                return PathStructureResult(
                    False, report.wcdim, f"basis[{idx}]: w[{v}] != 0: {w}"
                )
    return PathStructureResult(True, report.wcdim)
