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
The baseline M_0 is the first set of fewest vertices: a row costs one
big-integer addition per nonzero entry, and a small baseline keeps most
rows sparse.
`compute_wcdim_fields` feeds `mis.mis_family`'s sets: modular
decomposition gives the exact count and a few sets spanning the same
rows, enumerating only the quotients with no module left.  That one space
answers over Q and over every GF(p) with p not dividing D; only a field
with p | D is eliminated on its own, over the same rows.  The canonical
basis is defined as the one read off the RREF of the row space, so it
does not depend on the baseline or on the row order; the engine is free
to feed the rows in whatever order reaches full rank soonest.  A report
keeps its field's row space and reads the basis off it on demand, the
first time `WcdimReport.basis` (vectors) or `basis_lines` (text) is
accessed, and the sum rank the first time `sum_rank` is, so callers that
need only the dimension never pay for them.  `compute_wcdim_sets`
eliminates any family of sets the same way; every set of g, without the
decomposition, is `compute_wcdim_sets(g.n, mis_masks(g), fields)`, and
`is_well_covered_weighting`, re-exported from `mis`, sums over the family.
The batch `build_difference_system`, `build_sum_system`, `rank` and
`nullspace_basis` live in `batch`, which this module's `__getattr__` reads
them from on first access (see `_BATCH`); they, and the `enumerate_mis`
imported here, are looked up here only by the benchmark's tracer.

Every enumeration is bounded by the constant `mis.DEFAULT_MIS_LIMIT`;
nothing here passes or reads it.
"""

from __future__ import annotations

from functools import cached_property
from time import perf_counter
from typing import NamedTuple, Sequence

from .errors import InputError
from .exactlin import FieldSpec, RowSpace, Scalar
from .graphs import Graph, check_vertex_count
# perfbench/trace.py instruments engine.enumerate_mis; is_well_covered_weighting is re-exported
from .mis import enumerate_mis, is_well_covered_weighting, mis_family  # noqa: F401
from .records import Record


class Stats(NamedTuple):
    """Where one report's time and rows went; `compute --stats` prints it.

    `method` says how the field's row space was obtained: "integer" (Q),
    "read off (p ∤ D)" (a prime field served by the integer space) or "own
    elimination" (p | D).  The elimination figures are those of the space
    the field was read from, so a read-off field shows the shared integer
    elimination.  `stopped_at_full_rank` is True when the space reached the
    largest rank it can have (n, or for an own elimination the rank over
    Q) before the rows ran out, leaving the rest unfed.  `pieces` is the
    number of quotients enumerated to find the fed sets (0 when the
    decomposition needed none); rows are those fed.  The exact set count
    and the rows kept are the report's `mis_count` and `diff_rank`.
    `integer` is, for an own elimination, the Stats of the integer pass over
    Q that ran first and bounded its rows, and None otherwise: a request
    whose every field is eliminated on its own still waited for that pass.
    """

    enumerate_ms: float
    pieces: int
    method: str
    elimination_ms: float
    rows_fed: int
    stopped_at_full_rank: bool
    integer: Stats | None = None


class WcdimReport(Record):
    """Result of one well-covered dimension computation.

    `space` holds the row space the field was read from (at most n rows):
    for Q and for every GF(p) with p not dividing D it is the shared integer
    space.  `basis`, the canonical basis of the well-covered space, is read
    off those rows the first time it is accessed and kept from then on;
    `basis_lines`, the same basis as the text `compute --basis` prints, is
    read off them separately, the same way.  `space`, `base` and `stats`
    are neither compared nor shown.
    """

    _fields = ("n", "field", "mis_count", "wcdim", "diff_rank")
    n: int
    field: FieldSpec
    mis_count: int
    wcdim: int
    diff_rank: int
    space: RowSpace
    base: int
    stats: Stats

    def __init__(
        self, n: int, field: FieldSpec, mis_count: int, wcdim: int, diff_rank: int,
        space: RowSpace, base: int, stats: Stats,
    ) -> None:
        # written straight into __dict__, the cheapest: the engine makes one report per field
        d = self.__dict__
        d["n"] = n
        d["field"] = field
        d["mis_count"] = mis_count
        d["wcdim"] = wcdim
        d["diff_rank"] = diff_rank
        d["space"] = space
        d["base"] = base
        d["stats"] = stats

    @cached_property
    def sum_rank(self) -> int:
        """Rank of the sets themselves (the sum system), read off on first access.

        The sets span span{M_0} + span{M_i - M_0}, with M_0 the baseline
        `base`, so this is diff_rank + 1 exactly when M_0 is independent of
        the difference rows, and diff_rank otherwise.
        """
        return self.diff_rank + self.space.independent(self.base, 0, self.field)

    @property
    def rows_vanished(self) -> int:
        """Rows fed to the field's space that reduced to zero."""
        return self.stats.rows_fed - self.diff_rank

    @cached_property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """Fractions over Q, residues in 0..p-1 over GF(p)."""
        if self.wcdim == 0:
            return ()
        return tuple(self.space.basis(self.field))

    @cached_property
    def basis_lines(self) -> tuple[str, ...]:
        """`basis` as text, one line per vector: its entries as `str` prints them, joined by spaces.

        Read off the same rows as `basis`, but without building the vectors.
        """
        if self.wcdim == 0:
            return ()
        return tuple(self.space.basis_lines(self.field))


_Q = FieldSpec(0)


def _feed(space: RowSpace, order: Sequence[int], base: int, most: int) -> int:
    """Stream the rows M - M_0 of `order` into space until its rank is `most`; returns rows fed."""
    fed = 0
    for m in order:
        if space.rank == most:
            break
        space.add(m & ~base, base & ~m)
        fed += 1
    return fed


def compute_wcdim_fields(g: Graph, fields: Sequence[FieldSpec]) -> list[WcdimReport]:
    """Well-covered dimension of g over each field, from one enumeration.

    `_eliminate` streams the sets of `mis_family`, where DEFAULT_MIS_LIMIT
    bounds each enumerated quotient, and the reports carry its exact count
    as `mis_count`.  An empty field list enumerates nothing.
    """
    if not fields:
        return []
    t0 = perf_counter()
    count, masks, pieces = mis_family(g)
    return _eliminate(g.n, masks, fields, (perf_counter() - t0) * 1e3, count, pieces)


def compute_wcdim_sets(
    n: int, sets: Sequence[int], fields: Sequence[FieldSpec]
) -> list[WcdimReport]:
    """n minus the rank of the rows M_i - M_0 of a family of sets, over each field.

    `sets` is any nonempty family of bitmasks of vertices 0..n-1; an empty
    family, a negative n or a set outside 0..2^n - 1 raises InputError, and
    n above MAX_VERTICES raises CapacityError before anything per vertex is
    allocated.  The family is eliminated as `_eliminate` describes, and the
    reports carry len(sets) as `mis_count`.  An empty field list builds no
    space.
    """
    if not sets:
        raise InputError("the family of sets must be nonempty")
    if n < 0 or min(sets) < 0 or max(sets) >> n:
        raise InputError(f"n = {n} must be non-negative and every set a bitmask of vertices 0..n-1")
    check_vertex_count(n)
    if not fields:
        return []
    return _eliminate(n, sets, fields, 0.0, len(sets), 0)


def _eliminate(
    n: int, sets: Sequence[int], fields: Sequence[FieldSpec],
    enum_ms: float, count: int, pieces: int,
) -> list[WcdimReport]:
    """The reports of a valid family of sets over a nonempty field list.

    One integer row space serves Q and every GF(p) with p not dividing its
    common pivot D; only a field with p | D is eliminated on its own, over
    the same rows, until it reaches the rank over Q.  The baseline M_0 is
    the first set of fewest vertices, the report's `base`: each row costs
    one addition per nonzero of M_i - M_0, so on crown(k) a pair
    {i, k + i} leaves most rows 4 nonzeros where a k-vertex side leaves
    k.  The rank, basis and sum rank are the same for any baseline;
    only D, and with it which fields need their own elimination, may
    differ.  The rows are fed in eight strided passes over the family,
    without the baseline.  (enum_ms, count, pieces) are the milliseconds,
    exact set count and pieces of the enumeration that found the sets, as
    the reports carry them.
    """
    base = min(sets, key=int.bit_count)  # the first set of fewest vertices
    # depth-first discovery order clusters similar sets; eight interleaved
    # strided passes spread them out, so full rank comes after about n rows
    # instead of after most of the list.  A family of at most eight sets
    # puts one set in each pass, so its order is its own.  The baseline's
    # own row M_0 - M_0 is zero, so it is left out.
    if len(sets) > 8:
        order = [
            *sets[0::8], *sets[1::8], *sets[2::8], *sets[3::8],
            *sets[4::8], *sets[5::8], *sets[6::8], *sets[7::8],
        ]
    else:
        order = list(sets)
    order.remove(base)
    t1 = perf_counter()
    integer = RowSpace(n, _Q)
    fed = _feed(integer, order, base, n)
    integer_ms = (perf_counter() - t1) * 1e3
    d, rank = integer.common_pivot, integer.rank
    stopped = fed < len(order)
    # the fields served by the integer space share its Stats, one per method,
    # and every own elimination names the integer pass it waited for
    integer_stats = Stats(enum_ms, pieces, "integer", integer_ms, fed, stopped)
    read_stats = None  # made when the first field reads off the integer space
    reports = []
    for f in fields:
        p = f.characteristic
        if not p:
            stats = integer_stats
        elif d % p:  # p ∤ D: f `RowSpace.reads_off` the integer space
            if read_stats is None:
                read_stats = Stats(enum_ms, pieces, "read off (p ∤ D)", integer_ms, fed, stopped)
            stats = read_stats
        else:
            # an integer matrix has no larger rank mod p than over Q, so the
            # span is complete once it reaches the integer space's rank
            t2 = perf_counter()
            space = RowSpace(n, f)
            own_fed = _feed(space, order, base, rank)
            own_ms = (perf_counter() - t2) * 1e3
            stats = Stats(
                enum_ms, pieces, "own elimination", own_ms, own_fed, own_fed < len(order),
                integer_stats,
            )
            r = space.rank
            reports.append(WcdimReport(n, f, count, n - r, r, space, base, stats))
            continue
        reports.append(WcdimReport(n, f, count, n - rank, rank, integer, base, stats))
    return reports


def compute_wcdim(g: Graph, f: FieldSpec = FieldSpec(0)) -> WcdimReport:
    """Well-covered dimension of g over f; the report reads its basis on demand."""
    return compute_wcdim_fields(g, (f,))[0]


# the batch builders and ranks perfbench/trace.py instruments here; see `__getattr__`
_BATCH = ("build_difference_system", "build_sum_system", "rank", "nullspace_basis")


def __getattr__(name: str) -> object:
    """A name of `_BATCH`, read off `batch` on first access and kept here."""
    if name not in _BATCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import batch

    value = globals()[name] = getattr(batch, name)
    return value
