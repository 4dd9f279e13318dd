"""The batch routines on whole dense matrices, kept only for the benchmark's tracer.

Nothing in the package calls these, and `wellcovered` exports none of them;
they remain only as targets of the benchmark's tracer, which looks them up
where they used to live.  So `engine` and `kernels`, the modules it looks
them up on, resolve those names here on first access, through a module
`__getattr__`, and `verify` imports the ones it carries for the tracer from
here.  Importing the package does not load this module.

The batch routines on a whole `ExactMatrix` (`rank`, `nullspace_basis`,
`kronecker`, `reduce_first_row` and `move_dependent_row_first`) take the
matrices the package builds, with entries in {-1, 0, 1}, and `rank`,
`nullspace_basis` and `move_dependent_row_first` feed the rows into a
`RowSpace`, so there is no second elimination.  `build_difference_system`
and `build_sum_system` assemble a graph's systems as whole matrices, where
the engine streams the same rows into a `RowSpace`.  `gf_rank` is a dense
Gauss-Jordan rank over GF(p): `rank` reads a `RowSpace` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError
from .exactlin import FieldSpec, RowSpace, Scalar
from .records import Record

if TYPE_CHECKING:
    from .mis import MisList


class ExactMatrix(Record):
    """Dense matrix of exact scalars (ints or Fractions), row-major."""

    _fields = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[Scalar, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[Scalar, ...]) -> None:
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise InputError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        """The matrix with these rows; `cols`, when given, must be their length.

        With no rows `cols` is the width (default 0); ragged rows, or rows
        of another length than `cols`, raise InputError.
        """
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged rows")
            if cols is not None and cols != width:
                raise InputError(f"rows of length {width} given for {cols} columns")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[Scalar, ...]]:
        return [self.row(i) for i in range(self.rows)]


def _signed_rows(m: ExactMatrix, name: str) -> list[tuple[int, int]]:
    """Each row of m as its (plus, minus) bitmasks; any entry outside {-1, 0, 1} raises InputError."""
    out = []
    for i in range(m.rows):
        plus = minus = 0
        for j, x in enumerate(m.row(i)):
            if x == 1:
                plus |= 1 << j
            elif x == -1:
                minus |= 1 << j
            elif x != 0:
                raise InputError(f"{name} needs entries in {{-1, 0, 1}}, got {x!r}")
        out.append((plus, minus))
    return out


def _row_space(m: ExactMatrix, f: FieldSpec, name: str) -> RowSpace:
    """The `RowSpace` over f spanned by the rows of m, fed until it is full."""
    space = RowSpace(m.cols, f)
    for plus, minus in _signed_rows(m, name):
        if space.full:
            break
        space.add(plus, minus)
    return space


def rank(m: ExactMatrix, f: FieldSpec) -> int:
    """Rank of m over the field; empty matrices have rank 0.  Entries must lie in {-1, 0, 1}."""
    return _row_space(m, f, "rank").rank


def nullspace_basis(m: ExactMatrix, f: FieldSpec) -> list[tuple[Scalar, ...]]:
    """Canonical basis of the right nullspace of m over the field.

    Exactly cols - rank(m) vectors, one per free column in ascending order,
    each with a 1 in its free column.  Over characteristic 0 the entries are
    Fractions; over GF(p) they are residues in 0..p-1.  Entries of m must
    lie in {-1, 0, 1}.
    """
    return _row_space(m, f, "nullspace_basis").basis()


def kronecker(a: ExactMatrix, m: ExactMatrix) -> ExactMatrix:
    """Kronecker product a (x) m: entry ((i1*rm+i2),(j1*cm+j2)) = a[i1,j1]*m[i2,j2]."""
    rm, cm = m.rows, m.cols
    entries = []
    for i1 in range(a.rows):
        for i2 in range(rm):
            arow = a.row(i1)
            mrow = m.row(i2)
            for x in arow:
                entries.extend(x * y for y in mrow)
    return ExactMatrix(a.rows * rm, a.cols * cm, tuple(entries))


def reduce_first_row(m: ExactMatrix) -> ExactMatrix:
    """Subtract row 0 from every other row, then drop row 0."""
    if m.rows < 1:
        raise InputError("reduce_first_row needs at least one row")
    first = m.row(0)
    entries = []
    for i in range(1, m.rows):
        entries.extend(a - b for a, b in zip(m.row(i), first))
    return ExactMatrix(m.rows - 1, m.cols, tuple(entries))


def move_dependent_row_first(m: ExactMatrix, f: FieldSpec) -> ExactMatrix:
    """Swap a row lying in the span of the other rows to position 0.

    The first row (in order) that is linearly dependent on the rows before
    it is chosen; such a row exists exactly when rank(m) < rows.  If every
    row is independent the matrix is returned unchanged.  The entries must
    lie in {-1, 0, 1}, as in the 0/1 sum systems of the Kronecker check;
    anything else raises InputError.
    """
    space = RowSpace(m.cols, f)
    for i, (plus, minus) in enumerate(_signed_rows(m, "move_dependent_row_first")):
        if not space.add(plus, minus):
            order = [i] + [j for j in range(m.rows) if j != i]
            return ExactMatrix.from_rows([m.row(j) for j in order], m.cols)
    return m


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


def gf_rank(entries, rows, cols, p):
    """Rank of a rows x cols matrix over GF(p); entries are row-major ints."""
    a = [e % p for e in entries]
    rank = 0
    for c in range(cols):
        piv = -1
        for r in range(rank, rows):
            if a[r * cols + c]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            pr, pp = rank * cols, piv * cols
            for j in range(c, cols):
                a[pr + j], a[pp + j] = a[pp + j], a[pr + j]
        base = rank * cols
        inv = pow(a[base + c], p - 2, p)
        for j in range(c, cols):
            a[base + j] = a[base + j] * inv % p
        for r in range(rank + 1, rows):
            f = a[r * cols + c]
            if f:
                off = r * cols
                for j in range(c, cols):
                    a[off + j] = (a[off + j] - f * a[base + j]) % p
        rank += 1
        if rank == rows:
            break
    return rank
