"""Exact linear algebra over the rationals and over prime fields GF(p).

No floating point anywhere.  Characteristic-zero elimination is
fraction-free: rational denominators are cleared row-wise, and every row
an elimination step produces is divided by the gcd of its entries, so
values stay small integers.  Over GF(p) rows are residues with pivots
normalised to 1; the batch GF(p) rank is delegated to the kernel lane.
`RowSpace` is the incremental echelon form the engine streams rows into
(an XOR basis of bitmasks over GF(2)); `rank` and `nullspace_basis` work
on a whole `ExactMatrix`.

Nullspace bases are read off the reduced row echelon form, which makes them
canonical: free columns are taken in ascending order and each basis vector
carries a 1 in its own free column.  Since the RREF depends only on the row
space, the basis is the same for any spanning set of the rows, whatever its
order, scaling or size; over Q fractions appear only in the basis vectors.

Prime-power fields are deliberately not implemented: for integer matrices
(every system built here is one), row reduction never leaves the prime
subfield, so the rank over GF(p^h) equals the rank over GF(p).  FieldSpec
therefore accepts only characteristic 0 or a prime p < 2^31.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from . import kernels
from .errors import InputError

Scalar = Union[int, Fraction]

_MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers everything below 2^31."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field of scalars, identified by its characteristic (0 or a prime)."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c == 0:
            return
        if c >= _MAX_PRIME:
            raise InputError(f"prime characteristic must be below 2^31, got {c}")
        if not _is_prime(c):
            raise InputError(f"characteristic must be 0 or a prime, got {c}")

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix of exact scalars (ints or Fractions), row-major."""

    rows: int
    cols: int
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise InputError("ragged rows")
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


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Row-wise denominator clearing; scaling a row never changes the row space."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        scale = lcm(*(x.denominator if isinstance(x, Fraction) else 1 for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def _residue_rows(m: ExactMatrix, p: int) -> list[int]:
    flat = []
    for x in m.entries:
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise InputError(f"entry {x} has no residue mod {p}")
            flat.append(x.numerator * pow(x.denominator, -1, p) % p)
        else:
            flat.append(x % p)
    return flat


def rank(m: ExactMatrix, f: FieldSpec) -> int:
    """Rank of m over the field; empty matrices have rank 0."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if f.characteristic == 0:
        return len(_rref(_integer_rows(m), 0)[1])
    return kernels.gf_rank(_residue_rows(m, f.characteristic), m.rows, m.cols, f.characteristic)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place, without fractions.

    Over GF(p) (p > 0) rows are residues and each pivot is scaled to 1.  For
    p = 0 rows are integers kept primitive instead, so the RREF entry in
    row i, column j is rows[i][j] / rows[i][pivots[i]].
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
        else:
            rows[r] = _primitive(rows[r])
        top = rows[r]
        b = top[c]
        for i in range(nr):
            a = rows[i][c]
            if i != r and a != 0:
                if p:
                    rows[i] = [(x - a * y) % p for x, y in zip(rows[i], top)]
                else:
                    rows[i] = _primitive([b * x - a * y for x, y in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], pivots


def nullspace_basis(m: ExactMatrix, f: FieldSpec) -> list[tuple[Scalar, ...]]:
    """Canonical basis of the right nullspace of m over the field.

    Exactly cols - rank(m) vectors, one per free column in ascending order,
    each with a 1 in its free column.  Over characteristic 0 the entries are
    Fractions; over GF(p) they are residues in 0..p-1.
    """
    p = f.characteristic
    if m.rows == 0 or m.cols == 0:
        if p == 0:
            one, zero = Fraction(1), Fraction(0)
        else:
            one, zero = 1, 0
        return [
            tuple(one if j == c else zero for j in range(m.cols)) for c in range(m.cols)
        ]
    if p == 0:
        work = _integer_rows(m)
    else:
        flat = _residue_rows(m, p)
        work = [
            [flat[i * m.cols + j] for j in range(m.cols)]
            for i in range(m.rows)
        ]
    rref, pivots = _rref(work, p)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        if p == 0:
            vec: list[Scalar] = [Fraction(0)] * m.cols
            vec[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                vec[pc] = Fraction(-rref[i][fc], rref[i][pc])
        else:
            vec = [0] * m.cols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = (-rref[i][fc]) % p
        basis.append(tuple(vec))
    return basis


class RowSpace:
    """Incremental echelon form of the span of rows fed in one at a time.

    Rows have entries in {-1, 0, 1} and are given as two vertex bitmasks:
    `plus` marks the +1 entries and `minus` the -1 entries, so a difference
    of indicator vectors M_i - M_0 is (M_i & ~M_0, M_0 & ~M_i).  Each row is
    reduced against the stored echelon rows and kept only when it is
    independent of them, so at most n rows are ever held and a row fed in
    after the span is full costs nothing.

    Over GF(2) a row is a bitmask and the echelon is an XOR basis keyed by
    its lowest set bit.  Over GF(p) rows are residue lists whose pivot is
    normalised to 1; over Q they are integer lists divided by their gcd, so
    entries stay small and no Fraction is built.
    """

    def __init__(self, n: int, f: FieldSpec) -> None:
        self.n = n
        self.field = f
        self.rank = 0
        self._xor: dict[int, int] = {}  # GF(2): lowest set bit -> row bitmask
        self._pivot_rows: list[list[int] | None] = [None] * n  # pivot column -> row

    @property
    def full(self) -> bool:
        return self.rank == self.n

    def add(self, plus: int, minus: int = 0) -> bool:
        """Absorb one row; True iff it was independent of the rows so far."""
        if self.field.characteristic == 2:
            x = self._reduce_bits(plus ^ minus)
            if not x:
                return False
            self._xor[x & -x] = x
        else:
            reduced = self._reduce(self._dense(plus, minus))
            if reduced is None:
                return False
            c, row = reduced
            p = self.field.characteristic
            if p:
                inv = pow(row[c], -1, p)
                row = [x * inv % p for x in row]
            self._pivot_rows[c] = row
        self.rank += 1
        return True

    def independent(self, plus: int, minus: int = 0) -> bool:
        """True iff the row is independent of the rows so far; nothing is stored."""
        if self.field.characteristic == 2:
            return bool(self._reduce_bits(plus ^ minus))
        return self._reduce(self._dense(plus, minus)) is not None

    def rows(self) -> list[list[int]]:
        """The echelon rows in pivot-column order: integers over Q, residues over GF(p)."""
        n = self.n
        if self.field.characteristic == 2:
            return [[x >> v & 1 for v in range(n)] for _, x in sorted(self._xor.items())]
        return [row for row in self._pivot_rows if row is not None]

    def _reduce_bits(self, x: int) -> int:
        """The GF(2) row x reduced until its lowest bit has no basis row (0 if it vanishes)."""
        xor = self._xor
        while x:
            row = xor.get(x & -x)
            if row is None:
                return x
            x ^= row
        return 0

    def _dense(self, plus: int, minus: int) -> list[int]:
        p = self.field.characteristic
        row = [(plus >> v & 1) - (minus >> v & 1) for v in range(self.n)]
        return [x % p for x in row] if p else row

    def _reduce(self, row: list[int]) -> tuple[int, list[int]] | None:
        """(lead column, row) of the row reduced to a new pivot, or None if it vanishes."""
        p = self.field.characteristic
        pivot_rows = self._pivot_rows
        for c in range(self.n):
            a = row[c]
            if not a:
                continue
            prow = pivot_rows[c]
            if prow is None:
                return c, row
            if p:
                row = [(x - a * y) % p for x, y in zip(row, prow)]
            else:
                b = prow[c]
                row = _primitive([b * x - a * y for x, y in zip(row, prow)])
        return None


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
    row is independent the matrix is returned unchanged.
    """
    p = f.characteristic
    if p == 0:
        work = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    else:
        flat = _residue_rows(m, p)
        work = [[flat[i * m.cols + j] for j in range(m.cols)] for i in range(m.rows)]
    basis: list[tuple[int, list[Scalar]]] = []  # (pivot column, normalised row)
    for i, row in enumerate(work):
        row = list(row)
        for pc, brow in basis:
            if row[pc] != 0:
                fct = row[pc]
                if p == 0:
                    row = [a - fct * b for a, b in zip(row, brow)]
                else:
                    row = [(a - fct * b) % p for a, b in zip(row, brow)]
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None:
            order = [i] + [j for j in range(m.rows) if j != i]
            return ExactMatrix.from_rows([m.row(j) for j in order], m.cols)
        if p == 0:
            inv = Fraction(1, 1) / row[lead]
            row = [x * inv for x in row]
        else:
            inv = pow(row[lead], -1, p)
            row = [x * inv % p for x in row]
        basis.append((lead, row))
        basis.sort(key=lambda t: t[0])
    return m
