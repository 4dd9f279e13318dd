"""Exact linear algebra over the rationals and over prime fields GF(p).

No floating point anywhere.  The batch routines `rank` and
`nullspace_basis` work on a whole `ExactMatrix`: over Q they eliminate
fraction-free, clearing rational denominators row-wise and dividing every
row an elimination step produces by the gcd of its entries; over GF(p) rows
are residues with pivots normalised to 1, and the batch GF(p) rank is
`kernels.gf_rank`.

`RowSpace` is the incremental reduced echelon form the engine streams rows
into.  It has two representations.  Over GF(2) it is an XOR basis of
bitmasks.  Over Q and over every odd GF(p) it is one fraction-free
Gauss-Jordan elimination over the integers, each row a single packed Python
int; over GF(p) each pivot is chosen so that D stays a unit mod p, and the
integer rows times D^-1 mod p are the RREF over GF(p).  An integer space over
Q also serves every GF(p) with p not dividing its common pivot D: for such
p the rank and the RREF over GF(p) are the integer ones reduced mod p.  A
GF(p) with p | D is eliminated on its own.

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

import sys
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
    return _basis_from_rref(*_rref(work, p), m.cols, p)


def _basis_from_rref(
    rref: list[list[int]], pivots: list[int], cols: int, p: int
) -> list[tuple[Scalar, ...]]:
    """One vector per free column, ascending, with a 1 in its own column."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        if p == 0:
            vec: list[Scalar] = [Fraction(0)] * cols
            vec[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                vec[pc] = Fraction(-rref[i][fc], rref[i][pc])
        else:
            vec = [0] * cols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = (-rref[i][fc]) % p
        basis.append(tuple(vec))
    return basis


# memoryview formats of the unsigned C integers, by width in bits; lanes of
# these widths are decoded by one cast of the packed row's bytes
_LANE_FORMATS = {8 * memoryview(bytes(8)).cast(c).itemsize: c for c in "QLIHB"}


class RowSpace:
    """Incremental reduced row echelon form of the span of rows fed in one at a time.

    Rows have entries in {-1, 0, 1} and are given as two vertex bitmasks:
    `plus` marks the +1 entries and `minus` the -1 entries, so a difference
    of indicator vectors M_i - M_0 is (M_i & ~M_0, M_0 & ~M_i).  A row is
    kept only when it is independent of the rows kept so far, so at most n
    rows are ever held and a row fed in after the span is full costs nothing.

    A space has one of two representations.  Over GF(2) a row is a bitmask
    and the echelon is an XOR basis keyed by its lowest set bit.  Over Q and
    over every odd GF(p) the space is fraction-free Gauss-Jordan over the
    integers (Bareiss): the row kept for pivot column c is
    R_c = D * (RREF row c), where D (`common_pivot`) is, up to sign, the
    determinant of the kept rows restricted to the pivot columns, so every
    entry is an integer minor of the kept rows.  Each row is one Python int
    of n signed lanes of B bits, column j in lane j, and is stored as
    N_c = R_c - D e_c, with its pivot lane cleared.  A row x reduces to
    s = D*x - sum_c x_c R_c = D*x_free - sum_c x_c N_c over the pivot
    columns c, where x_free is x off the pivots; it costs popcount(x)
    big-integer additions.

    The fields differ only in which lanes of s count as nonzero.  Over Q the
    row is dependent when s = 0, and otherwise its lowest nonzero lane c
    becomes a pivot.  Over GF(p) it is dependent when every lane of s is
    0 mod p, and otherwise the pivot is its lowest lane with s_c != 0 mod p.
    Either way the new D is s_c: by the Schur complement, the determinant of
    the kept minor bordered by x in column c is D * (x_c - x_P A^-1 b_c) = s_c
    up to sign, where A is the pivot minor and b_c its column c.  So over
    GF(p) D stays a unit mod p; the kept rows stay independent mod p, with
    RREF R_c * D^-1 mod p, and a row lies in their span mod p exactly when
    s = 0 mod p.  The pivot columns are the GF(p) echelon ones, because s
    is 0 in every pivot lane and c is its leading lane mod p.

    An integer space over Q also answers over every prime p that does not
    divide D (`reads_off`).  The kept rows' pivot minor is then a unit mod p,
    so every fed row is a p-integral combination of the kept rows: the rank
    over GF(p) is r, and the RREF over GF(p) is this one reduced mod p.
    """

    def __init__(self, n: int, f: FieldSpec) -> None:
        self.n = n
        self.field = f
        self.rank = 0
        self._xor: dict[int, int] = {}  # GF(2): lowest set bit -> row bitmask
        # any other field: D, the pivot columns (a bitmask and in order of
        # arrival), and `_cols[j]`, which is N_j for a pivot column j and the
        # unit e_j for any other.  D and every lane of every N_j are at most
        # 2^t in absolute value.
        self.common_pivot = 1
        self._piv = 0
        self._pivots: list[int] = []
        self._t = 1
        if f.characteristic != 2:
            self._set_width(self._width_for(self._t))

    @property
    def full(self) -> bool:
        return self.rank == self.n

    def reads_off(self, f: FieldSpec) -> bool:
        """True iff f is a prime field whose rank and RREF are this integer space's mod p.

        That holds exactly when this space is over Q and p does not divide D.
        """
        p = f.characteristic
        return self.field.characteristic == 0 and p != 0 and self.common_pivot % p != 0

    def add(self, plus: int, minus: int = 0) -> bool:
        """Absorb one row; True iff it was independent of the rows so far."""
        p = self.field.characteristic
        if p == 2:
            x = self._reduce_bits(plus ^ minus)
            if not x:
                return False
            self._xor[x & -x] = x
        else:
            s = self._residual(plus, minus)
            if not self._nonzero(s, p):
                return False
            self._keep(s)
        self.rank += 1
        return True

    def independent(self, plus: int, minus: int = 0, f: FieldSpec | None = None) -> bool:
        """True iff the row is independent of the rows so far over f; nothing is stored.

        f defaults to the space's own field; an integer space also answers
        over every prime field it `reads_off`.
        """
        if f is None:
            f = self.field
        elif f != self.field and not self.reads_off(f):
            raise ValueError(f"{f} cannot be read off this {self.field} row space")
        if self.field.characteristic == 2:
            return bool(self._reduce_bits(plus ^ minus))
        return self._nonzero(self._residual(plus, minus), f.characteristic)

    def rows(self) -> list[list[int]]:
        """The echelon rows in pivot-column order.

        Over Q they are the RREF rows scaled to primitive integers; over an
        odd GF(p) they are the RREF rows as residues, and over GF(2) the XOR
        basis rows.
        """
        n = self.n
        p = self.field.characteristic
        if p == 2:
            return [[x >> v & 1 for v in range(n)] for _, x in sorted(self._xor.items())]
        d = self.common_pivot
        inv = pow(d, -1, p) if p else 0
        out = []
        for c in sorted(self._pivots):
            row = self._unpack(self._cols[c])
            row[c] = d
            if p:
                out.append([x * inv % p for x in row])
            else:
                g = gcd(*row) if d > 0 else -gcd(*row)
                out.append([x // g for x in row])
        return out

    def basis(self, f: FieldSpec | None = None) -> list[tuple[Scalar, ...]]:
        """The canonical nullspace basis over f (default: the space's own field).

        As `nullspace_basis` gives it for any spanning set of the rows: one
        vector per free column, ascending, with a 1 in its own column.  An
        integer space reads it straight off its RREF, for its own field and
        for every prime field it `reads_off`: the entry in pivot column c of
        the vector for free column j is -R_c[j] / D.  A GF(2) space
        back-substitutes its XOR basis.
        """
        if f is None:
            f = self.field
        elif f != self.field and not self.reads_off(f):
            raise ValueError(f"{f} cannot be read off this {self.field} row space")
        if self.field.characteristic == 2:
            return self._xor_basis()
        p = f.characteristic
        d = self.common_pivot
        pivots = sorted(self._pivots)
        rows = [self._unpack(self._cols[c]) for c in pivots]
        entries: dict[int, Scalar] = {}
        if p:
            zero: Scalar = 0
            one: Scalar = 1
            scale = -pow(d, -1, p)
        else:
            zero, one = Fraction(0), Fraction(1)
        basis = []
        for j in range(self.n):
            if self._piv >> j & 1:
                continue
            vec = [zero] * self.n
            vec[j] = one
            for c, row in zip(pivots, rows):
                x = row[j]
                if x:
                    value = entries.get(x)
                    if value is None:
                        value = entries[x] = x * scale % p if p else Fraction(-x, d)
                    vec[c] = value
            basis.append(tuple(vec))
        return basis

    def _xor_basis(self) -> list[tuple[Scalar, ...]]:
        """The GF(2) nullspace basis, off the XOR basis back-substituted to its RREF."""
        piv = sum(self._xor)  # the keys are distinct powers of two
        reduced: dict[int, int] = {}
        # every other pivot in a row lies above its own, so reduce from the top
        for c in sorted(self._xor, reverse=True):
            x = self._xor[c]
            m = x & piv & ~c
            while m:
                low = m & -m
                x ^= reduced[low]
                m ^= low
            reduced[c] = x
        pivots = sorted(reduced)
        rows = [[reduced[c] >> v & 1 for v in range(self.n)] for c in pivots]
        return _basis_from_rref(rows, [c.bit_length() - 1 for c in pivots], self.n, 2)

    def _reduce_bits(self, x: int) -> int:
        """The GF(2) row x reduced until its lowest bit has no basis row (0 if it vanishes)."""
        xor = self._xor
        while x:
            row = xor.get(x & -x)
            if row is None:
                return x
            x ^= row
        return 0

    # -- the packed integer space, over Q and over odd GF(p) --------------
    #
    # Lane width.  Packing is linear over Z, so a lane that overflows in an
    # intermediate sum or product cancels again; only the lanes of a value
    # that is decoded or stored must lie in (-2^(B-1), 2^(B-1)).  With every
    # lane of N_j and D at most 2^t in absolute value, a residual of a row
    # with w nonzero entries has lanes of at most w * 2^t, and B is kept at
    # least t + bit_length(n) + 1.  Keeping a row needs a bound on the
    # updated rows before they exist, which `_keep` takes from the update
    # formula; afterwards t is tightened to the rows actually stored.

    def _residual(self, plus: int, minus: int) -> int:
        """The packed row s = D*x_free - sum_c x_c N_c: x reduced against the space, times D."""
        piv = self._piv
        free = self._total(plus & ~piv) - self._total(minus & ~piv)
        return free * self.common_pivot - self._total(plus & piv) + self._total(minus & piv)

    def _total(self, mask: int) -> int:
        """The sum of `_cols[j]` over the columns j in mask."""
        cols = self._cols
        total = 0
        while mask:
            low = mask & -mask
            total += cols[low.bit_length() - 1]
            mask ^= low
        return total

    def _nonzero(self, s: int, p: int) -> bool:
        """True iff the residual s is nonzero over GF(p), or over Q when p = 0."""
        return bool(s) and (not p or any(x % p for x in self._unpack(s)))

    def _keep(self, s: int) -> None:
        """Store the residual s, nonzero over the space's field.

        Its lowest lane c that is nonzero over the field (mod p over GF(p))
        becomes a pivot and D becomes s_c; every kept row turns into
        N_i <- (s_c N_i - N_i[c] s) / D.  The division is exact because each
        entry of the result is a minor of the kept rows.
        """
        d, t = self.common_pivot, self._t
        lanes = self._unpack(s)
        ts = max(map(abs, lanes)).bit_length()  # every lane of s is below 2^ts
        # |s_c N_i - N_i[c] s| < 2^(t + ts + 1), and |D| >= 2^(bit_length(D) - 1)
        bound = max(t + ts + 2 - abs(d).bit_length(), ts)
        if bound + 1 > self._width:
            self._set_width(bound + 1)
            s = self._pack(lanes)
        b = self._width
        p = self.field.characteristic
        c = next(j for j, x in enumerate(lanes) if x % p) if p else ((s & -s).bit_length() - 1) // b
        sc = lanes[c]
        cols = self._cols
        for i in self._pivots:
            row = cols[i]
            a = self._lane(row, c)
            if a or sc != d:
                cols[i] = (sc * row - a * s) // d
        cols[c] = s - (sc << (b * c))
        self._piv |= 1 << c
        self._pivots.append(c)
        self.common_pivot = sc
        self._t = self._tighten(min(max(ts, t - 1), bound), bound)
        need = self._width_for(self._t)
        if need > self._width:
            self._set_width(need)

    def _tighten(self, t: int, bound: int) -> int:
        """The least t' in [t, bound] with every lane of every N_j in [-2^t', 2^t').

        `bound` is known to qualify, and |D| is below 2^t.
        """
        ones = self._ones
        while t < bound:
            shift = ones << t  # each lane in [0, 2^(t+1)) once 2^t is added, with no borrow
            acc = 0
            for i in self._pivots:
                acc |= self._cols[i] + shift
            if not acc & ~((ones << (t + 1)) - ones):
                break
            t += 1
        return t

    def _width_for(self, t: int) -> int:
        """The least lane width B that decodes any residual: w * 2^t < 2^(B-1) for w <= n."""
        return t + max(self.n, 1).bit_length() + 1

    def _set_width(self, least: int) -> None:
        """Repack the kept rows into lanes of the least power of two >= max(least, 8) bits."""
        old = {i: self._unpack(self._cols[i]) for i in self._pivots}
        width = 1 << max(least - 1, 7).bit_length()
        self._width = width
        self._mask = (1 << width) - 1
        self._half = 1 << (width - 1)
        self._ones = int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * self.n, "little")
        self._format = _LANE_FORMATS.get(width) if sys.byteorder == "little" else None
        self._cols = [1 << (width * j) for j in range(self.n)]
        for i, row in old.items():
            self._cols[i] = self._pack(row)

    def _pack(self, row: list[int]) -> int:
        width = self._width
        return sum(x << (width * j) for j, x in enumerate(row) if x)

    def _lane(self, v: int, j: int) -> int:
        """Signed lane j of the packed row v."""
        if j:
            # rounding to the nearest multiple of 2^(B j) absorbs any borrow
            # from the lanes below j, whose value is below half of it
            v = ((v >> (self._width * j - 1)) + 1) >> 1
        v &= self._mask
        return v - ((v & self._half) << 1)

    def _unpack(self, v: int) -> list[int]:
        """All n signed lanes of the packed row v."""
        b, half = self._width, self._half
        # adding half to every lane makes each one non-negative, with no borrow
        raw = (v + (self._ones << (b - 1))).to_bytes(self.n * b // 8, "little")
        if self._format:
            lanes: Iterable[int] = memoryview(raw).cast(self._format)
        else:
            w = b // 8
            lanes = (int.from_bytes(raw[k : k + w], "little") for k in range(0, len(raw), w))
        return [x - half for x in lanes]


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
    if any(x not in (-1, 0, 1) for x in m.entries):
        raise InputError("move_dependent_row_first needs entries in {-1, 0, 1}")
    space = RowSpace(m.cols, f)
    for i in range(m.rows):
        row = m.row(i)
        plus = sum(1 << j for j, x in enumerate(row) if x == 1)
        minus = sum(1 << j for j, x in enumerate(row) if x == -1)
        if not space.add(plus, minus):
            order = [i] + [j for j in range(m.rows) if j != i]
            return ExactMatrix.from_rows([m.row(j) for j in order], m.cols)
    return m
