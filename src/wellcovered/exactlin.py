"""Exact linear algebra over the rationals and over prime fields GF(p).

No floating point anywhere.  `RowSpace`, the incremental reduced echelon
form the engine streams rows into, is the package's one elimination.  Over
GF(2) it is an XOR basis of bitmasks.  Over Q and over every odd GF(p) it
is one fraction-free Gauss-Jordan elimination over the integers, each row a
single packed Python int; over GF(p) each pivot is chosen so that D stays a
unit mod p, and the integer rows times D^-1 mod p are the RREF over GF(p).
An integer space over Q also serves every GF(p) with p not dividing its
common pivot D: for such p the rank and the RREF over GF(p) are the integer
ones reduced mod p.  A GF(p) with p | D is eliminated on its own.

Nullspace bases are read off the reduced row echelon form, which makes them
canonical: free columns are taken in ascending order and each basis vector
carries a 1 in its own free column.  Since the RREF depends only on the row
space, the basis is the same for any spanning set of the rows, whatever its
order, scaling or size; over Q fractions appear only in the basis vectors.
`RowSpace.basis` gives them as scalars and `RowSpace.basis_lines` as the
text `compute --basis` prints, off the same rows by the same loop: the
lines never go through scalar vectors, and each distinct entry is
formatted once, over Q straight from its integers (see `_ratio_text`), so
`fractions` is imported only where a `Fraction` is built.

The batch routines on a whole `ExactMatrix` live in `batch`, which this
module's `__getattr__` reads them from on first access (see `_BATCH`).

Prime-power fields are deliberately not implemented: for integer matrices
(every system built here is one), row reduction never leaves the prime
subfield, so the rank over GF(p^h) equals the rank over GF(p).  FieldSpec
therefore accepts only characteristic 0 or a prime p < 2^31.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import lru_cache
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, Union

from .errors import InputError
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

_MAX_PRIME = 2**31


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Trial division by 2 and every odd q up to isqrt(p); FieldSpec keeps p below 2^31.

    Kept per p, so each characteristic a process uses is tested once: every
    `compute` job builds its FieldSpecs again, and p = 10007 costs 50 divisions.
    """
    if p < 2 or p % 2 == 0:
        return p == 2
    return all(p % q for q in range(3, isqrt(p) + 1, 2))


class FieldSpec(Record):
    """The field of scalars, identified by its characteristic, an int: 0 or a prime."""

    _fields = ("characteristic",)
    characteristic: int

    def __init__(self, characteristic: int = 0) -> None:
        c = characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputError(f"characteristic must be an int, got {c!r}")
        if c >= _MAX_PRIME:
            raise InputError(f"prime characteristic must be below 2^31, got {c}")
        if c and not _is_prime(c):
            raise InputError(f"characteristic must be 0 or a prime, got {c}")
        # kept inline, the fastest to read: `RowSpace.add` reads it for every row
        object.__setattr__(self, "characteristic", c)

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"


def _ratio_text(x: int, d: int) -> str:
    """`str(Fraction(-x, d))` for d > 0, made from the two integers without the Fraction."""
    g = gcd(x, d)
    return str(-x // g) if g == d else f"{-x // g}/{d // g}"


# memoryview formats of the unsigned C integers, by width in bits; lanes of
# these widths are decoded by one cast of the packed row's bytes (on a
# little-endian host only, since the rows are packed little-endian)
_LANE_FORMATS = (
    {8 * memoryview(bytes(8)).cast(c).itemsize: c for c in "QLIHB"}
    if sys.byteorder == "little"
    else {}
)


# _HADAMARD[k] = ceil((k/2) log2 k), the least t with 2^t >= k^(k/2), the
# Hadamard bound on a k x k minor of a matrix with entries in {-1, 0, 1}
_HADAMARD = tuple(((k**k - 1).bit_length() + 1) // 2 for k in range(65))


@lru_cache(maxsize=64)
def _layout(least: int, n: int) -> tuple[int, int, int, int, str | None, int]:
    """n lanes of the least power of two >= max(least, 16) bits, as `RowSpace` keeps them.

    (width, lane mask, sign bit, the unit in every lane, the memoryview
    format or None, and the largest rank k whose Hadamard bound
    _HADAMARD[k] leaves the width decoding every residual.)
    """
    width = 1 << max(least - 1, 15).bit_length()
    mask = (1 << width) - 1
    t = width - max(n, 1).bit_length() - 1  # the largest t with _width_for(t) <= width
    ones = ((1 << (width * n)) - 1) // mask
    hadamard_rank = bisect_right(_HADAMARD, t) - 1
    return width, mask, 1 << (width - 1), ones, _LANE_FORMATS.get(width), hadamard_rank


def _bad_row(plus: int, minus: int, n: int) -> str:
    return f"row (plus={plus}, minus={minus}) is not two bitmasks of the columns below n = {n}"


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
    R_c = D * (RREF row c), where D (`common_pivot`) is the absolute value
    of the determinant of the kept rows restricted to the pivot columns, so
    every entry is an integer minor of the kept rows.  Bareiss fixes D only
    up to sign; the space keeps it positive.  Each row is one Python int
    of n signed lanes of B bits, column j in lane j, and is stored as
    N_c = R_c - D e_c, with its pivot lane cleared.  Only the kept rows are
    stored, so an empty space holds nothing per column.  A row x reduces to
    s = D*x - sum_c x_c R_c = D*x_free - sum_c x_c N_c over the pivot
    columns c, where x_free is x off the pivots, packed from unit lanes
    made as it is read; it costs popcount(x) big-integer additions.

    The fields differ only in which lanes of s count as nonzero.  Over Q the
    row is dependent when s = 0, and otherwise its lowest nonzero lane c
    becomes a pivot.  Over GF(p) it is dependent when every lane of s is
    0 mod p, and otherwise the pivot is its lowest lane with s_c != 0 mod p.
    Either way the new D is |s_c|, with s negated when s_c < 0: by the Schur
    complement, the determinant of the kept minor bordered by x in column c
    is D * (x_c - x_P A^-1 b_c) = s_c up to sign, where A is the pivot minor
    and b_c its column c.  So over GF(p) D stays a unit mod p; the kept rows
    stay independent mod p, with RREF R_c * D^-1 mod p, and a row lies in
    their span mod p exactly when s = 0 mod p.  The pivot columns are the
    GF(p) echelon ones, because s is 0 in every pivot lane and c is its
    leading lane mod p.

    An integer space over Q also answers over every prime p that does not
    divide D (`reads_off`).  The kept rows' pivot minor is then a unit mod p,
    so every fed row is a p-integral combination of the kept rows: the rank
    over GF(p) is r, and the RREF over GF(p) is this one reduced mod p.
    """

    def __init__(self, n: int, f: FieldSpec) -> None:
        if not isinstance(n, int) or n < 0:
            raise InputError(f"a row space needs a non-negative int of columns, got {n!r}")
        self.n = n
        self.field = f
        self.rank = 0
        self._xor: dict[int, int] = {}  # GF(2): lowest set bit -> row bitmask
        # any other field: D > 0, the pivot columns as a bitmask, and `_cols`,
        # which maps each pivot column c, in order of arrival, to its packed
        # row N_c; a free column has no entry.  D and every lane of every N_c
        # are at most 2^t in absolute value.
        self.common_pivot = 1
        self._piv = 0
        self._cols: dict[int, int] = {}
        self._t = 0
        self._rref_at: tuple[int, tuple] | None = None  # (rank, `_sparse_rref()`)
        if f.characteristic != 2:
            self._use_width(self._width_for(0))

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
        """Absorb one row; True iff it was independent of the rows so far.

        Raises InputError unless plus and minus are bitmasks of the n columns.
        """
        if (plus | minus) >> self.n:  # a negative mask shifts to -1
            raise InputError(_bad_row(plus, minus, self.n))
        p = self.field.characteristic
        if p == 2:
            x = self._reduce_bits(plus ^ minus)
            if not x:
                return False
            self._xor[x & -x] = x
        else:
            s = self._residual(plus, minus)
            if not s:
                return False
            if p:  # the pivot is the lowest lane that is nonzero mod p
                c = next((j for j, x in enumerate(self._unpack(s)) if x % p), -1)
                if c < 0:
                    return False
            else:  # the lowest nonzero lane
                c = ((s & -s).bit_length() - 1) // self._width
            self._keep(s, c)
        self.rank += 1
        return True

    def independent(self, plus: int, minus: int = 0, f: FieldSpec | None = None) -> bool:
        """True iff the row is independent of the rows so far over f; nothing is stored.

        f defaults to the space's own field; an integer space also answers
        over every prime field it `reads_off`.  Raises InputError unless plus
        and minus are bitmasks of the n columns.
        """
        if (plus | minus) >> self.n:
            raise InputError(_bad_row(plus, minus, self.n))
        if f is None:
            f = self.field
        elif f != self.field and not self.reads_off(f):
            raise ValueError(f"{f} cannot be read off this {self.field} row space")
        if self.field.characteristic == 2:
            return bool(self._reduce_bits(plus ^ minus))
        return self._nonzero(self._residual(plus, minus), f.characteristic)

    def rows(self) -> list[list[int]]:
        """The echelon rows in pivot-column order.

        Over Q they are the RREF rows scaled to primitive integers, each
        R_c = D * (RREF row c) divided by its gcd, which is positive because
        D > 0; over an odd GF(p) they are the RREF rows as residues, and over
        GF(2) the XOR basis rows.
        """
        n = self.n
        p = self.field.characteristic
        if p == 2:
            return [[x >> v & 1 for v in range(n)] for _, x in sorted(self._xor.items())]
        d = self.common_pivot
        inv = pow(d, -1, p) if p else 0
        out = []
        for c in sorted(self._cols):
            row = self._unpack(self._cols[c])
            row[c] = d
            if p:
                out.append([x * inv % p for x in row])
            else:
                g = gcd(*row)
                out.append([x // g for x in row])
        return out

    def basis(self, f: FieldSpec | None = None) -> list[tuple[Scalar, ...]]:
        """The canonical nullspace basis over f (default: the space's own field).

        As `batch.nullspace_basis` gives it for any spanning set of the rows: one
        vector per free column, ascending, with a 1 in its own column; the
        entries are Fractions over Q and residues in 0..p-1 over GF(p).  An
        integer space reads it straight off its RREF, for its own field and
        for every prime field it `reads_off`: the entry in pivot column c of
        the vector for free column j is -R_c[j] / D.  A GF(2) space reads it
        off its XOR basis, back-substituted to the RREF.  `basis_lines` gives
        the same basis as text.
        """
        return self._read_basis(f, text=False)

    def basis_lines(self, f: FieldSpec | None = None) -> list[str]:
        """`basis(f)` as text: each vector's entries as `str` prints them, joined by spaces.

        The lines come straight off the rows `basis` reads, without a vector
        of scalars: each distinct entry is formatted once.
        """
        return self._read_basis(f, text=True)

    def _read_basis(self, f: FieldSpec | None, text: bool) -> list:
        """The basis over f as scalar tuples, or as lines of text when `text`.

        Each vector starts as a template of zeros with a one in its free
        column; the rows' nonzero entries are then filled in, each distinct
        one made once, as a scalar or as its string.
        """
        if f is None:
            f = self.field
        elif f != self.field and not self.reads_off(f):
            raise ValueError(f"{f} cannot be read off this {self.field} row space")
        n, p = self.n, f.characteristic
        d, piv, rows = self._sparse_rref()
        # the entry for lane value x is -x/D, so 0 gives zero and -D gives one
        if p:
            scale = -pow(d, -1, p)
            make = (lambda x: str(x * scale % p)) if text else (lambda x: x * scale % p)
        elif text:
            make = lambda x: _ratio_text(x, d)
        else:
            from fractions import Fraction

            make = lambda x: Fraction(-x, d)
        entries: dict[int, object] = {}  # each distinct lane value, made once
        template = [make(0)] * n
        one = make(-d)
        vecs = {}
        for j in range(n):
            if not piv >> j & 1:
                vec = vecs[j] = template.copy()
                vec[j] = one
        for c, row in rows:
            for j, x in row:
                entry = entries.get(x)
                if entry is None:
                    entry = entries[x] = make(x)
                vecs[j][c] = entry
        finish = " ".join if text else tuple
        return [finish(vec) for vec in vecs.values()]

    def _sparse_rref(self) -> tuple[int, int, list[tuple[int, list[tuple[int, int]]]]]:
        """D, the pivot bitmask, and (c, the row of pivot column c off its pivot) per pivot.

        A row is D times the RREF row, as the (column, entry) pairs of its
        nonzero entries off its own pivot; they all lie in free columns,
        since every other pivot column is 0 in an RREF.  The rows are kept
        until the rank changes, so every field read off the space shares them.
        """
        if self._rref_at is not None and self._rref_at[0] == self.rank:
            return self._rref_at[1]
        if self.field.characteristic == 2:
            # back-substituted, the XOR basis is the RREF itself (D = 1), and
            # every entry off a pivot is 1, its own negative; every other
            # pivot in a row lies above its own, so it is reduced from the top
            d, piv = 1, sum(self._xor)  # the keys are distinct powers of two
            reduced: dict[int, int] = {}
            rows = []
            for c in sorted(self._xor, reverse=True):
                x = self._xor[c]
                m = x & piv & ~c
                while m:
                    low = m & -m
                    x ^= reduced[low]
                    m ^= low
                reduced[c] = x
                cells = []
                x ^= c
                while x:
                    low = x & -x
                    cells.append((low.bit_length() - 1, 1))
                    x ^= low
                rows.append((c.bit_length() - 1, cells))
        else:
            d, piv = self.common_pivot, self._piv
            rows = [(c, self._nonzero_lanes(row)) for c, row in self._cols.items()]
        self._rref_at = (self.rank, (d, piv, rows))
        return d, piv, rows

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
    # that is decoded or stored must lie in (-2^(B-1), 2^(B-1)).  t is an
    # upper bound, not necessarily the least one, on D > 0 and on every
    # lane of every kept row N_c: each is at most 2^t in absolute value.  A
    # residual D*x_free - sum_c x_c N_c of a row with w nonzero entries then
    # has lanes of at most w * 2^t, and B is kept at least
    # t + bit_length(n) + 1.  Keeping a row needs a bound on the updated
    # rows before they exist.  At rank k every stored value is a k x k
    # minor of {-1, 0, 1} rows (Bareiss), so Hadamard's inequality bounds
    # it by k^(k/2) before any row is fed: while that bound leaves the
    # width decoding every residual, t is just _HADAMARD[k].  Above that
    # rank `_keep` widens the lanes, when it must, to hold the bound the
    # update formula gives, and tests every rewritten row against 2^t as it
    # is made.  If none has outgrown it, t grows only to cover the new row.
    # If one has, t becomes the update bound while the width still decodes
    # every residual under it; only when it would not are the rows actually
    # stored rescanned for the least t (`_tighten`), and the lanes widened
    # if even that does not fit.  Lanes start at 16 bits, so most spaces
    # never widen at all.

    def _residual(self, plus: int, minus: int) -> int:
        """The packed row s = D*x_free - sum_c x_c N_c: x reduced against the space, times D.

        x_free is packed from the unit lane 1 << (B j) of each free column j
        it touches, and each pivot column c adds its kept row N_c.
        """
        piv, cols, b = self._piv, self._cols, self._width
        free = 0
        mask = plus & ~piv
        while mask:
            low = mask & -mask
            free += 1 << b * (low.bit_length() - 1)
            mask ^= low
        mask = minus & ~piv
        while mask:
            low = mask & -mask
            free -= 1 << b * (low.bit_length() - 1)
            mask ^= low
        s = free * self.common_pivot
        mask = plus & piv
        while mask:
            low = mask & -mask
            s -= cols[low.bit_length() - 1]
            mask ^= low
        mask = minus & piv
        while mask:
            low = mask & -mask
            s += cols[low.bit_length() - 1]
            mask ^= low
        return s

    def _nonzero(self, s: int, p: int) -> bool:
        """True iff the residual s is nonzero over GF(p), or over Q when p = 0."""
        return bool(s) and (not p or any(x % p for x in self._unpack(s)))

    def _keep(self, s: int, c: int) -> None:
        """Store the residual s, nonzero over the space's field, with pivot column c.

        c is its lowest lane that is nonzero over the field (mod p over
        GF(p)), and D becomes |s_c|: s is negated first when s_c < 0,
        so D stays positive.  Every kept row turns into
        N_i <- (s_c N_i - N_i[c] s) / D, exact because each entry of the
        result is a minor of the kept rows.  When s_c = D, as on most keeps of
        a prime graph, that is N_i - N_i[c] s / D (N_i - N_i[c] s when D = 1),
        and a row with N_i[c] = 0 is left alone.  While the new rank k is at most
        `_hadamard_rank`, t is simply Hadamard's bound _HADAMARD[k] on the
        k x k minors, which the width already decodes under, so no bound is
        probed.  Above it the update formula bounds the rewritten rows before
        they exist, and the lanes of s are decoded only when the width must
        grow to hold that bound.  The rewritten rows are lane-tested
        against 2^t as they are made, t first raised to cover D and s: if
        none has outgrown it, t stays there.  Otherwise t becomes the update
        bound while the width still decodes every residual under it, and only
        when it would not are the stored rows rescanned for the least t
        (`_tighten`).  The first keep above the Hadamard rank measures the
        Hadamard t once, so a loose one never widens the lanes.
        """
        d, b = self.common_pivot, self._width
        # over GF(p) the lanes below c may be nonzero, so lane c is rounded
        # off as in the update loop below
        sc = (((s >> (b * c - 1)) + 1) >> 1 if c else s) & self._mask
        sc -= (sc & self._half) << 1
        if sc < 0:
            # Bareiss fixes D only up to sign, so D is kept positive
            s, sc = -s, -sc
        k = self.rank + 1
        hadamard = k <= self._hadamard_rank
        if not hadamard:
            t = self._t
            if k - 1 <= self._hadamard_rank:
                t = self._t = self._tighten((d - 1).bit_length(), t)
            # every lane of s is in [-2^ts, 2^ts), and s_c < 2^ts is one of them
            ts = sc.bit_length()
            while not self._within((s,), ts):
                ts += 1
            # |s_c N_i - N_i[c] s| <= 2^(t + ts + 1), and D >= 2^(bit_length(D) - 1)
            bound = max(t + ts + 2 - d.bit_length(), ts)
            if bound + 1 > b:
                lanes = self._unpack(s)
                self._set_width(bound + 1)
                s = self._pack(lanes)
                b = self._width
            t = max(t, ts)  # what D and the new row need
            # every rewritten row is OR-ed into acc with each lane lifted by
            # 2^t, as `_within` tests it; under the Hadamard rank nothing is
            acc = 0
            lift = self._ones << t
        cols, mask, half = self._cols, self._mask, self._half
        shift = b * c - 1
        unit = sc == d
        for i, row in cols.items():
            # lane c of row, unsigned, after rounding to a multiple of 2^(B c) absorbs any borrow
            a = (((row >> shift) + 1) >> 1 if c else row) & mask
            if a:
                a -= (a & half) << 1
                if unit:
                    row -= a * s if d == 1 else a * s // d
                else:
                    row = (sc * row - a * s) // d
            elif unit:
                continue
            else:
                row = sc * row // d
            cols[i] = row
            if not hadamard:
                acc |= row + lift
        cols[c] = s - (sc << (b * c))
        self._piv |= 1 << c
        self.common_pivot = sc
        if hadamard:
            self._t = _HADAMARD[k]
            return
        ones = self._ones
        if acc & ~((ones << (t + 1)) - ones):  # a rewritten row has outgrown 2^t
            t = bound if self._width_for(bound) <= b else self._tighten(t + 1, bound)
        self._t = t
        need = self._width_for(t)
        if need > b:
            self._set_width(need)

    def _tighten(self, t: int, bound: int) -> int:
        """The least t' in [t, bound] with every lane of every N_j in [-2^t', 2^t').

        `bound` is known to qualify, and D is at most 2^t.
        """
        rows = self._cols.values()
        while t < bound and not self._within(rows, t):
            t += 1
        return t

    def _within(self, rows: Iterable[int], t: int) -> bool:
        """True iff every lane of every packed row in rows is in [-2^t, 2^t)."""
        ones = self._ones
        shift = ones << t  # each lane in [0, 2^(t+1)) once 2^t is added, with no borrow
        acc = 0
        for v in rows:
            acc |= v + shift
        return not acc & ~((ones << (t + 1)) - ones)

    def _width_for(self, t: int) -> int:
        """The least lane width B that decodes any residual: w * 2^t < 2^(B-1) for w <= n."""
        return t + max(self.n, 1).bit_length() + 1

    def _set_width(self, least: int) -> None:
        """Repack the kept rows into lanes of the least power of two >= max(least, 16) bits."""
        old = [(c, self._unpack(row)) for c, row in self._cols.items()]
        self._use_width(least)
        for c, lanes in old:
            self._cols[c] = self._pack(lanes)

    def _use_width(self, least: int) -> None:
        """Set the lane width to the least power of two >= max(least, 16) bits, and its constants."""
        (
            self._width, self._mask, self._half, self._ones, self._format, self._hadamard_rank
        ) = _layout(least, self.n)

    def _pack(self, row: list[int]) -> int:
        width = self._width
        return sum(x << (width * j) for j, x in enumerate(row) if x)

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

    def _nonzero_lanes(self, v: int) -> list[tuple[int, int]]:
        """(j, signed lane j) per nonzero lane j of packed row v, ascending, decoded as found."""
        b, mask, half = self._width, self._mask, self._half
        bias = self._ones << (b - 1)
        u = v + bias  # every lane plus half: non-negative, with no borrow
        z = u ^ bias  # lane j of z is 0 exactly when lane j of v is
        shift = 1
        while shift < b:  # fold every lane's bits into its lowest bit
            z |= z >> shift
            shift <<= 1
        z &= self._ones
        out = []
        while z:
            k = (z & -z).bit_length() - 1
            out.append((k // b, (u >> k & mask) - half))
            z ^= 1 << k
        return out


# the batch names that moved to `batch`, still resolved here for whoever imports them from here
_BATCH = (
    "ExactMatrix", "_signed_rows", "_row_space", "rank", "nullspace_basis", "kronecker",
    "reduce_first_row", "move_dependent_row_first",
)


def __getattr__(name: str) -> object:
    """A name of `_BATCH`, read off `batch` on first access and kept here."""
    if name not in _BATCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import batch

    value = globals()[name] = getattr(batch, name)
    return value
