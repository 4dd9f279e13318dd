"""Closed-form dimension predictors, one per published formula.

Everything here is pure integer arithmetic over the inputs; nothing touches
graphs or the engine.  That separation is what lets the verification
harness treat engine-vs-formula agreement as a two-sided consistency check.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InputError
from .exactlin import FieldSpec


class Prediction(NamedTuple):
    """A predicted dimension plus which formula produced it and under what case."""

    value: int
    source: str
    conditions: tuple[str, ...] = ()


def f_union(d1: int, d2: int) -> Prediction:
    """Dimension of a disjoint union is the sum of the dimensions."""
    if d1 < 0 or d2 < 0:
        raise InputError("dimensions must be non-negative")
    return Prediction(d1 + d2, "union")


def f_crown(n: int, f: FieldSpec) -> Prediction:
    """Crown graph on 2n vertices: n when the characteristic divides n - 2, else n - 1."""
    if n < 3:
        raise InputError(f"crown formula needs n >= 3, got {n}")
    p = f.characteristic
    if p != 0 and (n - 2) % p == 0:
        return Prediction(n, "crown", (f"char {p} divides n-2 = {n - 2}",))
    return Prediction(n - 1, "crown", (f"char {p} does not divide n-2 = {n - 2}",))


def f_multipartite(sizes: Sequence[int]) -> Prediction:
    """Complete multipartite graph: sum of block sizes minus (blocks - 1)."""
    if not sizes or any(s < 1 for s in sizes):
        raise InputError(f"block sizes must be a nonempty list of positive ints, got {list(sizes)}")
    k = len(sizes)
    return Prediction(sum(sizes) - (k - 1), "complete-multipartite", ("characteristic-independent",))


def f_turan(n: int, r: int) -> Prediction:
    """Turan graph T(n, r): its r blocks hold n vertices, so n - (r - 1) for every r."""
    if r < 1 or r > n:
        raise InputError(f"turan formula needs 1 <= r <= n, got n={n}, r={r}")
    return Prediction(n - (r - 1), "turan")


def f_path(n: int) -> Prediction:
    """Paths: 1 for n in {1, 2}, and 2 for n >= 3."""
    if n < 1:
        raise InputError(f"path formula needs n >= 1, got {n}")
    return Prediction(1 if n <= 2 else 2, "path")


def f_cycle(n: int) -> Prediction:
    """Cycles: 3 for C_4, 2 for C_6, 1 for C_3, C_5, C_7, and 0 from C_8 on."""
    if n < 3:
        raise InputError(f"cycle formula needs n >= 3, got {n}")
    if n >= 8:
        return Prediction(0, "cycle", ("n >= 8",))
    return Prediction({3: 1, 4: 3, 5: 1, 6: 2, 7: 1}[n], "cycle")


def f_gear(n: int) -> Prediction:
    """Gear graphs: 3 at n = 3, then 0 for every larger n."""
    if n < 3:
        raise InputError(f"gear formula needs n >= 3, got {n}")
    return Prediction(3 if n == 3 else 0, "gear")


def f_blowup(m: int, t: int) -> Prediction:
    """Blowing one vertex into t twins adds t - 1 to the dimension."""
    if m < 0:
        raise InputError("dimension must be non-negative")
    if t < 1:
        raise InputError(f"blowup size must be positive, got {t}")
    return Prediction(m + t - 1, "blowup")


def f_multi_blowup(m: int, n: int, ts: Sequence[int]) -> Prediction:
    """Blowing every vertex: dimension becomes (m - n) + sum of the sizes."""
    if len(ts) != n:
        raise InputError(f"expected {n} blowup sizes, got {len(ts)}")
    if any(t < 1 for t in ts):
        raise InputError("blowup sizes must all be positive")
    return Prediction((m - n) + sum(ts), "multi-blowup")


def f_lex_blowup(m: int, n_vertices: int, t: int) -> Prediction:
    """Product with a t-vertex edgeless graph: m + n(t - 1)."""
    if t < 1:
        raise InputError(f"factor size must be positive, got {t}")
    return Prediction(m + n_vertices * (t - 1), "lex-edgeless-factor")


def f_lex(a: int, b: int, n: int, m: int, i: int, j: int) -> Prediction:
    """Published closed form for the lexicographic product.

    a, b are the vertex counts, n, m the dimensions, and i, j the numbers of
    maximal independent sets of the second and first factor respectively.
    The base value nb + am - nm gains (n - a) when i = b - m + 1 and (m - b)
    when j = a - n + 1 (the case conditions of the published derivation).

    Note: the verification harness refutes this formula on specific factors
    (see the lex checks); it is kept exactly as published so the refutation
    is visible.
    """
    if a < 1 or b < 1:
        raise InputError("vertex counts must be positive")
    if not (0 <= n <= a and 0 <= m <= b):
        raise InputError("dimensions must lie between 0 and the vertex count")
    if i < 1 or j < 1:
        raise InputError("MIS counts must be positive")
    value = n * b + a * m - n * m
    conds = []
    if i == b - m + 1:
        value += n - a
        conds.append(f"i = b-m+1 = {i}: add n-a = {n - a}")
    if j == a - n + 1:
        value += m - b
        conds.append(f"j = a-n+1 = {j}: add m-b = {m - b}")
    return Prediction(value, "lex-product", tuple(conds))


def kron_rank_case(k: int, q: int, m_dependent: bool, a_dependent: bool) -> int:
    """Published rank of the reduced Kronecker product, by row-dependency case."""
    if k < 0 or q < 0:
        raise InputError("ranks must be non-negative")
    if m_dependent and a_dependent:
        return k * q
    if m_dependent:
        return k * (q + 1)
    if a_dependent:
        return (k + 1) * q
    return (k + 1) * (q + 1) - 1
