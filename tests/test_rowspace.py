"""Differential tests: the streaming row space against the batch elimination path.

The batch path enumerates the sets in canonical order, assembles the whole
difference system and eliminates it with `rank` and `nullspace_basis` per
field; the engine instead streams each set's bitmask into one integer
`RowSpace`, stops at full rank, and reads every GF(p) with p not dividing the
space's common pivot D off it, eliminating only the other fields on their
own.  Both must agree on every count and on the exact basis.
"""

import random
from math import gcd

import pytest

from wellcovered import (
    FieldSpec,
    build_difference_system,
    build_sum_system,
    complete,
    crown,
    disjoint_union,
    enumerate_mis,
    new_graph,
    nullspace_basis,
    random_graph,
    rank,
)
from wellcovered.engine import compute_wcdim_fields
from wellcovered.exactlin import ExactMatrix, RowSpace
from wellcovered.formulas import f_crown
from wellcovered.mis import mis_masks

from helpers import all_graphs, ref_nullspace, ref_rank

FIELDS = tuple(FieldSpec(c) for c in (0, 2, 3, 5, 10007))
Q = FieldSpec(0)
# the fields whose spaces are packed integer eliminations
PACKED = tuple(FieldSpec(c) for c in (0, 3, 5, 7, 10007))
READ_OFF = "read off (p ∤ D)"


def assert_matches_batch_path(g, fields=FIELDS):
    mis = enumerate_mis(g)
    diff = build_difference_system(mis)
    sums = build_sum_system(mis)
    reports = compute_wcdim_fields(g, fields, with_sum_rank=True)
    assert [r.field for r in reports] == list(fields)
    for f, r in zip(fields, reports):
        want_rank = rank(diff, f)
        assert r.mis_count == len(mis)
        assert r.diff_rank == want_rank
        assert r.wcdim == g.n - want_rank
        assert list(r.basis) == nullspace_basis(diff, f)
        assert r.sum_rank == rank(sums, f)


def triangle_union(k):
    g = complete(3)
    for _ in range(k - 1):
        g = disjoint_union(g, complete(3))
    return g


def test_every_labelled_graph_up_to_five_vertices():
    count = 0
    for n in range(6):
        for g in all_graphs(n):
            assert_matches_batch_path(g)
            count += 1
    assert count == 1100


@pytest.mark.parametrize("n", range(20, 31))
def test_seeded_random_graphs(n):
    assert_matches_batch_path(random_graph(n, 0.3, 1000 + n))


@pytest.mark.parametrize("k", range(1, 7))
def test_triangle_unions(k):
    g = triangle_union(k)
    assert_matches_batch_path(g)
    # so the sum ranks checked above over GF(3), GF(5) and GF(10007) were read off
    reports = compute_wcdim_fields(g, FIELDS[2:], with_sum_rank=True)
    assert [r.stats.method for r in reports] == [READ_OFF] * 3


def test_own_elimination_stops_at_the_rank_over_q():
    # fed every set, 6 disjoint triangles have D = 8, so GF(2) is eliminated
    # on its own; its rank cannot exceed the rank over Q, and here it reaches
    # it early (the decomposition's 13 sets give D = 1 instead)
    q, gf2 = compute_wcdim_fields(triangle_union(6), (Q, FieldSpec(2)), decompose=False)
    assert gf2.stats.method == "own elimination"
    assert gf2.diff_rank == q.diff_rank == 12 and gf2.stats.stopped_at_full_rank
    assert gf2.stats.rows_fed < q.stats.rows_fed == 728


@pytest.mark.parametrize("n", range(3, 9))
def test_crowns(n):
    assert_matches_batch_path(crown(n))


@pytest.mark.parametrize("k", range(3, 31))
def test_crowns_eliminate_on_their_own_exactly_where_char_divides_k_minus_2(k):
    primes = [p for p in range(2, k - 1) if (k - 2) % p == 0 and all(p % q for q in range(2, p))]
    fields = (Q, *(FieldSpec(p) for p in primes), FieldSpec(10007))
    assert_matches_batch_path(crown(k), fields)
    for f, r in zip(fields, compute_wcdim_fields(crown(k), fields)):
        assert r.wcdim == f_crown(k, f).value
        p = f.characteristic
        want = "integer" if p == 0 else READ_OFF if p == 10007 else "own elimination"
        assert r.stats.method == want


def test_zero_vertex_graph():
    assert_matches_batch_path(new_graph(0, []))


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_basis_ignores_row_order_and_baseline(f):
    rng = random.Random(5)
    graphs = [crown(5), triangle_union(3), random_graph(12, 0.5, 3), random_graph(9, 0.3, 8)]
    for g in graphs:
        masks = mis_masks(g)
        bases = set()
        for _ in range(4):
            order = rng.sample(masks, len(masks))
            base = rng.choice(masks)
            space = RowSpace(g.n, f)
            for m in order:
                space.add(m & ~base, base & ~m)
            bases.add(tuple(nullspace_basis(ExactMatrix.from_rows(space.rows(), g.n), f)))
        assert len(bases) == 1


class TestRowSpace:
    @pytest.mark.parametrize("f", FIELDS, ids=str)
    def test_rank_and_fill(self, f):
        space = RowSpace(3, f)
        assert space.add(0b011) and space.add(0b001, 0b100)  # (1, 1, 0), (1, 0, -1)
        assert not space.add(0b110)  # (0, 1, 1) is their difference
        assert space.rank == 2 and not space.full
        # (0, 1, -1) is their sum only when 2 = 0
        assert space.add(0b010, 0b100) == (f.characteristic != 2)
        assert space.add(0b111) == (f.characteristic == 2)
        assert space.full and not space.add(0b100)

    @pytest.mark.parametrize("f", FIELDS, ids=str)
    def test_rows_span_the_input(self, f):
        rng = random.Random(f.characteristic)
        for _ in range(30):
            n = rng.randint(1, 8)
            pairs = []
            for _ in range(rng.randint(0, 10)):
                plus = rng.randrange(1 << n)
                pairs.append((plus, rng.randrange(1 << n) & ~plus))
            space = RowSpace(n, f)
            for plus, minus in pairs:
                before = (space.rank, [list(row) for row in space.rows()])
                independent = space.independent(plus, minus)
                assert (space.rank, space.rows()) == before
                assert space.add(plus, minus) == independent
            dense = [[(plus >> v & 1) - (minus >> v & 1) for v in range(n)] for plus, minus in pairs]
            stored = space.rows()
            assert len(stored) == space.rank == rank(ExactMatrix.from_rows(dense, n), f)
            assert rank(ExactMatrix.from_rows(stored + dense, n), f) == space.rank
            assert not any(space.add(plus, minus) for plus, minus in pairs)

    @pytest.mark.parametrize("p", [2, 3, 5, 10007])
    def test_read_off_fields_match_their_own_elimination(self, p):
        f = FieldSpec(p)
        rng = random.Random(p)
        read_off = fallback = 0
        for _ in range(60):
            n = rng.randint(1, 7)
            space, own = RowSpace(n, Q), RowSpace(n, f)
            for _ in range(rng.randint(0, 8)):
                plus = rng.randrange(1 << n)
                minus = rng.randrange(1 << n) & ~plus
                space.add(plus, minus)
                own.add(plus, minus)
            if not space.reads_off(f):
                fallback += 1
                with pytest.raises(ValueError):
                    space.independent(1, 0, f)
                with pytest.raises(ValueError):
                    space.basis(f)
                continue
            read_off += 1
            assert space.rank == own.rank
            assert space.basis(f) == own.basis()
            assert own.basis() == nullspace_basis(ExactMatrix.from_rows(own.rows(), n), f)
            before = (space.rank, space.common_pivot, space.rows())
            for plus in range(1 << n):
                minus = rng.randrange(1 << n) & ~plus
                assert space.independent(plus, minus, f) == own.independent(plus, minus)
            assert (space.rank, space.common_pivot, space.rows()) == before
        assert read_off and (fallback or p == 10007)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
    def test_own_spaces_agree_with_the_oracle_row_by_row(self, p):
        # more rows than columns, so rows that vanish only mod p turn up
        f = FieldSpec(p)
        rng = random.Random(90 + p)
        for _ in range(100):
            n = rng.randint(1, 9)
            space = RowSpace(n, f)
            dense = []
            for _ in range(rng.randint(1, 2 * n + 2)):
                plus = rng.getrandbits(n)
                minus = rng.getrandbits(n) & ~plus
                row = [(plus >> v & 1) - (minus >> v & 1) for v in range(n)]
                want = ref_rank(dense + [row], p) > ref_rank(dense, p)
                assert space.independent(plus, minus) == space.add(plus, minus) == want
                dense.append(row)
            assert space.rank == ref_rank(dense, p)
            assert space.basis() == ref_nullspace(dense, n, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_own_elimination_basis_matches_the_batch_nullspace(self, p):
        # an odd GF(p) basis is read off the space's packed RREF, a GF(2) one
        # off its XOR basis back-substituted
        f = FieldSpec(p)
        rng = random.Random(40 + p)
        for _ in range(40):
            n = rng.randint(1, 40)
            space = RowSpace(n, f)
            dense = []
            for _ in range(rng.randint(0, n + 3)):
                plus = rng.getrandbits(n)
                minus = rng.getrandbits(n) & ~plus & rng.getrandbits(n)
                space.add(plus, minus)
                dense.append([(plus >> v & 1) - (minus >> v & 1) for v in range(n)])
            assert space.basis() == nullspace_basis(ExactMatrix.from_rows(dense, n), f)

    def test_only_an_integer_space_reads_other_fields_off(self):
        space = RowSpace(3, Q)
        space.add(0b011, 0b100)
        assert not space.reads_off(Q) and space.reads_off(FieldSpec(2))
        gf3 = RowSpace(3, FieldSpec(3))
        gf3.add(0b011, 0b100)
        assert not gf3.reads_off(FieldSpec(5))
        with pytest.raises(ValueError):
            gf3.independent(0b001, 0, FieldSpec(5))
        with pytest.raises(ValueError):
            gf3.basis(Q)

    @pytest.mark.parametrize("f", PACKED, ids=str)
    def test_random_dense_spaces_keep_their_lane_bound(self, f):
        # the packed rows decode only while every lane fits its width: after
        # each row, |D| and every stored lane are at most 2^t, and a residual
        # (at most n * 2^t) fits too; over GF(p) every D is a unit mod p
        p = f.characteristic
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 20)
            space = RowSpace(n, f)
            dense = []
            for _ in range(rng.randint(1, n + 2)):
                support = (1 << n) - 1 if rng.random() < 0.7 else rng.getrandbits(n)
                plus = rng.getrandbits(n) & support
                minus = support & ~plus
                space.add(plus, minus)
                dense.append([(plus >> v & 1) - (minus >> v & 1) for v in range(n)])
                if p:
                    assert space.common_pivot % p != 0
                limit = 1 << space._t
                assert abs(space.common_pivot) <= limit
                lanes = [x for c in space._pivots for x in space._unpack(space._cols[c])]
                assert all(abs(x) <= limit for x in lanes)
                assert space._width - 1 >= space._t + n.bit_length()
            assert space.rank == ref_rank(dense, p)
            basis = ref_nullspace(dense, n, p)
            assert space.basis() == basis
            for _ in range(3):
                plus = rng.getrandbits(n)
                minus = rng.getrandbits(n) & ~plus
                row = [(plus >> v & 1) - (minus >> v & 1) for v in range(n)]
                # a row lies in the span exactly when it annihilates the nullspace
                dots = (sum(a * b for a, b in zip(row, vec)) for vec in basis)
                assert space.independent(plus, minus) == any(x % p if p else x for x in dots)

    @pytest.mark.parametrize("f", PACKED, ids=str)
    def test_lanes_widen_for_large_minors(self, f):
        # dense {-1, 1} rows have pivot minors far beyond a machine word
        p = f.characteristic
        rng = random.Random(11)
        n, m = 60, 50
        full = (1 << n) - 1
        pairs = [(plus, full & ~plus) for plus in (rng.getrandbits(n) for _ in range(m))]
        space = RowSpace(n, f)
        dense = [[(plus >> v & 1) - (minus >> v & 1) for v in range(n)] for plus, minus in pairs]
        for plus, minus in pairs:
            space.add(plus, minus)
            if p:
                assert space.common_pivot % p != 0
        assert abs(space.common_pivot).bit_length() > 64
        assert space.rank == ref_rank(dense, p)
        assert p or space.rank == m
        basis = space.basis()
        assert basis == ref_nullspace(dense, n, p)
        stored = ExactMatrix.from_rows(space.rows(), n)
        assert nullspace_basis(stored, f) == basis
        if not p:
            for q in (3, 5, 7, 10007):
                if space.reads_off(FieldSpec(q)):
                    assert space.basis(FieldSpec(q)) == ref_nullspace(dense, n, q)
        assert not any(space.independent(plus, minus) for plus, minus in pairs)
        plus = rng.getrandbits(n)
        row = [(plus >> v & 1) * 2 - 1 for v in range(n)]
        want = ref_rank(dense + [row], p) > space.rank
        assert space.independent(plus, full & ~plus) == want

    def test_stored_rows_are_primitive_integers_over_q(self):
        space = RowSpace(4, FieldSpec(0))
        for plus, minus in [(0b0011, 0b1100), (0b0101, 0b1010), (0b1001, 0b0110), (0b0001, 0)]:
            space.add(plus, minus)
        for row in space.rows():
            assert all(isinstance(x, int) for x in row)
            assert gcd(*row) == 1
