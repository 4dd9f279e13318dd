"""Differential tests: the streaming row space against the reference elimination.

The reference enumerates the sets in canonical order, assembles the whole
difference system and eliminates it with `helpers.ref_rank` and
`ref_nullspace` per field, by plain Gauss-Jordan independent of the
package; the engine instead streams each set's bitmask into one integer
`RowSpace`, stops at full rank, and reads every GF(p) with p not dividing the
space's common pivot D off it, eliminating only the other fields on their
own.  Both must agree on every count and on the exact basis.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from wellcovered import (
    FieldSpec,
    InputError,
    complete,
    crown,
    disjoint_union,
    enumerate_mis,
    new_graph,
    random_graph,
)
from wellcovered.batch import build_difference_system, build_sum_system
from wellcovered.engine import compute_wcdim_fields, compute_wcdim_sets
from wellcovered.exactlin import _HADAMARD, RowSpace
from wellcovered.formulas import f_crown
from wellcovered.mis import mis_masks

from helpers import all_graphs, ref_nullspace, ref_rank

FIELDS = tuple(FieldSpec(c) for c in (0, 2, 3, 5, 10007))
Q = FieldSpec(0)
# the fields whose spaces are packed integer eliminations
PACKED = tuple(FieldSpec(c) for c in (0, 3, 5, 7, 10007))
READ_OFF = "read off (p ∤ D)"


def assert_matches_oracles(g, fields=FIELDS):
    mis = enumerate_mis(g)
    diff = build_difference_system(mis).row_list()
    sums = build_sum_system(mis).row_list()
    reports = compute_wcdim_fields(g, fields)
    assert [r.field for r in reports] == list(fields)
    for f, r in zip(fields, reports):
        p = f.characteristic
        want_rank = ref_rank(diff, p)
        assert r.mis_count == len(mis)
        assert r.diff_rank == want_rank
        assert r.wcdim == g.n - want_rank
        assert list(r.basis) == ref_nullspace(diff, g.n, p)
        assert r.sum_rank == ref_rank(sums, p)


def triangle_union(k):
    g = complete(3)
    for _ in range(k - 1):
        g = disjoint_union(g, complete(3))
    return g


class LaneAudit:
    """Checks every row fed to a Q space against the lane rule of `RowSpace._keep`.

    Up to the Hadamard rank of the lanes a kept row probes no bound:
    nothing is decoded or rescanned and t is the table's.  The first keep
    above it measures t once, from D up.  From there a kept row decodes its
    lanes only when the width grows, and t rises to T, the least t that D
    and the new row allow, when no rewritten row leaves [-2^T, 2^T).  Only
    when one does is t the update bound, and the stored rows are rescanned
    for the least t only when that bound would leave a residual
    undecodable.  After every row D > 0, D and every stored lane are at
    most 2^t, and the width decodes every residual.  `counts` tallies the
    branches and `tightened` the `_tighten` calls of each space.
    """

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.counts = Counter()
        self.tightened = Counter()
        for name in ("_unpack", "_tighten"):
            method = getattr(RowSpace, name)

            def counted(space, *args, _method=method, _name=name):
                self.calls[_name] += 1
                return _method(space, *args)

            monkeypatch.setattr(RowSpace, name, counted)
        add = RowSpace.add
        monkeypatch.setattr(
            RowSpace, "add", lambda space, plus, minus=0: self.add(add, space, plus, minus)
        )

    @staticmethod
    def least(lanes):
        """The least t with every lane in [-2^t, 2^t)."""
        return max((x if x >= 0 else ~x).bit_length() for x in lanes)

    def add(self, add, space, plus, minus):
        if space.field != Q:
            return add(space, plus, minus)
        least = self.least
        t, d, before, most = space._t, space.common_pivot, space._width, space._hadamard_rank
        old = {c: space._unpack(row) for c, row in space._cols.items()}
        leaving = space.rank == most
        if leaving:
            # the least t with D <= 2^t and every stored lane in [-2^t, 2^t)
            stored = [x for lanes in old.values() for x in lanes]
            t = min(t, max(least(stored), (d - 1).bit_length()))
        lanes = space._unpack(space._residual(plus, minus))
        # the residual as it is kept: negated when its pivot lane is negative
        sign = 1 if next((x for x in lanes if x), 1) > 0 else -1
        ts = least(sign * x for x in lanes)
        bound = max(t + ts + 2 - d.bit_length(), ts)
        # the width the update runs at: a power of two of at least 16 bits
        width = before if bound < before else 1 << max(bound, 15).bit_length()
        self.calls.clear()
        kept = add(space, plus, minus)
        made = dict(self.calls)
        self.tightened[space] += made.get("_tighten", 0)
        limit = 1 << space._t
        assert 0 < space.common_pivot <= limit
        assert all(abs(x) <= limit for r in space._cols.values() for x in space._unpack(r))
        assert space._width - 1 >= space._t + space.n.bit_length()
        if not kept:
            assert not made
            return kept
        self.counts["keeps"] += 1
        if space.rank <= most:
            self.counts["flat"] += 1
            assert not made
            assert space._t == _HADAMARD[space.rank] and space._width == before
            return kept
        assert not made.get("_unpack") or space._width > before
        tightened = made.get("_tighten", 0)
        if leaving:
            self.counts["measured"] += 1
            tightened -= 1
        # every stored row is rewritten but those with 0 in the new pivot
        # column c, which are left alone when D does not change
        c = next(j for j in space._cols if j not in old)
        rewritten = [
            space._unpack(space._cols[i])
            for i, lanes in old.items()
            if lanes[c] or space.common_pivot != d
        ]
        big = max(t, ts)
        if not rewritten or least(x for r in rewritten for x in r) <= big:
            self.counts["held"] += 1
            assert tightened == 0 and space._t == big
        elif space._width_for(bound) <= width:
            self.counts["outgrown"] += 1
            assert tightened == 0 and space._t == bound
        else:
            self.counts["rescanned"] += 1
            assert tightened == 1
        return kept


def test_every_labelled_graph_up_to_five_vertices():
    count = 0
    for n in range(6):
        for g in all_graphs(n):
            assert_matches_oracles(g)
            count += 1
    assert count == 1100


@pytest.mark.parametrize("n", range(20, 31))
def test_seeded_random_graphs(n):
    assert_matches_oracles(random_graph(n, 0.3, 1000 + n))


@pytest.mark.parametrize("k", range(1, 7))
def test_triangle_unions(k):
    g = triangle_union(k)
    assert_matches_oracles(g)
    # so the sum ranks checked above over GF(3), GF(5) and GF(10007) were read off
    reports = compute_wcdim_fields(g, FIELDS[2:])
    assert [r.stats.method for r in reports] == [READ_OFF] * 3


def test_own_elimination_stops_at_the_rank_over_q():
    # fed every set, 6 disjoint triangles have D = 8, so GF(2) is eliminated
    # on its own; its rank cannot exceed the rank over Q, and here it reaches
    # it early (the decomposition's 13 sets give D = 1 instead)
    g = triangle_union(6)
    q, gf2 = compute_wcdim_sets(g.n, mis_masks(g), (Q, FieldSpec(2)))
    assert gf2.stats.method == "own elimination"
    assert gf2.diff_rank == q.diff_rank == 12 and gf2.stats.stopped_at_full_rank
    assert gf2.stats.rows_fed < q.stats.rows_fed == 728


@pytest.mark.parametrize("n", range(3, 9))
def test_crowns(n):
    assert_matches_oracles(crown(n))


@pytest.mark.parametrize("k", range(3, 31))
def test_crowns_eliminate_on_their_own_exactly_where_char_divides_k_minus_2(k):
    primes = [p for p in range(2, k - 1) if (k - 2) % p == 0 and all(p % q for q in range(2, p))]
    fields = (Q, *(FieldSpec(p) for p in primes), FieldSpec(10007))
    assert_matches_oracles(crown(k), fields)
    for f, r in zip(fields, compute_wcdim_fields(crown(k), fields)):
        assert r.wcdim == f_crown(k, f).value
        p = f.characteristic
        want = "integer" if p == 0 else READ_OFF if p == 10007 else "own elimination"
        assert r.stats.method == want


def test_zero_vertex_graph():
    assert_matches_oracles(new_graph(0, []))


def test_basis_lines_are_the_vectors_printed():
    methods, lines = set(), []
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [crown(k) for k in range(3, 13)]
    # bases over Q with halves, so 2 divides D and GF(2) takes the XOR basis
    graphs += [random_graph(n, 0.4, seed) for n, seed in ((9, 238), (10, 437), (7, 1118))]
    for g in graphs:
        for r in compute_wcdim_fields(g, FIELDS):
            vectors = r.space.basis(r.field)
            assert r.space.basis_lines(r.field) == [" ".join(map(str, v)) for v in vectors]
            assert list(r.basis_lines) == [" ".join(map(str, v)) for v in r.basis]
            methods.add((r.stats.method, r.field.characteristic == 2))
            lines += r.basis_lines
    assert any("/2" in line for line in lines)
    # the integer space, a field read off it, and an own elimination both by
    # the XOR basis (GF(2)) and by the packed integers (GF(3), GF(5))
    assert methods == {
        ("integer", False), (READ_OFF, False), (READ_OFF, True),
        ("own elimination", True), ("own elimination", False),
    }


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
            bases.add(tuple(ref_nullspace(space.rows(), g.n, f.characteristic)))
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

    @pytest.mark.parametrize("f", FIELDS[:3], ids=str)
    @pytest.mark.parametrize("n", [-1, 2.0, "3", None])
    def test_a_column_count_that_is_not_a_non_negative_int_is_rejected(self, f, n):
        with pytest.raises(InputError, match="non-negative int of columns"):
            RowSpace(n, f)

    @pytest.mark.parametrize("f", FIELDS[:3], ids=str)
    @pytest.mark.parametrize("row", [(-1,), (1 << 5,), (1 << 3,), (0, -1), (1, 1 << 3), (-2, 1)])
    def test_a_row_outside_the_columns_is_rejected(self, f, row):
        space = RowSpace(3, f)
        space.add(0b011)
        for method in (space.add, space.independent):
            with pytest.raises(InputError, match="columns below n = 3"):
                method(*row)
        assert space.rank == 1 and len(space.basis()) == 2
        # the space still takes rows: (-1, 0, 1) is independent of (1, 1, 0)
        assert space.add(0b100, 0b001) and space.rank == 2 and len(space.basis()) == 1

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
            p = f.characteristic
            assert len(stored) == space.rank == ref_rank(dense, p)
            assert ref_rank(stored + dense, p) == space.rank
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
            assert own.basis() == ref_nullspace(own.rows(), n, p)
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
        # off its XOR basis back-substituted; both against the reference basis
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
            assert space.basis() == ref_nullspace(dense, n, p)

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
        # (at most n * 2^t) fits too; over GF(p) every D is a unit mod p.
        # t is an upper bound, not the least one: sparse rows (support 2-4)
        # mixed with the dense ones make some keeps shrink |D|, so t is left
        # above the least bound the stored rows allow
        p = f.characteristic
        rng = random.Random(3)
        shrank = loose = 0
        for _ in range(300):
            n = rng.randint(1, 40)
            space = RowSpace(n, f)
            dense = []
            for _ in range(rng.randint(1, n + 2)):
                kind = rng.random()
                if kind < 0.5:
                    support = (1 << n) - 1
                elif kind < 0.8:
                    support = sum(1 << v for v in rng.sample(range(n), min(n, rng.randint(2, 4))))
                else:
                    support = rng.getrandbits(n)
                plus = rng.getrandbits(n) & support
                minus = support & ~plus
                d = abs(space.common_pivot)
                if space.add(plus, minus) and abs(space.common_pivot) < d:
                    shrank += 1
                dense.append([(plus >> v & 1) - (minus >> v & 1) for v in range(n)])
                if p:
                    assert space.common_pivot % p != 0
                limit = 1 << space._t
                assert 0 < space.common_pivot <= limit
                lanes = [x for row in space._cols.values() for x in space._unpack(row)]
                assert all(abs(x) <= limit for x in lanes)
                assert space._width - 1 >= space._t + n.bit_length()
                if max(map(abs, lanes + [space.common_pivot])) <= limit // 2:
                    loose += 1
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
        assert shrank and loose

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    @pytest.mark.parametrize("f", [Q, FieldSpec(3), FieldSpec(10007)], ids=str)
    def test_hadamard_rows_meet_the_lane_bound_with_equality(self, f, order):
        # Sylvester's {-1, 1} matrix of order k has |det| = k^(k/2), the
        # Hadamard bound itself, so once all k rows are kept |D| = 2^t for
        # the t of rank k; after every row |D| and every lane are at most
        # 2^t and the width decodes every residual
        p = f.characteristic
        rows = [[1]]
        while len(rows) < order:
            rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
        space = RowSpace(order, f)
        for k, row in enumerate(rows, 1):
            plus = sum(1 << j for j, x in enumerate(row) if x == 1)
            minus = sum(1 << j for j, x in enumerate(row) if x == -1)
            assert space.add(plus, minus)
            if p:
                assert space.common_pivot % p != 0
            limit = 1 << space._t
            assert abs(space.common_pivot) <= limit
            assert all(abs(x) <= limit for r in space._cols.values() for x in space._unpack(r))
            assert space._width - 1 >= space._t + order.bit_length()
            assert space.rank == k == ref_rank(rows[:k], p)
            assert space.basis() == ref_nullspace(rows[:k], order, p)
        # for k a power of two the bound k^(k/2) is exactly 2^_HADAMARD[k]
        assert abs(space.common_pivot) == order ** (order // 2) == 1 << _HADAMARD[order]

    @pytest.mark.parametrize(
        "g", [crown(40), random_graph(28, 0.3, 28)], ids=["crown:40", "G(28,3/10)"]
    )
    def test_q_keeps_rescan_lanes_only_when_one_could_overflow(self, g, monkeypatch):
        # the rows M - M_0 fed in enumeration order, each checked by LaneAudit
        audit = LaneAudit(monkeypatch)
        masks = mis_masks(g)
        base = masks[0]
        space = RowSpace(g.n, Q)
        for m in masks[1:]:
            if space.full:
                break
            space.add(m & ~base, base & ~m)
        counts = audit.counts
        assert counts["flat"] == space._hadamard_rank and counts["measured"] == 1
        assert 0 < counts["held"] < counts["keeps"] == space.rank
        assert audit.tightened == {space: 1}

    @pytest.mark.parametrize("k", [20, 30, 35, 40])
    def test_crown_q_spaces_rescan_their_lanes_once(self, k, monkeypatch):
        # fed in the engine's own order, a crown's rows grow past the
        # least t a few times, but never past the update bound the width
        # holds, so the only rescan is the one on leaving the Hadamard rank
        audit = LaneAudit(monkeypatch)
        [report] = compute_wcdim_fields(crown(k), [Q])
        assert report.wcdim == f_crown(k, Q).value
        assert audit.tightened == {report.space: 1}
        assert audit.counts["outgrown"] > 0 and audit.counts["rescanned"] == 0

    def test_dense_q_rows_take_every_lane_branch(self, monkeypatch):
        # dense {-1, 1} rows widen the lanes, and each wider layout has a
        # higher Hadamard rank that is left and measured again
        audit = LaneAudit(monkeypatch)
        rng = random.Random(11)
        n = 60
        full = (1 << n) - 1
        space = RowSpace(n, Q)
        for _ in range(50):
            plus = rng.getrandbits(n)
            assert space.add(plus, full & ~plus)
        assert space._width > 64
        counts = audit.counts
        assert counts["keeps"] == 50 and counts["measured"] > 1
        assert audit.tightened == {space: counts["measured"] + counts["rescanned"]}
        assert min(counts[branch] for branch in ("flat", "held", "outgrown", "rescanned")) > 0

    def test_an_odd_prime_space_decodes_each_residual_once(self, monkeypatch):
        # over GF(p) `add` decodes a nonzero residual to test it mod p, and
        # `_keep` reads the pivot off the same lanes; a zero residual is not
        # decoded at all
        calls = []
        unpack = RowSpace._unpack
        monkeypatch.setattr(RowSpace, "_unpack", lambda s, v: calls.append(v) or unpack(s, v))
        space = RowSpace(6, FieldSpec(3))
        rng = random.Random(7)
        # (1, 1, 1), (1, -1, 0) and (0, 1, -1) have determinant 3: the third
        # leaves a residual that is nonzero over Q and 0 mod 3
        rows = [(0b111, 0), (0b001, 0b010), (0b010, 0b100)]
        nonzero = kept = 0
        while not space.full:
            if rows:
                plus, minus = rows.pop(0)
            else:
                plus = rng.getrandbits(6)
                minus = rng.getrandbits(6) & ~plus
            nonzero += space._residual(plus, minus) != 0
            kept += space.add(plus, minus)
            assert len(calls) == nonzero
        assert kept == 6 < nonzero

    def test_a_space_stores_only_its_kept_rows(self):
        # nothing is allocated per column: two empty spaces at n = 4000, and
        # the same spaces after one row each, stay far below the 34 MB that
        # a packed unit row per column took
        n = 4000
        tracemalloc.start()
        try:
            spaces = [RowSpace(n, Q), RowSpace(n, FieldSpec(3))]
            empty = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for space in spaces:
                assert space.add(1 | 1 << (n - 1), 0b10)
            one_row = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(empty + one_row) < 1_000_000
        row = [1, -1] + [0] * (n - 3) + [1]
        assert [len(space._cols) for space in spaces] == [1, 1]
        assert [space.rows() for space in spaces] == [[row], [[x % 3 for x in row]]]

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
        assert space.basis_lines() == [" ".join(map(str, v)) for v in basis]
        assert ref_nullspace(space.rows(), n, p) == basis
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


def _det(rows):
    """The determinant of a square integer matrix, by Bareiss elimination."""
    m = [list(r) for r in rows]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for j in range(i + 1, k):
                m[r][j] = (m[r][j] * m[i][i] - m[r][i] * m[i][j]) // prev
        prev = m[i][i]
    return sign * prev


def _rref_rows(basis, n, p):
    """The RREF rows the canonical nullspace basis encodes, as `rows()` gives them.

    A basis vector's last nonzero entry is the 1 in its own free column, and
    the RREF row of pivot column c has a 1 at c and, in each free column j,
    minus the entry in column c of the vector for j; over Q each row is
    scaled to primitive integers.
    """
    free = [max(j for j in range(n) if vec[j]) for vec in basis]
    out = []
    for c in (c for c in range(n) if c not in free):
        row = [0] * n
        row[c] = 1
        for j, vec in zip(free, basis):
            row[j] = -vec[c] % p if p else -vec[c]
        if not p:
            scale = lcm(*(Fraction(x).denominator for x in row))
            row = [int(x * scale) for x in row]
            g = gcd(*row)
            row = [x // g for x in row]
        out.append(row)
    return out


class KeepBranches:
    """Tallies the update branch of `RowSpace._keep` each keep takes, read off the space before it.

    With c the new pivot column, s_c its sign-fixed lane and D the common
    pivot before the keep: "unit D = 1" and "unit D > 1" are keeps with
    s_c = D that rewrite a kept row (lane c nonzero), and "zero lane" a keep
    with s_c != D that rescales a kept row whose lane c is 0.  "wide" counts
    keeps that leave lanes wider than 64 bits.
    """

    def __init__(self, monkeypatch):
        self.counts = Counter()
        keep = RowSpace._keep

        def counted(space, s, c):
            p = space.field.characteristic
            residual = space._unpack(s)
            assert c == next(j for j, x in enumerate(residual) if (x % p if p else x))
            sc, d = abs(residual[c]), space.common_pivot
            column = [space._unpack(row)[c] for row in space._cols.values()]
            if sc != d:
                self.counts["zero lane"] += 0 in column
            elif any(column):
                self.counts["unit D = 1" if d == 1 else "unit D > 1"] += 1
            keep(space, s, c)
            self.counts["wide"] += space._width > 64

        monkeypatch.setattr(RowSpace, "_keep", counted)


def _draw_row(rng, n):
    """A {-1, 0, 1} row as (plus, minus): dense, sparse, a unit row or uniform."""
    kind = rng.random()
    if kind < 0.4:
        support = (1 << n) - 1
    elif kind < 0.7:
        support = sum(1 << v for v in rng.sample(range(n), min(n, rng.randint(2, 4))))
    elif kind < 0.85:
        return 1 << rng.randrange(n), 0
    else:
        support = rng.getrandbits(n)
    plus = rng.getrandbits(n) & support
    return plus, support & ~plus


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_seeded_rows_match_the_oracle_in_every_update_branch(f, monkeypatch):
    # dense rows make D large, a unit row e_j of a free column j then
    # reduces to D e_j (s_c = D > 1), and sparse rows leave zeros in the
    # kept rows; at n = 80 the dense rows' minors pass 64 bits
    branches = KeepBranches(monkeypatch)
    p = f.characteristic
    rng = random.Random(35)
    for n, trials in ((5, 40), (17, 10), (40, 3), (80, 2)):
        for _ in range(trials):
            space = RowSpace(n, f)
            dense, kept = [], []
            for _ in range(n + 10):
                plus, minus = _draw_row(rng, n)
                row = [(plus >> v & 1) - (minus >> v & 1) for v in range(n)]
                if space.add(plus, minus):
                    kept.append(row)
                dense.append(row)
                if n <= 17:
                    assert space.rank == len(kept) == ref_rank(dense, p)
            assert space.rank == len(kept) == ref_rank(dense, p)
            basis = ref_nullspace(dense, n, p)
            assert space.basis_lines() == [" ".join(map(str, vec)) for vec in basis]
            rows = space.rows()
            if p == 2:
                assert space.common_pivot == 1
                assert ref_rank(rows, p) == space.rank == ref_rank(rows + dense, p)
                continue
            assert rows == _rref_rows(basis, n, p)
            # D is the absolute determinant of the kept rows on the pivot columns
            free = {max(j for j in range(n) if vec[j]) for vec in basis}
            minor = [[x for j, x in enumerate(row) if j not in free] for row in kept]
            assert space.common_pivot == abs(_det(minor)) > 0
            assert not p or space.common_pivot % p
    if p != 2:
        counts = branches.counts
        assert min(counts[b] for b in ("unit D = 1", "unit D > 1", "zero lane", "wide")) > 0, counts


@pytest.mark.parametrize("width", [16, 32, 64, 128, 256])
def test_nonzero_lanes_are_the_nonzero_entries_of_unpack(width):
    # the extreme lanes -half and half - 1, and -1 and 1, beside zero lanes,
    # at the lowest and highest lanes and in between
    n = 12
    space = RowSpace(n, Q)
    space._use_width(width)
    assert space._width == width
    half = 1 << (width - 1)
    rng = random.Random(width)
    values = [-half, -1, 1, half - 1]
    rows = [[0] * n, [-half] * n, [half - 1] * n]
    rows += [[values[j % 4] if j % 2 else 0 for j in range(n)]]
    rows += [[0 if j % 2 else values[j // 2 % 4] for j in range(n)]]
    rows += [[rng.choice(values + [0, 0]) for _ in range(n)] for _ in range(40)]
    for lanes in rows:
        v = space._pack(lanes)
        assert space._unpack(v) == lanes
        assert space._nonzero_lanes(v) == [(j, x) for j, x in enumerate(lanes) if x]
