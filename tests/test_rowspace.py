"""Differential tests: the streaming row space against the batch elimination path.

The batch path enumerates the sets in canonical order, assembles the whole
difference system and eliminates it with `rank` and `nullspace_basis`; the
engine instead streams each set's bitmask into one `RowSpace` per field and
stops at full rank.  Both must agree on every count and on the exact basis.
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
from wellcovered.mis import mis_masks

from helpers import all_graphs

FIELDS = tuple(FieldSpec(c) for c in (0, 2, 3, 10007))


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
    assert_matches_batch_path(triangle_union(k))


@pytest.mark.parametrize("n", range(3, 9))
def test_crowns(n):
    assert_matches_batch_path(crown(n))


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

    def test_stored_rows_are_primitive_integers_over_q(self):
        space = RowSpace(4, FieldSpec(0))
        for plus, minus in [(0b0011, 0b1100), (0b0101, 0b1010), (0b1001, 0b0110), (0b0001, 0)]:
            space.add(plus, minus)
        for row in space.rows():
            assert all(isinstance(x, int) for x in row)
            assert gcd(*row) == 1
