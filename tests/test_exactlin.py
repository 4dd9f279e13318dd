import random
from fractions import Fraction

import pytest

from wellcovered import (
    ExactMatrix,
    FieldSpec,
    InputError,
    kronecker,
    nullspace_basis,
    rank,
    reduce_first_row,
)
from wellcovered.engine import build_sum_system
from wellcovered.exactlin import _is_prime, move_dependent_row_first
from wellcovered.formulas import kron_rank_case
from wellcovered.mis import enumerate_mis
from wellcovered.graphs import new_graph, random_graph

from helpers import all_graphs, ref_nullspace, ref_rank

Q = FieldSpec(0)


def matvec(m, v, p):
    out = []
    for i in range(m.rows):
        s = sum(a * b for a, b in zip(m.row(i), v))
        out.append(s % p if p else s)
    return out


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols
    )


def crown_proof_matrix(n):
    # the (n+1) x 2n block matrix [[I, I-J], [1, -1]]
    rows = [
        [1 if j == i else 0 for j in range(n)] + [(1 if j == i else 0) - 1 for j in range(n)]
        for i in range(n)
    ]
    rows.append([1] * n + [-1] * n)
    return ExactMatrix.from_rows(rows, 2 * n)


class TestFieldSpec:
    def test_accepts_zero_and_primes(self):
        for c in (0, 2, 3, 5, 7, 10007, 2**31 - 1):
            assert FieldSpec(c).characteristic == c

    def test_rejects_composites_and_units(self):
        for c in (1, 4, 9, 15, 341 * 3):
            with pytest.raises(InputError):
                FieldSpec(c)

    def test_rejects_huge_primes(self):
        with pytest.raises(InputError):
            FieldSpec(2305843009213693951)  # prime, but beyond the word bound

    def test_primality_helper(self):
        assert all(_is_prime(p) for p in (2, 3, 5, 7, 11, 97, 2**31 - 1))
        assert not any(_is_prime(c) for c in (0, 1, 4, 9, 91, 561, 2**31))

    def test_str(self):
        assert str(FieldSpec(0)) == "Q"
        assert str(FieldSpec(7)) == "GF(7)"


class TestExactMatrix:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            ExactMatrix(2, 2, (1, 2, 3))

    def test_from_rows_and_accessors(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert m.entry(1, 0) == 3 and m.row(0) == (1, 2)

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            ExactMatrix.from_rows([[1, 2], [3]])


class TestRank:
    def test_identity(self):
        for n in (1, 4, 7):
            for f in (Q, FieldSpec(2), FieldSpec(5)):
                assert rank(ExactMatrix.identity(n), f) == n

    def test_all_ones(self):
        j4 = ExactMatrix.from_rows([[1] * 4 for _ in range(4)])
        assert rank(j4, Q) == 1

    def test_empty_matrix(self):
        assert rank(ExactMatrix(0, 5, ()), Q) == 0
        assert rank(ExactMatrix(3, 0, ()), FieldSpec(2)) == 0

    def test_crown_proof_matrix_rank_depends_on_characteristic(self):
        m = crown_proof_matrix(4)
        assert rank(m, FieldSpec(2)) == 4
        assert rank(m, Q) == 5

    def test_fraction_entries(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 1]])
        assert rank(m, Q) == 2
        assert rank(ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]), Q) == 1
        with pytest.raises(InputError):
            rank(m, FieldSpec(2))  # 1/2 has no residue mod 2

    @pytest.mark.parametrize("char", [0, 2, 3, 5, 10007])
    def test_against_reference_elimination(self, char):
        rng = random.Random(char + 17)
        f = FieldSpec(char)
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = rand_matrix(rng, rows, cols)
            assert rank(m, f) == ref_rank(m.row_list(), char)

    def test_bounded_by_shape(self):
        rng = random.Random(5)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m, Q) <= min(m.rows, m.cols)


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace_basis(ExactMatrix.identity(3), Q) == []

    def test_one_minus_one(self):
        m = ExactMatrix.from_rows([[1, -1]])
        assert nullspace_basis(m, Q) == [(1, 1)]

    def test_c4_difference_row(self):
        m = ExactMatrix.from_rows([[-1, 1, -1, 1]])
        assert nullspace_basis(m, Q) == [(1, 1, 0, 0), (-1, 0, 1, 0), (1, 0, 0, 1)]

    def test_zero_row_matrix(self):
        basis = nullspace_basis(ExactMatrix(0, 3, ()), Q)
        assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("char", [0, 2, 5])
    def test_vectors_are_exact_kernel_elements(self, char):
        rng = random.Random(char + 3)
        f = FieldSpec(char)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            basis = nullspace_basis(m, f)
            assert len(basis) == m.cols - rank(m, f)
            for v in basis:
                assert all(x == 0 for x in matvec(m, v, char))

    @pytest.mark.parametrize("char", [0, 2, 3, 10007])
    def test_matches_reference_gauss_jordan(self, char):
        rng = random.Random(char + 17)
        f = FieldSpec(char)
        for _ in range(60):
            lo, hi = rng.choice([(-1, 1), (-3, 3), (-50, 50)])
            m = rand_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), lo, hi)
            assert nullspace_basis(m, f) == ref_nullspace(m.row_list(), m.cols, char)

    def test_fraction_entries_match_reference(self):
        rng = random.Random(23)
        for _ in range(30):
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
                for _ in range(rng.randint(1, 5))
            ]
            m = ExactMatrix.from_rows(rows, 5)
            assert nullspace_basis(m, Q) == ref_nullspace(rows, 5, 0)

    def test_canonical_form(self):
        # one vector per free column, ascending, with a 1 in that column
        rng = random.Random(11)
        for _ in range(10):
            m = rand_matrix(rng, 3, 6)
            basis = nullspace_basis(m, Q)
            free_cols = []
            for v in basis:
                one_at = [c for c, x in enumerate(v) if x == 1]
                assert one_at, v
                free_cols.append(max(c for c in one_at if all(b[c] == 0 for b in basis if b is not v)))
            assert free_cols == sorted(free_cols)


class TestKronecker:
    def test_identity_factor_gives_block_diagonal(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        k = kronecker(ExactMatrix.identity(2), m)
        assert k.rows == 4 and k.cols == 4
        assert k.row(0) == (1, 2, 0, 0) and k.row(3) == (0, 0, 3, 4)

    def test_scalar_factor(self):
        m = ExactMatrix.from_rows([[1, -1], [0, 2]])
        k = kronecker(ExactMatrix.from_rows([[3]]), m)
        assert k.row_list() == [(3, -3), (0, 6)]

    def test_block_entry_indexing(self):
        a = ExactMatrix.from_rows([[0, 1], [2, 0]])
        m = ExactMatrix.from_rows([[5, 6]])
        k = kronecker(a, m)
        assert k.entry(0, 2) == 5 and k.entry(1, 0) == 10

    @pytest.mark.parametrize("char", [0, 2, 3, 5])
    def test_rank_is_multiplicative(self, char):
        rng = random.Random(char * 7 + 1)
        f = FieldSpec(char)
        for _ in range(100):
            a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            assert rank(kronecker(a, m), f) == rank(a, f) * rank(m, f)

    def test_rank_multiplicative_three_by_four(self):
        rng = random.Random(99)
        for _ in range(20):
            a = rand_matrix(rng, 3, 4)
            m = rand_matrix(rng, 3, 4)
            assert rank(kronecker(a, m), Q) == rank(a, Q) * rank(m, Q)


class TestReduceFirstRow:
    def test_single_row_becomes_empty(self):
        out = reduce_first_row(ExactMatrix.from_rows([[1, 2, 3]]))
        assert out.rows == 0 and out.cols == 3

    def test_hand_example(self):
        out = reduce_first_row(ExactMatrix.from_rows([[1, 1], [1, 0]]))
        assert out.row_list() == [(0, -1)]

    def test_zero_rows_rejected(self):
        with pytest.raises(InputError):
            reduce_first_row(ExactMatrix(0, 2, ()))

    @pytest.mark.parametrize("char", [0, 5, 7])
    def test_rank_drops_by_at_most_one(self, char):
        rng = random.Random(char + 29)
        f = FieldSpec(char)
        for _ in range(40):
            m = rand_matrix(rng, 4, 5)
            k = rank(reduce_first_row(m), f)
            assert rank(m, f) in (k, k + 1)

    @pytest.mark.parametrize("char", [0, 5])
    def test_dichotomy_by_span_membership(self, char):
        # rank(m) = k exactly when row 0 already lies in the span of the
        # differences; membership is checked by a rank comparison, i.e. by
        # solving the corresponding linear system
        rng = random.Random(char + 4)
        f = FieldSpec(char)
        for _ in range(40):
            m = rand_matrix(rng, 4, 5)
            reduced = reduce_first_row(m)
            k = rank(reduced, f)
            stacked = ExactMatrix.from_rows(list(reduced.row_list()) + [m.row(0)], m.cols)
            row0_dependent = rank(stacked, f) == k
            assert rank(m, f) == (k if row0_dependent else k + 1)

    def test_dichotomy_by_span_of_other_rows_generic(self):
        # for generic matrices, dependence on the other rows coincides with
        # dependence on the differences; degenerate exceptions exist and are
        # covered in TestKronRankTable below
        rng = random.Random(81)
        for _ in range(40):
            m = rand_matrix(rng, 4, 5, lo=-9, hi=9)
            k = rank(reduce_first_row(m), Q)
            others = ExactMatrix.from_rows(m.row_list()[1:], m.cols)
            stacked = ExactMatrix.from_rows(list(others.row_list()) + [m.row(0)], m.cols)
            in_span_of_others = rank(stacked, Q) == rank(others, Q)
            assert rank(m, Q) == (k if in_span_of_others else k + 1)


class TestMoveDependentRowFirst:
    def test_full_rank_unchanged(self):
        m = ExactMatrix.identity(3)
        assert move_dependent_row_first(m, Q) == m

    def test_dependent_row_moved_to_front(self):
        m = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        out = move_dependent_row_first(m, Q)
        rest = ExactMatrix.from_rows(out.row_list()[1:], out.cols)
        assert sorted(out.row_list()) == sorted(m.row_list())
        assert rank(rest, Q) == rank(out, Q)

    def test_char_dependent_choice(self):
        # over GF(2) the three rows sum to zero, over Q they are independent
        m = ExactMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert move_dependent_row_first(m, Q) == m
        out = move_dependent_row_first(m, FieldSpec(2))
        rest = ExactMatrix.from_rows(out.row_list()[1:], out.cols)
        assert rank(rest, FieldSpec(2)) == rank(out, FieldSpec(2))

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_moves_the_first_row_the_oracle_finds_dependent(self, char):
        f = FieldSpec(char)
        count = 0
        for n in range(6):
            for g in all_graphs(n):
                m = sum_system_of(g)
                rows = m.row_list()
                first = next((i for i in range(m.rows) if ref_rank(rows[: i + 1], char) <= i), None)
                want = m if first is None else ExactMatrix.from_rows(
                    [rows[first]] + rows[:first] + rows[first + 1 :], m.cols
                )
                assert move_dependent_row_first(m, f) == want, (g.edges(), char)
                count += first is not None
        assert count

    def test_entries_outside_minus_one_to_one_rejected(self):
        m = ExactMatrix.from_rows([[1, 0], [0, 2], [1, 1]])
        for char in (0, 2, 3):
            with pytest.raises(InputError):
                move_dependent_row_first(m, FieldSpec(char))


def sum_system_of(g):
    return build_sum_system(enumerate_mis(g))


class TestKronRankTable:
    def rank_drop_flags(self, x, f):
        return rank(x, f) == rank(reduce_first_row(x), f)

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_rank_drop_keyed_table_always_matches(self, char):
        # keying the four cases on rank(X) == rank(reduced X) predicts
        # rank(C) on every instance, including the degenerate ones
        f = FieldSpec(char)
        rng = random.Random(char + 70)
        pairs = [
            (random_graph(rng.randint(1, 4), 0.5, rng.randrange(10**6)),
             random_graph(rng.randint(1, 4), 0.5, rng.randrange(10**6)))
            for _ in range(60)
        ]
        pairs.append((new_graph(4, [(0, 3), (1, 2)]), new_graph(2, [(0, 1)])))
        for g, h in pairs:
            m = move_dependent_row_first(sum_system_of(g), f)
            a = move_dependent_row_first(sum_system_of(h), f)
            k = rank(reduce_first_row(m), f)
            q = rank(reduce_first_row(a), f)
            rank_c = rank(reduce_first_row(kronecker(a, m)), f)
            predicted = kron_rank_case(k, q, self.rank_drop_flags(m, f), self.rank_drop_flags(a, f))
            assert predicted == rank_c, (g.edges(), h.edges(), char)

    def test_row_count_keyed_table_has_a_counterexample(self):
        # two disjoint edges: the sum system has four rows of rank three, so
        # the rows are dependent, yet the first-row reduction still drops the
        # rank; keying the table on rank < row count then mispredicts
        g = new_graph(4, [(0, 3), (1, 2)])
        h = new_graph(2, [(0, 1)])
        m = move_dependent_row_first(sum_system_of(g), Q)
        a = move_dependent_row_first(sum_system_of(h), Q)
        k = rank(reduce_first_row(m), Q)
        q = rank(reduce_first_row(a), Q)
        assert (rank(m, Q), m.rows, k) == (3, 4, 2)
        rank_c = rank(reduce_first_row(kronecker(a, m)), Q)
        row_count_prediction = kron_rank_case(k, q, rank(m, Q) < m.rows, rank(a, Q) < a.rows)
        assert row_count_prediction != rank_c
        assert rank_c == kron_rank_case(k, q, False, False)
