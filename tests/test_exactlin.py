import random
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

import pytest

from wellcovered import FieldSpec, InputError
from wellcovered.batch import (
    ExactMatrix,
    build_sum_system,
    kronecker,
    move_dependent_row_first,
    nullspace_basis,
    rank,
    reduce_first_row,
)
from wellcovered.exactlin import _is_prime, _ratio_text
from wellcovered.formulas import kron_rank_case
from wellcovered.mis import enumerate_mis
from wellcovered.families import random_graph
from wellcovered.graphs import new_graph

from helpers import all_graphs, ref_nullspace, ref_rank

Q = FieldSpec(0)
FIELDS = tuple(FieldSpec(c) for c in (0, 2, 3, 5, 10007))


def matvec(m, v, p):
    out = []
    for i in range(m.rows):
        s = sum(a * b for a, b in zip(m.row(i), v))
        out.append(s % p if p else s)
    return out


def rand_matrix(rng, rows, cols, lo=-1, hi=1):
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

    def test_primality_helper_matches_a_sieve(self):
        limit = 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
        for q in range(2, isqrt(limit) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytearray(len(range(q * q, limit, q)))
        assert [p for p in range(limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]

    def test_each_characteristic_is_tested_for_primality_once(self):
        # every compute job builds its FieldSpecs again; the test is kept per p
        _is_prime.cache_clear()
        for _ in range(3):
            FieldSpec(0), FieldSpec(2), FieldSpec(10007)
            with pytest.raises(InputError):
                FieldSpec(10005)
        info = _is_prime.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    def test_str(self):
        assert str(FieldSpec(0)) == "Q"
        assert str(FieldSpec(7)) == "GF(7)"

    def test_rejects_characteristics_that_are_not_ints(self):
        # a float 3.0 used to print as GF(3.0) and fail later inside pow()
        for c in (3.0, 0.0, 2.0, "3", "0", Fraction(3), None, True, False):
            with pytest.raises(InputError):
                FieldSpec(c)


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

    def test_from_rows_checks_the_given_width(self):
        with pytest.raises(InputError):
            ExactMatrix.from_rows([[1, 2]], 5)
        with pytest.raises(InputError):
            ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]], 2)
        assert ExactMatrix.from_rows([[1, 2]], 2) == ExactMatrix(1, 2, (1, 2))
        assert ExactMatrix.from_rows([], 3) == ExactMatrix(0, 3, ())
        assert ExactMatrix.from_rows([]) == ExactMatrix(0, 0, ())


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
        # entries must lie in {-1, 0, 1}; a Fraction equal to one of them is taken
        m = ExactMatrix.from_rows([[Fraction(1), Fraction(-1)], [Fraction(0), 1]])
        for f in FIELDS:
            assert rank(m, f) == 2
        for bad in (2, -2, Fraction(1, 2)):
            m = ExactMatrix.from_rows([[1, 0], [0, bad]])
            for f in FIELDS:
                with pytest.raises(InputError):
                    rank(m, f)

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
            m = rand_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
            assert nullspace_basis(m, f) == ref_nullspace(m.row_list(), m.cols, char)

    def test_fraction_entries_match_reference(self):
        # Fractions equal to -1, 0 or 1 are taken; any other entry is refused
        rng = random.Random(23)
        for _ in range(30):
            rows = [
                [Fraction(rng.randint(-1, 1)) for _ in range(5)]
                for _ in range(rng.randint(1, 5))
            ]
            m = ExactMatrix.from_rows(rows, 5)
            ints = [[int(x) for x in r] for r in rows]
            for f in FIELDS:
                assert nullspace_basis(m, f) == ref_nullspace(ints, 5, f.characteristic)
        for bad in (2, -2, Fraction(1, 2)):
            m = ExactMatrix.from_rows([[1, 0, -1], [bad, 1, 0]])
            for f in FIELDS:
                with pytest.raises(InputError):
                    nullspace_basis(m, f)

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


def signed_matrices(max_entries):
    """Every matrix with entries in {-1, 0, 1} and at most max_entries entries, empty shapes included."""
    for rows in range(max_entries + 1):
        for cols in range(max_entries + 1):
            if rows * cols > max_entries:
                continue
            for entries in product((-1, 0, 1), repeat=rows * cols):
                yield ExactMatrix(rows, cols, entries)


class TestBatchRoutinesMatchTheOracles:
    """The batch `rank` and `nullspace_basis` read a `RowSpace`; the oracles eliminate on their own."""

    def assert_matches(self, m):
        rows = m.row_list()
        for f in FIELDS:
            p = f.characteristic
            assert rank(m, f) == ref_rank(rows, p), (rows, p)
            assert nullspace_basis(m, f) == ref_nullspace(rows, m.cols, p), (rows, p)

    def test_every_matrix_with_at_most_six_entries(self):
        count = 0
        for m in signed_matrices(6):
            self.assert_matches(m)
            count += 1
        # 13 empty shapes, then 3^(rows * cols) matrices per nonempty shape
        assert count == 13 + 3 + 2 * 9 + 2 * 27 + 3 * 81 + 2 * 243 + 4 * 729

    def test_seeded_random_matrices_up_to_eight_by_nine(self):
        rng = random.Random(18)
        for _ in range(300):
            rows, cols = rng.randint(0, 8), rng.randint(0, 9)
            density = rng.random()
            m = ExactMatrix.from_rows(
                [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(cols)]
                 for _ in range(rows)],
                cols,
            )
            self.assert_matches(m)


class TestReferenceOraclesTakeFractions:
    """Over GF(p) the oracles read a Fraction a/b as a * b^-1 mod p, as over Q they read it exactly."""

    def test_equal_fraction_rows_have_rank_one(self):
        assert ref_rank([[Fraction(1)], [Fraction(1)]], 2) == 1
        assert ref_nullspace([[Fraction(1)]], 1, 2) == []

    @pytest.mark.parametrize("char", [2, 3, 5, 10007])
    def test_fraction_rows_match_their_residues(self, char):
        rng = random.Random(char)
        for _ in range(40):
            cols = rng.randint(1, 6)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 5, 7))) for _ in range(cols)]
                for _ in range(rng.randint(1, 5))
            ]
            if any(x.denominator % char == 0 for r in rows for x in r):
                with pytest.raises(ValueError):
                    ref_rank(rows, char)
                with pytest.raises(ValueError):
                    ref_nullspace(rows, cols, char)
                continue
            ints = [[x.numerator * pow(x.denominator, -1, char) % char for x in r] for r in rows]
            assert ref_rank(rows, char) == ref_rank(ints, char)
            assert ref_nullspace(rows, cols, char) == ref_nullspace(ints, cols, char)

    def test_a_fraction_row_over_gf3_matches_its_integer_equivalent(self):
        # 1/2 = 2 and -1/2 = 1 mod 3
        rows = [[Fraction(1, 2), Fraction(-1, 2), 1], [1, 1, 0]]
        ints = [[2, 1, 1], [1, 1, 0]]
        assert ref_rank(rows, 3) == ref_rank(ints, 3) == 2
        assert ref_nullspace(rows, 3, 3) == ref_nullspace(ints, 3, 3) == [(2, 1, 1)]

    def test_a_denominator_divisible_by_p_is_refused(self):
        with pytest.raises(ValueError):
            ref_rank([[Fraction(1, 3)]], 3)
        with pytest.raises(ValueError):
            ref_nullspace([[Fraction(1, 6), 1]], 2, 2)


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
            k = kronecker(a, m)
            assert rank(k, f) == ref_rank(k.row_list(), char) == rank(a, f) * rank(m, f)

    def test_rank_multiplicative_three_by_four(self):
        rng = random.Random(99)
        for _ in range(20):
            a = rand_matrix(rng, 3, 4)
            m = rand_matrix(rng, 3, 4)
            k = kronecker(a, m)
            assert rank(k, Q) == ref_rank(k.row_list(), 0) == rank(a, Q) * rank(m, Q)


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
            m = rand_matrix(rng, 4, 5, lo=0)
            reduced = reduce_first_row(m)
            k = rank(reduced, f)
            assert k == ref_rank(reduced.row_list(), char)
            assert rank(m, f) in (k, k + 1)

    @pytest.mark.parametrize("char", [0, 5])
    def test_dichotomy_by_span_membership(self, char):
        # rank(m) = k exactly when row 0 already lies in the span of the
        # differences; membership is checked by a rank comparison, i.e. by
        # solving the corresponding linear system
        rng = random.Random(char + 4)
        f = FieldSpec(char)
        for _ in range(40):
            m = rand_matrix(rng, 4, 5, lo=0)
            reduced = reduce_first_row(m)
            k = rank(reduced, f)
            stacked = ExactMatrix.from_rows(list(reduced.row_list()) + [m.row(0)], m.cols)
            row0_dependent = rank(stacked, f) == k
            assert rank(m, f) == (k if row0_dependent else k + 1)

    def test_dichotomy_by_span_of_other_rows_generic(self):
        # for generic matrices, dependence on the other rows coincides with
        # dependence on the differences.  Generic means that the other rows
        # are independent and row 0 is not an affine combination of them
        # (one whose coefficients sum to 1, as a repeated row is); 0/1
        # matrices often are not, and those degenerate exceptions are
        # covered in TestKronRankTable below
        rng = random.Random(81)
        generic = 0
        for _ in range(80):
            m = rand_matrix(rng, 4, 7, lo=0)
            rows = m.row_list()
            others = ExactMatrix.from_rows(rows[1:], m.cols)
            # row 0 is an affine combination of the others exactly when its
            # row with a 1 appended lies in the span of theirs
            lifted = ExactMatrix.from_rows([r + (1,) for r in rows], m.cols + 1)
            lifted_others = ExactMatrix.from_rows(lifted.row_list()[1:], m.cols + 1)
            if rank(others, Q) < 3 or rank(lifted, Q) == rank(lifted_others, Q):
                continue
            generic += 1
            k = rank(reduce_first_row(m), Q)
            stacked = ExactMatrix.from_rows(list(others.row_list()) + [rows[0]], m.cols)
            in_span_of_others = rank(stacked, Q) == rank(others, Q)
            assert rank(m, Q) == (k if in_span_of_others else k + 1)
        assert generic >= 60


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
        # every row is checked, also one after the dependent row is found
        for rows in ([[1, 0], [0, 2], [1, 1]], [[1, 0], [1, 0], [0, 2]]):
            m = ExactMatrix.from_rows(rows)
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

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_ranks_the_check_reads_ignore_row_order(self, char):
        # why check_kron_remark moves no dependent row to the front: every
        # rank it reads is the same for every row order of M and of A
        f = FieldSpec(char)

        def orders(m):
            return [ExactMatrix.from_rows(rows, m.cols) for rows in permutations(m.row_list())]

        for n in range(1, 5):
            for g in all_graphs(n):
                ranks = {
                    (rank(m, f), rank(reduce_first_row(m), f)) for m in orders(sum_system_of(g))
                }
                assert len(ranks) == 1, (g.edges(), char)
        small = [orders(sum_system_of(g)) for n in range(1, 4) for g in all_graphs(n)]
        for m_orders in small:
            for a_orders in small:
                ranks = {
                    rank(reduce_first_row(kronecker(a, m)), f) for a in a_orders for m in m_orders
                }
                assert len(ranks) == 1, (m_orders[0], a_orders[0], char)

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


class TestRatioText:
    """`_ratio_text(x, d)` prints what `str(Fraction(-x, d))` prints, for d > 0."""

    def test_every_small_entry(self):
        wrong = [
            (x, d) for d in range(1, 201) for x in range(-500, 501)
            if _ratio_text(x, d) != str(Fraction(-x, d))
        ]
        assert wrong == []

    def test_entries_wider_than_64_bits(self):
        rng = random.Random(24)
        pairs = []
        for _ in range(2000):
            g = rng.getrandbits(rng.randrange(1, 90)) or 1
            x = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(0, 140)) * g
            d = (rng.getrandbits(rng.randrange(0, 140)) or 1) * g
            pairs.append((x, d))
        pairs += [(-(2**64), 1), (2**64 + 1, 2**64), (3 * 2**70, 2**70), (0, 2**100)]
        assert max(abs(x) for x, _ in pairs).bit_length() > 64
        assert max(d for _, d in pairs).bit_length() > 64
        assert [(x, d) for x, d in pairs if _ratio_text(x, d) != str(Fraction(-x, d))] == []
