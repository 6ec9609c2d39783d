"""Matrices with mirror-symmetric structure and their spectra."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from genhurwitz.polyalg import InvalidInputError
from genhurwitz.minors import exact_det, total_nonnegativity_scan
from genhurwitz.simatrix import (
    ExactMatrix,
    MatrixShapeError,
    SignatureSequence,
    anti_bidiagonal,
    anti_tridiagonal_criterion,
    char_poly,
    class_n_plus_check,
    entries_condition,
    flip,
    flip_signature,
    identity,
    random_tn_matrix,
    signature_scan,
    si_spectrum_check,
    tridiagonal_equivalent,
)

F = Fraction


def M(rows):
    return ExactMatrix(rows)


def _signature_by_determinants(A, max_order=None):
    """The scan as one `exact_det` per minor: the oracle for the table."""
    n = A.n
    top = n if max_order is None else max_order
    signs = []
    for k in range(1, top + 1):
        common = first = None
        for ridx in combinations(range(n), k):
            for cidx in combinations(range(n), k):
                val = A.minor(ridx, cidx)
                if val == 0:
                    continue
                s = 1 if val > 0 else -1
                if common is None:
                    common, first = s, (ridx, cidx, val)
                elif s != common:
                    return SignatureSequence(
                        tuple(signs), False,
                        (k, first, (ridx, cidx, val)), k)
        signs.append(common)
    return SignatureSequence(tuple(signs), True, None, top)


def _char_poly_by_fractions(A):
    """The trace recursion on the Fraction matrix itself."""
    ident = identity(A.n)
    B, coeffs = ident, [F(1)]
    for k in range(1, A.n + 1):
        Ak = A * B
        ck = -Ak.trace() / k
        coeffs.append(ck)
        B = Ak + ident.scale(ck)
    return coeffs


def _scan_corpus():
    """Flipped TN products (sign definite), bare TN, the singular all-ones
    matrix and its flip, signed rationals, sparse 0/+-1 with a zero row."""
    rng = random.Random(515)
    for n in range(1, 7):
        J = flip(n)
        ones = M([[1] * n for _ in range(n)])
        yield from (J * random_tn_matrix(n, rng.getrandbits(32)),
                    random_tn_matrix(n, rng.getrandbits(32)), ones, J * ones,
                    M([[F(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(n)] for _ in range(n)]))
        rows = [[rng.choice((0, 0, 1, -1)) for _ in range(n)]
                for _ in range(n)]
        rows[rng.randrange(n)] = [0] * n
        yield M(rows)


class TestExactMatrix:
    def test_construction_and_access(self):
        A = M([[1, 2], [3, 4]])
        assert A.n == 2
        assert A.entry(0, 1) == 2
        assert A.rows[1] == (F(3), F(4))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixShapeError):
            M([[1, 2], [3]])
        with pytest.raises(MatrixShapeError):
            M([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(MatrixShapeError):
            M([])

    def test_rejects_floats(self):
        with pytest.raises(InvalidInputError):
            M([[1.5, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [Decimal("1"), "1/0", "x"])
    def test_rejects_other_entries_with_typed_error(self, bad):
        # entries follow the polynomial coefficient rule: int, Fraction or
        # a rational literal; anything else is an InvalidInputError
        with pytest.raises(InvalidInputError):
            M([[bad, 0], [0, 1]])
        assert M([["1/2", 0], [0, 1]]).entry(0, 0) == Fraction(1, 2)

    def test_immutable(self):
        A = M([[1, 2], [3, 4]])
        with pytest.raises(AttributeError):
            A.rows = ()

    def test_arithmetic(self):
        A = M([[1, 2], [3, 4]])
        B = M([[0, 1], [1, 0]])
        assert (A * B).rows == ((F(2), F(1)), (F(4), F(3)))
        assert (A + B).rows == ((F(1), F(3)), (F(4), F(4)))
        assert A.scale(F(1, 2)).entry(1, 1) == 2

    def test_det_trace_minor(self):
        A = M([[1, 2], [3, 4]])
        assert A.det() == -2
        assert A.trace() == 5
        assert A.minor((0,), (1,)) == 2

    def test_equality_and_hash(self):
        assert M([[1, 2], [3, 4]]) == M([[1, 2], [3, 4]])
        assert len({M([[1, 0], [0, 1]]), identity(2)}) == 1


class TestFlip:
    def test_small_sizes(self):
        assert flip(1).rows == ((F(1),),)
        assert flip(2).rows == ((F(0), F(1)), (F(1), F(0)))
        assert flip(3).entry(0, 2) == 1 and flip(3).entry(1, 1) == 1

    def test_is_an_involution(self):
        assert flip(4) * flip(4) == identity(4)

    def test_signature_pattern(self):
        assert flip_signature(2) == (1, -1)
        assert flip_signature(5) == (1, -1, -1, 1, 1)


class TestSignatureScan:
    def test_flipped_tn_product_is_sign_definite(self):
        A = flip(2) * M([[1, 1], [1, 2]])
        assert A.rows == ((F(1), F(2)), (F(1), F(1)))
        sig = signature_scan(A)
        assert sig.definite
        assert sig.signs == (1, -1)
        assert sig.signs == flip_signature(2)

    def test_identity_is_positive(self):
        sig = signature_scan(identity(2))
        assert sig.definite and sig.signs == (1, 1)

    def test_mixed_signs_witnessed(self):
        sig = signature_scan(M([[1, -1], [1, 1]]))
        assert not sig.definite
        order, first, second = sig.witness
        assert order == 1
        assert first[2] * second[2] < 0

    def test_max_order_caps(self):
        sig = signature_scan(M([[1, -1], [1, 1]]), max_order=1)
        assert sig.checked_order == 1

    def test_large_matrix_refused(self):
        big = identity(9)
        with pytest.raises(InvalidInputError):
            signature_scan(big)

    def test_matches_one_determinant_per_minor(self):
        corpus = list(_scan_corpus())
        outcomes = set()
        for A in corpus:
            for max_order in [None] + list(range(1, A.n + 1)):
                sig = signature_scan(A, max_order)
                assert sig == _signature_by_determinants(A, max_order), \
                    (A, max_order)
                outcomes.add((sig.definite, None in sig.signs))
            for bad in (0, A.n + 1):
                with pytest.raises(InvalidInputError):
                    signature_scan(A, bad)
        assert outcomes == {(True, True), (True, False), (False, False)}
        # one 8 x 8 definite scan, every order
        A = flip(8) * random_tn_matrix(8, 3)
        assert signature_scan(A) == _signature_by_determinants(A)
        assert signature_scan(A).signs == flip_signature(8)


class TestClassNPlus:
    def test_frozen_examples(self):
        assert class_n_plus_check(M([[1, 2], [1, 1]]))
        assert not class_n_plus_check(flip(2))
        assert class_n_plus_check(M([[0, 1], [1, 1]]))

    def test_singular_rejected(self):
        assert not class_n_plus_check(M([[1, 1], [1, 1]]))

    def test_matches_the_fraction_square(self):
        for A in _scan_corpus():
            sq = A * A
            expected = (sq.det() != 0
                        and total_nonnegativity_scan(sq.rows).ok
                        and all(sq.entry(i, i + 1) > 0 and sq.entry(i + 1, i) > 0
                                for i in range(A.n - 1)))
            assert class_n_plus_check(A) == expected, A


class TestAntiBidiagonal:
    def test_two_by_two(self):
        A = anti_bidiagonal(F(1), [F(1)], [F(1)])
        assert A.rows == ((F(0), F(1)), (F(1), F(1)))

    def test_one_by_one(self):
        assert anti_bidiagonal(F(5), [], []).rows == ((F(5),),)

    def test_char_poly_matches_tridiagonal(self):
        A = anti_bidiagonal(F(1), [F(1)], [F(1)])
        K = tridiagonal_equivalent(F(1), [F(1)], [F(1)])
        assert K.rows == ((F(1), F(1)), (F(1), F(0)))
        cp = char_poly(A)
        assert cp.coeffs == (F(1), F(-1), F(-1))
        assert char_poly(K) == cp

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_char_poly_match_all_ones(self, n):
        ones = [F(1)] * (n - 1)
        A = anti_bidiagonal(F(1), ones, ones)
        K = tridiagonal_equivalent(F(1), ones, ones)
        assert char_poly(A) == char_poly(K)

    def test_spectrum_depends_on_products_only(self):
        b, c = [F(2), F(3)], [F(5), F(7)]
        A = tridiagonal_equivalent(F(1), b, c)
        B = tridiagonal_equivalent(F(1), [F(10), F(21)], [F(1), F(1)])
        assert char_poly(A) == char_poly(B)

    def test_positive_data_required(self):
        with pytest.raises(InvalidInputError):
            anti_bidiagonal(F(-1), [F(1)], [F(1)])
        with pytest.raises(InvalidInputError):
            anti_bidiagonal(F(1), [F(0)], [F(1)])

    def test_length_mismatch_refused(self):
        with pytest.raises(InvalidInputError):
            anti_bidiagonal(F(1), [F(1), F(1)], [F(1)])


class TestCharPoly:
    def test_fibonacci_companion(self):
        assert char_poly(M([[0, 1], [1, 1]])).coeffs == (F(1), F(-1), F(-1))

    def test_identity(self):
        assert char_poly(identity(2)).coeffs == (F(1), F(-2), F(1))

    def test_flip(self):
        assert char_poly(flip(2)).coeffs == (F(1), F(0), F(-1))

    def test_det_and_trace_consistency(self):
        A = M([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        cp = char_poly(A)
        assert cp.coeffs[-1] == (-1) ** A.n * A.det()
        assert cp.coeffs[1] == -A.trace()

    def test_matches_the_fraction_recursion_and_sympy(self):
        rng = random.Random(77)
        corpus = list(_scan_corpus()) + [
            M([[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
               for _ in range(n)]) for n in range(1, 9)]
        for A in corpus:
            coeffs = char_poly(A).coeffs
            assert list(coeffs) == _char_poly_by_fractions(A), A
            S = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in row] for row in A.rows])
            assert [F(int(c.p), int(c.q)) for c in S.charpoly().all_coeffs()] \
                == list(coeffs), A
            assert coeffs[-1] == (-1) ** A.n * exact_det(A.rows)


class TestSiSpectrum:
    def test_frozen_examples(self):
        assert si_spectrum_check(M([[1, 2], [1, 1]]))
        assert not si_spectrum_check(identity(2))
        assert si_spectrum_check(M([[0, 1], [1, 1]]))

    def test_anti_bidiagonal_spectra(self):
        for n in (2, 3, 4):
            ones = [F(1)] * (n - 1)
            assert si_spectrum_check(anti_bidiagonal(F(1), ones, ones))


class TestAntiTridiagonal:
    def test_frozen_pass(self):
        # flipping back gives [[2,1],[1,1]] with positive leading minors
        assert anti_tridiagonal_criterion(M([[1, 1], [2, 1]]))

    def test_frozen_fail(self):
        assert not anti_tridiagonal_criterion(M([[2, 1], [1, 2]]))

    def test_one_by_one(self):
        assert anti_tridiagonal_criterion(M([[3]]))

    def test_pattern_violation_refused(self):
        with pytest.raises(InvalidInputError):
            anti_tridiagonal_criterion(M([[1, 1], [1, 0]]))

    def test_three_by_three(self):
        # bands: a on the anti-diagonal, b above it, c below it
        passing = M([[0, 1, 1], [1, 3, 1], [1, 1, 0]])
        failing = M([[0, 1, 1], [1, 2, 1], [1, 1, 0]])
        assert anti_tridiagonal_criterion(passing)
        assert not anti_tridiagonal_criterion(failing)

    def test_minor_vanishing_mid_chain(self):
        # the flipped (tridiagonal) matrix has theta_2 = 0 and theta_3 < 0,
        # where a leading-minor elimination meets a zero pivot; the signed
        # corner minors vanish mid-chain too
        cases = [([[0, 1, 1], [1, 1, 1], [1, 1, 0]], [1, 0, -1], [1, 0, -1]),
                 ([[0, 0, 2, 1], [0, 1, 5, 1], [4, 1, 3, 0],
                   [2, F(1, 2), 0, 0]], [2, 0, -6, -6], [1, 3, 0, -6])]
        for rows, thetas, corners in cases:
            A = M(rows)
            n = A.n
            T = A.rows[::-1]
            assert [exact_det([r[:k] for r in T[:k]])
                    for k in range(1, n + 1)] == thetas
            signs = flip_signature(n)
            assert [A.minor(range(k), range(n - k, n)) * signs[k - 1]
                    for k in range(1, n + 1)] == corners
            assert not anti_tridiagonal_criterion(A)


class TestRandomTn:
    def test_certified_totally_nonnegative(self):
        for seed in range(6):
            A = random_tn_matrix(4, seed)
            assert total_nonnegativity_scan(A.rows).ok, seed
            assert A.det() != 0

    def test_deterministic(self):
        assert random_tn_matrix(3, 9) == random_tn_matrix(3, 9)

    def test_size_validation(self):
        with pytest.raises(InvalidInputError):
            random_tn_matrix(0, 1)
        with pytest.raises(InvalidInputError):
            random_tn_matrix(9, 1)


class TestEntriesCondition:
    def test_oscillating_example(self):
        assert entries_condition(M([[1, 2], [1, 1]]))

    def test_flip_lacks_the_chain(self):
        assert not entries_condition(flip(2))

    def test_identity_lacks_the_chain(self):
        assert not entries_condition(identity(2))

    def test_tn_products_satisfy_it(self):
        for seed in (0, 3, 5):
            assert entries_condition(random_tn_matrix(4, seed))
