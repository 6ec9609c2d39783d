"""Exact polynomial layer: parsing, splits, quotients, expansions."""

from fractions import Fraction

import pytest

from genhurwitz.polyalg import (
    DegenerateSplitError,
    InvalidInputError,
    LaurentSeries,
    Polynomial,
    RationalFunction,
    UnsupportedGrowthError,
    associated_function,
    compose_even,
    even_odd_split,
    format_polynomial,
    laurent_expand,
    parse_polynomial,
    poly_gcd,
    recompose_split,
    reflect,
    times_z,
)

F = Fraction


def P(*cs):
    return Polynomial(list(cs))


class TestPolynomialBasics:
    def test_coeffs_are_fractions_leading_first(self):
        p = P(1, 2, 1)
        assert p.coeffs == (F(1), F(2), F(1))
        assert p.degree == 2

    def test_zero_polynomial_degree_is_minus_infinity(self):
        assert Polynomial([]).degree == float("-inf")
        assert Polynomial([0, 0, 0]).degree == float("-inf")
        assert Polynomial([0]).is_zero()

    def test_leading_zeros_are_stripped(self):
        assert P(0, 0, 3, 1).coeffs == (F(3), F(1))

    def test_indexing_conventions(self):
        # coeff(i) is a_i (from the leading end), power_coeff(j) is the
        # coefficient of z^j; they meet at coeff(i) == power_coeff(n - i)
        p = P(2, 3, 5, 7)
        assert p.coeff(0) == 2 and p.coeff(3) == 7
        assert p.power_coeff(3) == 2 and p.power_coeff(0) == 7
        assert p.coeff(11) == 0 and p.power_coeff(11) == 0

    def test_evaluation(self):
        p = P(1, 2, 1)
        assert p(F(0)) == 1
        assert p(F(-1)) == 0
        assert p(F(1, 2)) == F(9, 4)

    def test_ring_operations(self):
        p, q = P(1, 1), P(1, -1)
        assert (p * q).coeffs == (F(1), F(0), F(-1))
        assert (p + q).coeffs == (F(2), F(0))
        assert (p - p).is_zero()
        assert (-p).coeffs == (F(-1), F(-1))

    def test_scalar_multiplication(self):
        assert (P(1, 2) * 3).coeffs == (F(3), F(6))

    def test_derivative(self):
        assert P(1, 0, -4).derivative().coeffs == (F(2), F(0))
        assert P(5).derivative().is_zero()
        assert Polynomial([]).derivative(2).is_zero()
        assert P(1, 1, 1, 1).derivative(2).coeffs == (F(6), F(2))

    def test_monic(self):
        assert P(4, 2, -8).monic().coeffs == (F(1), F(1, 2), F(-2))


class TestParsing:
    def test_round_trip(self):
        text = "1,-3/2,0,7"
        assert format_polynomial(parse_polynomial(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_polynomial(" 1 , 2 , 1 ").coeffs == (F(1), F(2), F(1))

    @pytest.mark.parametrize("bad", ["1,2.5,1", "1e3,1", "", "1,,2", "x,1"])
    def test_rejects_non_rational_tokens(self, bad):
        with pytest.raises(InvalidInputError):
            parse_polynomial(bad)

    def test_error_names_the_token(self):
        with pytest.raises(InvalidInputError, match="2.5"):
            parse_polynomial("1,2.5,1")


class TestSplit:
    def test_even_degree_split(self):
        s = even_odd_split(P(1, 2, 1))
        assert s.p0.coeffs == (F(1), F(1))      # u + 1
        assert s.p1.coeffs == (F(2),)

    def test_odd_degree_split(self):
        s = even_odd_split(P(1, 4, 1, -6))
        assert s.p0.coeffs == (F(4), F(-6))     # 4u - 6
        assert s.p1.coeffs == (F(1), F(1))      # u + 1

    def test_monomial_split(self):
        s = even_odd_split(P(1, 0))             # p(z) = z
        assert s.p0.is_zero()
        assert s.p1.coeffs == (F(1),)

    @pytest.mark.parametrize("coeffs", [(1, 2, 1), (1, 4, 1, -6),
                                        (3, 0, 0, -1, 5), (1, 1)])
    def test_recompose_is_inverse(self, coeffs):
        p = P(*coeffs)
        s = even_odd_split(p)
        assert recompose_split(s) == p
        # and the defining identity, evaluated
        for z in (F(2), F(-1, 3), F(0)):
            assert s.p0(z * z) + z * s.p1(z * z) == p(z)


class TestCompositionHelpers:
    def test_compose_even_plain_and_negated(self):
        f = P(1, 1)                              # u + 1
        assert compose_even(f).coeffs == (F(1), F(0), F(1))     # z^2 + 1
        assert compose_even(f, -1).coeffs == (F(-1), F(0), F(1))

    def test_times_z(self):
        assert times_z(P(2)).coeffs == (F(2), F(0))
        assert times_z(Polynomial([])).is_zero()


class TestReflect:
    def test_flips_odd_powers(self):
        assert reflect(P(1, 1, -2)).coeffs == (F(1), F(-1), F(-2))
        assert reflect(P(1, 4, 1, -6)).coeffs == (F(-1), F(4), F(-1), F(-6))

    def test_constant_fixed(self):
        assert reflect(P(5)).coeffs == (F(5),)

    def test_involution(self):
        p = P(3, -1, 0, 2, 7)
        assert reflect(reflect(p)) == p


class TestGcd:
    def test_common_linear_factor(self):
        g = poly_gcd(P(1, 0, -1), P(1, -1))
        assert g.coeffs == (F(1), F(-1))

    def test_coprime_gives_one(self):
        assert poly_gcd(P(1, 2, 1), P(2)).coeffs == (F(1),)

    def test_euclidean_example(self):
        g = poly_gcd(P(1, 0, -4), P(1, -1, -2))
        assert g.coeffs == (F(1), F(-2))

    def test_result_is_monic(self):
        g = poly_gcd(P(4, 0, -16), P(6, -6, -12))
        assert g.coeffs[0] == 1


class TestAssociatedFunction:
    def test_even_degree(self):
        R = associated_function(P(1, 2, 1))
        assert R.num.coeffs == (F(2),)
        assert R.den.coeffs == (F(1), F(1))

    def test_si_example(self):
        R = associated_function(P(1, 1, -2))
        assert R.num.coeffs == (F(1),)
        assert R.den.coeffs == (F(1), F(-2))

    def test_odd_degree(self):
        R = associated_function(P(1, 4, 1, -6))
        assert R.num.coeffs == (F(1), F(1))
        assert R.den.coeffs == (F(4), F(-6))

    def test_vanishing_even_half_refused(self):
        with pytest.raises(DegenerateSplitError):
            associated_function(P(1, 0))


class TestRationalFunction:
    def test_reduction_cancels_common_factors(self):
        R = RationalFunction(P(1, 0, -4), P(1, -1, -2)).reduced()
        assert R.num.coeffs == (F(1), F(2))
        assert R.den.coeffs == (F(1), F(1))

    def test_zero_denominator_refused(self):
        with pytest.raises(InvalidInputError):
            RationalFunction(P(1), Polynomial([]))

    def test_reciprocal(self):
        R = RationalFunction(P(2), P(1, 1)).reciprocal()
        assert R.num.coeffs == (F(1), F(1))
        assert R.den.coeffs == (F(2),)

    def test_pole_count_reduces_first(self):
        def pole_count(R):
            return R.reduced().den.degree
        assert pole_count(RationalFunction(P(2), P(1, 1))) == 1
        assert pole_count(RationalFunction(P(1, 0, -4), P(1, -1, -2))) == 1
        assert pole_count(RationalFunction(P(3), P(5))) == 0


class TestLaurentExpansion:
    def test_proper_function(self):
        s = laurent_expand(RationalFunction(P(2), P(1, 1)), 2)
        assert s.s_minus1 == 0
        assert s.s == (F(2), F(-2), F(2), F(-2))

    def test_geometric_series(self):
        s = laurent_expand(RationalFunction(P(1), P(1, -2)), 2)
        assert s.s == (F(1), F(2), F(4), F(8))

    def test_constant_at_infinity(self):
        s = laurent_expand(RationalFunction(P(1, 1), P(4, -6)), 1)
        assert s.s_minus2 == 0
        assert s.s_minus1 == F(1, 4)
        assert s.s == (F(5, 8), F(15, 16))

    def test_linear_growth_captured(self):
        # z^2/(z) = z exactly: s_minus2 carries the slope
        s = laurent_expand(RationalFunction(P(1, 0, 0), P(1, 0)), 1)
        assert s.s_minus2 == 1
        assert s.s == (F(0), F(0))

    def test_quadratic_growth_refused(self):
        with pytest.raises(UnsupportedGrowthError):
            laurent_expand(RationalFunction(P(1, 0, 0, 0), P(1, 0)), 1)

    def test_coefficient_accessor(self):
        s = LaurentSeries(F(3), F(1, 4), (F(5, 8), F(15, 16)))
        assert s.coefficient(-2) == 3
        assert s.coefficient(-1) == F(1, 4)
        assert s.coefficient(1) == F(15, 16)
