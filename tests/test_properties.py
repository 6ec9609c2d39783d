"""Structural invariants checked over randomized inputs."""

from fractions import Fraction
from math import gcd

import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genhurwitz.polyalg import (
    Polynomial,
    RationalFunction,
    _product,
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
from genhurwitz.minors import (
    _routh,
    _sign,
    exact_det,
    hankel_minors,
    hurwitz_minors,
    scf_frobenius,
    strong_sign_changes,
)
from genhurwitz.stieltjes import NoCFError, cf_reconstruct, stieltjes_expand
from genhurwitz.classify import (
    _dual_delta,
    _reflected_delta,
    classify,
    dual_transform,
)
from genhurwitz.simatrix import ExactMatrix, char_poly, flip

from test_minors import (
    finite_hurwitz_matrix,
    infinite_hurwitz_block,
    leading_minors,
)

F = Fraction

rationals = st.fractions(min_value=-6, max_value=6,
                         max_denominator=4)
nonzero_rationals = rationals.filter(bool)


@st.composite
def polynomials(draw, min_degree=1, max_degree=7):
    lead = draw(nonzero_rationals)
    rest = draw(st.lists(rationals, min_size=min_degree,
                         max_size=max_degree))
    return Polynomial([lead] + rest)


@st.composite
def small_integer_polynomials(draw, max_degree=8):
    """Entries in -2..2 make vanishing Hurwitz minors common."""
    lead = draw(st.integers(min_value=-2, max_value=2).filter(bool))
    rest = draw(st.lists(st.integers(min_value=-2, max_value=2),
                         min_size=1, max_size=max_degree))
    return Polynomial([lead] + rest)


multiplier_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.builds(F, st.integers(min_value=-2 ** 70, max_value=2 ** 70),
              st.integers(min_value=1, max_value=2 ** 70)))


@st.composite
def operands(draw):
    """Polynomials of degree -inf..5, ints and Fractions of negative and
    unlike denominators and of up to 80 bits mixed in one."""
    return Polynomial(draw(st.lists(multiplier_entries, max_size=6)))


@st.composite
def even_factor_products(draw):
    """f(z^2) * g: the halves share f, and more where g's halves meet."""
    f = draw(small_integer_polynomials(max_degree=2))
    g = draw(small_integer_polynomials(max_degree=4))
    return compose_even(f) * g


@st.composite
def even_factors(draw):
    """f in u of degree 0-3 with a leading coefficient of either sign, not
    always 1; a zero tail puts u = z^2 itself in f(z^2)."""
    lead = draw(st.sampled_from([-3, -1, F(1, 2), 1, 1, 2]))
    rest = draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=3))
    return Polynomial([lead] + rest)


@st.composite
def mixed_matrices(draw, max_n=5):
    """Square matrices of ints and Fractions of unlike denominators; a
    zero corner or a row copied at a rational scale makes some leading
    minors vanish, so Bareiss needs a row swap or stops at a zero pivot."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(["free", "zero corner", "copied row"]))
    if shape == "zero corner":
        rows[0][0] = 0
    elif shape == "copied row" and n >= 2:
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        scale = draw(rationals)
        rows[dst] = [scale * x for x in rows[src]]
    return rows


def _gauss_det(rows):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            ratio = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= ratio * m[k][j]
    return det


def _sympy_poly(h, u):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in h.coeffs] or [0], u, domain="QQ")


@st.composite
def strictly_proper_pairs(draw):
    """(num, den) with 1 <= deg num < deg den <= 3; drawing den first
    leaves nothing to reject."""
    den = draw(polynomials(min_degree=2, max_degree=3))
    num = draw(polynomials(min_degree=1, max_degree=den.degree - 1))
    return num, den


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(
        st.lists(rationals, min_size=n, max_size=n),
        min_size=n, max_size=n))
    return ExactMatrix(rows)


@st.composite
def matrix_pairs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    grid = st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n)
    return ExactMatrix(draw(grid)), ExactMatrix(draw(grid))


class TestPolynomialInvariants:
    @given(polynomials())
    def test_parse_format_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p

    @given(polynomials())
    def test_split_recomposition(self, p):
        assert recompose_split(even_odd_split(p)) == p

    @given(polynomials(), rationals)
    def test_split_evaluation_identity(self, p, z):
        s = even_odd_split(p)
        assert s.p0(z * z) + z * s.p1(z * z) == p(z)

    @given(polynomials(), rationals)
    def test_reflect_is_evaluation_at_minus(self, p, z):
        assert reflect(p)(z) == p(-z)

    @given(polynomials())
    def test_reflect_involution(self, p):
        assert reflect(reflect(p)) == p

    @given(polynomials())
    def test_dual_involution(self, p):
        assert dual_transform(dual_transform(p)) == p

    @given(polynomials(min_degree=0))
    def test_dual_is_the_twisted_recombination(self, p):
        # s * (p0(-z^2) - z p1(-z^2)) with s = (-1)^(n(n+1)/2)
        n = p.degree
        split = even_odd_split(p)
        raw = (compose_even(split.p0, -1)
               - times_z(compose_even(split.p1, -1)))
        assert dual_transform(p) == raw * (-1) ** (n * (n + 1) // 2)

    @given(operands(), operands(), multiplier_entries)
    @example(Polynomial(), Polynomial([F(1, 3), 2]), 0)      # zero factor
    @example(Polynomial([F(-2, 3)]), Polynomial([F(5, 7)]), F(-1, 6))
    @example(Polynomial([10 ** 40 + 1, F(-1, 10 ** 30), 0]),
             Polynomial([F(3, 2 ** 70), -7, F(1, 6)]), 10 ** 25)
    def test_product_is_the_schoolbook_fraction_product(self, p, q, s):
        def schoolbook(a, b):
            out = [F(0)] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Polynomial(out).coeffs
        want = schoolbook(p.coeffs, q.coeffs)
        scaled = Polynomial([c * s for c in p.coeffs]).coeffs
        for got, expected in ((p * q, want), (q * p, want),
                              (_product((p, q, p)),
                               schoolbook(want, p.coeffs)),
                              (_product(()), (F(1),)),
                              (p * s, scaled), (s * p, scaled)):
            assert got.coeffs == expected
            for c in got.coeffs:
                assert type(c) is Fraction
                assert c.denominator > 0
                assert gcd(c.numerator, c.denominator) == 1

    @given(polynomials(max_degree=4), polynomials(max_degree=3))
    @settings(max_examples=60)
    def test_gcd_divides_both(self, p, q):
        g = poly_gcd(p, q)
        assert g.coeffs[0] == 1
        for target in (p, q):
            quotient = RationalFunction(target, g).reduced()
            assert quotient.den.degree == 0

    @given(polynomials(), rationals)
    def test_odd_even_quotient_identity(self, p, z):
        # z p1(z^2) / p0(z^2) == (p(z) - p(-z)) / (p(z) + p(-z))
        s = even_odd_split(p)
        lhs_num, lhs_den = z * s.p1(z * z), s.p0(z * z)
        rhs_num, rhs_den = p(z) - p(-z), p(z) + p(-z)
        assert lhs_num * rhs_den == rhs_num * lhs_den


class TestMinorInvariants:
    @given(polynomials())
    def test_eta_chain_is_scaled_delta_chain(self, p):
        # eta is read off Delta; the infinite layout's minors are not
        hm = hurwitz_minors(p)
        block = infinite_hurwitz_block(p, p.degree + 1)
        assert hm.eta == tuple(leading_minors(block))
        a0 = p.coeffs[0]
        assert hm.eta[0] == a0
        for j in range(1, len(hm.eta)):
            assert hm.eta[j] == a0 * hm.delta[j - 1]

    @given(small_integer_polynomials())
    @example(Polynomial([1, 0, 1, 0, 1]))     # every odd-position entry 0
    @example(Polynomial([1, 1, 1, 1]))        # Delta_2 = 0, Delta_3 = 0
    @example(Polynomial([1, 2, 1, 2, 1, 2]))  # whole zero row F_2
    @example(Polynomial([2, 0, 0, -1, 3]))    # stalled array
    @example(Polynomial([-1, 0, -2, -1, -1]))     # stalled, sign flipped
    def test_reflection_and_dual_sign_tables(self, p):
        """The derived tables classify uses, against fresh sweeps: the
        value laws on p's chain, and the same laws on the sign chain that
        classify applies them to."""
        n = p.degree
        delta = hurwitz_minors(p).delta
        # reflect(p) = p(-z) scales Hurwitz row t by (-1)^(n-1+t)
        twisted = []
        for k, d in enumerate(delta, start=1):
            e = sum(n - 1 + t for t in range(k))
            twisted.append(d if e % 2 == 0 else -d)
        rp = reflect(p)
        assert hurwitz_minors(rp).delta == tuple(twisted)
        # negating every row scales Delta_k by (-1)^k
        assert hurwitz_minors(-rp).delta == tuple(
            d * (-1) ** k for k, d in enumerate(twisted, start=1))
        # classify reflects a positive-leading p and normalizes the sign
        signs = [_sign(d) for d in delta]
        if p.coeffs[0] > 0:
            normalized = rp if rp.coeffs[0] > 0 else -rp
            assert hurwitz_minors(normalized).delta == _reflected_delta(delta)
            assert tuple(map(_sign, hurwitz_minors(normalized).delta)) \
                == _reflected_delta(signs)
        assert hurwitz_minors(dual_transform(p)).delta == _dual_delta(delta, n)
        assert tuple(map(_sign, hurwitz_minors(dual_transform(p)).delta)) \
            == _dual_delta(signs, n)

    @given(st.one_of(small_integer_polynomials(), even_factor_products()))
    @example(Polynomial([1, 2, 3, 0, 0]))     # double origin zero
    @example(Polynomial([1, 2, -1, -2]))      # the pair +-1
    @example(Polynomial([1, 1, 1, 1]))        # the axis pair +-i
    @example(Polynomial([1, 3, 5, 15, 4, 12]))    # (z^2+1)(z^2+4)(z+3)
    @example(Polynomial([1, 3, 3, 1]))        # triple zero, coprime halves
    @example(Polynomial([1, 1, -1, -1]))      # (z-1)(z+1)^2
    @example(Polynomial([1, 0, 3, 0, 2]))     # odd half vanishes
    @example(Polynomial([1, 0, -4, 0]))       # even half vanishes
    @example(Polynomial([2, 0, 3]))           # degree 2, odd half vanishes
    def test_orlando_minor_detects_shared_halves(self, p):
        """Delta_{n-1} != 0 exactly when gcd(p0, p1) = 1, the skip that
        spares classify the Euclid; sympy's gcd is the independent
        oracle."""
        assume(p.degree >= 2)
        split = even_odd_split(p)
        u = sympy.Symbol("u")
        shared = sympy.gcd(_sympy_poly(split.p0, u), _sympy_poly(split.p1, u))
        coprime = shared.degree() == 0
        assert (poly_gcd(split.p0, split.p1).degree == 0) == coprime
        assert (hurwitz_minors(p).delta[p.degree - 2] != 0) == coprime

    @given(st.one_of(polynomials(), small_integer_polynomials(),
                     even_factor_products(),
                     even_factor_products().map(times_z)))
    @example(Polynomial([1, 0, 3, 0, 2]))     # odd half vanishes
    @example(Polynomial([1, 0, -4, 0]))       # even half vanishes
    @example(Polynomial([1, 1, 1, 1]))        # Delta_2 = 0 in a nonzero row
    @example(Polynomial([F(1, 2), 0, F(3, 4), F(1, 3), 0]))
    def test_routh_chain_and_even_factor(self, p):
        """hurwitz_minors' Routh array against the Bareiss minors of the
        finite matrix, and the even factor it reads off a whole zero row
        against sympy's gcd of the halves."""
        hm = hurwitz_minors(p)
        assert hm.delta == tuple(leading_minors(finite_hurwitz_matrix(p)))
        split = even_odd_split(p)
        u = sympy.Symbol("u")
        shared = sympy.gcd(_sympy_poly(split.p0, u),
                           _sympy_poly(split.p1, u))
        assert _sympy_poly(hm.halves_gcd, u) == shared.monic()
        if _routh(p.coeffs)[2]:
            assert hm.halves_gcd == poly_gcd(split.p0, split.p1)

    @given(even_factors(), small_integer_polynomials(max_degree=6))
    @example(Polynomial([1, 1]), Polynomial([1, 0, 1]))    # axis pairs in both
    @example(Polynomial([1, 0]), Polynomial([1, 2, 0]))    # origin zeros in both
    @example(Polynomial([-2, 0, 1]), Polynomial([1, 1, 1, 1]))  # Delta_2 = 0
    @example(Polynomial([F(1, 2), 3]), Polynomial([1, 0, 3, 0, 2]))  # odd half 0
    @example(Polynomial([1, -1]), Polynomial([1, 2, -1, -2]))   # the pair +-1
    def test_even_factor_scales_the_leading_minors(self, f, q):
        """Delta_k(f(z^2) q) = lc(f)^k Delta_k(q) for k <= deg q: the
        Hurwitz matrix of f(z^2) q is that of q times the triangular
        Toeplitz matrix of f, so classify reads a cofactor's chain as a
        prefix of its image's.  Two independent sweeps."""
        lead = f.coeffs[0]
        image = hurwitz_minors(compose_even(f) * q).delta
        assert image[:q.degree] == tuple(
            lead ** k * d for k, d in enumerate(hurwitz_minors(q).delta, 1))

    @given(mixed_matrices())
    @example([[0, 1], [1, 0]])
    @example([[F(1, 2), 1, F(2, 3)], [1, 2, F(4, 3)], [0, F(1, 5), 7]])
    @example([[0, F(1, 3), 2], [F(1, 4), 0, 1], [3, F(2, 7), 0]])
    def test_determinant_kernels_on_mixed_entries(self, rows):
        # every leading block, so zero pivots and row swaps are reached
        assert leading_minors(rows) == [
            _gauss_det([row[:k] for row in rows[:k]])
            for k in range(1, len(rows) + 1)]

    @given(small_integer_polynomials())
    def test_origin_strip_keeps_the_prefix(self, p):
        # the Hurwitz matrix of q is the leading block of that of z*q
        n = p.degree
        assert hurwitz_minors(times_z(p)).delta[:n] == hurwitz_minors(p).delta

    @given(strictly_proper_pairs())
    @settings(max_examples=50)
    def test_hankel_rank_cutoff(self, pair):
        # minors beyond the pole count vanish
        num, den = pair
        R = RationalFunction(num, den).reduced()
        r = R.den.degree
        assume(isinstance(r, int) and r >= 1)
        mn = hankel_minors(laurent_expand(R, r + 1), r + 1)
        assert mn.D[r] == 0

    @given(st.lists(st.integers(min_value=-5, max_value=5).filter(bool),
                    min_size=1, max_size=10))
    def test_frobenius_matches_strong_count_without_zeros(self, seq):
        assert scf_frobenius(seq) == strong_sign_changes(seq)

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1,
                    max_size=10))
    def test_strong_count_bounds(self, seq):
        assume(any(seq))
        v = strong_sign_changes(seq)
        assert 0 <= v <= len(seq) - 1

    @given(st.lists(st.integers(min_value=-5, max_value=5).filter(bool),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=5))
    def test_same_sign_extension_adds_nothing(self, seq, scale):
        extended = seq + [seq[-1] * scale]
        assert strong_sign_changes(extended) == strong_sign_changes(seq)


class TestContinuedFractionInvariants:
    @given(polynomials(min_degree=2, max_degree=6))
    @settings(max_examples=80)
    def test_expand_reconstruct_round_trip(self, p):
        from genhurwitz.polyalg import (
            DegenerateSplitError, associated_function)
        try:
            cf = stieltjes_expand(associated_function(p))
        except (NoCFError, DegenerateSplitError):
            assume(False)
        assert stieltjes_expand(cf_reconstruct(cf)) == cf


class TestClassificationInvariants:
    @given(polynomials(), st.fractions(min_value=F(1, 4), max_value=4,
                                       max_denominator=4).filter(bool))
    @settings(max_examples=60)
    def test_positive_scaling_invariance(self, p, scale):
        base, scaled = classify(p), classify(p * scale)
        assert base.label == scaled.label
        assert base.order_k == scaled.order_k
        assert base.degeneracy_m == scaled.degeneracy_m
        assert base.si_type == scaled.si_type

    @given(polynomials())
    @settings(max_examples=60)
    def test_negation_invariance(self, p):
        # classification reads the zero set, which -p shares
        base, negated = classify(p), classify(-p)
        assert base.label == negated.label
        assert base.order_k == negated.order_k


class TestMatrixInvariants:
    @given(matrix_pairs())
    @settings(max_examples=60)
    def test_det_multiplicative(self, pair):
        A, B = pair
        assert (A * B).det() == A.det() * B.det()

    @given(square_matrices())
    def test_char_poly_flip_similarity(self, A):
        J = flip(A.n)
        assert char_poly(J * A * J) == char_poly(A)

    @given(square_matrices())
    def test_char_poly_evaluates_to_zero_at_det_witness(self, A):
        # p_A(z) has constant term (-1)^n det A
        cp = char_poly(A)
        assert cp.coeffs[-1] == (-1) ** A.n * A.det()

    @given(square_matrices(max_n=3))
    @settings(max_examples=40)
    def test_det_agrees_with_exact_det(self, A):
        assert A.det() == exact_det([list(row) for row in A.rows])
