"""Continued fraction expansion, reconstruction, and pole-sign reading."""

import random
from fractions import Fraction

import pytest

from genhurwitz.minors import (
    _proper_hankel,
    _routh,
    hankel_minors,
    hurwitz_minors,
)
from genhurwitz.polyalg import (
    DegenerateSplitError,
    Polynomial,
    RationalFunction,
    associated_function,
    even_odd_split,
    laurent_expand,
    poly_gcd,
)
from genhurwitz.stieltjes import (
    NoCFError,
    StieltjesCF,
    cf_from_hurwitz_minors,
    cf_reconstruct,
    extended_expand,
    pole_sign_summary,
    stieltjes_expand,
)

from test_golden import (
    outcome,
    refuse_bareiss,
    refuse_series_route,
    rfunc_corpus,
    stalled,
)

F = Fraction


def P(*cs):
    return Polynomial(list(cs))


def RF(num, den):
    return RationalFunction(P(*num), P(*den))


class TestStieltjesExpand:
    def test_stable_quadratic_quotient(self):
        cf = stieltjes_expand(RF([2], [1, 1]))
        assert (cf.c0, cf.c, cf.tail, cf.r) == (F(0), (F(1, 2), F(2)), "even", 1)

    def test_interlacing_quadratic_quotient(self):
        cf = stieltjes_expand(RF([1], [1, -2]))
        assert (cf.c0, cf.c, cf.tail) == (F(0), (F(1), F(-1, 2)), "even")

    def test_odd_degree_keeps_constant_head(self):
        cf = stieltjes_expand(RF([1, 1], [4, -6]))
        assert cf.c0 == F(1, 4)
        assert cf.c == (F(8, 5), F(-5, 12))

    def test_pole_at_origin_flips_tail(self):
        cf = stieltjes_expand(RF([1], [1, 0]))
        assert cf.tail == "odd"
        assert cf.c == (F(1),)

    def test_constant_function(self):
        cf = stieltjes_expand(RF([5], [1]))
        assert (cf.c0, cf.c, cf.r) == (F(5), (), 0)

    def test_blocked_by_vanishing_minor(self):
        with pytest.raises(NoCFError, match="D_1"):
            stieltjes_expand(RF([1], [1, 0, -1]))

    def test_improper_function_refused(self):
        with pytest.raises(NoCFError):
            stieltjes_expand(RF([1, 0, 0], [1, 0]))

    def test_coefficient_accessor_is_one_based(self):
        cf = stieltjes_expand(RF([2], [1, 1]))
        assert cf.coefficient(1) == F(1, 2)
        assert cf.coefficient(2) == F(2)

    def test_origin_pole_is_a_vanishing_top_dhat(self):
        # the odd tail rests on Dhat_r = 0 exactly when 0 is a pole
        rng = random.Random(77)
        tails = set()
        for _ in range(300):
            n = rng.randint(1, 4)
            den = P(*([1] + [rng.randint(-2, 2) for _ in range(n)]))
            num = P(*[rng.randint(-2, 2) for _ in range(den.degree)])
            if num.is_zero():
                continue
            red = RationalFunction(num, den).reduced()
            r = red.den.degree
            if r == 0:
                continue
            mn = hankel_minors(laurent_expand(red, r), r)
            zero_pole = red.den.power_coeff(0) == 0
            assert (mn.Dhat[r - 1] == 0) == zero_pole
            try:
                tails.add((stieltjes_expand(red).tail, zero_pole))
            except NoCFError:
                pass
        assert tails == {("odd", True), ("even", False)}

    def test_no_euclid_series_or_sweep(self, monkeypatch):
        # both expansions, the growth refusal of extended_expand included,
        # read R's minors and its reduced degrees off one chain, stalled
        # arrays included
        inputs = list(rfunc_corpus())
        expected = [(outcome(stieltjes_expand, R), outcome(extended_expand, R))
                    for R in inputs]
        refuse_series_route(monkeypatch)
        refuse_bareiss(monkeypatch)
        cases = set()
        for R, (cf, ext) in zip(inputs, expected):
            assert outcome(stieltjes_expand, R) == cf, R
            assert outcome(extended_expand, R) == ext, R
            if stalled(R.num, R.den):
                cases.add("stalled")
            if ext.startswith("UnsupportedGrowthError"):
                # the message names R's reduced degrees, which a shared
                # factor lowers
                cases.add(("growth refused", f"degree {R.num.degree} " in ext))
        assert cases == {"stalled", ("growth refused", True),
                         ("growth refused", False)}


class TestHankelFromHurwitz:
    def test_matches_the_series_route(self):
        # the old route is the oracle: reduce by a Euclid, expand at
        # infinity, one determinant per minor; past one linear term of
        # growth it expands num mod den, whose minors are R's
        for R in rfunc_corpus():
            q, rest = divmod(R.num, R.den)
            mn = _proper_hankel(rest, R.den)
            red = (R if q.degree <= 1 else RationalFunction(rest, R.den)
                   ).reduced()
            r = red.den.degree
            series = laurent_expand(red, r)
            ref = hankel_minors(series, r)
            assert (mn.D, mn.Dhat, mn.order) == (ref.D, ref.Dhat, r), R
            if q.degree <= 1:
                assert (q.power_coeff(1), q.power_coeff(0)) == (
                    series.s_minus2, series.s_minus1), R


class TestMinorRoute:
    # cf_from_hurwitz_minors runs the minor route only; the series route
    # is compared with it here
    def test_even_degree(self):
        cf = cf_from_hurwitz_minors(P(1, 2, 1))
        assert cf.c0 == 0
        assert cf.c == (F(1, 2), F(2))

    def test_even_degree_interlacing(self):
        cf = cf_from_hurwitz_minors(P(1, 1, -2))
        assert cf.c == (F(1), F(-1, 2))

    def test_odd_degree(self):
        cf = cf_from_hurwitz_minors(P(1, 4, 1, -6))
        assert cf.c0 == F(1, 4)
        assert cf.c == (F(8, 5), F(-5, 12))

    def test_matches_series_route(self):
        for coeffs in [(1, 2, 1), (1, 1, -2), (1, 4, 1, -6),
                       (1, 3, 3, 1), (2, 3, -1, 5)]:
            p = P(*coeffs)
            assert cf_from_hurwitz_minors(p) == stieltjes_expand(
                associated_function(p))

    def test_matches_series_route_on_random_inputs(self):
        """Where the halves are coprime, the minor route expands exactly
        when the series route does, to the same fraction.  Where they
        share a factor, the pole count drops below l, a minor vanishes
        and the minor route refuses, even if the series route expands."""
        rng = random.Random(1729)
        corpus = [P(1, 0, 1, 0), P(1, 0, 0, 0, 1)]
        for _ in range(1500):
            n = rng.randint(1, 7)
            corpus.append(P(*([rng.choice([-2, -1, 1, 2])]
                              + [rng.randint(-2, 2) for _ in range(n)])))
        outcomes = set()
        for p in corpus:
            try:
                minor = cf_from_hurwitz_minors(p)
            except NoCFError as e:
                minor = str(e)
            try:
                series = stieltjes_expand(associated_function(p))
            except (NoCFError, DegenerateSplitError) as e:
                series = str(e)
            split = even_odd_split(p)
            shared = (split.p0.is_zero()
                      or poly_gcd(split.p0, split.p1).degree > 0)
            if isinstance(minor, str):
                assert minor.startswith("no expansion: Delta_"), p
            if shared:
                assert isinstance(minor, str), p
            elif isinstance(series, str):
                assert isinstance(minor, str), p
            else:
                assert minor == series, p
            outcomes.add((type(minor).__name__, type(series).__name__,
                          shared))
        assert outcomes == {("StieltjesCF", "StieltjesCF", False),
                            ("str", "str", False), ("str", "str", True),
                            ("str", "StieltjesCF", True)}

    def test_refusal_messages(self):
        # z^3 + z^2 + z + 1 = (z^2 + 1)(z + 1): halves share u + 1
        for coeffs, message in [((1, 1, 1, 1), "no expansion: Delta_2 = 0"),
                                ((1, 0, 1, 0), "no expansion: Delta_1 = 0"),
                                ((1, 0, 2, 1), "no expansion: Delta_1 = 0")]:
            with pytest.raises(NoCFError) as exc:
                cf_from_hurwitz_minors(P(*coeffs))
            assert str(exc.value) == message

    def test_constant_refused(self):
        with pytest.raises(NoCFError):
            cf_from_hurwitz_minors(P(5))

    def test_degree_one_without_a_1_is_refused(self):
        # a zero tail leaves one ratio, t_0 = a_0/a_1, which needs Delta_1
        with pytest.raises(NoCFError, match="^no expansion: Delta_1 = 0$"):
            cf_from_hurwitz_minors(P(3, 0))
        assert cf_from_hurwitz_minors(P(3, 2)) == StieltjesCF(
            F(3, 2), (), "even", 0)

    def test_one_chain_matches_the_parity_formulas(self):
        rng = random.Random(2718)
        corpus = [P(1, 0), P(2, 0, 0), P(1, 0, 1), P(1, 0, 0, 0),
                  P(1, 0, 2, 1)]
        for _ in range(1500):
            n = rng.randint(1, 9)
            cs = [rng.choice([-2, -1, 1, 2])] + [
                rng.choice([0, 0, -1, 1, 2]) for _ in range(n)]
            if rng.random() < 0.3:
                cs = [F(c, rng.randint(1, 3)) for c in cs]
            corpus.append(P(*cs))
        outcomes = set()
        for p in corpus:
            try:
                got = cf_from_hurwitz_minors(p)
            except NoCFError as e:
                got = str(e)
            assert got == _cf_by_parity(p), p
            outcomes.add((p.degree % 2, p.power_coeff(0) == 0,
                          isinstance(got, str)))
        assert len(outcomes) == 8


def _cf_by_parity(p):
    """The two-branch form of the Hurwitz minor route, kept as an oracle:
    c_i = Delta_{i-1}^2 / (Delta_{i-2} Delta_i) for even n, c_0 = a_0/a_1
    and c_i = Delta_i^2 / (Delta_{i-1} Delta_{i+1}) for odd n.  Returns
    the expansion or the refusal message."""
    delta = hurwitz_minors(p).d
    n = p.degree
    zero_tail = p.power_coeff(0) == 0
    top = n - zero_tail - (n % 2)
    if n % 2 == 0:
        shift, c0 = -1, F(0)
    else:
        if delta(1) == 0:
            return "no expansion: Delta_1 = 0"
        shift, c0 = 0, p.coeff(0) / p.coeff(1)
    c = []
    for i in range(1, top + 1):
        lo, mid, hi = (delta(i + shift - 1), delta(i + shift),
                       delta(i + shift + 1))
        if hi == 0:
            return f"no expansion: Delta_{i + shift + 1} = 0"
        c.append(mid ** 2 / (lo * hi))
    return StieltjesCF(c0, tuple(c), "odd" if zero_tail else "even", n // 2)


class TestReconstruct:
    def test_folds_back_exactly(self):
        R = cf_reconstruct(StieltjesCF(F(0), (F(1, 2), F(2)), "even", 1))
        red = R.reduced()
        assert red.num.coeffs == (F(2),)
        assert red.den.coeffs == (F(1), F(1))

    def test_negative_tail(self):
        # same function as 1/(u-2); the fold may scale both sides
        R = cf_reconstruct(StieltjesCF(F(0), (F(1), F(-1, 2)), "even", 1))
        assert R.num * P(1, -2) == R.den * P(1)

    def test_degenerate_constant(self):
        R = cf_reconstruct(StieltjesCF(F(5), (), "even", 0))
        assert R.reduced().num.coeffs == (F(5),)

    @pytest.mark.parametrize("coeffs", [(1, 2, 1), (1, 1, -2), (1, 4, 1, -6),
                                        (1, 6, 11, 6), (1, 2, 1, 0)])
    def test_round_trip(self, coeffs):
        from genhurwitz.polyalg import associated_function
        cf = stieltjes_expand(associated_function(P(*coeffs)))
        assert stieltjes_expand(cf_reconstruct(cf)) == cf


class TestOneRouthArray:
    def test_no_leading_minor_sweep(self, monkeypatch):
        # both expansions and the polynomial route read one Routh array,
        # stalled ones included, and never take a Bareiss determinant
        functions = list(rfunc_corpus())
        rng = random.Random(1517)
        polys = [P(*([rng.choice([-2, -1, 1, 2])] + [
            rng.choice([0, 0, -1, 1, 2]) for _ in range(rng.randint(1, 9))]))
            for _ in range(400)]
        expected = [(outcome(stieltjes_expand, R), outcome(extended_expand, R))
                    for R in functions]
        cfs = [outcome(cf_from_hurwitz_minors, p) for p in polys]
        assert any(stalled(R.num, R.den) for R in functions)
        assert any(_routh(p.coeffs)[2] for p in polys)
        refuse_bareiss(monkeypatch)
        for R, (cf, ext) in zip(functions, expected):
            assert outcome(stieltjes_expand, R) == cf, R
            assert outcome(extended_expand, R) == ext, R
        assert [outcome(cf_from_hurwitz_minors, p) for p in polys] == cfs
        with pytest.raises(AssertionError, match="determinant"):
            hankel_minors(laurent_expand(RF([1], [1, 1]), 1), 1)


class TestExtended:
    def test_linear_growth_is_split_off(self):
        ext = extended_expand(RF([1, 0, 1], [1, 0]))   # (u^2+1)/u
        assert ext.c_minus1 == -1
        assert ext.inner.c == (F(1),)
        assert ext.inner.tail == "odd"

    def test_reconstruct_inverts(self):
        ext = extended_expand(RF([1, 0, 1], [1, 0]))
        red = cf_reconstruct(ext).reduced()
        assert red.num.coeffs == (F(1), F(0), F(1))
        assert red.den.coeffs == (F(1), F(0))

    def test_proper_function_has_zero_slope(self):
        ext = extended_expand(RF([2], [1, 1]))
        assert ext.c_minus1 == 0
        assert ext.inner == stieltjes_expand(RF([2], [1, 1]))


class TestPoleSignSummary:
    def test_one_negative_pole(self):
        cf = stieltjes_expand(RF([2], [1, 1]))
        assert pole_sign_summary(cf) == (1, True)

    def test_one_positive_pole(self):
        cf = stieltjes_expand(RF([1], [1, -2]))
        assert pole_sign_summary(cf) == (0, True)

    def test_negative_odd_coefficient_breaks_the_pattern(self):
        cf = StieltjesCF(F(0), (F(-1), F(2)), "even", 1)
        negatives, real_pattern = pole_sign_summary(cf)
        assert real_pattern is False

    def test_mixed_real_poles(self):
        # (u-1)(u+2) denominator: one pole each side
        cf = stieltjes_expand(RF([2, 1], [1, 1, -2]))
        negatives, real_pattern = pole_sign_summary(cf)
        assert real_pattern is True
        assert negatives == 1
