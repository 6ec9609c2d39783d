"""Stieltjes continued fractions of rational functions.

A proper rational function F with r poles expands, when the relevant
Hankel minors are nonzero, as

    F(u) = c_0 + 1/(c_1 u + 1/(c_2 + 1/(c_3 u + ... ))),

terminating in c_{2r} (even tail) or in c_{2r-1} u (odd tail; exactly the
case of a pole at the origin).  The partial coefficients come from the
two Hankel minor families, read off the Hurwitz chain of
den(z^2) + z (num mod den)(z^2) (`minors._proper_hankel`), and for the
split quotient p1/p0 of a polynomial from one chain of ratios of p's
Hurwitz minors, t_m = Delta_m^2 / (Delta_{m-1} Delta_{m+1}) (c = t for
even degree, c_0 = t_0 and c = t[1:] for odd).  The tests check both
against the series route (`laurent_expand`, `hankel_minors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .polyalg import (
    InvalidInputError,
    Polynomial,
    RationalFunction,
    _check_growth,
    poly_gcd,
)
from .minors import _proper_hankel, hurwitz_minors

__all__ = [
    "NoCFError", "StieltjesCF", "ExtendedCF", "stieltjes_expand",
    "extended_expand", "cf_from_hurwitz_minors", "cf_reconstruct",
    "pole_sign_summary",
]


class NoCFError(InvalidInputError):
    """The expansion does not exist; the message names the vanishing minor."""


@dataclass(frozen=True)
class StieltjesCF:
    """Partial coefficients c_0; c_1..c_K with K = 2r or 2r-1.

    tail is 'even' when the fraction terminates in the constant c_{2r}
    and 'odd' when it terminates in c_{2r-1} * u.
    """
    c0: Fraction
    c: Tuple[Fraction, ...]
    tail: str
    r: int

    def coefficient(self, i: int) -> Fraction:
        """c_i with 1-based i matching the classical numbering."""
        if i == 0:
            return self.c0
        return self.c[i - 1]


@dataclass(frozen=True)
class ExtendedCF:
    """A linear term split off before the proper expansion.

    Represents F(u) = -c_minus1 * u + (inner expansion), used when the
    function grows linearly at infinity.
    """
    c_minus1: Fraction
    inner: StieltjesCF


def stieltjes_expand(R: RationalFunction) -> StieltjesCF:
    """Expand a proper rational function, or refuse naming the obstruction.

    Existence needs D_j != 0 for j <= r and Dhat_j != 0 for j <= r-1;
    Dhat_r = 0 is legal and flips the tail to odd (pole at the origin).
    """
    q, rest = divmod(R.num, R.den)
    if q.degree > 0:
        raise NoCFError("function is not finite at infinity")
    c0 = q.power_coeff(0)
    mn = _proper_hankel(rest, R.den)
    r = mn.order
    if r == 0:
        return StieltjesCF(c0, (), "even", 0)
    for name, chain in (("D", mn.D), ("Dhat", mn.Dhat[:r - 1])):
        for j, x in enumerate(chain, 1):
            if x == 0:
                raise NoCFError(f"no expansion: {name}_{j} = 0")
    # a pole at the origin is exactly a vanishing Dhat_r
    zero_pole = (mn.Dhat[r - 1] == 0)
    c = []
    for j in range(1, r + 1):
        c.append(mn.dhat(j - 1) ** 2 / (mn.d(j - 1) * mn.d(j)))   # c_{2j-1}
        if j < r or not zero_pole:
            c.append(-mn.d(j) ** 2 / (mn.dhat(j - 1) * mn.dhat(j)))  # c_{2j}
    return StieltjesCF(c0, tuple(c), "odd" if zero_pole else "even", r)


def extended_expand(R: RationalFunction) -> ExtendedCF:
    """Split off the linear growth, then expand the proper remainder."""
    q = R.num // R.den
    if q.degree > 1:
        g = poly_gcd(R.num, R.den)
        _check_growth(R.num // g, R.den // g)
    s_m2 = q.power_coeff(1)
    return ExtendedCF(-s_m2, stieltjes_expand(R - Polynomial([s_m2, 0])))


def cf_from_hurwitz_minors(p: Polynomial) -> StieltjesCF:
    """The same expansion of the split quotient, but from Hurwitz minors:

        t_m = Delta_m^2 / (Delta_{m-1} Delta_{m+1}),   m = 0..N-1,

    with N = max(n - [a_n = 0], 1), Delta_0 = 1 and Delta_{-1} = 1/a_0;
    c_0 = 0 and c = t for even n, c_0 = t_0 = a_0/a_1 and c = t[1:] for
    odd n.  A zero constant term drops the last t and flips the tail to
    odd.  The first vanishing Delta_{m+1} refuses the expansion; a
    vanishing even half (odd n) makes Delta_1 = a_1 = 0.
    """
    if p.is_zero():
        raise InvalidInputError("expansion of the zero polynomial")
    n = p.degree
    if n < 1:
        raise NoCFError("constant polynomial has no split quotient")
    delta = hurwitz_minors(p).d
    zero_tail = (p.power_coeff(0) == 0)
    t = []
    for m in range(max(n - zero_tail, 1)):
        if delta(m + 1) == 0:
            raise NoCFError(f"no expansion: Delta_{m + 1} = 0")
        t.append(delta(m) ** 2 / (delta(m - 1) * delta(m + 1)))
    c0, c = (Fraction(0), t) if n % 2 == 0 else (t[0], t[1:])
    return StieltjesCF(c0, tuple(c), "odd" if zero_tail else "even", n // 2)


def cf_reconstruct(cf: Union[StieltjesCF, ExtendedCF]) -> RationalFunction:
    """Fold the fraction back into an exact rational function.

    stieltjes_expand(cf_reconstruct(cf)) == cf round-trips exactly.
    """
    u = Polynomial([1, 0])
    if isinstance(cf, ExtendedCF):
        return cf_reconstruct(cf.inner) - (u * cf.c_minus1)
    one = Polynomial([1])
    if not cf.c:
        return RationalFunction(Polynomial([cf.c0]), one)
    K = len(cf.c)
    val = None
    for i in range(K, 0, -1):
        ci = cf.c[i - 1]
        term = (u * ci) if i % 2 == 1 else Polynomial([ci])
        if val is None:
            val = RationalFunction(term, one)
        else:
            val = RationalFunction(term, one) + val.reciprocal()
    return val.reciprocal() + Polynomial([cf.c0])


def pole_sign_summary(cf: StieltjesCF) -> Tuple[int, bool]:
    """(number of negative poles, whether the sign pattern is the real-pole one).

    The odd-indexed partial coefficients all being positive certifies that
    every pole is real (the sum-of-simple-fractions shape); each positive
    even-indexed coefficient then accounts for one negative pole.  c_0
    carries no pole information and is not consulted.
    """
    odd = cf.c[0::2]
    even = cf.c[1::2]
    r_flag = all(x > 0 for x in odd) and len(odd) == cf.r
    negatives = sum(1 for x in even if x > 0)
    return negatives, r_flag
