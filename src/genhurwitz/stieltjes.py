"""Stieltjes continued fractions of rational functions.

A proper rational function F with r poles expands, when the relevant
Hankel minors are nonzero, as

    F(u) = c_0 + 1/(c_1 u + 1/(c_2 + 1/(c_3 u + ... ))),

terminating in c_{2r} (even tail) or in c_{2r-1} u (odd tail; exactly the
case of a pole at the origin).  The partial coefficients come from the
two Hankel minor families, and for the split quotient of a polynomial
they come equally from the Hurwitz minors.  Each function runs one
route; the tests check that the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .polyalg import (
    InvalidInputError,
    Polynomial,
    RationalFunction,
    laurent_expand,
)
from .minors import hankel_minors, hurwitz_minors

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
    red = R.reduced()
    if not red.num.is_zero() and red.num.degree > red.den.degree:
        raise NoCFError("function is not finite at infinity")
    r = red.den.degree
    series = laurent_expand(red, r)
    c0 = series.s_minus1
    if r == 0:
        return StieltjesCF(c0, (), "even", 0)
    mn = hankel_minors(series, r)
    for j in range(1, r + 1):
        if mn.D[j - 1] == 0:
            raise NoCFError(f"no expansion: D_{j} = 0")
    for j in range(1, r):
        if mn.Dhat[j - 1] == 0:
            raise NoCFError(f"no expansion: Dhat_{j} = 0")
    # a pole at the origin is exactly a vanishing Dhat_r
    zero_pole = (red.den.power_coeff(0) == 0)
    c = []
    for j in range(1, r + 1):
        c.append(mn.dhat(j - 1) ** 2 / (mn.d(j - 1) * mn.d(j)))   # c_{2j-1}
        if j < r or not zero_pole:
            c.append(-mn.d(j) ** 2 / (mn.dhat(j - 1) * mn.dhat(j)))  # c_{2j}
    return StieltjesCF(c0, tuple(c), "odd" if zero_pole else "even", r)


def extended_expand(R: RationalFunction) -> ExtendedCF:
    """Split off the linear growth, then expand the proper remainder."""
    red = R.reduced()
    s_m2 = laurent_expand(red, 0).s_minus2
    u = Polynomial([1, 0])
    proper = red - (u * s_m2)
    return ExtendedCF(-s_m2, stieltjes_expand(proper))


def cf_from_hurwitz_minors(p: Polynomial) -> StieltjesCF:
    """The same expansion of the split quotient, but from Hurwitz minors.

    Even degree n = 2l:  c_0 = 0,        c_i = Delta_{i-1}^2 / (Delta_{i-2} Delta_i)
    Odd degree n = 2l+1: c_0 = a_0/a_1,  c_i = Delta_i^2 / (Delta_{i-1} Delta_{i+1})

    with Delta_0 = 1 and Delta_{-1} = 1/a_0.  A zero constant term drops
    the last partial coefficient and flips the tail to odd.  A vanishing
    even half makes Delta_1 = a_1 = 0 (odd n), so it is refused here too.
    """
    if p.is_zero():
        raise InvalidInputError("expansion of the zero polynomial")
    n = p.degree
    if n < 1:
        raise NoCFError("constant polynomial has no split quotient")
    delta = hurwitz_minors(p).d
    a0 = p.coeffs[0]
    l = n // 2
    zero_tail = (p.power_coeff(0) == 0)
    if n % 2 == 0:
        top = n - 1 if zero_tail else n
        idx = range(1, top + 1)
        shift = -1
        c0 = Fraction(0)
    else:
        if delta(1) == 0:
            raise NoCFError("no expansion: Delta_1 = 0")
        top = n - 2 if zero_tail else n - 1
        idx = range(1, top + 1)
        shift = 0
        c0 = a0 / p.coeff(1)
    c = []
    for i in idx:
        lo, mid, hi = delta(i + shift - 1), delta(i + shift), delta(i + shift + 1)
        if lo == 0 or hi == 0:
            raise NoCFError(f"no expansion: Delta_{i + shift + 1} = 0"
                            if hi == 0 else f"no expansion: Delta_{i + shift - 1} = 0")
        c.append(mid ** 2 / (lo * hi))
    return StieltjesCF(c0, tuple(c), "odd" if zero_tail else "even", l)


def cf_reconstruct(cf: Union[StieltjesCF, ExtendedCF]) -> RationalFunction:
    """Fold the fraction back into an exact rational function.

    stieltjes_expand(cf_reconstruct(cf)) == cf round-trips exactly.
    """
    if isinstance(cf, ExtendedCF):
        inner = cf_reconstruct(cf.inner)
        u = Polynomial([1, 0])
        return inner - (u * cf.c_minus1)
    u = Polynomial([1, 0])
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
