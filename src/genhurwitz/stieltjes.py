"""Stieltjes continued fractions of rational functions.

A proper rational function F with r poles expands, when the relevant
Hankel minors are nonzero, as

    F(u) = c_0 + 1/(c_1 u + 1/(c_2 + 1/(c_3 u + ... ))),

terminating in c_{2r} (even tail) or in c_{2r-1} u (odd tail; exactly the
case of a pole at the origin).  Every partial coefficient is one ratio
of Hurwitz minors, t_m = Delta_m^2 / (Delta_{m-1} Delta_{m+1}), taken by
one loop (`_partial_coefficients`): for F = c_0 + rest/den on the chain
of den(z^2) + z rest(z^2) (`minors._proper_chain`), where c = t; for the
split quotient p1/p0 of a polynomial on p's own chain (c = t for even
degree, c_0 = t_0 and c = t[1:] for odd).  The tests check both against
the series route (`laurent_expand`, `hankel_minors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .polyalg import (
    InvalidInputError,
    Polynomial,
    RationalFunction,
    _check_growth,
)
from .minors import HurwitzMinors, _proper_chain, hurwitz_minors

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


def _partial_coefficients(hm: HurwitzMinors, count: int) -> List[Fraction]:
    """t_m = Delta_m^2 / (Delta_{m-1} Delta_{m+1}) for m = 0..count-1,
    refused at the first vanishing Delta_{m+1}."""
    t = []
    for m in range(count):
        if hm.d(m + 1) == 0:
            raise NoCFError(f"no expansion: Delta_{m + 1} = 0")
        t.append(hm.d(m) ** 2 / (hm.d(m - 1) * hm.d(m + 1)))
    return t


def stieltjes_expand(R: RationalFunction) -> StieltjesCF:
    """Expand a proper rational function, or refuse naming the obstruction.

    Existence needs D_j != 0 for j <= r and Dhat_j != 0 for j <= r-1;
    Dhat_r = 0 is legal and flips the tail to odd (pole at the origin).
    """
    if R.num.degree > R.den.degree:
        raise NoCFError("function is not finite at infinity")
    return extended_expand(R).inner


def extended_expand(R: RationalFunction) -> ExtendedCF:
    """Split off the linear growth, then expand the proper remainder.

    With q, rest = divmod(num, den), q gives -c_minus1 and c_0, and rest/den
    is read off the chain of den(z^2) + z rest(z^2) (`minors._proper_chain`):
    D_j = Delta_{2j-1} / a_0^{2j-1} and Dhat_j = (-1)^j Delta_{2j} / a_0^{2j}
    with a_0 = lc(den), so the scaling cancels in c_{2j-1} = Dhat_{j-1}^2 /
    (D_{j-1} D_j) = t_{2j-2} and c_{2j} = -D_j^2 / (Dhat_{j-1} Dhat_j) =
    t_{2j-1}.  Growth past one linear term is refused on the reduced
    degrees, deg num - deg g and deg den - deg g, with g = gcd(num, den) =
    gcd(den, rest) the chain's `halves_gcd`; nothing is divided.
    """
    q, rest = divmod(R.num, R.den)
    hm, r = _proper_chain(rest, R.den)
    if q.degree > 1:
        g = hm.halves_gcd.degree
        _check_growth(R.num.degree - g, R.den.degree - g)
    for name, shift, top in (("D", 1, r), ("Dhat", 0, r - 1)):
        for j in range(1, top + 1):
            if hm.d(2 * j - shift) == 0:
                raise NoCFError(f"no expansion: {name}_{j} = 0")
    zero_pole = (hm.d(2 * r) == 0)         # Dhat_r = 0: a pole at 0
    c = _partial_coefficients(hm, 2 * r - zero_pole)
    return ExtendedCF(-q.power_coeff(1), StieltjesCF(
        q.power_coeff(0), tuple(c), "odd" if zero_pole else "even", r))


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
    zero_tail = (p.power_coeff(0) == 0)
    t = _partial_coefficients(hurwitz_minors(p), max(n - zero_tail, 1))
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
