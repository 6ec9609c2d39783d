"""Exact polynomial and rational-function arithmetic.

Everything in this module runs on `fractions.Fraction`; floats are refused
at the door so that downstream determinant signs are never contaminated.
Coefficient vectors are dense and leading-first: ``coeffs[0]`` multiplies
the highest power.  That matches the a0..an indexing of the classical
stability criteria and keeps the minor layouts free of index shuffling.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "PolyError", "InvalidInputError", "DegenerateSplitError",
    "UnsupportedGrowthError", "Polynomial", "RationalFunction",
    "LaurentSeries", "EvenOddSplit", "even_odd_split", "associated_function",
    "reflect", "poly_gcd", "laurent_expand",
    "parse_polynomial", "format_polynomial", "compose_even", "times_z",
    "recompose_split",
]

NEG_INF = float("-inf")

Scalar = Union[int, str, Fraction]


class PolyError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidInputError(PolyError):
    """Malformed or out-of-domain input."""


class DegenerateSplitError(PolyError):
    """The even half of the split vanishes, so p1/p0 does not exist."""


class UnsupportedGrowthError(PolyError):
    """Numerator degree exceeds denominator degree by more than one."""


def _rat(value: Scalar) -> Fraction:
    """Coerce to Fraction, refusing floats (they poison exactness)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational literal {value!r}") from exc
    raise InvalidInputError(
        f"expected an exact rational, got {type(value).__name__}: {value!r}")


def _clear_denominators(row: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(row * L as ints, L) with L > 0 the lcm of the entries' denominators.

    Entries are Fractions or ints, scaled by integer arithmetic alone.
    """
    mult = lcm(*[x.denominator for x in row])
    return [x.numerator * (mult // x.denominator) for x in row], mult


class Polynomial:
    """Dense real polynomial with exact rational coefficients.

    >>> p = Polynomial([1, 4, 1, -6])
    >>> p.degree
    3
    >>> p(1)
    Fraction(0, 1)
    >>> p.coeff(0), p.coeff(3), p.coeff(9)
    (Fraction(1, 1), Fraction(-6, 1), Fraction(0, 1))

    The zero polynomial keeps an empty tuple and degree -inf:

    >>> Polynomial([0, 0]).degree
    -inf
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_rat(c) for c in coeffs]
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        self.coeffs: Tuple[Fraction, ...] = tuple(cs[lead:])

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        """a_i in leading-first indexing; zero outside 0..degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def power_coeff(self, e: int) -> Fraction:
        """Coefficient of z**e."""
        if self.is_zero():
            return Fraction(0)
        return self.coeff(len(self.coeffs) - 1 - e)

    def __call__(self, x: Scalar) -> Fraction:
        x = _rat(x)
        acc = Fraction(0)
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = (0,) * (n - len(self.coeffs)) + self.coeffs
        b = (0,) * (n - len(other.coeffs)) + other.coeffs
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return _product((self, other))
        return Polynomial([c * _rat(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        """Exact long division.

        >>> q, r = divmod(Polynomial([1, 3, 2]), Polynomial([1, 1]))
        >>> q.coeffs, r.is_zero()
        ((Fraction(1, 1), Fraction(2, 1)), True)
        """
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero():
            raise InvalidInputError("division by the zero polynomial")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return Polynomial(), self
        quot = [Fraction(0)] * (dn - dd + 1)
        lead = other.coeffs[0]
        for i in range(len(quot)):
            q = rem[i] / lead
            quot[i] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= q * b
        return Polynomial(quot), Polynomial(rem[dn - dd + 1:])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self, order: int = 1) -> "Polynomial":
        p = self
        for _ in range(order):
            n = p.degree
            if n < 1:
                return Polynomial()
            p = Polynomial([c * (n - i) for i, c in enumerate(p.coeffs[:-1])])
        return p

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[0]
        return Polynomial([c / lead for c in self.coeffs])

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def _product(factors: Iterable[Polynomial]) -> Polynomial:
    """The product of the factors (1 for none): integer convolutions of
    their denominator-cleared coefficients, divided back once per term."""
    out, scale = [1], 1
    for f in factors:
        b, mult = _clear_denominators(f.coeffs)
        if not b:
            return Polynomial()
        conv = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out, scale = conv, scale * mult
    return Polynomial([Fraction(c, scale) for c in out])


def times_z(p: Polynomial, k: int = 1) -> Polynomial:
    """Multiply by z**k (append k zero coefficients)."""
    if p.is_zero() or k == 0:
        return p
    return Polynomial(p.coeffs + (Fraction(0),) * k)


def compose_even(f: Polynomial, sign: int = 1) -> Polynomial:
    """Return f(sign * z**2) as a polynomial in z.

    >>> compose_even(Polynomial([1, 1])).coeffs       # u+1 -> z^2+1
    (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))
    >>> compose_even(Polynomial([1, 1]), -1).coeffs   # u+1 -> -z^2+1
    (Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1))
    """
    if f.is_zero():
        return f
    m = f.degree
    out = [Fraction(0)] * (2 * m + 1)
    for i, c in enumerate(f.coeffs):
        power = m - i
        out[2 * i] = c * (sign ** power)
    return Polynomial(out)


@dataclass(frozen=True)
class EvenOddSplit:
    """Halves of p(z) = p0(z^2) + z * p1(z^2), both polynomials in u."""
    p0: Polynomial
    p1: Polynomial


def even_odd_split(p: Polynomial) -> EvenOddSplit:
    """Split into even and odd halves in the variable u = z^2.

    The coefficient a_i lands in p0 when n-i is even and in p1 otherwise,
    at u-power (n-i)//2 either way.

    >>> s = even_odd_split(Polynomial([1, 2, 1]))
    >>> s.p0.coeffs, s.p1.coeffs
    ((Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1),))
    >>> s = even_odd_split(Polynomial([1, 4, 1, -6]))
    >>> s.p0.coeffs, s.p1.coeffs                      # 4u-6 and u+1
    ((Fraction(4, 1), Fraction(-6, 1)), (Fraction(1, 1), Fraction(1, 1)))
    """
    if p.is_zero():
        raise InvalidInputError("cannot split the zero polynomial")
    n = p.degree
    even = [c for i, c in enumerate(p.coeffs) if (n - i) % 2 == 0]
    odd = [c for i, c in enumerate(p.coeffs) if (n - i) % 2 == 1]
    return EvenOddSplit(Polynomial(even), Polynomial(odd))


def recompose_split(split: EvenOddSplit) -> Polynomial:
    """Inverse of even_odd_split: p0(z^2) + z * p1(z^2)."""
    return compose_even(split.p0) + times_z(compose_even(split.p1))


def reflect(p: Polynomial) -> Polynomial:
    """p(-z): negate a_j exactly when n-j is odd.

    Sends each root to its negative; for odd n the leading coefficient
    changes sign.

    >>> reflect(Polynomial([1, 1, -2])).coeffs
    (Fraction(1, 1), Fraction(-1, 1), Fraction(-2, 1))
    """
    if p.is_zero():
        return p
    n = p.degree
    return Polynomial([-c if (n - i) % 2 else c
                       for i, c in enumerate(p.coeffs)])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean remainder chain.

    >>> poly_gcd(Polynomial([1, 0, -1]), Polynomial([1, -1])).coeffs
    (Fraction(1, 1), Fraction(-1, 1))
    >>> poly_gcd(Polynomial([1, 2, 1]), Polynomial([2])).coeffs
    (Fraction(1, 1),)
    >>> poly_gcd(Polynomial([1, 0, -4]), Polynomial([1, -1, -2])).coeffs
    (Fraction(1, 1), Fraction(-2, 1))
    """
    if a.is_zero() and b.is_zero():
        raise InvalidInputError("gcd of two zero polynomials")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class RationalFunction:
    """Quotient of two Polynomials; the denominator must be nonzero.

    Kept unreduced unless `reduced()` is called, because some minor
    formulas are stated for the raw coefficient quotient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if not isinstance(num, Polynomial) or not isinstance(den, Polynomial):
            raise InvalidInputError("RationalFunction needs two Polynomials")
        if den.is_zero():
            raise InvalidInputError("zero denominator")
        self.num = num
        self.den = den

    def reduced(self) -> "RationalFunction":
        if self.num.is_zero():
            return RationalFunction(Polynomial(), Polynomial([1]))
        g = poly_gcd(self.num, self.den)
        return RationalFunction(self.num // g, self.den // g)

    def __eq__(self, other) -> bool:
        """Equality as functions (cross multiplication)."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        r = self.reduced()
        lead = r.den.coeff(0) if r.den else Fraction(1)
        return hash((tuple(c / lead for c in r.num.coeffs),
                     tuple(c / lead for c in r.den.coeffs)))

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.den + other.num * self.den,
                                    self.den * other.den)
        if isinstance(other, Polynomial):
            return RationalFunction(self.num + other * self.den, self.den)
        return RationalFunction(self.num + _rat(other) * self.den, self.den)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return self + RationalFunction(-other.num, other.den)
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + (-_rat(other))

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        if isinstance(other, Polynomial):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * _rat(other), self.den)

    def reciprocal(self) -> "RationalFunction":
        if self.num.is_zero():
            raise InvalidInputError("reciprocal of the zero function")
        return RationalFunction(self.den, self.num)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def associated_function(p: Polynomial) -> RationalFunction:
    """The quotient p1/p0 of the split halves, unreduced.

    >>> F = associated_function(Polynomial([1, 2, 1]))
    >>> F.num.coeffs, F.den.coeffs
    ((Fraction(2, 1),), (Fraction(1, 1), Fraction(1, 1)))
    """
    split = even_odd_split(p)
    if split.p0.is_zero():
        raise DegenerateSplitError(
            "even half vanishes identically; the split quotient is undefined")
    return RationalFunction(split.p1, split.p0)


@dataclass(frozen=True)
class LaurentSeries:
    """Expansion F(z) = s_m2*z + s_m1 + s[0]/z + s[1]/z^2 + ...

    `s` holds the principal tail only; `pairs` requested at expansion time
    yields len(s) == 2*pairs, enough for the first `pairs` Hankel minors of
    both index families.
    """
    s_minus2: Fraction
    s_minus1: Fraction
    s: Tuple[Fraction, ...]

    def coefficient(self, j: int) -> Fraction:
        """s_j with j >= -2; s_{-2} multiplies z, s_0 divides z once."""
        if j == -2:
            return self.s_minus2
        if j == -1:
            return self.s_minus1
        if 0 <= j < len(self.s):
            return self.s[j]
        raise IndexError(f"series term s_{j} was not expanded")


def _check_growth(num_degree: int, den_degree: int) -> None:
    """Refuse num/den growing faster than one linear term at infinity,
    from the degrees of num and den."""
    if num_degree > den_degree + 1:
        raise UnsupportedGrowthError(
            f"numerator degree {num_degree} exceeds denominator degree "
            f"{den_degree} by more than one; no Laurent expansion of this "
            "shape exists")


def laurent_expand(R: RationalFunction, pairs: int) -> LaurentSeries:
    """Expand R at infinity through s_{2*pairs - 1}.

    Division happens in descending powers: with num of degree N and den of
    degree M, the quotient series starts at z^(N-M).  Anything growing
    faster than one linear term is refused.  The reference series route:
    no verdict path calls it (see `minors._hankel_from_hurwitz`).

    >>> F = RationalFunction(Polynomial([2]), Polynomial([1, 1]))
    >>> laurent_expand(F, 2).s
    (Fraction(2, 1), Fraction(-2, 1), Fraction(2, 1), Fraction(-2, 1))
    >>> G = RationalFunction(Polynomial([1]), Polynomial([1, -2]))
    >>> laurent_expand(G, 2).s
    (Fraction(1, 1), Fraction(2, 1), Fraction(4, 1), Fraction(8, 1))
    """
    if pairs < 0:
        raise InvalidInputError("pairs must be nonnegative")
    num, den = R.num, R.den
    _check_growth(num.degree, den.degree)
    M = den.degree
    if num.is_zero():
        zero = Fraction(0)
        return LaurentSeries(zero, zero, (zero,) * (2 * pairs))
    N = num.degree
    # Coefficients of the quotient as a power series in w = 1/z:
    # (sum a_k w^k) / (sum b_k w^k) with the leading-first vectors reused
    # verbatim, then F(z) = z^(N-M) * sum c_k w^k.
    terms = (M - N) + 2 * pairs + 2   # highest c_k needed is c_{N-M+2*pairs}
    b0 = den.coeffs[0]
    c = []
    for k in range(max(terms, 0) + 1):
        acc = num.coeff(k)
        for j in range(1, min(k, M) + 1):
            acc -= den.coeff(j) * c[k - j]
        c.append(acc / b0)

    def term(e: int) -> Fraction:
        k = N - M - e
        return c[k] if 0 <= k < len(c) else Fraction(0)

    return LaurentSeries(
        term(1), term(0), tuple(term(-1 - j) for j in range(2 * pairs)))


# -- parsing -----------------------------------------------------------------

_RATIONAL_TOKEN = "integer or integer/integer"


def _parse_token(tok: str, position: int = 0) -> Fraction:
    t = tok.strip()
    if not t:
        raise InvalidInputError(f"empty coefficient token (expected {_RATIONAL_TOKEN})")
    nu, slash, de = (t[1:] if t[0] in "+-" else t).partition("/")
    if not (nu.isdecimal()
            and (not slash or de.isdecimal() and any(map(int, de)))):
        raise InvalidInputError(
            f"bad coefficient token {tok!r}: expected {_RATIONAL_TOKEN}")
    try:
        return Fraction(t)
    except ValueError:      # CPython's int-to-str digit limit; not echoed
        where = f" {position}" if position else ""
        raise InvalidInputError(
            f"coefficient token{where} has {max(len(nu), len(de))} digits, "
            f"past the {sys.get_int_max_str_digits()}-digit limit of exact "
            "integer conversion") from None


def parse_polynomial(text: str) -> Polynomial:
    """Parse a comma-separated leading-first coefficient list.

    >>> parse_polynomial("1,4,1,-6").degree
    3
    >>> parse_polynomial("1/2, -3/4").coeffs
    (Fraction(1, 2), Fraction(-3, 4))
    """
    if not text.strip():
        raise InvalidInputError("empty coefficient list")
    return Polynomial([_parse_token(t, i)
                       for i, t in enumerate(text.split(","), 1)])


def format_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial; the zero polynomial prints as '0'."""
    if p.is_zero():
        return "0"
    return ",".join(str(c) for c in p.coeffs)
