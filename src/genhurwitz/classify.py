"""Root-location classification of real polynomials, all in exact arithmetic.

The taxonomy, decided purely from determinant signs:

    hurwitz-stable            all zeros in the open left half plane
    quasi-stable (m)          closed left half plane, m zeros on the axis
    self-interlacing (I/II)   real simple zeros with strictly alternating
                              signs and increasing moduli
    almost-self-interlacing   z times a self-interlacing polynomial of the
                              opposite type
    quasi-self-interlacing    dual image is quasi-stable with degeneracy m
    generalized-hurwitz (k)   exactly k zeros in the closed right half
                              plane, all real simple, interlacing the
                              negative real zeros; the rest in the open
                              left half plane
    unclassified              none of the above

The decision tree (`_decide`) reads integer signs and split facts: the
degree, whether the constant term is zero, the signs of the Hurwitz minor
chain and three facts of the even-factor split p = f(z^2) q, namely f,
deg q and whether q(0) = 0.  It tries a gate of odd-position minors,
then a Frobenius-rule sign change count for the order k; the failure
branches use the split facts and the duality transform.  Only when that
gives no verdict does `classify` run it once more, for the reflection
z -> -z.

Each classification runs p's fraction-free Routh array once
(`hurwitz_minors`), which gives the chain and the even factor
f = gcd(p0, p1); the other two split facts follow from degrees and zeros
at the origin, with no division.  The dual and reflected images take
their sign chains from p's by fixed sign laws, the dual its split facts
from p's (f(-u), the same deg q and q(0) bit), and the reflection p's
facts themselves: reflect(p) = f(z^2) reflect(q) leaves all three
unchanged.  The cofactor q, the dual image and the exact minor values
are built only for the report that is kept, and q and the image only
for the quasi-stable or quasi-self-interlacing verdict that shows them.
No cofactor is swept:
a_j(p) = sum_i f_i a_{j-2i}(q) gives H(p) = H(q) U_f, with U_f the upper
triangular Toeplitz matrix of f's coefficients, so
Delta_k(f(z^2) q) = lc(f)^k Delta_k(q) for k <= deg q, and for the monic
f used here q's chain is a prefix of its image's.  The root check on f
is one more Routh array, by Hermite-Biehler: the distinct roots of f are
real and negative iff f(z^2) + z f'(z^2) is Hurwitz stable up to its
even factor (see `_real_nonpositive_u_roots`).  Nothing is memoized.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .polyalg import (
    InvalidInputError,
    PolyError,
    Polynomial,
    RationalFunction,
    compose_even,
    even_odd_split,
    times_z,
)
from .minors import (
    HurwitzMinors,
    _proper_hankel,
    _routh,
    _sign,
    hurwitz_minors,
    scf_frobenius,
    strong_sign_changes,
)

__all__ = [
    "LABELS", "ClassificationReport", "RFunctionCertificate",
    "classify", "is_r_function", "pole_sign_count", "lienard_chipart",
    "generalized_lienard_chipart_order", "dual_transform",
    "derivative_family", "subsample_family", "new_stability_criterion",
]

LABEL_STABLE = "hurwitz-stable"
LABEL_QUASI = "quasi-stable"
LABEL_SI = "self-interlacing"
LABEL_ALMOST_SI = "almost-self-interlacing"
LABEL_QUASI_SI = "quasi-self-interlacing"
LABEL_GH = "generalized-hurwitz"
LABEL_NONE = "unclassified"

LABELS = (LABEL_STABLE, LABEL_QUASI, LABEL_SI, LABEL_ALMOST_SI,
          LABEL_QUASI_SI, LABEL_GH, LABEL_NONE)


def _jsonable(value):
    """The payload with its exact values as text, the one place they
    become text: one past CPython's int-to-str digit limit is refused by
    its digit count (n has d - 1 or d for d = floor(bits log10 2) + 1)."""
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:
            n = max(abs(value.numerator), value.denominator)
            d = int(n.bit_length() * 0.30102999566398120) + 1
            raise PolyError(
                f"an exact result has {d - (n < 10 ** (d - 1))} digits, past "
                f"the {sys.get_int_max_str_digits()}-digit limit of exact "
                "integer conversion") from None
    if isinstance(value, Polynomial):
        return _jsonable(value.coeffs)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    order_k: Optional[int] = None
    degeneracy_m: Optional[int] = None
    si_type: Optional[str] = None
    certificates: Dict = field(default_factory=dict)

    def to_json_dict(self) -> Dict:
        return {
            "label": self.label,
            "order_k": self.order_k,
            "degeneracy_m": self.degeneracy_m,
            "si_type": self.si_type,
            "certificates": _jsonable(self.certificates),
        }


# ---------------------------------------------------------------------------
# R-function certification

@dataclass(frozen=True)
class RFunctionCertificate:
    """Witness that a rational function maps the upper half plane down.

    `hankel_chain` holds the positive minors D_1..D_r; the pole counts
    come from the sign change count over the second minor family.
    """
    pole_count: int
    hankel_chain: Tuple[Fraction, ...]
    negative_pole_count: int
    positive_pole_count: int
    pole_at_zero: bool


def is_r_function(R: RationalFunction) -> Optional[RFunctionCertificate]:
    """Certificate if R maps the upper half plane into the lower, else None.

    Criterion: the degrees differ by at most one, the z-coefficient of
    num // den is <= 0, and the first Hankel minor family is positive
    through the pole count (both from `minors._proper_hankel`).
    """
    if R.num.is_zero():
        return RFunctionCertificate(0, (), 0, 0, False)
    if abs(R.num.degree - R.den.degree) > 1:
        return None
    q, rest = divmod(R.num, R.den)
    if q.power_coeff(1) > 0:
        return None
    mn = _proper_hankel(rest, R.den)
    if any(d <= 0 for d in mn.D):
        return None
    r = mn.order
    pole_at_zero = r > 0 and mn.Dhat[r - 1] == 0
    negative = scf_frobenius([Fraction(1)] + list(mn.Dhat[:r - pole_at_zero]))
    return RFunctionCertificate(r, mn.D, negative, r - negative - pole_at_zero,
                                pole_at_zero)


def pole_sign_count(R: RationalFunction,
                    cert: Optional[RFunctionCertificate] = None
                    ) -> Tuple[int, int, bool]:
    """(negative poles, positive poles, pole at zero) for an R-function."""
    if cert is None:
        cert = is_r_function(R)
    if cert is None:
        raise InvalidInputError(
            "pole sign counting needs an upper-to-lower half-plane map")
    return (cert.negative_pole_count, cert.positive_pole_count,
            cert.pole_at_zero)


# ---------------------------------------------------------------------------
# building blocks for classify

def _real_nonpositive_u_roots(f: Polynomial) -> bool:
    """Do all roots of f (a polynomial in u) lie in (-inf, 0]?

    Roots at the origin are stripped first; they are fine.  Then, with f's
    leading coefficient made positive, by Hermite-Biehler: f'/f = num/den
    reduced is the sum of m_i/(u - lambda_i) over the r distinct roots, and
    h(z) = den(z^2) + z num(z^2) is Hurwitz stable iff its halves have
    simple negative interlacing roots with den's largest, which holds iff
    every lambda_i is real and negative.  g = f(z^2) + z f'(z^2) is
    d(z^2) h(z) with d = gcd(f, f') of positive leading coefficient, so
    Delta_k(g) = lc(d)^k Delta_k(h) for k <= 2r and g's Routh array meets
    its first whole zero row at row 2r + 1 (or completes, for d = 1) when
    no entry stalls.  Hence: no stall and every first entry before that
    row positive.
    """
    cs = f.coeffs
    end = len(cs)
    while cs[end - 1] == 0:
        end -= 1
    m = end - 1
    if m == 0:
        return True
    sign = 1 if cs[0] > 0 else -1
    g = []
    for i in range(m):
        c = sign * cs[i]
        g += [c, (m - i) * c]
    g.append(sign * cs[m])
    delta, _, stalled = _routh(g)
    return not stalled and all(d > 0 for d in delta)


class _SplitFacts(NamedTuple):
    """What the tree reads of p = f(z^2) q, f = gcd(p0, p1) monic in u:
    f itself, deg q and whether q(0) = 0."""
    f: Polynomial
    q_degree: int
    origin: bool


def _zeros_at_origin(p: Polynomial) -> int:
    """The multiplicity of 0 as a zero of the nonzero p."""
    cs = p.coeffs
    return next(k for k in range(len(cs)) if cs[-1 - k])


def _split_facts(p: Polynomial, hm: HurwitzMinors) -> _SplitFacts:
    """The split facts of p, given its Hurwitz minors, with no division.

    f is `hm.halves_gcd` and deg q = n - 2 deg f; q(0) = 0 iff
    mult_z(p) - 2 mult_u(f) >= 1, since mult_z(p) = 2 mult_u(f) + mult_z(q).
    """
    f = hm.halves_gcd
    origin = (p.coeffs[-1] == 0
              and _zeros_at_origin(p) > 2 * _zeros_at_origin(f))
    return _SplitFacts(f, p.degree - 2 * f.degree, origin)


def _quasi_degeneracy(signs: Sequence[int],
                      facts: _SplitFacts) -> Optional[int]:
    """Exact quasi-stability: the degeneracy count m, or None.

    `signs` is the sign chain of p and `facts` its split p = f(z^2) q
    (see `_split_facts`).  p is quasi-stable iff f has only real
    nonpositive u-roots and the origin-stripped cofactor is Hurwitz
    stable.  q's halves are coprime, so z^2 never divides it.  With f
    monic, q's chain is p's through deg q (see the module docstring) and
    that of q/z one entry shorter, so no cofactor is built or swept; nor
    is the root check memoized.
    """
    f, q_degree, origin = facts
    if (all(s > 0 for s in signs[:q_degree - origin])
            and _real_nonpositive_u_roots(f)):
        return 2 * f.degree + origin
    return None


def _quasi_certificate(image: Polynomial, facts: _SplitFacts) -> Dict:
    """The certificate of a quasi-stable `image` (p or its dual) with split
    facts `facts`: f, the cofactor q = image / f(z^2), and q(0) = 0 when
    it holds.  Built only for a report that keeps it, whose m >= 2 makes
    deg f >= 1."""
    f = facts.f
    cert = {"even_factor_u": f, "cofactor": image // compose_even(f)}
    if facts.origin:
        cert["cofactor_origin_zero"] = True
    return cert


def _dual_sign(j: int, n: int) -> int:
    """sigma_j of the dual map on a degree-n polynomial: (-1)^{j(j-1)/2}
    for even n, (-1)^{j(j+1)/2} for odd n; defined for every integer j."""
    e = (j * (j - 1) // 2) if n % 2 == 0 else (j * (j + 1) // 2)
    return -1 if e % 2 else 1


def dual_transform(p: Polynomial) -> Polynomial:
    """The sign-twisted even/odd recombination q with q(0-axis) duality.

    Coefficientwise b_j = sigma_j a_j (see `_dual_sign`), which is the
    recombination q = s * (p0(-z^2) - z p1(-z^2)) with s = (-1)^{n(n+1)/2};
    the map is an involution.  It exchanges self-interlacing of type I
    with Hurwitz stability.

    >>> dual_transform(Polynomial([1, 1, -2])).coeffs
    (Fraction(1, 1), Fraction(1, 1), Fraction(2, 1))
    """
    if p.is_zero():
        raise InvalidInputError("dual transform of the zero polynomial")
    n = p.degree
    return Polynomial([_dual_sign(j, n) * c for j, c in enumerate(p.coeffs)])


def _reflected_delta(delta: Sequence) -> Tuple:
    """Hurwitz minors of the sign-normalized reflection from those of p,
    or the signs of the one from the signs of the other.

    For p with positive leading coefficient, reflect(p) = p(-z) negates
    a_j for odd n-j; Hurwitz entry (t, c) holds j = 2c+1-t, so row t is
    scaled by (-1)^{n-1+t}.  Normalizing the leading sign (odd n) scales
    every row by -1 once more, leaving (-1)^{t+1} for any n, and
    Delta_k by (-1)^{k(k+1)/2}.
    """
    return tuple([-d if (k * (k + 1) // 2) % 2 else d
                  for k, d in enumerate(delta, start=1)])


def _dual_delta(delta: Sequence, n: int) -> Tuple:
    """Hurwitz minors of dual_transform(p) from those of p, or the signs
    of the one from the signs of the other.

    Entry (t, c) holds j = 2c+1-t and sigma_{2c+1-t} = (-1)^c sigma_{1-t},
    so row t and column t are scaled by sigma_{1-t} and (-1)^t.
    """
    out, s = [], 1
    for t, d in enumerate(delta):
        s *= (-1) ** t * _dual_sign(1 - t, n)
        out.append(s * d)
    return tuple(out)


def _dual_facts(facts: _SplitFacts) -> _SplitFacts:
    """The split facts of dual_transform(p) from those of p.

    The dual's halves are s*p0(-u) and -s*p1(-u), so its even factor is
    monic f(-u) (f's odd-index coefficients negated) and its cofactor is
    dual_transform(q): both maps keep the leading coefficient, and the
    dual keeps the degree and whether the constant term is zero.
    """
    return facts._replace(f=Polynomial(
        [-c if i % 2 else c for i, c in enumerate(facts.f.coeffs)]))


# ---------------------------------------------------------------------------
# the classifier

def _decide(n: int, const_zero: bool, signs: Sequence[int],
            facts: _SplitFacts) -> Tuple[ClassificationReport, Optional[int]]:
    """The decision tree on a degree-n (n >= 2) polynomial, given whether
    its constant term is zero, the signs of its minor chain and its split
    facts.

    Returns the report, without certificates (see `_certificates`), and
    the order k of the Frobenius count when the gate passed, else None.
    Labelled `unclassified` when no criterion matches; the reflection is
    the caller's.  Under the gate the order sequence never starts with 0:
    Delta_n = a_n Delta_{n-1} with Delta_{n-1} > 0, and when a_n = 0,
    Delta_{n-1} = a_{n-1} Delta_{n-2}, so `scf_frobenius` has its anchor.
    """
    if all(signs[i - 1] > 0 for i in range(n - 1, 0, -2)):
        top = n - 2 if const_zero else n
        k = (scf_frobenius([signs[i - 1] for i in range(top, 0, -2)] + [1])
             + (1 if const_zero else 0))
        if k == 0:
            report = ClassificationReport(LABEL_STABLE, order_k=0)
        elif const_zero and k == 1:
            # z times a stable polynomial: the whole minor chain below the
            # top is positive
            report = ClassificationReport(LABEL_QUASI, degeneracy_m=1)
        elif k == (n + 1) // 2:
            report = ClassificationReport(
                LABEL_ALMOST_SI if const_zero else LABEL_SI, order_k=k,
                si_type="I")
        else:
            report = ClassificationReport(LABEL_GH, order_k=k, si_type="I")
        return report, k

    m = _quasi_degeneracy(signs, facts)
    if m is not None:
        return ClassificationReport(LABEL_QUASI, degeneracy_m=m), None
    m = _quasi_degeneracy(_dual_delta(signs, n), _dual_facts(facts))
    if m is not None and m >= 2:
        # m = 1 cannot reach this branch (that shape passes the gate);
        # the bound keeps the label disjoint from almost-self-interlacing
        return ClassificationReport(LABEL_QUASI_SI, degeneracy_m=m,
                                    si_type="I"), None
    return ClassificationReport(LABEL_NONE), None


def _certificates(p: Polynomial, delta: Tuple[Fraction, ...],
                  const_zero: bool, facts: _SplitFacts,
                  report: ClassificationReport, k: Optional[int]) -> Dict:
    """The certificates of p's report from `_decide` (k as it returned):
    p's exact minor chain and gate, then the order sequence and k when the
    gate passed, or the quasi certificate of p, or that of its dual image
    and the image itself, for the verdict that shows one."""
    n = p.degree
    gate_idx = list(range(n - 1, 0, -2))
    cert: Dict = {"delta": list(delta), "gate_indices": gate_idx,
                  "gate_passed": k is not None}
    if k is not None:
        top = n - 2 if const_zero else n
        cert["scf_sequence"] = ([delta[i - 1] for i in range(top, 0, -2)]
                                + [Fraction(1)])
        cert["order"] = k
        cert["constant_term_zero"] = const_zero
    elif report.label == LABEL_QUASI:
        cert["quasi_certificate"] = _quasi_certificate(p, facts)
    elif report.label == LABEL_QUASI_SI:
        image = dual_transform(p)
        cert["dual_quasi_certificate"] = _quasi_certificate(
            image, _dual_facts(facts))
        cert["dual_image"] = image
    return cert


def classify(p: Union[Polynomial, Sequence]) -> ClassificationReport:
    """Classify a real polynomial by zero location, exactly.

    The zero polynomial is refused; constants are unclassified.  The
    leading coefficient is normalized positive first (recorded in the
    certificates), which never moves a zero.

    One Hurwitz minor sweep serves the whole tree: `_decide` runs on the
    signs of p's chain and on p's split facts; only if it gives no verdict
    does it run again on the reflected signs with the same facts, and a
    type I verdict there is p's type II one.  Of that second run the
    report keeps the label only (`reflected_label`), so it builds no
    certificate; the first run's exact values, cofactor and dual image
    are built only for the verdict that shows them (`_certificates`).
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.is_zero():
        raise InvalidInputError("cannot classify the zero polynomial")
    flipped = p.coeffs[0] < 0
    if flipped:
        p = -p
    n = p.degree
    cert: Dict = {"degree": n, "sign_normalized": flipped}
    if n == 0:
        cert["reason"] = "constant polynomial has no zeros"
        return ClassificationReport(LABEL_NONE, certificates=cert)
    if n == 1:
        # closed form: the single zero is -a1/a0
        a1 = p.coeff(1)
        cert["zero"] = -a1 / p.coeff(0)
        if a1 > 0:
            return ClassificationReport(LABEL_STABLE, order_k=0,
                                        certificates=cert)
        if a1 == 0:
            return ClassificationReport(LABEL_QUASI, degeneracy_m=1,
                                        certificates=cert)
        return ClassificationReport(LABEL_SI, order_k=1, si_type="I",
                                    certificates=cert)

    hm = hurwitz_minors(p)
    signs = [_sign(d.numerator) for d in hm.delta]
    facts = _split_facts(p, hm)
    const_zero = p.coeffs[-1] == 0
    report, k = _decide(n, const_zero, signs, facts)
    cert.update(_certificates(p, hm.delta, const_zero, facts, report, k))
    if report.label != LABEL_NONE:
        return replace(report, certificates=cert)

    inner, _ = _decide(n, const_zero, _reflected_delta(signs), facts)
    cert["reflected_label"] = inner.label
    if inner.si_type == "I":
        return ClassificationReport(inner.label, order_k=inner.order_k,
                                    degeneracy_m=inner.degeneracy_m,
                                    si_type="II", certificates=cert)
    if inner.label == LABEL_QUASI and inner.degeneracy_m == 1:
        # z times an anti-stable polynomial: one closed-right zero
        cert["order"] = 1
        return ClassificationReport(LABEL_GH, order_k=1, si_type="II",
                                    certificates=cert)
    cert["reason"] = "no criterion matched"
    return ClassificationReport(LABEL_NONE, certificates=cert)


# ---------------------------------------------------------------------------
# coefficient-test criteria

def lienard_chipart(p: Polynomial, variant: int = 1) -> bool:
    """Stability by one of the four reduced coefficient/minor tests.

    Coefficient chain: even positions a_n, a_{n-2}, ... (variants 1, 2) or
    a_n, a_{n-1}, a_{n-3}, ... (variants 3, 4).  Minor chain: Delta_{n-1},
    Delta_{n-3}, ... (variants 1, 3) or Delta_n, Delta_{n-2}, ...
    (variants 2, 4).  All four agree with full Hurwitz positivity.
    """
    if variant not in (1, 2, 3, 4):
        raise InvalidInputError(f"variant must be 1..4, got {variant}")
    if p.is_zero():
        raise InvalidInputError("stability of the zero polynomial")
    if p.coeffs[0] < 0:
        p = -p
    n = p.degree
    if n == 0:
        return True
    if variant in (1, 2):
        coeff_idx = list(range(n, -1, -2))
    else:
        coeff_idx = [n] + list(range(n - 1, -1, -2))
    if not all(p.coeff(i) > 0 for i in coeff_idx):
        return False
    hm = hurwitz_minors(p)
    start = n - 1 if variant in (1, 3) else n
    return all(hm.delta[i - 1] > 0 for i in range(start, 0, -2))


def generalized_lienard_chipart_order(p: Polynomial) -> Optional[int]:
    """Order k from coefficient sign changes, when the minor gate holds.

        a_n != 0:  k = v(a_n, a_{n-2}, ..., 1)
        a_n  = 0:  k = v(a_{n-2}, ..., 1) + 1

    where v counts strong sign changes (zeros skipped).  The odd chain
    a_n, a_{n-1}, a_{n-3}, ... gives the same count (the tests check it).
    Returns None if the gate fails (the count is meaningless there).
    """
    if p.is_zero():
        raise InvalidInputError("order of the zero polynomial")
    if p.coeffs[0] < 0:
        p = -p
    n = p.degree
    if n < 1:
        raise InvalidInputError("order needs degree >= 1")
    if n == 1:
        a1 = p.coeff(1)
        return 0 if a1 > 0 else 1
    hm = hurwitz_minors(p)
    if not all(hm.delta[i - 1] > 0 for i in range(n - 1, 0, -2)):
        return None
    one = [Fraction(1)]
    if p.coeff(n) != 0:
        return strong_sign_changes([p.coeff(i) for i in range(n, -1, -2)] + one)
    return strong_sign_changes([p.coeff(i) for i in range(n - 2, -1, -2)]
                               + one) + 1


def new_stability_criterion(p: Polynomial) -> bool:
    """Stability through the reflection quotient, not p's Hurwitz matrix.

    Let q(z) = (-1)^n p(-z) (coefficients b_j = (-1)^j a_j) and R = q/p.
    p is stable iff R keeps full rank after reduction and the Hankel
    minors of R alternate as (-1)^{j(j+1)/2} D_j > 0 for j = 1..n.
    """
    if p.is_zero():
        raise InvalidInputError("stability of the zero polynomial")
    if p.coeffs[0] < 0:
        p = -p
    n = p.degree
    if n == 0:
        return True
    q = Polynomial([(-1) ** j * c for j, c in enumerate(p.coeffs)])
    mn = _proper_hankel(q % p, p)
    if mn.order < n:
        # a common factor pairs a zero with its negative, or parks one on
        # the imaginary axis; either way p is not stable
        return False
    for j in range(1, n + 1):
        want_neg = (j * (j + 1) // 2) % 2
        d = mn.D[j - 1]
        if (d >= 0 if want_neg else d <= 0):
            return False
    return True


# ---------------------------------------------------------------------------
# structured families

def derivative_family(p: Polynomial) -> Tuple[Polynomial, ...]:
    """Recombinations of the j-th derivatives of the split halves.

    Members are p0^(j)(z^2) + z p1^(j)(z^2) for j = 1..n//2 - 1; they
    inherit the zero-location class of p.  Degrees below 4 give no
    members.
    """
    n = p.degree
    if n < 2:
        return ()
    split = even_odd_split(p)
    out = []
    for j in range(1, n // 2):
        q = (compose_even(split.p0.derivative(j))
             + times_z(compose_even(split.p1.derivative(j))))
        out.append(q)
    return tuple(out)


def subsample_family(p: Polynomial, r: int) -> Polynomial:
    """Keep every r-th pair of coefficients, preserving the parity shape.

    r = 1 is the identity.  For n = 2l the member is
    a_0 z^{2k} + a_{2r-1} z^{2k-1} + a_{2r} z^{2k-2} + a_{4r-1} z^{2k-3} + ...
    with k = n // r, and the odd-degree shape keeps (a_0, a_1) up front.
    """
    n = p.degree
    if n < 1:
        raise InvalidInputError("subsampling needs degree >= 1")
    if not 1 <= r <= n:
        raise InvalidInputError(f"stride must lie in 1..{n}, got {r}")
    if r == 1:
        return p
    k = n // r
    if n % 2 == 0:
        cs = [p.coeff(0)]
        for t in range(1, k + 1):
            cs.append(p.coeff(2 * r * t - 1))
            cs.append(p.coeff(2 * r * t))
    else:
        cs = [p.coeff(0), p.coeff(1)]
        for t in range(1, k + 1):
            cs.append(p.coeff(2 * r * t))
            cs.append(p.coeff(2 * r * t + 1))
    return Polynomial(cs)
