"""Floating-point cross-validation of the exact classifier.

Nothing in here feeds back into the exact path.  The oracle solves for
roots numerically (Aberth iteration with a companion-matrix fallback,
every root certified by its residual), classifies polynomials directly
from root positions with the same precedence rules as the exact tree,
and builds structured random instances whose class is known by
construction.

Roots closer than `BAND_TOL` but farther than `SNAP_TOL` from a decision
boundary are refused as indeterminate; callers regenerate instead of
guessing.
"""

from __future__ import annotations

import cmath
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polyalg import (
    InvalidInputError,
    Polynomial,
    RationalFunction,
    _check_growth,
    _product,
    compose_even,
    even_odd_split,
    reflect,
    times_z,
)
from .classify import (
    LABEL_ALMOST_SI,
    LABEL_GH,
    LABEL_NONE,
    LABEL_QUASI,
    LABEL_QUASI_SI,
    LABEL_SI,
    LABEL_STABLE,
    ClassificationReport,
    _dual_sign,
    classify,
    dual_transform,
)

__all__ = [
    "SNAP_TOL", "BAND_TOL", "RESIDUAL_TOL",
    "OracleFailureError", "IndeterminateVerdict", "UnrealizableSpecError",
    "RootSet", "StructureSpec", "RFunctionInstance",
    "NumericPartialFraction",
    "numeric_roots", "classify_by_roots", "generate_instance",
    "generate_r_function", "strange_experiment", "numeric_partial_fractions",
]

log = logging.getLogger(__name__)

SNAP_TOL = 1e-8        # distance treated as exactly on a boundary
BAND_TOL = 1e-4        # distances in (SNAP_TOL, BAND_TOL) are refused
RESIDUAL_TOL = 1e-10   # relative residual each root must certify


class OracleFailureError(RuntimeError):
    """Root finding did not certify; the numeric route abstains."""


class IndeterminateVerdict(Exception):
    """A root sits too close to a classification boundary to call."""


class UnrealizableSpecError(InvalidInputError):
    """The requested instance shape does not exist."""


# ---------------------------------------------------------------------------
# root finding

@dataclass(frozen=True)
class RootSet:
    roots: Tuple[complex, ...]
    residuals: Tuple[float, ...]
    method: str

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)


def _eval_with_derivative(coeffs: Sequence[float], z: complex):
    p = 0j
    d = 0j
    for c in coeffs:
        d = d * z + p
        p = p * z + c
    return p, d


def _relative_residual(coeffs: Sequence[float], z: complex) -> float:
    p, _ = _eval_with_derivative(coeffs, z)
    norm = max(abs(c) for c in coeffs)
    return abs(p) / (norm * max(1.0, abs(z)) ** (len(coeffs) - 1))


def _aberth(coeffs: List[float], max_iter: int = 400) -> Optional[List[complex]]:
    n = len(coeffs) - 1
    radius = 1.0 + max(abs(c) for c in coeffs[1:]) if n > 0 else 1.0
    roots = [radius * cmath.exp(2j * math.pi * (i + 0.25) / n + 0.35j)
             for i in range(n)]
    for _ in range(max_iter):
        moved = 0.0
        new_roots = []
        for i, z in enumerate(roots):
            p, d = _eval_with_derivative(coeffs, z)
            if p == 0:
                new_roots.append(z)
                continue
            if d == 0:
                new_roots.append(z + 1e-6 * (1 + abs(z)))
                moved = math.inf
                continue
            ratio = p / d
            repulse = sum(1.0 / (z - roots[j])
                          for j in range(n) if j != i and z != roots[j])
            denom = 1.0 - ratio * repulse
            step = ratio / denom if denom != 0 else ratio
            moved = max(moved, abs(step) / max(1.0, abs(z)))
            new_roots.append(z - step)
        roots = new_roots
        if moved < 1e-14:
            return roots
    # linear-rate convergence near multiple roots can exhaust the budget
    # while already being accurate enough; let the residual check decide
    return roots


def numeric_roots(p: Polynomial) -> RootSet:
    """All complex roots, each certified by its relative residual.

    Primary solver is an Aberth iteration started on a perturbed circle;
    if any root fails the residual bound the companion-matrix eigenvalues
    take over.  Failing both ways raises rather than returning junk.
    """
    deg = p.degree
    if deg < 1:
        raise InvalidInputError("root finding needs degree >= 1")
    coeffs = [float(c / p.coeffs[0]) for c in p.coeffs]

    def certify(roots, method):
        res = [_relative_residual(coeffs, z) for z in roots]
        if all(r < RESIDUAL_TOL for r in res):
            return RootSet(tuple(roots), tuple(res), method)
        return None

    roots = _aberth(coeffs)
    if roots is not None:
        out = certify(roots, "aberth")
        if out is not None:
            return out
    eig = [complex(z) for z in np.roots(coeffs)]
    out = certify(eig, "companion")
    if out is not None:
        return out
    log.warning("root certification failed for %s", p)
    raise OracleFailureError(f"could not certify roots of {p!r}")


# ---------------------------------------------------------------------------
# classification from root positions

def _snap_roots(roots, tol: float, band: float,
                im_matters: bool = True) -> List[complex]:
    snapped = []
    for z in roots:
        scale = max(1.0, abs(z))
        re, im = z.real, z.imag
        if tol < abs(re) / scale < band:
            raise IndeterminateVerdict(f"{z} is marginally off the imaginary axis")
        if im_matters and tol < abs(im) / scale < band:
            raise IndeterminateVerdict(f"{z} is marginally off the real axis")
        re = 0.0 if abs(re) / scale <= tol else re
        im = 0.0 if abs(im) / scale <= tol else im
        snapped.append(complex(re, im))
    return snapped


def _separated(a: float, b: float, tol: float, band: float) -> bool:
    """True if clearly apart, False if effectively equal."""
    gap = abs(a - b) / max(1.0, abs(a), abs(b))
    if tol < gap < band:
        raise IndeterminateVerdict(f"values {a} and {b} are marginally split")
    return gap > tol


def _axis_profile(snapped) -> Optional[int]:
    """Number of imaginary-axis roots if all roots lie in re <= 0."""
    m = 0
    for z in snapped:
        if z.real > 0:
            return None
        if z.real == 0:
            m += 1
    return m


def _si_pattern(reals: Sequence[float], tol: float, band: float) -> Optional[str]:
    """'I' or 'II' if the values strictly alternate in sign with growing
    moduli; None otherwise.  Zero entries disqualify."""
    if any(abs(v) <= tol for v in reals):
        return None
    ordered = sorted(reals, key=abs)
    for a, b in zip(ordered, ordered[1:]):
        if not _separated(abs(a), abs(b), tol, band):
            return None
        if (a > 0) == (b > 0):
            return None
    return "I" if ordered[0] > 0 else "II"


def _gh_profile(snapped, tol: float, band: float) -> Optional[int]:
    """Order k if the roots fit the interlacing right-left layout.

    Closed right-half-plane roots must be real, simple and nonnegative;
    between consecutive ones (negated) sits an odd number of negative
    roots, left of the origin block an even number, and the far tail has
    the parity of the degree.  Nonreal roots must sit strictly left.
    """
    n = len(snapped)
    origin = [z for z in snapped if z.real == 0 and z.imag == 0]
    if any(z.real == 0 and z.imag != 0 for z in snapped):
        return None
    if len(origin) > 1:
        return None
    if any(z.real > 0 and z.imag != 0 for z in snapped):
        return None
    mus = sorted(z.real for z in snapped if z.real > 0 and z.imag == 0)
    for a, b in zip(mus, mus[1:]):
        if not _separated(a, b, tol, band):
            return None
    k = len(mus) + len(origin)
    if k == 0 or k > (n + 1) // 2:
        return None
    negs = sorted(z.real for z in snapped if z.real < 0 and z.imag == 0)
    for mu in mus:
        for v in negs:
            gap = abs(v + mu) / max(1.0, mu)
            if gap < tol:
                return None          # a zero at -mu is disqualifying
            if gap < band:
                raise IndeterminateVerdict(
                    f"negative root {v} hugs the boundary -{mu}")
    # pockets delimited by the negated closed-right zeros:
    # (-mu_1, 0), (-mu_2, -mu_1), ..., then the tail beyond -mu_k
    edges = [0.0] + mus
    pockets = [0] * len(edges)
    for v in negs:
        slot = len(edges) - 1
        for i in range(len(edges) - 1):
            if -edges[i + 1] < v < -edges[i]:
                slot = i
                break
        pockets[slot] += 1
    # with a zero at the origin the innermost pocket behaves like the
    # other gaps between consecutive closed-right zeros (odd); without
    # one it must hold an even number.  the tail count has the parity
    # opposite to the degree.
    if origin:
        middle = pockets[:-1]
    else:
        if pockets[0] % 2 != 0:
            return None
        middle = pockets[1:-1]
    if any(c % 2 == 0 for c in middle):
        return None
    tail_parity = 1 if n % 2 == 0 else 0
    if pockets[-1] % 2 != tail_parity:
        return None
    return k


def _coeff_vector(snapped) -> List[float]:
    cs = np.poly(np.array(snapped, dtype=complex))
    worst = max(abs(c.imag) for c in cs)
    if worst > 1e-6 * max(abs(c) for c in cs):
        raise IndeterminateVerdict("reconstructed coefficients are not real")
    return [c.real for c in cs]


def _quasi_si_profile(snapped, tol: float, band: float) -> Optional[int]:
    """Degeneracy m if the sign-twisted recombination is quasi-stable.

    The round trip roots -> coefficients -> sign map -> roots loses
    about half the working precision, so the snap here is wider than
    the caller's; only real parts matter for the half-plane verdict.
    """
    n = len(snapped)
    coeffs = _coeff_vector(snapped)
    mapped = [_dual_sign(j, n) * c for j, c in enumerate(coeffs)]
    try:
        image_roots = [complex(z) for z in np.roots(mapped)]
    except Exception:
        return None
    if len(image_roots) != n:
        return None       # leading coefficient collapsed; not this shape
    wide = max(tol, 1e-6)
    m = _axis_profile(_snap_roots(image_roots, wide, band, im_matters=False))
    if m is not None and m >= 2:
        return m
    return None


def classify_by_roots(roots, tol: float = SNAP_TOL,
                      band: float = BAND_TOL) -> ClassificationReport:
    """Classify from root positions alone, mirroring the exact precedence.

    Raises IndeterminateVerdict when any decision sits inside the
    ambiguity band; the caller is expected to resample, not to guess.
    """
    rs = list(roots)
    n = len(rs)
    if n == 0:
        raise InvalidInputError("no roots supplied")
    snapped = _snap_roots(rs, tol, band)
    cert = {"roots": [[z.real, z.imag] for z in snapped], "method": "roots"}

    m = _axis_profile(snapped)
    if m is not None:
        if m == 0:
            return ClassificationReport(LABEL_STABLE, order_k=0,
                                        certificates=cert)
        return ClassificationReport(LABEL_QUASI, degeneracy_m=m,
                                    certificates=cert)

    kmax = (n + 1) // 2
    if all(z.imag == 0 for z in snapped):
        pattern = _si_pattern([z.real for z in snapped], tol, band)
        if pattern is not None:
            return ClassificationReport(LABEL_SI, order_k=kmax,
                                        si_type=pattern, certificates=cert)
        origin = [z for z in snapped if z.real == 0]
        rest = [z.real for z in snapped if z.real != 0]
        if n >= 3 and len(origin) == 1:
            pattern = _si_pattern(rest, tol, band)
            if pattern == "II":
                return ClassificationReport(LABEL_ALMOST_SI, order_k=kmax,
                                            si_type="I", certificates=cert)
            if pattern == "I":
                return ClassificationReport(LABEL_ALMOST_SI, order_k=kmax,
                                            si_type="II", certificates=cert)

    k = _gh_profile(snapped, tol, band)
    if k is not None:
        return ClassificationReport(LABEL_GH, order_k=k, si_type="I",
                                    certificates=cert)
    m = _quasi_si_profile(snapped, tol, band)
    if m is not None:
        return ClassificationReport(LABEL_QUASI_SI, degeneracy_m=m,
                                    si_type="I", certificates=cert)

    negated = [-z for z in snapped]
    m = _axis_profile(negated)
    if m is not None:
        if m == 1:
            # z times an anti-stable block: one closed-right zero, mirrored
            return ClassificationReport(LABEL_GH, order_k=1, si_type="II",
                                        certificates=cert)
        return ClassificationReport(LABEL_NONE, certificates=cert)
    k = _gh_profile(negated, tol, band)
    if k is not None:
        return ClassificationReport(LABEL_GH, order_k=k, si_type="II",
                                    certificates=cert)
    m = _quasi_si_profile(negated, tol, band)
    if m is not None:
        return ClassificationReport(LABEL_QUASI_SI, degeneracy_m=m,
                                    si_type="II", certificates=cert)
    return ClassificationReport(LABEL_NONE, certificates=cert)


# ---------------------------------------------------------------------------
# structured instance generation

@dataclass(frozen=True)
class StructureSpec:
    """What to build: a class label plus the knobs that pin it down.

    `magnitudes` (self-interlacing) and `real_roots` (explicit product)
    override the randomized choices, making instances reproducible
    independently of the seed.
    """
    label: str
    degree: int
    si_type: str = "I"
    order_k: Optional[int] = None
    degeneracy_m: Optional[int] = None
    magnitudes: Optional[Sequence] = None
    real_roots: Optional[Sequence] = None


def _linear(root) -> Polynomial:
    return Polynomial([1, -Fraction(root)])


def _conj_quad(re: Fraction, im: Fraction) -> Polynomial:
    return Polynomial([1, -2 * re, re * re + im * im])


def _grid(rng: random.Random, count: int, lo: int, hi: int) -> List[Fraction]:
    """Distinct eighth-grid values in [lo/8, hi/8]; separation >= 1/8."""
    ticks = rng.sample(range(lo, hi + 1), count)
    return [Fraction(t, 8) for t in sorted(ticks)]


def _gen_stable(n: int, rng: random.Random) -> Polynomial:
    # simple roots only: repeated roots blur under floating point by
    # about the square root of machine precision, which would trip the
    # oracle's refusal band.  Multiplicities are exercised through the
    # explicit real_roots override instead.
    pairs = rng.randint(0, n // 2)
    n_real = n - 2 * pairs
    factors = []
    if n_real:
        mags = _grid(rng, n_real, 1, 6 * n + 8)
        factors += [_linear(-m) for m in mags]
    for _ in range(pairs):
        re = -Fraction(rng.randint(1, 3 * n + 4), 8)
        im = Fraction(rng.randint(1, 3 * n + 4), 8)
        factors.append(_conj_quad(re, im))
    return _product(factors)


def _gen_quasi(n: int, m: int, rng: random.Random) -> Polynomial:
    if not 1 <= m <= n:
        raise UnrealizableSpecError(f"degeneracy {m} out of range for degree {n}")
    factors = []
    remaining = m
    if m % 2 == 1:
        factors.append(Polynomial([1, 0]))
        remaining -= 1
    n_pairs = remaining // 2
    if n_pairs:
        for omega in _grid(rng, n_pairs, 1, 4 * n + 4):
            factors.append(Polynomial([1, 0, omega * omega]))
    rest = n - m
    if rest:
        factors.append(_gen_stable(rest, rng))
    return _product(factors)


def _gen_si(n: int, si_type: str, rng: random.Random,
            magnitudes: Optional[Sequence]) -> Polynomial:
    if magnitudes is not None:
        mags = [Fraction(v) for v in magnitudes]
        if len(mags) != n or any(b <= a for a, b in zip(mags, mags[1:])) \
                or mags[0] <= 0:
            raise UnrealizableSpecError("magnitudes must be positive and increasing")
    else:
        mags = _grid(rng, n, 1, 6 * n + 8)
    start = 1 if si_type == "I" else -1
    roots = [start * ((-1) ** i) * mags[i] for i in range(n)]
    return _product([_linear(r) for r in roots])


def _gen_gh(n: int, k: int, rng: random.Random) -> Polynomial:
    kmax = (n + 1) // 2
    if k is None or not 1 <= k <= kmax:
        raise UnrealizableSpecError(
            f"order must lie in 1..{kmax} for degree {n}")
    if k == kmax:
        raise UnrealizableSpecError(
            "maximal order forces the self-interlacing shape; ask for that label")
    mus = [Fraction(i, 4) for i in range(1, k + 1)]
    roots = list(mus)
    roots += [-(mus[i] + mus[i + 1]) / 2 for i in range(k - 1)]
    cursor = mus[-1] + Fraction(1, 4)
    if n % 2 == 0:
        roots.append(-cursor)
    rest = n - len(roots)       # n - 2k + 1 or n - 2k: even either way
    quads = []
    for _ in range(rest // 2):
        if rng.random() < 0.5:
            re = -Fraction(rng.randint(1, 2 * n + 4), 8)
            im = Fraction(rng.randint(1, 2 * n + 4), 8)
            quads.append(_conj_quad(re, im))
        else:
            a, b = cursor + Fraction(1, 4), cursor + Fraction(1, 2)
            roots += [-a, -b]
            cursor = b
    return _product([_linear(r) for r in roots] + quads)


def generate_instance(spec: StructureSpec, seed: int) -> Polynomial:
    """Build an exact polynomial whose class is known by construction.

    Root positions live on the 1/8 grid with at least 1/8 separation
    between anything two decisions could confuse, so the numeric side
    never lands in its ambiguity band on these instances.
    """
    rng = random.Random(seed)
    n = spec.degree
    if n < 1:
        raise UnrealizableSpecError("degree must be at least 1")
    if spec.real_roots is not None:
        return _product([_linear(Fraction(r)) for r in spec.real_roots])
    label = spec.label
    if label == LABEL_STABLE:
        return _gen_stable(n, rng)
    if label == LABEL_QUASI:
        m = spec.degeneracy_m if spec.degeneracy_m is not None \
            else rng.randint(1, max(1, min(n, 3)))
        return _gen_quasi(n, m, rng)
    if label == LABEL_SI:
        return _gen_si(n, spec.si_type, rng, spec.magnitudes)
    if label == LABEL_ALMOST_SI:
        if n < 3:
            raise UnrealizableSpecError(
                "degree below 3 collapses to quasi-stable with m = 1")
        other = "II" if spec.si_type == "I" else "I"
        return times_z(_gen_si(n - 1, other, rng, None))
    if label == LABEL_QUASI_SI:
        m = spec.degeneracy_m if spec.degeneracy_m is not None else 2
        if m < 2:
            raise UnrealizableSpecError("quasi-self-interlacing needs m >= 2")
        base = dual_transform(_gen_quasi(n, m, rng))
        if spec.si_type == "II":
            base = reflect(base)
        return base if base.coeffs[0] > 0 else -base
    if label == LABEL_GH:
        base = _gen_gh(n, spec.order_k, rng)
        if spec.si_type == "II":
            base = reflect(base)
        return base if base.coeffs[0] > 0 else -base
    raise UnrealizableSpecError(f"no generator for label {label!r}")


@dataclass(frozen=True)
class RFunctionInstance:
    """A generated upper-to-lower half-plane map with its ground truth."""
    function: RationalFunction
    poles: Tuple[Fraction, ...]
    residues: Tuple[Fraction, ...]
    alpha: Fraction
    beta: Fraction

    @property
    def negative_pole_count(self) -> int:
        return sum(1 for w in self.poles if w < 0)

    @property
    def positive_pole_count(self) -> int:
        return sum(1 for w in self.poles if w > 0)

    @property
    def pole_at_zero(self) -> bool:
        return any(w == 0 for w in self.poles)


def generate_r_function(seed: int) -> RFunctionInstance:
    """Random -alpha*u + beta + sum gamma_j/(u - w_j), gamma_j > 0.

    Distinct rational poles on the quarter grid, occasionally one at the
    origin; the sum maps the upper half plane into the lower one by
    construction, whatever the pole signs.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 4)
    ticks = rng.sample(range(-8, 9), count)
    if rng.random() < 0.7 and 0 in ticks:
        ticks = [t for t in ticks if t != 0] or [rng.choice([-3, 5])]
    poles = tuple(sorted(Fraction(t, 4) for t in ticks))
    residues = tuple(Fraction(rng.randint(1, 6), 2) for _ in poles)
    alpha = Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(1, 4), 4)
    beta = Fraction(rng.randint(-4, 4), 4)
    den = _product([_linear(w) for w in poles])
    num = Polynomial([-alpha, beta]) * den
    for gamma, w in zip(residues, poles):
        num = num + gamma * _product([_linear(v) for v in poles if v != w])
    return RFunctionInstance(RationalFunction(num, den), poles, residues,
                             alpha, beta)


# ---------------------------------------------------------------------------
# experiments on transformed polynomials

def strange_experiment(p: Polynomial) -> dict:
    """Root statistics of the two half-twisted recombinations of a stable p.

    With p = p0(z^2) + z p1(z^2) the images are q1 = p0(-z^2) + z p1(z^2)
    and q2 = p0(z^2) + z p1(-z^2).  Their half-plane counts follow from
    the argument of q(iw) along the real line, since the coefficients of
    a stable p share one sign (take them positive, a_n the constant term):

    - Re q1(iw) = p0(w^2) >= a_n > 0, so arg q1(iw) stays inside
      (-pi/2, pi/2) and its total change is set by the leading term
      alone: 0 for n even, +pi for n = 1 mod 4, -pi for n = 3 mod 4.
    - Im q2(iw) = w p1(w^2) has the sign of w and q2(0) = a_n > 0, so
      arg q2(iw) runs from 0 at w = 0 to 0, pi or pi/2 as w -> +oo for
      n = 0 mod 4, n = 2 mod 4 and n odd; conjugate symmetry doubles it.

    Neither image vanishes on the axis, so the argument principle
    (total change = pi * (left - right)) gives the zeros strictly right:

        n mod 4     0       1        2        3
        q1         n/2   (n-1)/2    n/2    (n+1)/2
        q2         n/2   (n-1)/2   n/2-1   (n-1)/2

    and all the others strictly left.  `counts_match` compares each
    image's numeric counts with this law.  `moduli_interlace` is True
    when ceil(n/2) zeros lie right, floor(n/2) left and the sorted moduli
    alternate starting on the right; it is reported as measured, not
    claimed.
    """
    report_label = classify(p).label
    if report_label != LABEL_STABLE:
        raise InvalidInputError(
            f"experiment needs a stable polynomial, got {report_label}")
    n = p.degree
    split = even_odd_split(p)
    images = [
        compose_even(split.p0, -1) + times_z(compose_even(split.p1, 1)),
        compose_even(split.p0, 1) + times_z(compose_even(split.p1, -1)),
    ]
    # zeros strictly right of the axis, per image, by the law above
    expected_right = (n // 2 + (n % 4 == 3), n // 2 - (n % 4 == 2))
    out = {"degree": n, "images": []}
    for q, want_right in zip(images, expected_right):
        roots = numeric_roots(q)
        right = sorted(abs(z) for z in roots
                       if z.real > SNAP_TOL * max(1.0, abs(z)))
        left = sorted(abs(z) for z in roots
                      if z.real < -SNAP_TOL * max(1.0, abs(z)))
        axis = len(roots) - len(right) - len(left)
        merged = []
        ok_interlace = len(right) == (n + 1) // 2 and len(left) == n // 2
        if ok_interlace:
            for i, mu in enumerate(left):
                merged.append((right[i], mu))
            ok_interlace = all(a < b for a, b in merged) and all(
                left[i] < right[i + 1] for i in range(len(left))
                if i + 1 < len(right))
        out["images"].append({
            "coeffs": [str(c) for c in q.coeffs],
            "roots": [[z.real, z.imag] for z in roots],
            "right_count": len(right),
            "left_count": len(left),
            "axis_count": axis,
            "counts_match": (len(right), len(left))
            == (want_right, n - want_right),
            "no_axis_roots": axis == 0,
            "moduli_interlace": bool(ok_interlace),
        })
    return out


# ---------------------------------------------------------------------------
# numeric partial fractions

@dataclass(frozen=True)
class NumericPartialFraction:
    alpha: float
    beta: float
    poles: Tuple[float, ...]
    residues: Tuple[float, ...]


def numeric_partial_fractions(R: RationalFunction) -> NumericPartialFraction:
    """Pole/residue data of a rational function with simple real poles.

    Refuses nonreal or clustered poles (consistent with the function not
    being a real sum of simple fractions).  Residues come from the
    num/den' evaluation at each pole.
    """
    red = R.reduced()
    if red.den.degree == 0:
        raise InvalidInputError("no poles to decompose")
    _check_growth(red.num.degree, red.den.degree)
    q = red.num // red.den
    alpha, beta = -float(q.power_coeff(1)), float(q.power_coeff(0))
    roots = numeric_roots(red.den)
    poles = []
    for z in roots:
        if abs(z.imag) > SNAP_TOL * max(1.0, abs(z)):
            raise InvalidInputError(f"nonreal pole {z}; not a simple real sum")
        poles.append(z.real)
    poles.sort()
    for a, b in zip(poles, poles[1:]):
        if abs(a - b) <= SNAP_TOL * max(1.0, abs(a), abs(b)):
            raise InvalidInputError(f"poles {a} and {b} are not simple")
    num_f = [float(c) for c in red.num.coeffs]
    dprime = red.den.derivative()
    den_f = [float(c) for c in dprime.coeffs]
    residues = []
    for w in poles:
        pv, _ = _eval_with_derivative(num_f, complex(w))
        dv, _ = _eval_with_derivative(den_f, complex(w))
        if dv == 0:
            raise InvalidInputError(f"derivative vanishes at pole {w}")
        residues.append((pv / dv).real)
    return NumericPartialFraction(alpha, beta, tuple(poles), tuple(residues))
