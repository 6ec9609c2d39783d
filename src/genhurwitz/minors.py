"""Determinant machinery for the stability criteria.

Exact determinants (fraction-free Bareiss over the integers, the one
general elimination here), the Hankel minor families D_j and Dhat_j of a
series at infinity (one determinant each), Hurwitz minors of a
polynomial (a fraction-free Routh array, and past a stall in it the signed
subresultants of its halves) with the Hankel minors and the interleaved
minors of a pair read off them, Frobenius-rule sign change
counting, and the table of all minors of a matrix (integer Laplace
expansion, order by order) that the total nonnegativity and sign
definiteness scans read.

No floats here either; every sign that leaves this module is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import List, Optional, Sequence, Tuple

from .polyalg import (
    EvenOddSplit,
    InvalidInputError,
    LaurentSeries,
    Polynomial,
    _clear_denominators,
    _rat,
    recompose_split,
)

__all__ = [
    "SeriesLengthError", "InvalidSequenceError", "InvalidPairError",
    "HankelMinors", "HurwitzMinors", "NablaMinors", "TNNScan",
    "exact_det", "hankel_minors", "hurwitz_minors", "nabla_minors",
    "scf_frobenius", "strong_sign_changes", "total_nonnegativity_scan",
    "hankel_character_test",
]

SCAN_CAP = 8     # largest dimension the exhaustive minor scans take


class SeriesLengthError(InvalidInputError):
    """Not enough series coefficients for the requested minor order."""


class InvalidSequenceError(InvalidInputError):
    """A sign-change count was asked of a sequence it is not defined for."""


class InvalidPairError(InvalidInputError):
    """Pair minors need deg q <= deg p."""


# ---------------------------------------------------------------------------
# exact determinants

def _int_bareiss(m: List[List[int]]) -> int:
    """Determinant of an integer matrix, fraction-free, with row pivoting."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - f * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * m[-1][-1]


def _integerize(rows: Sequence[Sequence[Fraction]]):
    """Clear denominators row by row; returns (int matrix, row multipliers).

    The multipliers are positive, so minor signs are unchanged and the
    original values come back by dividing the product out.
    """
    m, mults = [], []
    for row in rows:
        ints, mult = _clear_denominators(row)
        m.append(ints)
        mults.append(mult)
    return m, mults


def exact_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of Fractions.

    The empty matrix has determinant 1 (the convention every minor chain
    below relies on for its 0th entry).
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InvalidInputError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    m, mults = _integerize(rows)
    return Fraction(_int_bareiss(m), prod(mults))


# ---------------------------------------------------------------------------
# Hankel minors of a series at infinity

@dataclass(frozen=True)
class HankelMinors:
    """D_j = det[s_{i+k}] and Dhat_j = det[s_{i+k+1}], i,k < j; D_0 = 1."""
    D: Tuple[Fraction, ...]
    Dhat: Tuple[Fraction, ...]
    order: int

    def d(self, j: int) -> Fraction:
        return Fraction(1) if j == 0 else self.D[j - 1]

    def dhat(self, j: int) -> Fraction:
        return Fraction(1) if j == 0 else self.Dhat[j - 1]


def hankel_minors(series: LaurentSeries, order: int) -> HankelMinors:
    """Both Hankel minor families through index `order`.

    D_order consumes s_0..s_{2*order-2} and Dhat_order consumes
    s_1..s_{2*order-1}, so the series must carry 2*order terms.  Each
    D_j and Dhat_j is one `exact_det` of the j-block of [s_{i+k}] and of
    [s_{i+k+1}].  The reference series route: no verdict path calls it,
    they read the minors off a Hurwitz chain (`_hankel_from_hurwitz`).
    """
    if order < 0:
        raise InvalidInputError("negative Hankel order")
    if len(series.s) < 2 * order:
        raise SeriesLengthError(
            f"need {2 * order} series terms for order {order}, "
            f"have {len(series.s)}")
    s = series.s
    D, Dhat = (tuple(exact_det([s[i + shift:i + shift + j] for i in range(j)])
                     for j in range(1, order + 1)) for shift in (0, 1))
    return HankelMinors(D, Dhat, order)


def hankel_character_test(minors: HankelMinors, mode: str) -> bool:
    """Sign pattern of the two minor families up to the given order.

    mode 'strict-tp':     D_j > 0 and Dhat_j > 0 for all j
    mode 'sign-regular':  D_j > 0 and (-1)^j Dhat_j > 0 for all j
    """
    if mode == "strict-tp":
        return (all(d > 0 for d in minors.D)
                and all(dh > 0 for dh in minors.Dhat))
    if mode == "sign-regular":
        return (all(d > 0 for d in minors.D)
                and all((dh if j % 2 == 0 else -dh) > 0
                        for j, dh in enumerate(minors.Dhat, start=1)))
    raise InvalidInputError(f"unknown character mode {mode!r}")


# ---------------------------------------------------------------------------
# Hurwitz minors

def _routh(coeffs: Sequence[Fraction]):
    """Fraction-free Routh array of a polynomial's coefficients a_0..a_n.

    With L the lcm of the denominators, the rows start at
    F_0 = L (a_0, a_2, ...) and F_1 = L (a_1, a_3, ...) and continue by

        F_{k+1}[j] = (F_k[0] F_{k-1}[j+1] - F_{k-1}[0] F_k[j+1]) / F_{k-2}[0]

    (divisor 1 for F_2 and F_3; a missing F_k[j+1] is 0).  While
    F_1[0]..F_k[0] are nonzero, F_{k+1}[j] is a Hurwitz minor of the
    scaled polynomial, so every division is exact and F_k[0] = L^k Delta_k.
    Row k holds the coefficients of the k-th remainder of the Euclid on the
    halves, of degree n - k in z.

    Returns (delta, aux, stalled): the minors Delta_1, Delta_2, ... read
    off the first entries up to the first whole zero row or stall; the
    integer row above the first whole zero row, or None; and whether a
    zero first entry in a nonzero row stopped the array.
    """
    a, scale = _clear_denominators(coeffs)
    above, row = a[0::2], a[1::2]
    leads: List[int] = []
    delta: List[Fraction] = []
    power = 1
    for k in range(1, len(a)):
        if not any(row):
            return delta, above, False
        lead = row[0]
        if lead == 0:
            return delta, None, True
        leads.append(lead)
        power *= scale
        delta.append(Fraction(lead, power))
        div = leads[k - 3] if k >= 3 else 1
        top = above[0]
        padded = row + [0]
        above, row = row, [(lead * above[j + 1] - top * padded[j + 1]) // div
                           for j in range(len(above) - 1)]
    return delta, None, False


def _signed_subresultants(P: List[int], Q: List[int]):
    """Signed subresultant coefficients of two integer polynomials.

    P (degree p, P[0] != 0) and Q (p entries, not all 0) are leading-first
    lists.  Returns s[i] = lc(P)^(p-1-deg Q) sRes_i(P, Q) for i = 0..p and
    the last nonzero signed subresultant, a multiple of gcd(P, Q), by
    Algorithm 8.21 of Basu, Pollack and Roy, *Algorithms in Real Algebraic
    Geometry*: its step -Rem(t_{j-1} s_k S_{i-1}, S_{j-1}) / (s_j t_{i-1})
    is the pseudo-remainder of S_{i-1} by S_{j-1} times -s_k, divided
    exactly by t_{j-1}^(j-k) s_j t_{i-1}.
    """
    p = len(P) - 1
    z = next(v for v, x in enumerate(Q) if x)
    s, t = [0] * (p + 1), [0] * (p + 1)
    s[p] = t[p] = 1
    prev, cur, i, j = P, Q[z:], p + 1, p
    while cur:
        last, k, t[j - 1] = cur, len(cur) - 1, cur[0]
        for d in range(1, j - k):
            t[j - d - 1] = (-1) ** d * t[j - 1] * t[j - d] // s[j]
        s[k] = t[k]
        if k == 0:
            break
        r, tail = prev, cur[1:] + [0] * (j - k)
        for _ in range(j - k + 1):
            c = r[0]
            r = [cur[0] * x - c * y for x, y in zip(r[1:], tail)]
        div = t[j - 1] ** (j - k) * s[j] * t[i - 1]
        r = [-x * s[k] // div for x in r]
        prev, cur, i, j = cur, r[next((v for v, x in enumerate(r) if x),
                                      k):], j, k
    return [x * P[0] ** z for x in s], last


@dataclass(frozen=True)
class HurwitzMinors:
    """delta = (Delta_1..Delta_n) and a0 = a_0, the leading coefficient.

    `halves_gcd` is the monic gcd(p0, p1) of the split halves, set on
    every input (see `hurwitz_minors`).
    """
    delta: Tuple[Fraction, ...]
    a0: Fraction
    n: int
    halves_gcd: Polynomial

    @property
    def eta(self) -> Tuple[Fraction, ...]:
        """(eta_1..eta_{n+1}), the leading minors of the infinite layout:
        its (n+1)-square block is the finite matrix bordered by a first
        column (a_0, 0, ..., 0), so eta_j = a_0 Delta_{j-1}, Delta_0 = 1."""
        return (self.a0,) + tuple(self.a0 * d for d in self.delta)

    def d(self, j: int) -> Fraction:
        """Delta_j for -1 <= j <= n, with Delta_0 = 1 and
        Delta_{-1} = 1/a_0; any other j raises IndexError."""
        if not -1 <= j <= self.n:
            raise IndexError(f"Delta_{j} is defined for -1..{self.n}")
        if j == -1:
            return 1 / self.a0
        if j == 0:
            return Fraction(1)
        return self.delta[j - 1]


def hurwitz_minors(p: Polynomial) -> HurwitzMinors:
    """Leading principal minors of both Hurwitz layouts, from one Routh array.

    Delta_k is the first entry of row k of the fraction-free Routh array
    (see `_routh`), divided by L^k.  Two rows end the array early:

    - A whole zero row F_{k+1}: then row k is the last remainder, the
      gcd z^e f(z^2) of the halves as polynomials in z, where
      f = gcd(p0, p1) and e = 1 exactly when q = p / f(z^2) vanishes at 0.
      Its entries are f's coefficients, so `halves_gcd` is f made monic
      (and 1 when the array completes).  The rest of the chain is 0:
      deg q = k + e, H(p) = H(q) U_f with U_f the upper triangular
      Toeplitz matrix of f, so Delta_j(p) = lc(f)^j Delta_j(q), and the
      last column of H(q)'s j-block holds a_j(q)..a_{2j-1}(q), all 0 for
      j > deg q; Delta_{k+1} = F_{k+1}[0] = 0 covers e = 1.
    - A zero first entry F_k[0] in a nonzero row (an entry stall, only
      for n >= 3): past it the rows are no longer Hurwitz minors (the
      Fraction form of the step divides by that entry), so the whole chain
      comes from signed subresultants of the halves.  On the integer
      coefficients L a_i, padded by a zero constant term for odd n (H_n(p)
      leads H_{n+1}(z p)), n = 2m, A = (a_0, a_2, ..., a_n) and B = (a_1,
      a_3, ..., a_{n-1}) in u = z^2, and a_0 R = a_0 u B - a_1 A (its u^m
      term cancels), for j = 1..m:

          Delta_{2j-1} = a_0^(m-1-deg B) sRes_{m-j}(A, B),
          Delta_{2j}   = (-1)^j a_0^(m-deg R) sRes_{m-j}(A, R),

      truncated to n (`_signed_subresultants`, which takes a_0 R:
      sRes_i(A, a_0 R) = a_0^(m-i) sRes_i(A, R)).  `halves_gcd` is the last
      nonzero subresultant of (A, B) = (p0, p1) for even n, and for odd n
      that of (A, R) = (u p1, u (p0 - (a_1/a_0) p1)) over u.  B and R are
      nonzero: a zero one is a whole zero row, F_1 or -a_0 R = F_2.

    eta is read off delta on request (`HurwitzMinors.eta`).
    """
    if p.is_zero():
        raise InvalidInputError("Hurwitz minors of the zero polynomial")
    n = p.degree
    found, aux, stalled = _routh(p.coeffs)
    if stalled:
        a, scale = _clear_denominators(p.coeffs)
        a += [0] * (n % 2)
        sB, gB = _signed_subresultants(a[0::2], a[1::2])
        sR, gR = _signed_subresultants(a[0::2], [
            a[0] * b - a[1] * x for b, x in zip(a[3::2] + [0], a[2::2])])
        m, lead = len(sB) - 1, Fraction(a[0])
        chain = [x for j in range(1, m + 1)
                 for x in (sB[m - j], (-1) ** j * sR[m - j] / lead ** (j - 1))]
        delta = tuple(Fraction(x) / scale ** k
                      for k, x in enumerate(chain[:n], 1))
        halves_gcd = Polynomial(gR[:-1] if n % 2 else gB).monic()
    else:
        delta = tuple(found) + (Fraction(0),) * (n - len(found))
        halves_gcd = (Polynomial([1]) if aux is None
                      else Polynomial(aux).monic())
    return HurwitzMinors(delta, p.coeffs[0], n, halves_gcd)


def _hankel_from_hurwitz(hm: HurwitzMinors, e: int, c: Fraction,
                         order: int) -> HankelMinors:
    """Hankel minors of p1/p0 through `order`, off p's Hurwitz chain: with
    e = n - 1 - 2 deg p0 (-1, 0 or 2) and c = lc(p0), D_j = h_{2j} and
    Dhat_j = (-1)^j h_{2j+1} for h_k = Delta_{e+k} / (Delta_e c^k), by the
    Hurwitz-Hankel relations (Delta_{-1} = 1/a_0, Delta_0 = 1)."""
    h = [hm.d(e + k) / (hm.d(e) * c ** k) for k in range(2, 2 * order + 2)]
    return HankelMinors(tuple(h[0::2]), tuple(
        -x if j % 2 else x for j, x in enumerate(h[1::2], 1)), order)


def _proper_chain(rest: Polynomial, den: Polynomial):
    """The chain of den(z^2) + z rest(z^2) (deg rest < deg den), whose
    p1/p0 is rest/den with e = -1, and the pole count r = deg den - deg gcd."""
    hm = hurwitz_minors(recompose_split(EvenOddSplit(den, rest)))
    return hm, den.degree - hm.halves_gcd.degree


def _proper_hankel(rest: Polynomial, den: Polynomial) -> HankelMinors:
    """Hankel minors of rest/den through the pole count r (`_proper_chain`).
    den reduced has a root at 0 iff Dhat_r = 0."""
    hm, r = _proper_chain(rest, den)
    return _hankel_from_hurwitz(hm, -1, den.coeffs[0], r)


# ---------------------------------------------------------------------------
# interleaved minors of a pair

@dataclass(frozen=True)
class NablaMinors:
    """Leading principal minors of the interleaved coefficient matrix."""
    nabla: Tuple[Fraction, ...]
    size: int


def nabla_minors(p: Polynomial, q: Polynomial,
                 size: Optional[int] = None) -> NablaMinors:
    """Minors of the row-interleaved matrix of the pair (p, q).

    With b_i the coefficient of z^{n-i} in q, aligned to p's degree, the
    degree case picks one of two layouts:

    - deg q = deg p = n: (2n+1)-square, rows alternate starting with the
      p row; row 2t column c holds a_{c-t}, row 2t+1 holds b_{c-t}.
    - deg q < deg p: 2n-square, rows alternate starting with a shifted q
      row; row 2t column c holds b_{c+1-t}, row 2t+1 holds a_{c-t}.

    size=2n+1 forces the first layout with b_0 = 0, which the identity
    checks for pair resolvents need.  Both are stride-2 rows of the
    Hurwitz layouts of g = p(z^2) + z q(z^2), so no matrix is built: the
    minors are Delta(g) when the size is deg g, else (the forced size)
    the leading minors eta(g) of g's infinite layout.
    """
    if p.is_zero():
        raise InvalidPairError("first polynomial must be nonzero")
    n = p.degree
    dq = q.degree
    if dq > n:
        raise InvalidPairError(
            f"second polynomial degree {dq} exceeds first degree {n}")
    equal = (dq == n)
    if size is None:
        size = 2 * n + 1 if equal else 2 * n
    if size not in (2 * n, 2 * n + 1):
        raise InvalidInputError(f"size must be {2*n} or {2*n+1}, got {size}")
    if size == 2 * n and equal:
        raise InvalidPairError(
            "the 2n layout drops b_0 and needs deg q < deg p")
    g = recompose_split(EvenOddSplit(p, q))
    hm = hurwitz_minors(g)
    return NablaMinors(hm.delta if size == g.degree else hm.eta, size)


# ---------------------------------------------------------------------------
# sign change counting

def _sign(x) -> int:
    """Sign of an int or of an exact rational (see `polyalg._rat`); ints,
    sign chains among them, are read without a Fraction."""
    if not isinstance(x, int):
        x = _rat(x)
    return (x > 0) - (x < 0)


def scf_frobenius(seq: Sequence) -> int:
    """Sign changes with the Frobenius rule filling internal zero runs.

    Trailing zeros are dropped.  A zero run of length j bracketed by
    nonzero entries gets the signs sgn(D_{i+v}) = (-1)^{v(v-1)/2} sgn(D_i)
    for v = 1..j, after which changes are counted normally.  A leading
    zero leaves the rule without an anchor and is refused.
    """
    vals = [_sign(x) for x in seq]
    while vals and vals[-1] == 0:
        vals.pop()
    if not vals:
        raise InvalidSequenceError("sign changes of an all-zero sequence")
    if vals[0] == 0:
        raise InvalidSequenceError(
            "leading zero: the zero-run fill rule has no anchor")
    signs = []
    anchor = 0
    run = 0
    for s in vals:
        if s != 0:
            anchor, run = s, 0
        else:
            run += 1
            s = anchor * (-1) ** (run * (run - 1) // 2)
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def strong_sign_changes(seq: Sequence) -> int:
    """Sign changes among the nonzero entries only."""
    vals = [s for s in map(_sign, seq) if s != 0]
    if not vals:
        raise InvalidSequenceError("sign changes of an all-zero sequence")
    return sum(1 for a, b in zip(vals, vals[1:]) if a != b)


# ---------------------------------------------------------------------------
# total nonnegativity scan

@dataclass(frozen=True)
class TNNScan:
    ok: bool
    witness_rows: Optional[Tuple[int, ...]]
    witness_cols: Optional[Tuple[int, ...]]
    checked_order: int


def _minor_table(rows: Sequence[Sequence[Fraction]], top: int):
    """Every minor of orders 1..top of a rectangular matrix, order by order.

    The rows are integerized once (`_integerize`).  Returns the positive
    row multipliers and an iterator of (rows, cols, v): v is the minor of
    the integer matrix, so the minor itself is v / prod(mults[r] for r in
    rows) and has v's sign.  Each order comes in combinations(rows) x
    combinations(cols) order.  An order-k minor is the Laplace expansion
    along its first chosen row R_0 over the order k-1 table,

        minor(R, C) = sum_j (-1)^j a[R_0][C_j] minor(R - {R_0}, C - {C_j}),

    so it costs O(k) integer operations, sum_k C(m,k) C(n,k) k for the
    whole table, and only orders k-1 and k are held.  The sum is taken
    term by term: each nonzero a[R_0][c] adds its multiples of the order
    k-1 minors of rows R - {R_0} into the minors whose columns contain c.
    """
    m, mults = _integerize(rows)
    ncols = len(m[0]) if m else 0

    def minors():
        prev_cols = [()]
        prev = {(): [1]}        # row subset -> minors, as in prev_cols
        for k in range(1, top + 1):
            cols = list(combinations(range(ncols), k))
            index = {c: i for i, c in enumerate(cols)}
            # column c takes the order k-1 minor on columns S to the order
            # k minor on S + {c}, with sign (-1)^(position of c there)
            plus = [[] for _ in range(ncols)]
            minus = [[] for _ in range(ncols)]
            for i, S in enumerate(prev_cols):
                for c in range(ncols):
                    if c not in S:
                        j = bisect_left(S, c)
                        (minus if j % 2 else plus)[c].append(
                            (i, index[S[:j] + (c,) + S[j:]]))
            table = {}
            for ridx in combinations(range(len(m)), k):
                a, sub = m[ridx[0]], prev[ridx[1:]]
                vals = [0] * len(cols)
                for c, x in enumerate(a):
                    if x:
                        for i, t in plus[c]:
                            vals[t] += x * sub[i]
                        for i, t in minus[c]:
                            vals[t] -= x * sub[i]
                table[ridx] = vals
                for cidx, v in zip(cols, vals):
                    yield ridx, cidx, v
            prev_cols, prev = cols, table
    return mults, minors()


def total_nonnegativity_scan(rows: Sequence[Sequence[Fraction]],
                             max_order: Optional[int] = None) -> TNNScan:
    """Check every minor up to max_order for nonnegativity.

    Exhaustive, order by order, from one integer Laplace table
    (`_minor_table`); the first negative minor in combinations order is
    returned as a witness.  A max_order below 1 is refused; one above
    min(m, n) is clamped.  Matrices larger than `SCAN_CAP` (8x8) are
    refused: the table holds sum_k C(m,k) C(n,k) minors, 12,869 at 8x8
    and four times as many per added dimension.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if any(len(r) != ncols for r in rows):
        raise InvalidInputError("ragged matrix")
    if max(m, ncols) > SCAN_CAP:
        raise InvalidInputError(
            f"total nonnegativity scan is capped at {SCAN_CAP}x{SCAN_CAP} "
            "(minor count grows as 4^n)")
    top = min(m, ncols)
    if max_order is not None:
        if max_order < 1:
            raise InvalidInputError("max_order out of range")
        top = min(top, max_order)
    _, table = _minor_table([[_rat(x) for x in row] for row in rows], top)
    for ridx, cidx, v in table:
        if v < 0:
            return TNNScan(False, ridx, cidx, len(ridx))
    return TNNScan(True, None, None, top)
