"""Matrices whose spectra interlace with their own negatives.

Flipping a totally nonnegative matrix upside down produces a sign
definite matrix whose eigenvalues alternate around zero with strictly
growing magnitudes.  This module holds the exact-arithmetic side of
that story: the flip matrix, minor scans for sign definiteness and
total nonnegativity, the anti-bidiagonal and anti-tridiagonal
constructions with their tridiagonal companions, and characteristic
polynomials feeding the polynomial classifier.

Everything here is exact and exhaustive on purpose.  A minor scan reads
one integer table per matrix, built order by order by Laplace expansion
over the previous order (`minors._minor_table`): sum_k C(n,k)^2 k integer
operations instead of one determinant per minor.  The table still holds
all C(2n,n) - 1 minors, four times as many per added dimension (12,869
at 8x8, 2,704,155 at 12x12), so dimensions stay capped at 8
(`SCAN_CAP`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple

from .polyalg import InvalidInputError, Polynomial, _rat
from .minors import (
    SCAN_CAP,
    _integerize,
    _minor_table,
    exact_det,
    total_nonnegativity_scan,
)

__all__ = [
    "MatrixShapeError", "ExactMatrix", "SignatureSequence",
    "flip", "identity", "flip_signature",
    "signature_scan", "class_n_plus_check",
    "anti_bidiagonal", "tridiagonal_equivalent", "anti_tridiagonal_criterion",
    "char_poly", "si_spectrum_check",
    "random_tn_matrix", "entries_condition",
]


class MatrixShapeError(InvalidInputError):
    pass


class ExactMatrix:
    """Square matrix of exact rationals.  Immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        mat = tuple(tuple(_rat(x) for x in row) for row in rows)
        if not mat:
            raise MatrixShapeError("empty matrix")
        if any(len(r) != len(mat) for r in mat):
            raise MatrixShapeError("matrix must be square")
        object.__setattr__(self, "rows", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.n))

    def det(self) -> Fraction:
        return exact_det(self.rows)

    def minor(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> Fraction:
        sub = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return exact_det(sub)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.n != other.n:
            raise MatrixShapeError("dimension mismatch")
        n = self.n
        return ExactMatrix([
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
             for j in range(n)]
            for i in range(n)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.n != other.n:
            raise MatrixShapeError("dimension mismatch")
        return ExactMatrix([
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)])

    def scale(self, s) -> "ExactMatrix":
        s = _rat(s)
        return ExactMatrix([[s * x for x in row] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix({body})"


def identity(n: int) -> ExactMatrix:
    if n < 1:
        raise MatrixShapeError("dimension must be positive")
    return ExactMatrix([[1 if i == j else 0 for j in range(n)]
                        for i in range(n)])


def flip(n: int) -> ExactMatrix:
    """The anti-identity: ones on the anti-diagonal, involution."""
    if n < 1:
        raise MatrixShapeError("dimension must be positive")
    return ExactMatrix([[1 if j == n - 1 - i else 0 for j in range(n)]
                        for i in range(n)])


def flip_signature(n: int) -> Tuple[int, ...]:
    """Expected per-order signs for flip conjugates of totally
    nonnegative matrices: alternating in pairs (+ + - - + + ...)."""
    return tuple(-1 if (k * (k - 1) // 2) % 2 else 1
                 for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# sign definiteness

@dataclass(frozen=True)
class SignatureSequence:
    """Per-order common minor signs.

    `signs[k-1]` is +1 or -1 when every nonzero minor of order k shares
    that sign, and None when all of them vanish.  A mixed order stops
    the scan: `definite` turns False and `witness` records the order
    plus two conflicting minors as ((rows, cols, value), (rows, cols,
    value)).
    """
    signs: Tuple[Optional[int], ...]
    definite: bool
    witness: Optional[tuple]
    checked_order: int


def signature_scan(M: ExactMatrix, max_order: Optional[int] = None
                   ) -> SignatureSequence:
    n = M.n
    if n > SCAN_CAP:
        raise InvalidInputError(
            f"sign definiteness scan is capped at {SCAN_CAP}x{SCAN_CAP}")
    top = n if max_order is None else max_order
    if not 1 <= top <= n:
        raise InvalidInputError("max_order out of range")
    mults, table = _minor_table(M.rows, top)
    signs: List[Optional[int]] = []
    common = None
    first = None            # (rows, cols, v) of the first nonzero minor
    for ridx, cidx, v in table:
        k = len(ridx)
        if k > len(signs) + 1:          # order k - 1 is complete
            signs.append(common)
            common = None
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if common is None:
            common, first = s, (ridx, cidx, v)
        elif s != common:
            return SignatureSequence(
                tuple(signs), False,
                (k, _exact(first, mults), _exact((ridx, cidx, v), mults)), k)
    signs.append(common)
    return SignatureSequence(tuple(signs), True, None, top)


def _exact(minor, mults):
    """(rows, cols, v) of an integerized table -> (rows, cols, value)."""
    ridx, cidx, v = minor
    return ridx, cidx, Fraction(v, prod(mults[r] for r in ridx))


def _integer_multiple(M: ExactMatrix) -> Tuple[int, List[List[int]]]:
    """(d, d M) with d the lcm of M's denominators: the lcm of the row
    multipliers of `_integerize`, each integer row scaled up to it."""
    rows, mults = _integerize(M.rows)
    d = lcm(*mults)
    return d, [[x * (d // f) for x in row] for row, f in zip(rows, mults)]


def class_n_plus_check(M: ExactMatrix) -> bool:
    """Certify that some power of M is strictly sign definite.

    The route goes through the square: M**2 of a sign definite matrix
    is totally nonnegative, and if it is also nonsingular with positive
    entries next to the diagonal it is oscillating, so a further power
    is strictly totally positive.  The checks read signs only, so they
    run on the integer square (d M)**2 = d**2 M**2.
    """
    _, A = _integer_multiple(M)
    n = M.n
    sq = [[sum(A[i][k] * A[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    if exact_det(sq) == 0:
        return False
    if not total_nonnegativity_scan(sq).ok:
        return False
    return all(sq[i][i + 1] > 0 and sq[i + 1][i] > 0 for i in range(n - 1))


# ---------------------------------------------------------------------------
# anti-bidiagonal matrices and their tridiagonal companions

def _positive_data(a1, b, c):
    a1 = _rat(a1)
    bs = [_rat(x) for x in b]
    cs = [_rat(x) for x in c]
    if len(bs) != len(cs):
        raise InvalidInputError("b and c data must have equal length")
    if a1 <= 0 or any(x <= 0 for x in bs) or any(x <= 0 for x in cs):
        raise InvalidInputError("anti-bidiagonal data must be positive")
    return a1, bs, cs


def anti_bidiagonal(a1, b: Sequence, c: Sequence) -> ExactMatrix:
    """The two-band anti-diagonal layout with b's above the main
    diagonal, c's below it and a1 as the lone diagonal entry.

    b and c list the values b_2..b_n and c_2..c_n; the dimension is
    len(b) + 1.  Walking down the anti-diagonal the labels descend
    b_n, b_{n-2}, ... through a1 (dead center) and back out c_2', ...
    up to c_n in the corner, with the adjacent band interleaving the
    complementary labels.
    """
    a1, bs, cs = _positive_data(a1, b, c)
    n = len(bs) + 1
    lab = {t: v for t, v in zip(range(2, n + 1), bs)}
    lab.update({-t: v for t, v in zip(range(2, n + 1), cs)})

    def value(t: int) -> Fraction:
        if t == 1:
            return a1
        return lab[t] if t >= 2 else lab[t - 2]

    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[i - 1][n - i] = value(n + 2 - 2 * i)
        if i >= 2:
            rows[i - 1][n + 1 - i] = value(n + 3 - 2 * i)
    return ExactMatrix(rows)


def tridiagonal_equivalent(a1, b: Sequence, c: Sequence) -> ExactMatrix:
    """Tridiagonal matrix with the same characteristic polynomial as
    anti_bidiagonal(a1, b, c): a1 in the top corner, b's on the
    superdiagonal, c's on the subdiagonal, zeros elsewhere."""
    a1, bs, cs = _positive_data(a1, b, c)
    n = len(bs) + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = a1
    for i, (bv, cv) in enumerate(zip(bs, cs)):
        rows[i][i + 1] = bv
        rows[i + 1][i] = cv
    return ExactMatrix(rows)


def _anti_tridiagonal_data(A: ExactMatrix) -> None:
    """Validate the three-band anti-diagonal pattern with positive
    entries; anything off-pattern must be exactly zero."""
    n = A.n
    for i in range(n):
        for j in range(n):
            v = A.entry(i, j)
            on_anti = (j == n - 1 - i)
            above = (j == n - 2 - i)
            below = (i >= 1 and j == n - i)
            if on_anti or above or below:
                if v <= 0:
                    raise InvalidInputError(
                        f"pattern entry ({i},{j}) must be positive, got {v}")
            elif v != 0:
                raise InvalidInputError(
                    f"entry ({i},{j}) lies outside the anti-tridiagonal "
                    f"pattern and must be zero, got {v}")


def anti_tridiagonal_criterion(A_J: ExactMatrix) -> bool:
    """Do the upper-right corner minors alternate in sign the right way?

    Requirement: (-1)^(k(k-1)/2) times the minor on rows 1..k, columns
    n+1-k..n is positive for every k.  Flipping the matrix upside down
    (reversing its rows) turns this into plain leading-minor positivity
    of a tridiagonal matrix T, whose leading minors are the continuants
    theta_k = T_kk theta_{k-1} - T_{k,k-1} T_{k-1,k} theta_{k-2} with
    theta_0 = 1 (theta_{-1} = 0), exact and read up to the first
    nonpositive one.
    """
    _anti_tridiagonal_data(A_J)
    T = A_J.rows[::-1]
    before, theta = Fraction(0), Fraction(1)
    for k in range(A_J.n):
        off = T[k][k - 1] * T[k - 1][k] if k else 0
        before, theta = theta, T[k][k] * theta - off * before
        if theta <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# characteristic polynomials and spectra

def char_poly(M: ExactMatrix) -> Polynomial:
    """det(zI - M), exactly, by the trace recursion on integers.

    With d the lcm of M's denominators, A = d M is an integer matrix:
    B_0 = I and then A_k = A B_{k-1}, c_k = -tr(A_k)/k, B_k = A_k + c_k I,
    all in integers (c_k(A) is an integer, so the division by k is
    exact).  The characteristic coefficients of M are c_k(A) / d^k.
    """
    d, A = _integer_multiple(M)
    n = M.n
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        Ak = [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        ck = -sum(Ak[i][i] for i in range(n)) // k
        coeffs.append(Fraction(ck, d ** k))
        B = Ak
        for i in range(n):
            B[i][i] += ck
    return Polynomial(coeffs)


def si_spectrum_check(M: ExactMatrix) -> bool:
    """True when the eigenvalues alternate in sign with strictly
    growing magnitudes (either orientation)."""
    from .classify import LABEL_SI, classify
    return classify(char_poly(M)).label == LABEL_SI


# ---------------------------------------------------------------------------
# generators for certified totally nonnegative inputs

def random_tn_matrix(n: int, seed: int) -> ExactMatrix:
    """Product of positive bidiagonal factors: totally nonnegative and
    nonsingular by construction, with a strictly positive tridiagonal
    band after the first lower-upper pair."""
    if not 1 <= n <= SCAN_CAP:
        raise InvalidInputError(f"dimension must lie in 1..{SCAN_CAP}")
    rng = random.Random(seed)

    def bidiag(lower: bool) -> ExactMatrix:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.randint(1, 4), 2)
        for i in range(n - 1):
            v = Fraction(rng.randint(1, 4), 2)
            if lower:
                rows[i + 1][i] = v
            else:
                rows[i][i + 1] = v
        return ExactMatrix(rows)

    M = bidiag(True) * bidiag(False)
    for _ in range(rng.randint(0, 2)):
        M = M * bidiag(rng.random() < 0.5)
    return M


def entries_condition(A: ExactMatrix) -> bool:
    """The positivity pattern that makes the square of the flipped
    matrix oscillating: for each i there are column indices r1, r2 with
    a(n-i, r1) a(n+1-r1, i) > 0 and a(n+1-i, r2) a(n+1-r2, i+1) > 0
    (one-based)."""
    n = A.n
    for i in range(1, n):
        ok1 = any(A.entry(n - i - 1, r - 1) > 0 and A.entry(n - r, i - 1) > 0
                  for r in range(1, n + 1))
        ok2 = any(A.entry(n - i, r - 1) > 0 and A.entry(n - r, i) > 0
                  for r in range(1, n + 1))
        if not (ok1 and ok2):
            return False
    return True
