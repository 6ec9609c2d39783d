"""Determinant machinery: Hankel, Hurwitz, interleaved pair minors, scans."""

import random
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, islice
from math import prod

import pytest

import genhurwitz.minors as minors_module
from genhurwitz.polyalg import (
    EvenOddSplit,
    LaurentSeries,
    Polynomial,
    RationalFunction,
    compose_even,
    even_odd_split,
    laurent_expand,
    poly_gcd,
    recompose_split,
    times_z,
)
from genhurwitz.minors import (
    InvalidInputError,
    InvalidPairError,
    InvalidSequenceError,
    SeriesLengthError,
    TNNScan,
    _minor_table,
    _routh,
    exact_det,
    hankel_character_test,
    hankel_minors,
    hurwitz_minors,
    nabla_minors,
    scf_frobenius,
    strong_sign_changes,
    total_nonnegativity_scan,
)

from test_golden import refuse_bareiss, refuse_series_route

F = Fraction


def P(*cs):
    return Polynomial(list(cs))


def leading_minors(rows):
    """M_1..M_n, each order its own `exact_det`: the Bareiss oracle for
    every minor chain."""
    return [exact_det([row[:k] for row in rows[:k]])
            for k in range(1, len(rows) + 1)]


def finite_hurwitz_matrix(p):
    """The n x n Hurwitz matrix, row t, column c holding a_{2c+1-t}: its
    `leading_minors` are the oracle for `hurwitz_minors`."""
    n = p.degree
    a = [F(0)] * n + list(p.coeffs) + [F(0)] * n
    return [a[n + 1 - t:3 * n + 1 - t:2] for t in range(n)]


def infinite_hurwitz_block(p, size):
    """Leading block of the doubly infinite Hurwitz layout, the oracle for
    `HurwitzMinors.eta`: row t, column c holds a_{2c-t}."""
    a = [F(0)] * size + list(p.coeffs) + [F(0)] * (2 * size)
    return [a[size - t:3 * size - t:2] for t in range(size)]


def interleaved_matrix(p, q, size):
    """The row-interleaved matrix of the pair in the layout `nabla_minors`
    documents, the oracle for its minors; b_i is the coefficient of
    z^{n-i} in q."""
    n = p.degree

    def a(i):
        return p.coeff(i)

    def b(i):
        return q.power_coeff(n - i)

    rows = []
    if size == 2 * n + 1:
        for t in range(n + 1):
            rows.append([a(c - t) for c in range(size)])
            if len(rows) < size:
                rows.append([b(c - t) for c in range(size)])
    else:
        for t in range(n):
            rows.append([b(c + 1 - t) for c in range(size)])
            rows.append([a(c - t) for c in range(size)])
    return rows


def nabla_corpus():
    """(p, q, size) at every legal size: p of degree 0-7 with rational
    entries and forced zeros, q from the zero polynomial to degree n."""
    rng = random.Random(1515)

    def coeff():
        x = rng.random()
        if x < 0.35:
            return 0
        if x < 0.5:
            return F(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-3, 3)
    for _ in range(500):
        n = rng.randint(0, 7)
        p = Polynomial([rng.choice([1, -2, F(3, 2)])]
                       + [coeff() for _ in range(n)])
        dq = rng.randint(-1, n)
        q = Polynomial([] if dq < 0 else [rng.choice([1, -1, 2])]
                       + [coeff() for _ in range(dq)])
        yield p, q, None
        if dq < n:
            yield p, q, 2 * n + 1


def stalled_corpus():
    """Polynomials whose Routh array stalls, built backwards from the
    Euclid on their halves in z: f_N a constant, f_{N+1} = 0,
    f_{i-1} = q_i f_i + f_{i+1} for odd quotients q_i, and p = f_0 + f_1.
    The first q_k past degree one stalls row k (k = 1..10), and a q_1 of
    degree 5 makes a_1 = a_3 = 0.  Entries are rational, of either sign;
    some inputs are multiplied by an f(z^2) (a shared even factor) or z."""
    rng = random.Random(1616)

    def c():
        return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    def odd(degree):
        return Polynomial([c() if j == 0 else rng.choice([0, c()])
                           if j % 2 == 0 else 0 for j in range(degree + 1)])
    while True:
        k = rng.randint(1, 10)
        N = rng.randint(k, 11)
        f, after = Polynomial([c()]), Polynomial([])
        for i in range(N, 0, -1):
            degree = (1 if i < k else rng.choice((3, 5)) if i == k
                      else rng.choice((1, 1, 1, 3)))
            f, after = odd(degree) * f + after, f
        p = f + after
        x = rng.random()
        if x < 0.2:
            p = p * compose_even(Polynomial([c(), c()]))
        elif x < 0.3:
            p = times_z(p)
        yield p


def series_of(num, den, pairs):
    return laurent_expand(RationalFunction(P(*num), P(*den)), pairs)


class TestExactDet:
    def test_small_cases(self):
        assert exact_det([[F(3)]]) == 3
        assert exact_det([[F(1), F(2)], [F(3), F(4)]]) == -2

    def test_fractional_entries(self):
        rows = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
        assert exact_det(rows) == F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)

    def test_singular(self):
        rows = [[F(1), F(2)], [F(2), F(4)]]
        assert exact_det(rows) == 0

    def test_zero_pivot_needs_row_swap(self):
        rows = [[F(0), F(1)], [F(1), F(0)]]
        assert exact_det(rows) == -1


class TestHankelMinors:
    def test_alternating_series(self):
        mn = hankel_minors(series_of([2], [1, 1], 1), 1)
        assert mn.D == (F(2),)
        assert mn.Dhat == (F(-2),)

    def test_rank_one_forces_vanishing(self):
        mn = hankel_minors(series_of([1], [1, -2], 2), 2)
        assert mn.D == (F(1), F(0))
        assert mn.Dhat == (F(2), F(0))

    def test_all_zero_series(self):
        mn = hankel_minors(LaurentSeries(F(0), F(0), (F(0),) * 4), 2)
        assert mn.D == (F(0), F(0))
        assert mn.Dhat == (F(0), F(0))

    def test_accessors_define_order_zero(self):
        mn = hankel_minors(series_of([2], [1, 1], 1), 1)
        assert mn.d(0) == 1 and mn.dhat(0) == 1
        assert mn.d(1) == 2 and mn.dhat(1) == -2

    def test_short_series_refused(self):
        with pytest.raises(SeriesLengthError):
            hankel_minors(LaurentSeries(F(0), F(0), (F(1),)), 1)

    def test_negative_order_refused(self):
        with pytest.raises(InvalidInputError):
            hankel_minors(LaurentSeries(F(0), F(0), ()), -1)


class TestHankelCharacter:
    def test_strict_tp_matches_interlacing_direction(self):
        mn = hankel_minors(series_of([1], [1, -2], 1), 1)
        assert hankel_character_test(mn, "strict-tp")
        assert not hankel_character_test(mn, "sign-regular")

    def test_sign_regular_matches_stable_direction(self):
        mn = hankel_minors(series_of([2], [1, 1], 1), 1)
        assert hankel_character_test(mn, "sign-regular")
        assert not hankel_character_test(mn, "strict-tp")

    def test_negative_first_minor_fails_both(self):
        mn = hankel_minors(LaurentSeries(F(0), F(0), (F(-1), F(0))), 1)
        assert not hankel_character_test(mn, "strict-tp")
        assert not hankel_character_test(mn, "sign-regular")

    def test_unknown_mode(self):
        mn = hankel_minors(LaurentSeries(F(0), F(0), ()), 0)
        with pytest.raises(InvalidInputError):
            hankel_character_test(mn, "wavy")


class TestHurwitzMinors:
    def test_stable_quadratic(self):
        hm = hurwitz_minors(P(1, 2, 1))
        assert hm.delta == (F(2), F(2))
        assert hm.eta == (F(1), F(2), F(2))

    def test_interlacing_quadratic(self):
        assert hurwitz_minors(P(1, 1, -2)).delta == (F(1), F(-2))

    def test_cubic(self):
        hm = hurwitz_minors(P(1, 4, 1, -6))
        assert hm.delta == (F(4), F(10), F(-60))
        assert hm.eta == (F(1), F(4), F(10), F(-60))

    def test_eta_is_shifted_delta_chain(self):
        # eta is read off Delta; the infinite layout's minors are not
        for p in (P(3, 1, 4, 1, 5), P(1, 0, 1, 0, 1), P(2, 0, 0, 1), P(7)):
            hm = hurwitz_minors(p)
            block = infinite_hurwitz_block(p, p.degree + 1)
            assert hm.eta == tuple(leading_minors(block))
            assert hm.eta[0] == p.coeffs[0]
            for j in range(1, len(hm.delta) + 1):
                assert hm.eta[j] == p.coeffs[0] * hm.delta[j - 1]

    def test_eta_is_read_on_request(self):
        # eta is no field of the chain, and Delta_{-1} = 1/a_0 needs none
        hm = hurwitz_minors(P(-2, 3, 5, 7))
        assert [f.name for f in fields(hm)] == ["delta", "a0", "n",
                                                "halves_gcd"]
        assert hm.eta == (F(-2),) + tuple(-2 * d for d in hm.delta)
        assert hm.d(-1) == F(-1, 2)

    def test_layouts(self):
        p = P(1, 4, 1, -6)
        assert finite_hurwitz_matrix(p) == [
            [F(4), F(-6), F(0)],
            [F(1), F(1), F(0)],
            [F(0), F(4), F(-6)],
        ]
        block = infinite_hurwitz_block(p, 2)
        assert block == [[F(1), F(1)], [F(0), F(4)]]

    def test_zero_polynomial_refused(self):
        with pytest.raises(InvalidInputError):
            hurwitz_minors(Polynomial([]))

    def test_routh_array_matches_bareiss_and_euclid(self):
        """The Routh chain against the Bareiss minors of the finite matrix,
        and its even factor against the Euclid on the halves, over every
        way the array can end."""
        rng = random.Random(66)
        polys = [P(1, 0, 3, 0, 2), P(2, 0, 3), P(1, 0, -4, 0),  # a half is 0
                 P(1, 1, 1, 1), P(1, 0, 0, 1),                # stalls
                 P(F(1, 2), F(-2, 3), 3, F(5, 7)), P(7), P(3, 0)]
        for _ in range(600):
            polys.append(Polynomial([rng.choice([-2, -1, 1, 2])] + [
                rng.randint(-2, 2) for _ in range(rng.randint(1, 8))]))
            f = Polynomial([rng.choice([-2, 1, F(1, 2)])] + [
                rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            g = Polynomial([rng.choice([-1, 1, 3])] + [
                F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                for _ in range(rng.randint(0, 5))])
            p = compose_even(f) * g
            polys.append(times_z(p) if rng.random() < 0.4 else p)
        ends = set()
        for p in polys:
            hm = hurwitz_minors(p)
            bareiss = leading_minors(finite_hurwitz_matrix(p))
            assert hm.delta == tuple(bareiss), p
            found, aux, stalled = _routh(p.coeffs)
            assert hm.delta[:len(found)] == tuple(found), p
            halves = even_odd_split(p)
            assert hm.halves_gcd == poly_gcd(halves.p0, halves.p1), p
            if stalled:
                assert aux is None, p
                ends.add("entry stall")
                continue
            assert all(d == 0 for d in hm.delta[len(found):]), p
            if aux is None:
                ends.add("complete")
            else:
                ends.add("zero row times z" if p.power_coeff(0) == 0
                         else "zero row")
            if any(c.denominator > 1 for c in p.coeffs):
                ends.add("rational")
        assert ends == {"complete", "zero row", "zero row times z",
                        "entry stall", "rational"}

    def test_d_extends_the_chain_both_ways(self):
        # p = 2z^3 + 3z^2 + 5z + 7: Delta_{-1} = 1/a_0 = 1/2, not delta[-2]
        hm = hurwitz_minors(P(2, 3, 5, 7))
        assert hm.delta == (F(3), F(1), F(7))
        assert hm.d(-1) == F(1, 2)
        assert hm.d(0) == 1
        assert [hm.d(j) for j in (1, 2, 3)] == list(hm.delta)
        for j in (-2, 4):
            with pytest.raises(IndexError):
                hm.d(j)


class TestNablaMinors:
    def test_equal_degree_pair(self):
        nm = nabla_minors(P(1, 1, -2), P(1, -1, -2))
        assert nm.size == 5
        assert nm.nabla[1] == -2        # det [[1,1],[1,-1]]

    def test_linear_pair_full_chain(self):
        nm = nabla_minors(P(1, 1), P(1, 2))
        assert nm.size == 3
        assert nm.nabla == (F(1), F(1), F(1))

    def test_lower_degree_uses_shifted_layout(self):
        nm = nabla_minors(P(1, 2, 1), P(1))
        assert nm.size == 4
        assert nm.nabla[0] == 0         # first row starts with b_1 = 0

    def test_size_override_pads_formally(self):
        # treat the constant as a formal degree-2 vector
        nm = nabla_minors(P(1, 2, 1), P(1), size=5)
        assert nm.size == 5

    def test_degree_excess_refused(self):
        with pytest.raises(InvalidPairError):
            nabla_minors(P(1, 1), P(1, 0, 0))

    def test_equal_degree_cannot_use_short_layout(self):
        with pytest.raises(InvalidPairError):
            nabla_minors(P(1, 1), P(2, 1), size=2)

    def test_bad_size_refused(self):
        with pytest.raises(InvalidInputError):
            nabla_minors(P(1, 2, 1), P(1), size=7)

    def test_matches_the_interleaved_matrix(self):
        cases = set()
        for p, q, size in nabla_corpus():
            nm = nabla_minors(p, q, size)
            rows = interleaved_matrix(p, q, nm.size)
            assert nm.nabla == tuple(leading_minors(rows)), (p, q)
            n = p.degree
            cases.add("2n+1" if q.degree == n else
                      "2n" if nm.size == 2 * n else "2n+1 padded")
            if q.is_zero():
                cases.add("q = 0")
            if n == 0:
                cases.add("constant p")
            g = recompose_split(EvenOddSplit(p, q))
            if _routh(g.coeffs)[2]:
                cases.add("stalled")
        assert cases == {"2n+1", "2n", "2n+1 padded", "q = 0", "constant p",
                         "stalled"}


class TestOneRouthArray:
    def test_no_leading_minor_sweep(self, monkeypatch):
        # the pair minors and a stalled chain come from the Routh array
        # and signed subresultants, never from a Bareiss determinant
        pairs = list(nabla_corpus())
        stalled = list(islice(stalled_corpus(), 300))
        nablas = [nabla_minors(*args) for args in pairs]
        chains = [hurwitz_minors(p) for p in stalled]
        refuse_bareiss(monkeypatch)
        assert [nabla_minors(*args) for args in pairs] == nablas
        assert [hurwitz_minors(p) for p in stalled] == chains
        with pytest.raises(AssertionError, match="determinant"):
            hankel_minors(LaurentSeries(F(0), F(0), (F(1), F(1))), 1)

    def test_stalled_chain_is_one_subresultant_route(self, monkeypatch):
        # past an entry stall the chain and the even factor come from the
        # signed subresultants of the halves alone, and agree with the
        # Bareiss minors of the finite matrix and the Euclid on the halves
        polys = list(islice(stalled_corpus(), 400))
        oracles = []
        for p in polys:
            halves = even_odd_split(p)
            oracles.append((
                tuple(leading_minors(finite_hurwitz_matrix(p))),
                poly_gcd(halves.p0, halves.p1)))

        refuse_series_route(monkeypatch)
        refuse_bareiss(monkeypatch)
        cases = set()
        for p, (bareiss, halves_gcd) in zip(polys, oracles):
            found, _, stalled = _routh(p.coeffs)
            hm = hurwitz_minors(p)
            assert stalled, p
            assert hm.delta == bareiss, p
            assert hm.halves_gcd == halves_gcd, p
            # the Routh prefix the stall discards is the chain's start
            assert hm.delta[:len(found)] == tuple(found), p
            cases.update({("row", len(found) + 1), ("odd", p.degree % 2 == 1),
                          ("a_0 < 0", p.coeffs[0] < 0)})
            if p.coeffs[1] == p.coeffs[3] == 0:
                cases.add("a_1 = a_3 = 0")
            if halves_gcd.degree > 0:
                cases.add("shared even factor")
            if p.power_coeff(0) == 0:
                cases.add("origin zero")
            if any(c.denominator > 1 for c in p.coeffs):
                cases.add("rational")
        assert cases == {*(("row", k) for k in range(1, 11)),
                         *((key, v) for key in ("odd", "a_0 < 0")
                           for v in (False, True)),
                         "a_1 = a_3 = 0", "shared even factor",
                         "origin zero", "rational"}
        with pytest.raises(AssertionError, match="determinant"):
            minors_module.exact_det([[F(1)]])
        with pytest.raises(AssertionError, match="Euclid"):
            sys.modules["genhurwitz.polyalg"].poly_gcd(P(1), P(1))


class TestSignChangeCounters:
    # the zero-run fill: a run of length j after an anchor of sign s gets
    # the signs s * (-1)^{v(v-1)/2} for v = 1..j
    def test_frobenius_fill(self):
        assert scf_frobenius([1, 0, 0, 5]) == 2

    def test_plain_changes(self):
        assert scf_frobenius([1, -2]) == 1
        assert scf_frobenius([1, 2, 4]) == 0

    def test_trailing_zeros_dropped(self):
        assert scf_frobenius([1, -1, 0, 0]) == 1

    def test_leading_zero_has_no_anchor(self):
        with pytest.raises(InvalidSequenceError):
            scf_frobenius([0, 1, 2])

    def test_all_zero_refused(self):
        with pytest.raises(InvalidSequenceError):
            scf_frobenius([0, 0])

    def test_strong_counts_skip_zeros(self):
        assert strong_sign_changes([1, -2, 3]) == 2
        assert strong_sign_changes([1, 0, -1]) == 1
        assert strong_sign_changes([-6, 4, 1]) == 1

    def test_strong_all_zero_refused(self):
        with pytest.raises(InvalidSequenceError):
            strong_sign_changes([0, 0, 0])

    def test_fill_rule_matches_direct_count_when_no_zeros(self):
        seq = [3, -1, -4, 1, -5]
        assert scf_frobenius(seq) == strong_sign_changes(seq) == 3


class TestTotalNonnegativityScan:
    def test_hurwitz_matrix_of_stable_quadratic(self):
        scan = total_nonnegativity_scan([[F(2), F(0)], [F(1), F(1)]])
        assert scan.ok
        assert scan.checked_order == 2

    def test_negative_det_witnessed(self):
        scan = total_nonnegativity_scan([[F(1), F(2)], [F(1), F(1)]])
        assert not scan.ok
        assert scan.witness_rows == (0, 1)
        assert scan.witness_cols == (0, 1)

    def test_identity(self):
        eye = [[F(i == j) for j in range(3)] for i in range(3)]
        assert total_nonnegativity_scan(eye).ok

    def test_max_order_caps_the_scan(self):
        rows = [[F(1), F(2)], [F(1), F(1)]]
        assert total_nonnegativity_scan(rows, max_order=1).ok

    def test_large_matrix_refused(self):
        big = [[F(1)] * 9 for _ in range(9)]
        with pytest.raises(InvalidInputError):
            total_nonnegativity_scan(big)


def _tnn_by_determinants(rows, max_order=None):
    """The scan as one `exact_det` per minor: the oracle for the table."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    top = min(m, ncols)
    if max_order is not None:
        top = min(top, max_order)
    for k in range(1, top + 1):
        for ridx in combinations(range(m), k):
            for cidx in combinations(range(ncols), k):
                if exact_det([[rows[i][j] for j in cidx] for i in ridx]) < 0:
                    return TNNScan(False, ridx, cidx, k)
    return TNNScan(True, None, None, top)


def _tn(n, rng):
    """Product of nonnegative bidiagonal factors: totally nonnegative, and
    singular when a diagonal entry is 0."""
    out = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3):
        lower = rng.random() < 0.5
        B = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            B[i][i] = F(rng.randint(0, 3), rng.randint(1, 2))
        for i in range(n - 1):
            if lower:
                B[i + 1][i] = F(rng.randint(0, 2))
            else:
                B[i][i + 1] = F(rng.randint(0, 2))
        out = [[sum(out[i][t] * B[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def _table_corpus():
    """Square and rectangular inputs: rational entries of both signs,
    zero rows, rank one and rank two, singular TN products, 0/+-1."""
    rng = random.Random(4242)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 3), (3, 3),
              (4, 6), (6, 4), (5, 5), (6, 6)]
    for m, n in shapes:
        yield [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
               for _ in range(m)]
        rows = [[F(rng.choice((0, 0, 1, -1))) for _ in range(n)]
                for _ in range(m)]
        rows[rng.randrange(m)] = [F(0)] * n
        yield rows
        u = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        v = [F(rng.randint(-3, 3)) for _ in range(n)]
        w = [F(rng.randint(0, 2)) for _ in range(m)]
        yield [[u[i] * v[j] + w[i] * v[(j + 1) % n] for j in range(n)]
               for i in range(m)]
    for n in range(1, 7):
        yield _tn(n, rng)
        yield [row[:-1] for row in _tn(n + 1, rng)]
    yield [[F(1)] * 5 for _ in range(5)]


class TestMinorTable:
    def test_every_entry_is_the_exact_determinant(self):
        for rows in _table_corpus():
            m, n = len(rows), len(rows[0])
            mults, table = _minor_table(rows, min(m, n))
            seen = []
            for ridx, cidx, v in table:
                seen.append((ridx, cidx))
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                assert F(v, prod(mults[r] for r in ridx)) == exact_det(sub)
            assert seen == [(r, c) for k in range(1, min(m, n) + 1)
                            for r in combinations(range(m), k)
                            for c in combinations(range(n), k)]

    def test_multipliers_are_positive_and_top_bounds_the_orders(self):
        rows = [[F(1, 2), F(-1, 3)], [F(2), F(3, 4)]]
        mults, table = _minor_table(rows, 1)
        assert all(f > 0 for f in mults)
        assert [len(r) for r, _, _ in table] == [1] * 4
        assert list(_minor_table(rows, 0)[1]) == []

    def test_scan_matches_one_determinant_per_minor(self):
        corpus = list(_table_corpus())
        assert any(not _tnn_by_determinants(r).ok for r in corpus)
        assert any(_tnn_by_determinants(r).ok and exact_det(r) == 0
                   for r in corpus if len(r) == len(r[0]) > 2)
        for rows in corpus:
            top = min(len(rows), len(rows[0]))
            for max_order in [None] + list(range(-1, top + 2)):
                if max_order is not None and max_order < 1:
                    # no minors would certify the matrix
                    with pytest.raises(InvalidInputError,
                                       match="^max_order out of range$"):
                        total_nonnegativity_scan(rows, max_order)
                    continue
                assert (total_nonnegativity_scan(rows, max_order)
                        == _tnn_by_determinants(rows, max_order)), \
                    (rows, max_order)
