"""Corpus-scale acceptance checks: every classifier route against ground truth.

Each test below covers one acceptance criterion and asserts a
zero-violation property over a corpus whose class data is known by
construction.  Corpora are module-scoped so the generator cost is paid
once; the round-trip test also owns the runtime budget for building them.
"""

import random
import time
from fractions import Fraction

import pytest

from genhurwitz import (
    Polynomial,
    RationalFunction,
    associated_function,
    cf_from_hurwitz_minors,
    cf_reconstruct,
    classify,
    dual_transform,
    generalized_lienard_chipart_order,
    hankel_character_test,
    hankel_minors,
    hurwitz_minors,
    is_r_function,
    laurent_expand,
    lienard_chipart,
    nabla_minors,
    pole_sign_count,
    reflect,
    stieltjes_expand,
)
from genhurwitz.classify import LABEL_GH, LABEL_QUASI, LABEL_SI, LABEL_STABLE
from genhurwitz.minors import (
    exact_det,
    strong_sign_changes,
    total_nonnegativity_scan,
)
from genhurwitz.oracle import (
    SNAP_TOL,
    StructureSpec,
    classify_by_roots,
    generate_instance,
    generate_r_function,
    numeric_roots,
    strange_experiment,
)
from genhurwitz.polyalg import DegenerateSplitError
from genhurwitz.simatrix import (
    ExactMatrix,
    anti_bidiagonal,
    anti_tridiagonal_criterion,
    char_poly,
    entries_condition,
    flip,
    flip_signature,
    random_tn_matrix,
    signature_scan,
    si_spectrum_check,
    tridiagonal_equivalent,
)
from genhurwitz.stieltjes import NoCFError

from test_minors import finite_hurwitz_matrix, leading_minors

PER_CLASS = 1000
EIGEN_TOL = 1e-8
EIGEN_GAP = 1e-6


def _timed_corpus(specs, seed_base):
    """Generate and classify every spec; (entries, seconds) with entries
    of the form (spec, polynomial, report)."""
    t0 = time.monotonic()
    entries = []
    for i, spec in enumerate(specs):
        p = generate_instance(spec, seed=seed_base + i)
        entries.append((spec, p, classify(p)))
    return entries, time.monotonic() - t0


@pytest.fixture(scope="module")
def stable_corpus():
    specs = [StructureSpec(label=LABEL_STABLE, degree=2 + i % 7)
             for i in range(PER_CLASS)]
    return _timed_corpus(specs, 11_000)


@pytest.fixture(scope="module")
def quasi_corpus():
    specs = [StructureSpec(label=LABEL_QUASI, degree=2 + i % 7,
                           degeneracy_m=1 + i % 2)
             for i in range(PER_CLASS)]
    return _timed_corpus(specs, 23_000)


@pytest.fixture(scope="module")
def si_corpus():
    specs = [StructureSpec(label=LABEL_SI, degree=2 + i % 7,
                           si_type="I" if i % 2 == 0 else "II")
             for i in range(PER_CLASS)]
    return _timed_corpus(specs, 37_000)


@pytest.fixture(scope="module")
def gh_corpus():
    # order (n+1)//2 is the self-interlacing shape and order 0 the stable
    # one, so proper orders need degree >= 3; instances keep the
    # right-half-plane orientation throughout.
    specs = []
    for i in range(PER_CLASS):
        n = 3 + i % 6
        kmax = (n + 1) // 2
        specs.append(StructureSpec(label=LABEL_GH, degree=n,
                                   order_k=1 + i % (kmax - 1)))
    return _timed_corpus(specs, 41_000)


def test_criterion_1_generator_round_trip(stable_corpus, quasi_corpus,
                                          si_corpus, gh_corpus):
    """Every constructed instance classifies back to its construction data."""
    mismatches = []
    entries, t_stable = stable_corpus
    for spec, p, rep in entries:
        if rep.label != LABEL_STABLE or rep.order_k != 0:
            mismatches.append((spec, p.coeffs, rep))
    entries, t_quasi = quasi_corpus
    for spec, p, rep in entries:
        if rep.label != LABEL_QUASI or rep.degeneracy_m != spec.degeneracy_m:
            mismatches.append((spec, p.coeffs, rep))
    entries, t_si = si_corpus
    for spec, p, rep in entries:
        if rep.label != LABEL_SI or rep.si_type != spec.si_type \
                or rep.order_k != (spec.degree + 1) // 2:
            mismatches.append((spec, p.coeffs, rep))
    entries, t_gh = gh_corpus
    for spec, p, rep in entries:
        if rep.label != LABEL_GH or rep.order_k != spec.order_k \
                or rep.si_type != "I":
            mismatches.append((spec, p.coeffs, rep))
    assert not mismatches, mismatches[:5]
    total = t_stable + t_quasi + t_si + t_gh
    assert total < 120.0, f"corpus build and classification took {total:.1f} s"


def test_criterion_2_stability_criteria_equivalence(stable_corpus, quasi_corpus,
                                                    si_corpus, gh_corpus):
    """Minor positivity, the eta chain, total nonnegativity of the finite
    Hurwitz matrix (nonsingular, degrees up to 6), and all four
    coefficient-minor shortcuts return one shared verdict everywhere."""
    controls = si_corpus[0][:400] + gh_corpus[0][:400] + quasi_corpus[0][:200]
    pool = [(p, True) for _, p, _ in stable_corpus[0]]
    pool += [(p, False) for _, p, _ in controls]
    assert len(pool) == 2 * PER_CLASS
    disagreements = []
    for p, expected in pool:
        assert p.coeffs[0] > 0
        mins = hurwitz_minors(p)
        verdicts = {
            "delta": all(d > 0 for d in mins.delta),
            "eta": all(e > 0 for e in mins.eta),
        }
        for variant in (1, 2, 3, 4):
            verdicts["lc%d" % variant] = lienard_chipart(p, variant)
        if p.degree <= 6:
            rows = finite_hurwitz_matrix(p)
            verdicts["tn"] = (total_nonnegativity_scan(rows).ok
                              and exact_det(rows) != 0)
        if any(v != expected for v in verdicts.values()):
            disagreements.append((p.coeffs, expected, verdicts))
    assert not disagreements, disagreements[:3]


def test_criterion_3_duality_bridges(si_corpus):
    """The sign-twist transform sends type I interlacing to stability, the
    minor bridges between p and its image hold with exact equality, and
    applying the transform twice recovers p."""
    picks = [(spec, p) for spec, p, _ in si_corpus[0] if spec.si_type == "I"]
    picks = picks[:300]
    assert len(picks) == 300

    def delta(minors, j):
        return Fraction(1) if j == 0 else minors[j - 1]

    for spec, p in picks:
        n = p.degree
        q = dual_transform(p)
        assert classify(q).label == LABEL_STABLE
        assert dual_transform(q) == p
        dp = hurwitz_minors(p).delta
        dq = hurwitz_minors(q).delta
        for j in range(1, n // 2 + 1):
            assert delta(dq, n + 1 - 2 * j) == delta(dp, n + 1 - 2 * j)
        for j in range(0, n // 2 + 1):
            idx = n - 2 * j
            sign = (-1) ** ((n + 1) // 2 - j)
            assert delta(dq, idx) == sign * delta(dp, idx)


def _same_function(A, B):
    # reconstruction leaves quotients unnormalized, so compare by
    # cross-multiplication instead of by parts
    return A.num * B.den == B.num * A.den


def _negative_even_positions(cf):
    """Negative entries among c_0, c_2, c_4, ... of a split-quotient CF."""
    return sum(1 for c in cf.c[1::2] if c < 0) + (1 if cf.c0 < 0 else 0)


def test_criterion_4_continued_fraction_sign_laws(stable_corpus, si_corpus,
                                                  gh_corpus):
    """Positivity of all partial coefficients characterizes stability, the
    alternating pattern characterizes interlacing (mirrored for type II),
    the count of negative even-position coefficients equals the order, and
    folding the fraction back always recovers the reduced split quotient."""
    for _, p, _ in stable_corpus[0]:
        cf = cf_from_hurwitz_minors(p)
        if p.degree % 2 == 0:
            assert cf.c0 == 0
        else:
            assert cf.c0 > 0
        assert all(c > 0 for c in cf.c)
        assert _same_function(cf_reconstruct(cf),
                              associated_function(p).reduced())

    for spec, p, _ in si_corpus[0]:
        cf = stieltjes_expand(associated_function(p))
        if spec.si_type == "I":
            assert all((c > 0 if i % 2 == 1 else c < 0)
                       for i, c in enumerate(cf.c, start=1))
            assert cf.c0 == 0 if p.degree % 2 == 0 else cf.c0 < 0
        else:
            assert all((c < 0 if i % 2 == 1 else c > 0)
                       for i, c in enumerate(cf.c, start=1))
            assert cf.c0 == 0 if p.degree % 2 == 0 else cf.c0 > 0
        assert _same_function(cf_reconstruct(cf),
                              associated_function(p).reduced())

    skipped = 0
    for _, p, rep in gh_corpus[0]:
        try:
            cf = stieltjes_expand(associated_function(p))
        except (NoCFError, DegenerateSplitError):
            # a required minor vanished; the count law presumes none do
            skipped += 1
            continue
        assert _negative_even_positions(cf) == rep.order_k
        assert _same_function(cf_reconstruct(cf),
                              associated_function(p).reduced())
    assert skipped < PER_CLASS // 10, f"{skipped} expansions did not exist"


def test_criterion_5_determinant_identities():
    """Both families of interleaved-minor identities, checked three ways
    on random polynomials of degree up to 8, classifiable or not.

    With q(z) = (-1)^n p(-z) and a0 the shared leading coefficient:

      nabla_2j(p, q) = a0^2j D_j(q/p)  = (-1)^(j(j+1)/2) 2^j a0 D_{j-1} D_j
      nabla_2j(q, p) = a0^2j D_j(p/q)  = (-1)^(j(j-1)/2) 2^j a0 D_{j-1} D_j

    and with h(z) = -2 (a1 z^n + a3 z^(n-2) + ...) read at formal degree n:

      nabla_2j(p, h)  = a0^2j Dhat_j(q/p) = (-1)^(j(j-1)/2) 2^j D_j^2
      nabla_2j(q, -h) = a0^2j Dhat_j(p/q) = the same value,

    where D_j are the leading Hurwitz minors of p and D_0 = 1.
    """
    rng = random.Random(20260823)
    full_checks = 0
    for trial in range(500):
        n = 1 + trial % 8
        coeffs = [Fraction(rng.choice([1, 2, 3, -1, -2, 5]),
                           rng.choice([1, 2]))]
        coeffs += [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4]))
                   for _ in range(n)]
        p = Polynomial(coeffs)
        a0 = p.coeffs[0]
        q = reflect(p) if n % 2 == 0 else -reflect(p)
        delta = hurwitz_minors(p).delta

        def D(j):
            return Fraction(1) if j == 0 else delta[j - 1]

        npq = nabla_minors(p, q).nabla
        nqp = nabla_minors(q, p).nabla
        mr = hankel_minors(laurent_expand(RationalFunction(q, p).reduced(), n),
                           n)
        mf = hankel_minors(laurent_expand(RationalFunction(p, q).reduced(), n),
                           n)
        for j in range(1, n + 1):
            base = 2 ** j * a0 * D(j - 1) * D(j)
            assert npq[2 * j - 1] == (-1) ** (j * (j + 1) // 2) * base
            assert npq[2 * j - 1] == a0 ** (2 * j) * mr.D[j - 1]
            assert nqp[2 * j - 1] == (-1) ** (j * (j - 1) // 2) * base
            assert nqp[2 * j - 1] == a0 ** (2 * j) * mf.D[j - 1]

        hc = [Fraction(0)] * (n + 1)
        for i in range(0, n, 2):
            hc[i] = -2 * p.coeff(i + 1)
        if not any(hc):
            # all odd-position coefficients vanish, so the whole first
            # row of the Hurwitz matrix is zero and everything degenerates
            assert all(d == 0 for d in delta)
            continue
        h = Polynomial(hc)
        nph = nabla_minors(p, h, size=2 * n + 1).nabla
        nqh = nabla_minors(q, -h, size=2 * n + 1).nabla
        for j in range(1, n + 1):
            want = (-1) ** (j * (j - 1) // 2) * 2 ** j * D(j) ** 2
            assert nph[2 * j - 1] == want
            assert nqh[2 * j - 1] == want
            assert a0 ** (2 * j) * mr.Dhat[j - 1] == want
            assert a0 ** (2 * j) * mf.Dhat[j - 1] == want
        full_checks += 1
    assert full_checks >= 400


def _odd_chain_order(p):
    """The order from the second coefficient chain a_n, a_{n-1}, a_{n-3},
    ... (a_{n-1}, a_{n-3}, ... plus one when a_n = 0)."""
    n = p.degree
    odd = [p.coeff(i) for i in range(n - 1, -1, -2)] + [Fraction(1)]
    if p.coeff(n) != 0:
        return strong_sign_changes([p.coeff(n)] + odd)
    return strong_sign_changes(odd) + 1


def test_criterion_6_order_formulas_agree(gh_corpus):
    """The sign-change order, the strong-sign-change shortcut order from
    either coefficient chain, and the closed right-half-plane root count
    coincide on every instance."""
    for spec, p, rep in gh_corpus[0]:
        assert rep.label == LABEL_GH
        k = rep.order_k
        assert k == spec.order_k
        assert generalized_lienard_chipart_order(p) == k
        assert _odd_chain_order(p) == k
        roots = numeric_roots(p)
        assert sum(1 for z in roots if z.real > -SNAP_TOL) == k
        oracle_rep = classify_by_roots(roots)
        assert oracle_rep.label == LABEL_GH
        assert oracle_rep.order_k == k


def test_criterion_7_pole_sign_counting():
    """Certified pole counts on generated upper-to-lower half-plane maps,
    plus the all-one-sign shortcuts through the Hankel character test."""
    for seed in range(500):
        inst = generate_r_function(seed)
        R = inst.function
        cert = is_r_function(R)
        assert cert is not None, seed
        assert cert.pole_count == len(inst.poles)
        assert pole_sign_count(R, cert) == (inst.negative_pole_count,
                                            inst.positive_pole_count,
                                            inst.pole_at_zero)
        red = R.reduced()
        r = red.den.degree
        minors = hankel_minors(laurent_expand(red, r), r)
        all_neg = inst.negative_pole_count == len(inst.poles)
        all_pos = inst.positive_pole_count == len(inst.poles)
        assert hankel_character_test(minors, "strict-tp") == all_pos
        assert hankel_character_test(minors, "sign-regular") == all_neg


def _assert_eigen_pattern(p):
    """Numeric leg: eigenvalues real, simple, alternating in sign with
    strictly growing magnitudes, at tolerance EIGEN_TOL."""
    roots = sorted(numeric_roots(p), key=abs)
    assert all(abs(z.imag) <= EIGEN_TOL for z in roots)
    vals = [z.real for z in roots]
    for a, b in zip(vals, vals[1:]):
        assert abs(b) - abs(a) > EIGEN_TOL
        assert a * b < 0


def _min_gap(p):
    roots = list(numeric_roots(p))
    return min((abs(a - b) for i, a in enumerate(roots)
                for b in roots[i + 1:]), default=float("inf"))


def test_criterion_8_matrix_spectra():
    """Flipped totally nonnegative products show the alternating minor
    signature and a self-interlacing spectrum (type set by the parity of
    the size); anti-bidiagonal matrices match their tridiagonal partners
    exactly and also carry self-interlacing spectra; the corner-minor and
    flipped leading-minor readings of the band criterion always agree."""
    produced = 0
    seed = 0
    while produced < 200:
        n = 2 + produced % 5
        seed += 1
        A = random_tn_matrix(n, seed)
        if not entries_condition(A):
            continue
        M = flip(n) * A
        cp = char_poly(M)
        if _min_gap(cp) < EIGEN_GAP:
            continue
        sig = signature_scan(M)
        assert sig.definite and sig.signs == flip_signature(n)
        assert si_spectrum_check(M)
        rep = classify(cp)
        assert rep.label == LABEL_SI
        assert rep.si_type == ("I" if n % 2 == 1 else "II")
        _assert_eigen_pattern(cp)
        produced += 1

    rng = random.Random(4926)
    produced = 0
    while produced < 200:
        n = 2 + produced % 5
        a1 = Fraction(rng.randint(1, 8), 2)
        b = [Fraction(rng.randint(1, 8), 2) for _ in range(n - 1)]
        c = [Fraction(rng.randint(1, 8), 2) for _ in range(n - 1)]
        M = anti_bidiagonal(a1, b, c)
        cp = char_poly(M)
        assert cp == char_poly(tridiagonal_equivalent(a1, b, c))
        if _min_gap(cp) < EIGEN_GAP:
            continue
        assert si_spectrum_check(M)
        _assert_eigen_pattern(cp)
        produced += 1

    rng = random.Random(71)
    verdicts = set()
    for _ in range(100):
        n = rng.randint(2, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if j == n - 1 - i or j == n - 2 - i \
                        or (i >= 1 and j == n - i):
                    rows[i][j] = Fraction(rng.randint(1, 9),
                                          rng.choice([1, 2]))
        M = ExactMatrix(rows)
        corner = all(
            M.minor(range(k), range(n - k, n)) * flip_signature(n)[k - 1] > 0
            for k in range(1, n + 1))
        jacobi = all(v > 0 for v in leading_minors((flip(n) * M).rows))
        assert corner == jacobi == anti_tridiagonal_criterion(M)
        verdicts.add(corner)
    assert verdicts == {True, False}


def test_criterion_9_half_twist_counts():
    """The half-plane counts of the two half-twisted recombinations of
    stable polynomials follow the n mod 4 law (see `strange_experiment`)
    on every instance and both images, with no zeros on the axis; every
    violation is printed alongside its roots.  Degree 2, where the first
    image always has real roots only, obeys the same law."""
    def expected(n):
        # (right, left, axis) for q1 = p0(-z^2) + z p1(z^2) and
        # q2 = p0(z^2) + z p1(-z^2)
        right1 = {0: n // 2, 1: (n - 1) // 2, 2: n // 2, 3: (n + 1) // 2}
        right2 = {0: n // 2, 1: (n - 1) // 2, 2: n // 2 - 1, 3: (n - 1) // 2}
        return [(r, n - r, 0) for r in (right1[n % 4], right2[n % 4])]

    held = 0
    violations = []
    for i in range(200):
        n = 3 + i % 6
        p = generate_instance(StructureSpec(label=LABEL_STABLE, degree=n),
                              seed=90_000 + i)
        report = strange_experiment(p)
        counts = [(im["right_count"], im["left_count"], im["axis_count"])
                  for im in report["images"]]
        if counts == expected(n) and all(im["counts_match"]
                                         for im in report["images"]):
            held += 1
        else:
            violations.append((n, report))
    for n, report in violations:
        for side, im in enumerate(report["images"], start=1):
            print("degree %d image %d: right %d left %d axis %d "
                  "(expected %s) roots %s"
                  % (n, side, im["right_count"], im["left_count"],
                     im["axis_count"], expected(n)[side - 1], im["roots"]))

    # degree 2: the first image has two real roots of opposite sign, the
    # counts follow the law, and the moduli do not interlace
    exc = strange_experiment(Polynomial([1, 2, 1]))["images"][0]
    assert (exc["right_count"], exc["left_count"], exc["axis_count"]) \
        == expected(2)[0]
    assert exc["counts_match"] and exc["no_axis_roots"]
    assert all(abs(root[1]) < EIGEN_TOL for root in exc["roots"])
    assert not exc["moduli_interlace"]

    assert held == 200, (
        "the n mod 4 half-plane counts held in %d/200 instances; "
        "the printed log lists each violation with its roots" % held)
