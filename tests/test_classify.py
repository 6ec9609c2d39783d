"""Zero-location taxonomy, duality, and the criterion variants."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

from genhurwitz.polyalg import (
    InvalidInputError,
    Polynomial,
    RationalFunction,
    compose_even,
    even_odd_split,
    laurent_expand,
    poly_gcd,
    reflect,
    times_z,
)
from genhurwitz.minors import (
    _routh,
    hankel_minors,
    hurwitz_minors,
    strong_sign_changes,
)
from genhurwitz.oracle import StructureSpec, generate_instance
from genhurwitz.classify import (
    LABELS,
    _dual_facts,
    _quasi_certificate,
    _real_nonpositive_u_roots,
    _split_facts,
    classify,
    derivative_family,
    dual_transform,
    generalized_lienard_chipart_order,
    is_r_function,
    lienard_chipart,
    new_stability_criterion,
    pole_sign_count,
    subsample_family,
)

from test_golden import (
    outcome,
    refuse_bareiss,
    refuse_series_route,
    rfunc_corpus,
    stability_corpus,
    stalled,
)
from test_minors import leading_minors

F = Fraction


def P(*cs):
    return Polynomial(list(cs))


def RF(num, den):
    return RationalFunction(P(*num), P(*den))


class TestClassifyCoreExamples:
    def test_stable(self):
        r = classify(P(1, 2, 1))
        assert (r.label, r.order_k) == ("hurwitz-stable", 0)
        assert r.degeneracy_m is None and r.si_type is None

    def test_quasi_stable_simple_origin(self):
        r = classify(P(1, 1, 0))
        assert (r.label, r.degeneracy_m) == ("quasi-stable", 1)
        assert r.order_k is None

    def test_quasi_stable_imaginary_pair(self):
        r = classify(P(1, 1, 1, 1))        # (z+1)(z^2+1)
        assert (r.label, r.degeneracy_m) == ("quasi-stable", 2)

    def test_quasi_stable_odd_polynomial(self):
        r = classify(P(1, 0, 1, 0))        # z(z^2+1), all roots on the axis
        assert (r.label, r.degeneracy_m) == ("quasi-stable", 3)

    def test_self_interlacing_type_one(self):
        r = classify(P(1, 1, -2))          # roots 1, -2
        assert (r.label, r.si_type, r.order_k) == ("self-interlacing", "I", 1)

    def test_self_interlacing_type_two(self):
        r = classify(P(1, -1, -2))         # roots -1, 2
        assert (r.label, r.si_type, r.order_k) == ("self-interlacing", "II", 1)

    def test_almost_self_interlacing_both_types(self):
        one = classify(P(1, 2, -5, -6, 0))     # z(z+1)(z-2)(z+3)
        two = classify(P(1, -2, -5, 6, 0))     # z(z-1)(z+2)(z-3)
        assert (one.label, one.si_type, one.order_k) == (
            "almost-self-interlacing", "I", 2)
        assert (two.label, two.si_type, two.order_k) == (
            "almost-self-interlacing", "II", 2)

    def test_quasi_self_interlacing(self):
        r = classify(P(1, -1, -1, 1))      # (z-1)^2 (z+1)
        assert (r.label, r.si_type, r.degeneracy_m) == (
            "quasi-self-interlacing", "I", 2)
        assert r.order_k is None

    def test_quasi_self_interlacing_with_origin_pair(self):
        r = classify(P(1, 0, -1, 0, 0))    # z^2 (z-1)(z+1)
        assert (r.label, r.degeneracy_m) == ("quasi-self-interlacing", 4)

    def test_generalized_hurwitz(self):
        r = classify(P(1, 4, 1, -6))       # roots 1, -2, -3
        assert (r.label, r.si_type, r.order_k) == (
            "generalized-hurwitz", "I", 1)

    def test_anti_stable_gets_no_label(self):
        assert classify(P(1, -2, 1)).label == "unclassified"

    def test_quadrant_symmetric_gets_no_label(self):
        assert classify(P(1, 0, 0, 0, 4)).label == "unclassified"


class TestClassifyConventions:
    def test_degree_one_lookup(self):
        assert classify(P(1, 1)).label == "hurwitz-stable"
        si = classify(P(1, -1))
        assert (si.label, si.si_type, si.order_k) == (
            "self-interlacing", "I", 1)
        assert classify(P(1, 0)).degeneracy_m == 1

    def test_negative_leading_is_normalized(self):
        assert classify(P(-1, -2, -1)).label == "hurwitz-stable"
        assert classify(P(-1, -2, -1)).certificates["sign_normalized"]

    def test_accepts_plain_sequences(self):
        assert classify([1, 2, 1]).label == "hurwitz-stable"
        assert classify((1, 1, -2)).si_type == "I"

    def test_scaling_invariance(self):
        for cs in [(1, 2, 1), (1, 1, -2), (1, 4, 1, -6), (1, -1, -1, 1)]:
            base = classify(P(*cs))
            scaled = classify(P(*cs) * F(3, 7))
            assert (base.label, base.order_k, base.degeneracy_m,
                    base.si_type) == (scaled.label, scaled.order_k,
                                      scaled.degeneracy_m, scaled.si_type)

    def test_all_labels_are_known(self):
        for cs in [(1, 2, 1), (1, 1, 0), (1, 1, -2), (1, 2, -5, -6, 0),
                   (1, -1, -1, 1), (1, 4, 1, -6), (1, -2, 1)]:
            assert classify(P(*cs)).label in LABELS

    def test_zero_polynomial_refused(self):
        with pytest.raises(InvalidInputError):
            classify(Polynomial([]))

    def test_constant_is_unclassified(self):
        assert classify(P(5)).label == "unclassified"

    def test_report_serializes(self):
        d = classify(P(1, 4, 1, -6)).to_json_dict()
        assert d["label"] == "generalized-hurwitz"
        assert d["order_k"] == 1
        assert isinstance(d["certificates"]["delta"], list)

    def test_si_order_is_maximal(self):
        # degree 5 with alternating roots 1,-2,3,-4,5
        p = P(1)
        for root in (1, -2, 3, -4, 5):
            p = p * P(1, -root)
        r = classify(p)
        assert (r.label, r.si_type) == ("self-interlacing", "I")
        assert r.order_k == 3      # floor((5+1)/2)


class TestDualTransform:
    def test_interlacing_to_stable(self):
        assert dual_transform(P(1, 1, -2)).coeffs == (F(1), F(1), F(2))

    def test_stable_to_interlacing_direction(self):
        assert dual_transform(P(1, 2, 1)).coeffs == (F(1), F(2), F(-1))

    def test_constant_fixed(self):
        assert dual_transform(P(5)).coeffs == (F(5),)

    @pytest.mark.parametrize("cs", [(1, 1, -2), (1, 2, 1), (1, 4, 1, -6),
                                    (2, -3, 0, 5, 1), (1, 0, 0, 1)])
    def test_involution(self, cs):
        p = P(*cs)
        assert dual_transform(dual_transform(p)) == p

    def test_dual_of_si_is_stable(self):
        p = P(1)
        for root in (1, -2, 3):
            p = p * P(1, -root)
        assert classify(p).si_type == "I"
        assert classify(dual_transform(p)).label == "hurwitz-stable"

    def test_zero_refused(self):
        with pytest.raises(InvalidInputError):
            dual_transform(Polynomial([]))


class TestLienardChipart:
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_stable_passes_all_variants(self, variant):
        assert lienard_chipart(P(1, 2, 1), variant)
        assert lienard_chipart(P(1, 6, 11, 6), variant)

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_sign_defect_fails_all_variants(self, variant):
        assert not lienard_chipart(P(1, 1, -2), variant)
        assert not lienard_chipart(P(1, 4, 1, -6), variant)

    def test_positive_coefficients_alone_do_not_suffice(self):
        # all coefficients positive yet a conjugate pair sits in the
        # right half plane; the minor half of the test must catch it
        p = P(1, 1, 4, 30)
        for variant in (1, 2, 3, 4):
            assert not lienard_chipart(p, variant)

    def test_variant_validation(self):
        with pytest.raises(InvalidInputError):
            lienard_chipart(P(1, 1), 5)

    def test_variants_agree_on_batch(self):
        polys = [(1, 2, 1), (1, 1, -2), (1, 3, 3, 1), (1, 1, 4, 30),
                 (2, 1, 1), (1, 10, 31, 30), (1, 0, 1), (1, 1, 0)]
        for cs in polys:
            votes = {lienard_chipart(P(*cs), v) for v in (1, 2, 3, 4)}
            assert len(votes) == 1, cs


class TestGeneralizedOrder:
    def test_frozen_orders(self):
        assert generalized_lienard_chipart_order(P(1, 4, 1, -6)) == 1
        assert generalized_lienard_chipart_order(P(1, 2, 1)) == 0
        assert generalized_lienard_chipart_order(P(1, 1, -2)) == 1

    def test_origin_zero_adds_one(self):
        assert generalized_lienard_chipart_order(P(1, 1, 0)) == 1

    def test_gate_failure_returns_none(self):
        assert generalized_lienard_chipart_order(P(1, -2, 1)) is None

    def test_degree_one(self):
        assert generalized_lienard_chipart_order(P(1, 1)) == 0
        assert generalized_lienard_chipart_order(P(1, -1)) == 1

    def test_matches_classify_order_on_gate_passers(self):
        for cs in [(1, 2, 1), (1, 4, 1, -6), (1, 1, -2), (1, 6, 11, 6)]:
            rep = classify(P(*cs))
            if rep.order_k is not None:
                assert generalized_lienard_chipart_order(P(*cs)) == rep.order_k


class TestNewStabilityCriterion:
    def test_frozen_examples(self):
        assert new_stability_criterion(P(1, 2, 1))
        assert not new_stability_criterion(P(1, 1, -2))
        assert new_stability_criterion(P(1, 1))

    def test_agrees_with_classify(self):
        batch = [(1, 2, 1), (1, 1, -2), (1, 6, 11, 6), (1, 1, 4, 30),
                 (1, 4, 1, -6), (1, 1, 0), (1, 0, 1), (1, 3, 3, 1),
                 (2, 5, 4, 1), (1, -2, 1)]
        for cs in batch:
            expect = classify(P(*cs)).label == "hurwitz-stable"
            assert new_stability_criterion(P(*cs)) == expect, cs

    def test_imaginary_axis_pair_rejected(self):
        # common factor between p(z) and p(-z) parks mass on the axis
        assert not new_stability_criterion(P(1, 1, 1, 1))


class TestRFunctionHelpers:
    def test_certificate_for_negative_pole(self):
        cert = is_r_function(RF([2], [1, 1]))
        assert cert is not None
        assert cert.pole_count == 1
        assert cert.hankel_chain == (F(2),)

    def test_upper_to_upper_map_rejected(self):
        assert is_r_function(RF([-1], [1, 0])) is None

    def test_positive_pole_certificate(self):
        cert = is_r_function(RF([1, 1], [4, -6]))
        assert cert is not None
        assert (cert.negative_pole_count, cert.positive_pole_count) == (0, 1)

    def test_pole_sign_counts(self):
        assert pole_sign_count(RF([2], [1, 1])) == (1, 0, False)
        assert pole_sign_count(RF([1], [1, -2])) == (0, 1, False)
        assert pole_sign_count(RF([1], [1, 0])) == (0, 0, True)

    def test_pole_sign_count_requires_certificate(self):
        with pytest.raises(InvalidInputError):
            pole_sign_count(RF([-1], [1, 0]))

    def test_mixed_poles_counted(self):
        # 1/(u+1) + 1/(u-2) with positive residues
        cert = is_r_function(RF([2, -1], [1, -1, -2]))
        assert cert is not None
        assert (cert.negative_pole_count, cert.positive_pole_count) == (1, 1)

    def test_no_euclid_series_or_sweep(self, monkeypatch):
        # certificates, pole counts and the stability verdict come from one
        # chain, stalled arrays included
        functions = list(rfunc_corpus())
        polys = list(stability_corpus())
        expected = [(outcome(is_r_function, R), outcome(pole_sign_count, R))
                    for R in functions]
        verdicts = [new_stability_criterion(p) for p in polys]
        assert any(stalled(R.num, R.den) for R in functions)
        assert any(stalled(Polynomial(
            [(-1) ** j * c for j, c in enumerate(p.coeffs)]), p)
            for p in polys)
        refuse_series_route(monkeypatch)
        refuse_bareiss(monkeypatch)
        for R, (cert, counts) in zip(functions, expected):
            assert outcome(is_r_function, R) == cert, R
            assert outcome(pole_sign_count, R) == counts, R
        assert [new_stability_criterion(p) for p in polys] == verdicts
        assert set(verdicts) == {True, False}


class TestStructuredFamilies:
    def test_derivative_family_degree_four(self):
        fam = derivative_family(P(1, 2, 3, 2, 1))
        assert len(fam) == 1
        assert fam[0].coeffs == (F(2), F(2), F(3))

    def test_derivative_family_small_degrees_empty(self):
        assert derivative_family(P(1, 2, 1)) == ()
        assert derivative_family(P(1, 1)) == ()

    def test_families_of_the_zero_polynomial(self):
        # its degree, -inf, compares below every int
        zero = Polynomial([])
        assert derivative_family(zero) == ()
        with pytest.raises(InvalidInputError, match="degree >= 1"):
            subsample_family(zero, 1)

    def test_derivative_family_preserves_stability(self):
        p = P(1, 10, 35, 50, 24)       # roots -1..-4
        assert classify(p).label == "hurwitz-stable"
        for member in derivative_family(p):
            assert classify(member).label == "hurwitz-stable"

    def test_derivative_family_preserves_interlacing(self):
        p = P(1)
        for root in (1, -2, 3, -4, 5, -6):
            p = p * P(1, -root)
        assert classify(p).si_type == "I"
        for member in derivative_family(p):
            assert classify(member).label == "self-interlacing"

    def test_subsample_identity_stride(self):
        p = P(1, 2, 3, 4, 5)
        assert subsample_family(p, 1) == p

    def test_subsample_even_pattern(self):
        p = P(1, 2, 3, 4, 5)
        assert subsample_family(p, 2).coeffs == (F(1), F(4), F(5), F(0), F(0))

    def test_subsample_odd_pattern(self):
        p = P(1, 2, 3, 4, 5, 6)
        assert subsample_family(p, 2).coeffs == (
            F(1), F(2), F(5), F(6), F(0), F(0))

    def test_subsample_stride_validation(self):
        with pytest.raises(InvalidInputError):
            subsample_family(P(1, 1, 1), 4)
        with pytest.raises(InvalidInputError):
            subsample_family(P(1, 1, 1), 0)


class TestReflectionBridge:
    # the mirrored polynomial swaps type I and type II
    @pytest.mark.parametrize("cs", [(1, 1, -2), (1, -2, -5, 6, 0)])
    def test_reflection_swaps_types(self, cs):
        before = classify(P(*cs))
        after = classify(reflect(P(*cs)))
        assert before.label == after.label
        assert {before.si_type, after.si_type} == {"I", "II"}


def _mixed_corpus():
    """Generated quasi and quasi-SI instances plus random small-integer
    polynomials, many with vanishing minors or an origin zero."""
    rng = random.Random(909)
    polys = []
    for i in range(120):
        for label, m, si_type in (("quasi-stable", 2 + i % 2, "I"),
                                  ("quasi-self-interlacing", 2, "I"),
                                  ("quasi-self-interlacing", 2, "II")):
            spec = StructureSpec(label=label, degree=3 + i % 6,
                                 si_type=si_type, degeneracy_m=m)
            polys.append(generate_instance(spec, seed=i))
    for _ in range(400):
        n = rng.randint(1, 8)
        polys.append(Polynomial([rng.choice([-2, -1, 1, 2])]
                                + [rng.randint(-2, 2) for _ in range(n)]))
    return polys


class TestReportCertificates:
    def test_certificates_recompose_and_stable_chains_are_positive(self):
        seen = set()
        for p in _mixed_corpus():
            rep = classify(p)
            cert = rep.certificates
            normalized = -p if p.coeffs[0] < 0 else p
            for key, image in (("quasi_certificate", normalized),
                               ("dual_quasi_certificate",
                                cert.get("dual_image"))):
                if key in cert:
                    q = cert[key]
                    assert compose_even(q["even_factor_u"]) * q["cofactor"] \
                        == image
                    seen.add(key)
            if rep.label == "hurwitz-stable" and "delta" in cert:
                assert all(d > 0 for d in cert["delta"])
                seen.add("stable")
        assert seen == {"quasi_certificate", "dual_quasi_certificate",
                        "stable"}


def _two_family_verdict(f):
    """The Hankel route without Descartes: D_j > 0 and (-1)^j Dhat_j > 0
    for the power-sum series of the origin-stripped f."""
    while f.power_coeff(0) == 0:
        f = f // P(1, 0)
    if f.degree == 0:
        return True
    G = RationalFunction(f.derivative(), f).reduced()
    r = G.den.degree
    mn = hankel_minors(laurent_expand(G, r), r)
    return all(d > 0 for d in mn.D) and all(
        (dh if j % 2 == 0 else -dh) > 0 for j, dh in enumerate(mn.Dhat, 1))


def _hankel_descartes_verdict(f):
    """The root check before the Routh kernel: f'/f reduced, its first
    Hankel family positive through the distinct-root count, then no
    coefficient sign change (Descartes' rule is exact for real roots)."""
    if f.degree == 0:
        return True
    while f.power_coeff(0) == 0:
        f = f // P(1, 0)
    if f.degree == 0:
        return True
    G = RationalFunction(f.derivative(), f).reduced()
    r = G.den.degree
    s = laurent_expand(G, r).s
    hankel = [[s[i + k] for k in range(r)] for i in range(r)]
    if any(d <= 0 for d in leading_minors(hankel)):
        return False
    return strong_sign_changes(f.coeffs) == 0


class TestEvenFactorRoots:
    def test_matches_construction_and_two_family_route(self):
        # products of (u + a), origin and repeated roots included, and
        # of quadratics with a complex pair, under leading coefficients of
        # either sign, integer or not
        rng = random.Random(31)
        seen = set()
        for _ in range(600):
            f, truth = P(rng.choice([1, 2, F(1, 3), -1, F(-5, 2)])), True
            shapes = set()
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.2:
                    b = rng.randint(-2, 2)
                    f = f * P(1, b, b * b + rng.randint(1, 3))
                    truth = False
                    shapes.add("complex pair")
                else:
                    a = rng.randint(-2, 3)
                    f = f * P(1, a)
                    truth = truth and a >= 0
                    shapes.add("origin" if a == 0 else
                               "positive" if a < 0 else "negative")
            if poly_gcd(f, f.derivative()).degree > 0:
                shapes.add("repeated")
            assert _real_nonpositive_u_roots(f) == truth, f
            assert _hankel_descartes_verdict(f) == truth, f
            assert _two_family_verdict(f) == truth, f
            seen.update((shape, truth) for shape in shapes)
        assert seen >= {("origin", True), ("negative", True),
                        ("repeated", True), ("positive", False),
                        ("complex pair", False), ("repeated", False)}


def _direct_split(p):
    """(f, q) by the Euclid on p's own halves and long division by f(z^2)."""
    split = even_odd_split(p)
    if split.p0.is_zero() or split.p1.is_zero():
        f = (split.p1 if split.p0.is_zero() else split.p0).monic()
    else:
        f = poly_gcd(split.p0, split.p1)
    q, rem = divmod(p, compose_even(f))
    assert rem.is_zero()
    return f, q


def _split_inputs():
    """f(z^2) * g with g's halves coprime or not, times z or not."""
    rng = random.Random(2024)
    for _ in range(300):
        f = Polynomial([1] + [rng.randint(-3, 3)
                              for _ in range(rng.randint(0, 3))])
        g = Polynomial([rng.choice([1, 2, 3])]
                       + [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        p = compose_even(f) * g
        if rng.random() < 0.4:
            p = times_z(p)
        if p.degree >= 2:
            yield p


class TestDerivedSplits:
    def test_match_the_direct_route_on_both_images(self):
        seen = set()
        for p in _split_inputs():
            facts = _split_facts(p, hurwitz_minors(p))
            for image, derived in ((p, facts),
                                   (dual_transform(p), _dual_facts(facts))):
                cert = _quasi_certificate(image, derived)
                q = cert["cofactor"]
                assert (cert["even_factor_u"], q) == _direct_split(image), \
                    image
                assert q.degree == derived.q_degree, image
                assert ((q.power_coeff(0) == 0) == derived.origin
                        == ("cofactor_origin_zero" in cert)), image
                # the cofactor's halves are coprime, so z^2 never divides
                # it: at most a simple origin zero is left to strip
                assert q.power_coeff(0) != 0 or q.power_coeff(1) != 0, image
            # the reflected run reuses p's split facts: the reflection's
            # own split (and its dual's) differ from p's (and its dual's)
            # only in facts the tree never reads
            rp = reflect(p)
            rp = -rp if rp.coeffs[0] < 0 else rp
            for image, derived in ((rp, facts),
                                   (dual_transform(rp), _dual_facts(facts))):
                f, q = _direct_split(image)
                assert f == derived.f, image
                assert q.degree == derived.q_degree, image
                assert (q.power_coeff(0) == 0) == derived.origin, image
            seen.add((facts.f.degree > 0, facts.origin,
                      facts.q_degree - facts.origin == 0))
        assert {(True, False, False), (True, True, False), (True, False, True),
                (True, True, True), (False, False, False),
                (False, True, False)} <= seen

    def test_cofactors_and_dual_images_only_for_kept_certificates(
            self, monkeypatch):
        # the tree reads sign chains and split facts: the one division
        # p // f(z^2) and the dual transforms run only for a report that
        # shows a cofactor or a dual image
        module = sys.modules["genhurwitz.classify"]
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped
        for name in ("__divmod__", "__floordiv__"):
            monkeypatch.setattr(Polynomial, name,
                                counting(name, getattr(Polynomial, name)))
        monkeypatch.setattr(module, "dual_transform",
                            counting("dual", module.dual_transform))
        reached = set()
        for p in list(_split_inputs()) + list(_mixed_corpus()):
            calls.clear()
            cert = classify(p).certificates
            kept = [key for key in ("quasi_certificate",
                                    "dual_quasi_certificate", "dual_image")
                    if key in cert]
            assert calls == ((["dual"] if "dual_image" in cert else [])
                             + (["__floordiv__", "__divmod__"] if kept
                                else [])), p
            # a report without them, after a reflected run or not
            reached.update(kept or ["reflected_label" in cert])
        assert reached == {False, True, "quasi_certificate",
                           "dual_quasi_certificate", "dual_image"}

    def test_one_hurwitz_sweep_per_classification(self, monkeypatch):
        # no cofactor and no image is swept: each reads a prefix of, or a
        # sign law applied to, the chain of the classified polynomial
        module = sys.modules["genhurwitz.classify"]
        calls = []

        def counting(p):
            calls.append(p)
            return hurwitz_minors(p)
        monkeypatch.setattr(module, "hurwitz_minors", counting)
        reached = set()
        for p in _split_inputs():
            calls.clear()
            cert = classify(p).certificates
            assert len(calls) == 1, p
            reached.update(key for key in ("quasi_certificate",
                                           "dual_quasi_certificate",
                                           "reflected_label") if key in cert)
        assert reached == {"quasi_certificate", "dual_quasi_certificate",
                           "reflected_label"}

    def test_zero_row_inputs_take_no_euclid_series_or_sweep(self,
                                                            monkeypatch):
        # p's Routh array gives the even factor, and the root check on it
        # is a second Routh array, so past a whole zero row (or a complete
        # array) no image takes a gcd, a Laurent series, a Hankel table or
        # a Bareiss determinant
        stalls = [_routh(p.coeffs)[2] for p in _split_inputs()]
        refuse_series_route(monkeypatch)
        refuse_bareiss(monkeypatch)
        reached = set()
        for p, stalled in zip(_split_inputs(), stalls):
            if stalled:
                continue
            cert = classify(p).certificates
            reached.update(key for key in ("quasi_certificate",
                                           "dual_quasi_certificate",
                                           "reflected_label") if key in cert)
            quasi = cert.get("quasi_certificate")
            if quasi is not None and quasi["even_factor_u"].degree > 0:
                reached.add("root check on a shared even factor")
        assert reached == {"quasi_certificate", "dual_quasi_certificate",
                           "reflected_label",
                           "root check on a shared even factor"}

    def test_no_euclid_when_delta_n_minus_1_is_nonzero(self, monkeypatch):
        # by Orlando's formula the halves are then coprime, so no image of
        # the classification needs a gcd, stalled arrays included
        def refuse(a, b):
            raise AssertionError("Euclid ran on coprime halves")
        coprime = [p for p in _mixed_corpus() if p.degree >= 2
                   and hurwitz_minors(p).delta[p.degree - 2] != 0]
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "genhurwitz" and hasattr(module,
                                                              "poly_gcd"):
                monkeypatch.setattr(module, "poly_gcd", refuse)
        reached = stalled = 0
        for p in coprime:
            reached += "reflected_label" in classify(p).certificates
            stalled += _routh(p.coeffs)[2]
        assert reached > 50
        assert stalled > 0

    def test_no_image_takes_euclid_series_or_sweep(self, monkeypatch):
        # p's chain gives the even factor (Routh array or, past a stall,
        # signed subresultants), and the root check on it is a second
        # chain, so no image takes a gcd, a Laurent series, a Hankel table
        # or a Bareiss determinant, stalled arrays included; past a whole
        # zero row (or a complete array) every certificate case is reached
        inputs = list(_split_inputs()) + list(_mixed_corpus())
        reports = [classify(p) for p in inputs]
        refuse_series_route(monkeypatch)
        refuse_bareiss(monkeypatch)
        unstalled, stalls = set(), 0
        for p, report in zip(inputs, reports):
            assert classify(p) == report, p
            if _routh(p.coeffs)[2]:
                stalls += 1
                continue
            cert = report.certificates
            unstalled.update(key for key in ("quasi_certificate",
                                             "dual_quasi_certificate",
                                             "reflected_label") if key in cert)
            quasi = cert.get("quasi_certificate")
            if quasi is not None and quasi["even_factor_u"].degree > 0:
                unstalled.add("root check on a shared even factor")
        assert unstalled == {"quasi_certificate", "dual_quasi_certificate",
                             "reflected_label",
                             "root check on a shared even factor"}
        assert stalls > 0


class TestOnePass:
    def test_classify_takes_only_p(self):
        assert list(inspect.signature(classify).parameters) == ["p"]

    def test_no_classify_call_runs_inside_another(self, monkeypatch):
        # a self-call would go through the module attribute, so the
        # counter would see it
        module = sys.modules["genhurwitz.classify"]
        calls = []
        original = module.classify

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "classify", counting)
        reflected = 0
        for p in _mixed_corpus():
            calls.clear()
            reflected += "reflected_label" in module.classify(p).certificates
            assert len(calls) == 1, p
        assert reflected > 50

    def test_order_sequence_never_starts_with_zero_under_the_gate(self):
        # Delta_n = a_n Delta_{n-1} and, when a_n = 0,
        # Delta_{n-1} = a_{n-1} Delta_{n-2}: the gate keeps the anchor
        # of the Frobenius rule nonzero
        shapes = set()
        for p in list(_mixed_corpus()) + list(_split_inputs()):
            cert = classify(p).certificates
            if cert.get("gate_passed"):
                assert cert["scf_sequence"][0] != 0, p
                shapes.add((cert["constant_term_zero"],
                            0 in cert["scf_sequence"]))
        assert shapes == {(False, False), (True, False), (False, True),
                          (True, True)}
