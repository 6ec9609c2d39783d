"""Floating point cross-checks: root finder, generators, experiments."""

import math
import random
from fractions import Fraction

import pytest

from genhurwitz.polyalg import InvalidInputError, Polynomial, RationalFunction
from genhurwitz.classify import LABELS, classify, dual_transform
from genhurwitz.minors import _routh, hurwitz_minors
from genhurwitz.oracle import (
    BAND_TOL,
    SNAP_TOL,
    IndeterminateVerdict,
    NumericPartialFraction,
    OracleFailureError,
    StructureSpec,
    UnrealizableSpecError,
    classify_by_roots,
    generate_instance,
    generate_r_function,
    numeric_partial_fractions,
    numeric_roots,
    strange_experiment,
)

F = Fraction


def P(*cs):
    return Polynomial(list(cs))


class TestNumericRoots:
    def test_factorable_quadratic(self):
        rs = numeric_roots(P(1, 1, -2))
        assert rs.method == "aberth"
        assert sorted(round(r.real, 9) for r in rs) == [-2.0, 1.0]

    def test_double_root(self):
        rs = numeric_roots(P(1, 2, 1))
        for r in rs:
            assert abs(r - (-1.0)) < 1e-6

    def test_cubic(self):
        rs = numeric_roots(P(1, 4, 1, -6))
        assert sorted(round(r.real, 8) for r in rs) == [-3.0, -2.0, 1.0]

    def test_residuals_certify_the_output(self):
        rs = numeric_roots(P(1, 4, 1, -6))
        assert len(rs) == 3
        assert max(rs.residuals) < 1e-10

    def test_complex_pair(self):
        rs = numeric_roots(P(1, 0, 1))
        ims = sorted(round(r.imag, 9) for r in rs)
        assert ims == [-1.0, 1.0]

    def test_zero_polynomial_refused(self):
        with pytest.raises(InvalidInputError):
            numeric_roots(Polynomial([]))


class TestClassifyByRoots:
    def test_frozen_examples(self):
        assert classify_by_roots([1.0, -2.0, -3.0]).label == \
            "generalized-hurwitz"
        assert classify_by_roots([1.0, -2.0, -3.0]).order_k == 1
        assert classify_by_roots([-1.0, -1.0]).label == "hurwitz-stable"
        si = classify_by_roots([1.0, -2.0])
        assert (si.label, si.si_type, si.order_k) == (
            "self-interlacing", "I", 1)

    def test_certificate_carries_the_roots(self):
        rep = classify_by_roots([-1.0, -2.0])
        assert rep.certificates["method"] == "roots"
        assert len(rep.certificates["roots"]) == 2

    def test_near_axis_root_is_refused_not_guessed(self):
        mid = math.sqrt(SNAP_TOL * BAND_TOL)    # safely inside the band
        with pytest.raises(IndeterminateVerdict):
            classify_by_roots([mid, -2.0])

    def test_agreement_with_exact_route(self):
        for cs in [(1, 2, 1), (1, 1, -2), (1, 4, 1, -6), (1, 6, 11, 6),
                   (1, -1, -2), (1, 1, 0), (1, 2, -5, -6, 0)]:
            p = P(*cs)
            exact = classify(p)
            numeric = classify_by_roots(list(numeric_roots(p)))
            assert exact.label == numeric.label, cs
            assert exact.order_k == numeric.order_k, cs
            assert exact.si_type == numeric.si_type, cs


class TestDifferentialCorpus:
    def test_exact_verdicts_match_the_root_oracle(self):
        """Exact classify against the float root oracle on distinct random
        small-integer polynomials of degree 1-7: zero disagreements, the
        oracle's abstentions counted and skipped."""
        rng = random.Random(20261018)
        corpus = set()
        while len(corpus) < 2400:
            corpus.add((rng.choice([-3, -2, -1, 1, 2, 3]),)
                       + tuple(rng.randint(-3, 3)
                               for _ in range(rng.randint(1, 7))))
        abstained, labels, ends = 0, set(), set()
        for cs in sorted(corpus):
            p = Polynomial(cs)
            exact = classify(p)
            try:
                numeric = classify_by_roots(numeric_roots(p))
            except (IndeterminateVerdict, OracleFailureError):
                abstained += 1
                continue
            assert (exact.label, exact.order_k, exact.degeneracy_m,
                    exact.si_type) == (numeric.label, numeric.order_k,
                                       numeric.degeneracy_m,
                                       numeric.si_type), cs
            labels.add(exact.label)
            f = hurwitz_minors(p).halves_gcd
            ends.add("entry stall" if _routh(p.coeffs)[2] else
                     "shared even factor" if f.degree > 0 else "coprime")
        assert abstained < 20
        assert labels == set(LABELS)
        assert ends == {"entry stall", "shared even factor", "coprime"}


class TestGenerateInstance:
    def test_si_magnitudes_override(self):
        spec = StructureSpec(label="self-interlacing", degree=2,
                             magnitudes=(1, 2))
        assert generate_instance(spec, seed=0).coeffs == (F(1), F(1), F(-2))

    def test_stable_real_roots_override(self):
        spec = StructureSpec(label="hurwitz-stable", degree=2,
                             real_roots=(-1, -1))
        assert generate_instance(spec, seed=0).coeffs == (F(1), F(2), F(1))

    def test_generalized_real_roots_override(self):
        spec = StructureSpec(label="generalized-hurwitz", degree=3,
                             order_k=1, real_roots=(1, -2, -3))
        assert generate_instance(spec, seed=0).coeffs == (
            F(1), F(4), F(1), F(-6))

    def test_deterministic_in_seed(self):
        spec = StructureSpec(label="hurwitz-stable", degree=5)
        assert generate_instance(spec, seed=3) == generate_instance(spec, 3)

    def test_seeds_vary_the_output(self):
        spec = StructureSpec(label="hurwitz-stable", degree=6)
        outs = {generate_instance(spec, seed=s).coeffs for s in range(6)}
        assert len(outs) > 1

    def test_unrealizable_order_refused(self):
        with pytest.raises(UnrealizableSpecError):
            generate_instance(StructureSpec(
                label="generalized-hurwitz", degree=4, order_k=0), seed=0)
        with pytest.raises(UnrealizableSpecError):
            generate_instance(StructureSpec(
                label="generalized-hurwitz", degree=4, order_k=2), seed=0)

    @pytest.mark.parametrize("label,kwargs", [
        ("hurwitz-stable", {}),
        ("quasi-stable", {"degeneracy_m": 1}),
        ("quasi-stable", {"degeneracy_m": 2}),
        ("self-interlacing", {"si_type": "I"}),
        ("self-interlacing", {"si_type": "II"}),
        ("generalized-hurwitz", {"order_k": 1}),
        ("quasi-self-interlacing", {"degeneracy_m": 2}),
    ])
    def test_construction_matches_classification(self, label, kwargs):
        for degree in (4, 5):
            for seed in (1, 2, 3):
                spec = StructureSpec(label=label, degree=degree, **kwargs)
                p = generate_instance(spec, seed=seed)
                rep = classify(p)
                assert rep.label == label, (label, degree, seed, p.coeffs)
                if "order_k" in kwargs:
                    assert rep.order_k == kwargs["order_k"]
                if "degeneracy_m" in kwargs:
                    assert rep.degeneracy_m == kwargs["degeneracy_m"]
                if "si_type" in kwargs:
                    assert rep.si_type == kwargs["si_type"]


class TestGenerateRFunction:
    def test_instances_certify(self):
        from genhurwitz.classify import is_r_function
        for seed in range(12):
            inst = generate_r_function(seed)
            cert = is_r_function(inst.function)
            assert cert is not None, seed
            assert cert.negative_pole_count == inst.negative_pole_count
            assert cert.positive_pole_count == inst.positive_pole_count
            assert cert.pole_at_zero == inst.pole_at_zero

    def test_residues_are_positive(self):
        for seed in range(8):
            assert all(r > 0 for r in generate_r_function(seed).residues)

    def test_poles_are_distinct(self):
        for seed in range(8):
            poles = generate_r_function(seed).poles
            assert len(set(poles)) == len(poles)


class TestStrangeExperiment:
    def test_degree_two_exception(self):
        out = strange_experiment(P(1, 2, 1))
        twisted = out["images"][0]
        assert twisted["coeffs"] == ["-1", "2", "1"]
        # both roots real, counts (1,1) follow the n mod 4 law, the
        # moduli do not interlace
        assert twisted["counts_match"] is True
        assert twisted["no_axis_roots"] is True
        assert all(abs(im) < 1e-6 for _, im in twisted["roots"])
        assert twisted["moduli_interlace"] is False

    def test_reports_both_recombinations(self):
        out = strange_experiment(P(1, 6, 11, 6))
        assert out["degree"] == 3
        assert len(out["images"]) == 2
        for image in out["images"]:
            assert image["right_count"] + image["left_count"] \
                + image["axis_count"] == 3
        # n = 3 mod 4: q1 has (n+1)/2 zeros right, q2 has (n-1)/2
        assert [(im["right_count"], im["left_count"])
                for im in out["images"]] == [(2, 1), (1, 2)]
        assert all(im["counts_match"] is True for im in out["images"])

    def test_non_stable_input_refused(self):
        with pytest.raises(InvalidInputError):
            strange_experiment(P(1, 1, -2))


class TestPartialFractions:
    def test_single_negative_pole(self):
        pf = numeric_partial_fractions(RationalFunction(P(2), P(1, 1)))
        assert isinstance(pf, NumericPartialFraction)
        assert pf.poles == (-1.0,)
        assert abs(pf.residues[0] - 2.0) < 1e-12

    def test_positive_pole_with_head(self):
        pf = numeric_partial_fractions(RationalFunction(P(1, 1), P(4, -6)))
        assert abs(pf.poles[0] - 1.5) < 1e-12
        assert abs(pf.residues[0] - 0.625) < 1e-12
        assert abs(pf.alpha) < 1e-12
        assert abs(pf.beta - 0.25) < 1e-12

    def test_nonreal_poles_refused(self):
        with pytest.raises(InvalidInputError, match="nonreal"):
            numeric_partial_fractions(RationalFunction(P(1), P(1, 0, 1)))

    def test_reconstruction_matches_pointwise(self):
        R = RationalFunction(P(2, -1), P(1, -1, -2))
        pf = numeric_partial_fractions(R)
        for u in (0.5, 3.0, -4.0):
            direct = float(R.num(F(u))) / float(R.den(F(u)))
            folded = pf.alpha * u + pf.beta + sum(
                res / (u - pole) for pole, res in zip(pf.poles, pf.residues))
            assert abs(direct - folded) < 1e-9


class TestDualityNumericBridge:
    def test_si_duals_look_stable_numerically(self):
        p = P(1)
        for root in (1, -2, 3, -4):
            p = p * P(1, -root)
        q = dual_transform(p)
        assert all(r.real < 0 for r in numeric_roots(q))
