"""Byte pins: classify reports and CLI output on seeded corpora.

One sha256 digest per polynomial corpus covers, for every corpus
polynomial, the JSON of `classify(p).to_json_dict()` (keys sorted) and
the exit code, stdout and stderr of `cli.main` for `classify`, `minors`,
`cf` and `dual`.  `MINORS_DIGEST` covers the exit code, stdout and
stderr of `cf` and of `minors`, uncapped and under every `--max-order`
from 0 to floor(n/2) + 1 (one past the largest possible pole count), on
a corpus aimed at the Hankel tables' edge cases.  `MATRIX_DIGEST` covers the exit code, stdout and stderr
of `matrix check` on a seeded matrix corpus, with and without
`--max-order`.  `RFUNC_DIGEST` covers the return value, or the
exception type and message, of `stieltjes_expand`, `extended_expand`,
`is_r_function` and `pole_sign_count` on a seeded rational-function
corpus, and of `new_stability_criterion` on a seeded polynomial corpus.
A change that moves any of those bytes changes a digest.
Update a digest only for an intended output change, and say which bytes
moved and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

from genhurwitz.classify import (
    LABEL_ALMOST_SI,
    LABEL_GH,
    LABEL_NONE,
    LABEL_QUASI,
    LABEL_QUASI_SI,
    LABEL_SI,
    LABEL_STABLE,
    LABELS,
    classify,
    is_r_function,
    new_stability_criterion,
    pole_sign_count,
)
from genhurwitz.cli import main
from genhurwitz.minors import (
    _routh,
    hurwitz_minors,
    total_nonnegativity_scan,
)
from genhurwitz.oracle import (
    StructureSpec,
    UnrealizableSpecError,
    generate_instance,
    generate_r_function,
)
from genhurwitz.polyalg import (
    EvenOddSplit,
    PolyError,
    Polynomial,
    RationalFunction,
    compose_even,
    even_odd_split,
    poly_gcd,
    recompose_split,
    reflect,
    times_z,
)
from genhurwitz.simatrix import ExactMatrix, flip, random_tn_matrix
from genhurwitz.stieltjes import extended_expand, stieltjes_expand

DIGEST = "b716229e560ab068b1b7a7b941a7a1db1d9777f97050040cfb61cc38930b4fdf"
LABEL_DIGEST = "a90b59eb384c9c7d4d8f207e0dc767b265c9ddb51f9f8fc3861813cbadf61ced"
MINORS_DIGEST = "bdf24c8b7955a43a7d5382ba28ceedfeeb6c02efb33ae12dae2bcf1156022c07"
MATRIX_DIGEST = "840060b168722454983bfcf1b4727cb15566c23c59620d2694f11069e4df054f"
RFUNC_DIGEST = "48180bab9f60554df74ce19ae662b35fa15e0df34bb85c5578e3c9ca67d28d55"

COMMANDS = ("classify", "minors", "cf", "dual")


def _corpus():
    """Random small-integer polynomials of degree 0-7, then f(z^2) * g
    products (f may carry u = z^2 itself), 30 % of them times z."""
    rng = random.Random(20261018)
    for _ in range(200):
        yield Polynomial([rng.choice([-3, -2, -1, 1, 2, 3])]
                         + [rng.randint(-3, 3) for _ in range(rng.randint(0, 7))])
    for _ in range(200):
        f = Polynomial([1] + [rng.randint(-3, 3)
                              for _ in range(rng.randint(1, 3))])
        g = Polynomial([rng.choice([-2, -1, 1, 2, 3])]
                       + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        p = compose_even(f) * g
        yield times_z(p) if rng.random() < 0.3 else p


def _label_corpus():
    """Generated instances of every label and SI type, degrees 2-8, then
    the reflections of stable ones (anti-stable, so unclassified)."""
    specs = []
    for n in range(2, 9):
        specs.append(StructureSpec(LABEL_STABLE, n))
        specs += [StructureSpec(LABEL_QUASI, n, degeneracy_m=m)
                  for m in (1, 2, 3)]
        for si in ("I", "II"):
            specs += [StructureSpec(LABEL_SI, n, si_type=si),
                      StructureSpec(LABEL_ALMOST_SI, n, si_type=si),
                      StructureSpec(LABEL_QUASI_SI, n, si_type=si)]
            specs += [StructureSpec(LABEL_GH, n, si_type=si, order_k=k)
                      for k in range(1, (n + 1) // 2)]
    for seed, spec in enumerate(specs):
        try:
            yield generate_instance(spec, seed)
        except UnrealizableSpecError:
            continue
    for n in range(1, 9):
        yield reflect(generate_instance(StructureSpec(LABEL_STABLE, n), n))


def _minors_corpus():
    """Polynomials of degree 0-9 for the `minors` and `cf` commands:
    rational coefficients; odd degree with a_1 = 0 != a_3 (p1/p0 grows
    linearly) and with a_1 = a_3 = 0 (refused growth); vanishing even
    halves z g(z^2); sparse 0/+-1 coefficients (stalled Routh arrays);
    f(z^2) g products (shared even factors, whole zero rows), 30 % of
    them times z; then a few fixed small cases."""
    rng = random.Random(20261020)
    lead = [-3, -2, -1, 1, 2, 3]
    for _ in range(60):
        yield Polynomial([Fraction(rng.choice(lead), rng.randint(1, 4))]
                         + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(rng.randint(0, 9))])
    for _ in range(60):
        n = rng.choice((3, 5, 7, 9))
        cs = [rng.choice(lead)] + [rng.randint(-3, 3) for _ in range(n)]
        cs[1] = 0
        cs[3] = 0 if rng.random() < 0.4 else rng.choice(lead)
        yield Polynomial(cs)
    for _ in range(20):
        g = Polynomial([rng.choice(lead)]
                       + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        yield times_z(compose_even(g))
    for _ in range(80):
        yield Polynomial([rng.choice((-1, 1))]
                         + [rng.choice((0, 0, 1, -1)) for _ in range(
                             rng.randint(2, 9))])
    for _ in range(80):
        f = Polynomial([1] + [rng.randint(-2, 2)
                              for _ in range(rng.randint(1, 2))])
        g = Polynomial([rng.choice(lead)]
                       + [rng.choice((0, 0, 1, -1, 2))
                          for _ in range(rng.randint(0, 5))])
        p = compose_even(f) * g
        yield times_z(p) if rng.random() < 0.3 else p
    for cs in ([0], [5], [1, 0], [2, 3], [1, 0, 0], [1, 0, 1, 0],
               [1, 0, 0, 0], [1, 0, 2, 0, 1], [1, 4, 1, -6]):
        yield Polynomial(cs)


def minors_digest(corpus):
    h = hashlib.sha256()
    for p in corpus:
        text = ",".join(str(c) for c in p.coeffs) or "0"
        n = 0 if p.is_zero() else p.degree
        runs = [["cf"], ["minors"]] + [
            ["--max-order", str(k), "minors"] for k in range(n // 2 + 2)]
        for argv in runs:
            code, out, err = _run(argv + ["--", text])
            h.update(f"\0{argv}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def _matrix_corpus():
    """Rows of n x n matrices, n = 1-8: flipped totally nonnegative
    products (sign definite), bare ones, the rank-one all-ones matrix and
    its flip (singular and TN), random rationals of both signs, and
    sparse 0/+-1 matrices (vanishing and singular minors, zero rows);
    then one 9 x 9 input past the scan cap."""
    rng = random.Random(20261019)
    for n in range(1, 9):
        J = flip(n)
        ones = ExactMatrix([[1] * n for _ in range(n)])
        mats = [J * random_tn_matrix(n, rng.getrandbits(32)),
                J * random_tn_matrix(n, rng.getrandbits(32)),
                random_tn_matrix(n, rng.getrandbits(32)),
                ones, J * ones]
        mats.append(ExactMatrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]))
        for _ in range(2):
            rows = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)]
                    for _ in range(n)]
            rows[rng.randrange(n)] = [0] * n
            mats.append(ExactMatrix(rows))
        for A in mats:
            yield A.rows
    yield [[int(i == j) for j in range(9)] for i in range(9)]


def matrix_digest(corpus):
    h = hashlib.sha256()
    rng = random.Random(7)
    for rows in corpus:
        text = ";".join(",".join(str(x) for x in row) for row in rows)
        n = len(rows)
        for option in ([], ["--max-order", str(rng.randint(0, n + 1))]):
            code, out, err = _run(option + ["matrix", "check", "--", text])
            h.update(f"\0{option}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def rfunc_corpus():
    """Rational functions num/den for the R-function APIs: generated
    R-functions (`generate_r_function`; rational entries, poles at 0,
    linear growth), each again with the factor u + 2 shared by num and
    den; random quotients with deg num - deg den from -2 to 2 (growth past
    one term), half of them sparse 0/+-1 (stalled Routh arrays), a fifth
    with a shared linear factor; then a zero numerator, constant
    denominators and a few fixed small cases."""
    rng = random.Random(20261021)
    shared = Polynomial([1, 2])
    for seed in range(50):
        R = generate_r_function(seed).function
        yield R
        yield RationalFunction(R.num * shared, R.den * shared)
    lead = (-3, -2, -1, 1, 2, 3)
    for i in range(150):
        m = rng.randint(0, 4)
        if i % 2:
            def pick():
                return rng.choice((0, 0, 1, -1))
        else:
            def pick():
                return rng.randint(-3, 3)
        den = Polynomial([rng.choice(lead)] + [pick() for _ in range(m)])
        num = Polynomial([rng.choice(lead)] + [
            pick() for _ in range(max(m + rng.randint(-2, 2), 0))])
        if i % 5 == 0:
            f = Polynomial([1, rng.randint(-2, 2)])
            num, den = num * f, den * f
        yield RationalFunction(num, den)
    for num, den in (([], [1, 1]), ([], [3]), ([5], [2]), ([1, 2], [3]),
                     ([1, 2, 3], [2]), ([1], [1, 0]), ([1, 0, 1], [1, 0]),
                     ([1, 1], [1, 0, -1]), ([1], [1, 0, -1]),
                     ([Fraction(1, 3), Fraction(-2, 5)],
                      [Fraction(3, 4), 1, Fraction(1, 7)])):
        yield RationalFunction(Polynomial(num), Polynomial(den))


def stability_corpus():
    """Polynomials of degree 1-8 for `new_stability_criterion`: generated
    stable instances and their reflections, products with a shared even
    factor (a zero paired with its negative), random small integers and
    sparse 0/+-1 coefficients."""
    rng = random.Random(20261022)
    for n in range(1, 9):
        p = generate_instance(StructureSpec(LABEL_STABLE, n), n)
        yield p
        yield reflect(p)
        yield p * compose_even(Polynomial([1, rng.randint(-2, 2)]))
    for i in range(80):
        n = rng.randint(1, 8)
        pool = (0, 0, 1, -1) if i % 2 else (-3, -2, -1, 0, 1, 2, 3)
        yield Polynomial([rng.choice((-2, -1, 1, 2))]
                         + [rng.choice(pool) for _ in range(n)])


def outcome(fn, arg):
    """repr of fn(arg), or the type and message of its refusal."""
    try:
        return repr(fn(arg))
    except PolyError as e:
        return f"{type(e).__name__}: {e}"


def stalled(num, den):
    """Whether the Routh array of den(z^2) + z (num mod den)(z^2) stalls."""
    rest = divmod(num, den)[1]
    return _routh(recompose_split(EvenOddSplit(den, rest)).coeffs)[2]


def refuse_series_route(monkeypatch):
    """Make the old route to the Hankel minors raise at every binding:
    `RationalFunction.reduced`, `poly_gcd`, `laurent_expand` and
    `hankel_minors`."""
    def refuse(*args):
        raise AssertionError("the Euclid or series route ran")
    monkeypatch.setattr(RationalFunction, "reduced", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "genhurwitz":
            continue
        for fn in ("poly_gcd", "laurent_expand", "hankel_minors"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)


def refuse_bareiss(monkeypatch):
    """Make `exact_det`, the one Bareiss elimination, raise at every
    binding."""
    def refuse(*args):
        raise AssertionError("a Bareiss determinant ran")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "genhurwitz" and hasattr(module, "exact_det"):
            monkeypatch.setattr(module, "exact_det", refuse)


def rfunc_digest(functions, polynomials):
    h = hashlib.sha256()
    for R in functions:
        for fn in (stieltjes_expand, extended_expand, is_r_function,
                   pole_sign_count):
            h.update(f"\0{fn.__name__}\0{outcome(fn, R)}\0".encode())
    for p in polynomials:
        h.update(f"\0{outcome(new_stability_criterion, p)}\0".encode())
    return h.hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_digest(corpus):
    h = hashlib.sha256()
    for p in corpus:
        text = ",".join(str(c) for c in p.coeffs)
        h.update(json.dumps(classify(p).to_json_dict(),
                            sort_keys=True).encode())
        for command in COMMANDS:
            # "--" keeps a negative leading coefficient from reading as
            # an option
            code, out, err = _run([command, "--", text])
            h.update(f"\0{command}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def test_reports_and_cli_bytes_are_pinned():
    assert corpus_digest(_corpus()) == DIGEST


def test_every_label_is_pinned():
    assert corpus_digest(_label_corpus()) == LABEL_DIGEST


def test_minors_and_cf_are_pinned():
    assert minors_digest(_minors_corpus()) == MINORS_DIGEST


def test_matrix_check_is_pinned():
    assert matrix_digest(_matrix_corpus()) == MATRIX_DIGEST


def test_r_function_apis_are_pinned():
    assert rfunc_digest(rfunc_corpus(), stability_corpus()) == RFUNC_DIGEST


def test_rfunc_corpora_reach_every_case():
    cases = set()
    for R in rfunc_corpus():
        num, den = R.num, R.den
        q = num // den
        if any(c.denominator != 1 for c in num.coeffs + den.coeffs):
            cases.add("rational")
        if num.is_zero():
            cases.add("zero numerator")
            continue
        if den.degree == 0:
            cases.add("constant denominator")
        cases.add(("shared", poly_gcd(num, den).degree > 0))
        cases.add(("growth", min(max(q.degree, 0), 2)))
        cases.add(("stalled", stalled(num, den)))
        red = R.reduced()
        if red.den.degree > 0 and red.den.power_coeff(0) == 0:
            cases.add("pole at 0")
        cases.add(("r-function", is_r_function(R) is not None))
        cases.add(("expands", "Error" not in outcome(stieltjes_expand, R)))
    for p in stability_corpus():
        q = Polynomial([(-1) ** j * c for j, c in enumerate(p.coeffs)])
        cases.add(("paired zeros", poly_gcd(q, p).degree > 0))
        cases.add(("stable", new_stability_criterion(p)))
    assert cases == {"rational", "zero numerator", "constant denominator",
                     "pole at 0"} | {("growth", g) for g in (0, 1, 2)} | {
        (kind, flag) for kind in ("shared", "stalled", "r-function",
                                  "expands", "paired zeros", "stable")
        for flag in (True, False)}


def test_matrix_corpus_reaches_every_scan_outcome():
    outcomes = set()
    for rows in _matrix_corpus():
        text = ";".join(",".join(str(x) for x in row) for row in rows)
        code, out, _ = _run(["matrix", "check", "--", text])
        if code:
            outcomes.add("refused")
            continue
        d = json.loads(out)
        outcomes.add(("definite", d["signature"]["definite"]))
        outcomes.add(("tnn", d["totally_nonnegative"]))
        outcomes.add(("vanishing order", None in d["signature"]["signs"]))
        outcomes.add(("class n+", d["class_n_plus"]))
    assert outcomes == {"refused"} | {
        (kind, flag) for kind in ("definite", "tnn", "vanishing order",
                                  "class n+") for flag in (True, False)}


def test_matrix_tn_verdict_reaches_every_route():
    # totally_nonnegative is read off the signature scan unless a cap
    # below n left orders unseen; each route agrees with the full scan
    routes = set()
    rng = random.Random(7)
    for rows in _matrix_corpus():
        text = ";".join(",".join(str(x) for x in row) for row in rows)
        n = len(rows)
        for option in ([], ["--max-order", str(rng.randint(0, n + 1))]):
            code, out, _ = _run(option + ["matrix", "check", "--", text])
            if code:
                continue
            d = json.loads(out)
            sig = d["signature"]
            assert d["totally_nonnegative"] == \
                total_nonnegativity_scan(rows).ok, (rows, option)
            if not sig["definite"]:
                routes.add("non-definite")
            elif -1 in sig["signs"]:
                routes.add("negative order")
            elif sig["checked_order"] == n:
                routes.add("nonnegative through n")
            else:
                routes.add(("capped", d["totally_nonnegative"]))
    assert routes == {"non-definite", "negative order",
                      "nonnegative through n", ("capped", True),
                      ("capped", False)}


def test_minors_corpus_reaches_every_case():
    # e = n - 1 - 2 deg p0 picks the Hurwitz minors behind the Hankel
    # tables; every e, both refusals, stalls, zero rows and shared even
    # factors occur, and cf both answers and refuses
    cases = set()
    for p in _minors_corpus():
        if p.is_zero():
            continue
        if any(c.denominator != 1 for c in p.coeffs):
            cases.add("rational")
        _, aux, stalled = _routh(p.coeffs)
        cases.add(("stalled", stalled))
        cases.add(("zero row", aux is not None))
        cases.add(("shared", hurwitz_minors(p).halves_gcd.degree > 0))
        p0 = even_odd_split(p).p0
        cases.add(("e", "p0 = 0" if p0.is_zero()
                   else min(p.degree - 1 - 2 * p0.degree, 4)))
        text = ",".join(str(c) for c in p.coeffs)
        cases.add(("cf exit", _run(["cf", "--", text])[0]))
    assert cases == {"rational", ("cf exit", 0), ("cf exit", 3)} | {
        (kind, flag) for kind in ("stalled", "zero row", "shared")
        for flag in (True, False)} | {
        ("e", e) for e in (-1, 0, 2, 4, "p0 = 0")}


def test_pinned_corpora_reach_every_verdict():
    pairs, reflected = set(), set()
    for p in list(_corpus()) + list(_label_corpus()):
        report = classify(p)
        pairs.add((report.label, report.si_type))
        reflected.add(report.certificates.get("reflected_label"))
    typed = (LABEL_SI, LABEL_ALMOST_SI, LABEL_QUASI_SI, LABEL_GH)
    assert pairs == ({(LABEL_STABLE, None), (LABEL_QUASI, None),
                      (LABEL_NONE, None)}
                     | {(label, t) for label in typed for t in ("I", "II")})
    assert reflected - {None} == set(LABELS)
