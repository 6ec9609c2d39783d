"""Command line contract: payload shapes, exit codes, determinism."""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from genhurwitz.cli import main
from genhurwitz.minors import _routh, hankel_minors
from genhurwitz.polyalg import (
    PolyError,
    Polynomial,
    associated_function,
    compose_even,
    even_odd_split,
    laurent_expand,
    times_z,
)


def P(*cs):
    return Polynomial(list(cs))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


class TestClassifyCommand:
    def test_stable_example(self):
        d = run_json(["classify", "1,2,1"])
        assert d["label"] == "hurwitz-stable"
        assert d["order_k"] == 0

    def test_interlacing_example(self):
        d = run_json(["classify", "1,1,-2"])
        assert d["label"] == "self-interlacing"
        assert d["si_type"] == "I"
        assert d["order_k"] == 1

    def test_rational_tokens(self):
        d = run_json(["classify", "1/2,1,1/2"])
        assert d["label"] == "hurwitz-stable"

    def test_output_is_deterministic(self):
        _, first, _ = run(["classify", "1,4,1,-6"])
        _, second, _ = run(["classify", "1,4,1,-6"])
        assert first == second

    def test_keys_are_sorted(self):
        _, out, _ = run(["classify", "1,2,1"])
        top = list(json.loads(out).keys())
        assert top == sorted(top)

    def test_pretty_flag_only_reformats(self):
        _, flat, _ = run(["classify", "1,2,1"])
        _, pretty, _ = run(["--pretty", "classify", "1,2,1"])
        assert json.loads(flat) == json.loads(pretty)
        assert pretty.count("\n") > flat.count("\n")


class TestDualCommand:
    def test_prints_quoted_coefficient_string(self):
        code, out, _ = run(["dual", "1,1,-2"])
        assert code == 0
        assert out.strip() == '"1,1,2"'

    def test_fractions_survive(self):
        code, out, _ = run(["dual", "1,1/3,-2"])
        assert json.loads(out) == "1,1/3,2"


class TestMinorsCommand:
    def test_tables(self):
        d = run_json(["minors", "1,4,1,-6"])
        assert d["delta"] == ["4", "10", "-60"]
        assert d["eta"] == ["1", "4", "10", "-60"]
        assert d["hankel_d"] == ["5/8"]
        assert d["hankel_dhat"] == ["15/16"]
        assert d["hankel_order"] == 1

    def test_max_order_caps_hankel(self):
        capped = run_json(["--max-order", "0", "minors", "1,6,11,6"])
        assert capped["hankel_order"] == 0
        assert capped["hankel_d"] == []

    def test_pole_count_comes_from_the_routh_array(self, monkeypatch):
        # hankel_order is deg p0 - deg gcd(p0, p1), read off the array
        # that gave the minors, with no reduction of p1/p0 by a Euclid
        rng = random.Random(72)
        polys = [P(1, 0, 3, 0, 2), P(2, 0, 3), P(1, 1, 1, 1), P(7)]
        for _ in range(300):
            f = P(1, *[rng.randint(-2, 2) for _ in range(rng.randint(0, 2))])
            g = P(rng.choice([-1, 1, 2]),
                  *[rng.choice([0, 0, 1, -1, 2]) for _ in range(rng.randint(0, 6))])
            polys.append(compose_even(f) * g)
        expected = []
        for p in polys:
            if even_odd_split(p).p0.is_zero():
                continue
            R = associated_function(p)
            r = R.reduced().den.degree
            try:
                laurent_expand(R, r)
            except PolyError:       # refused whatever the pole count
                continue
            expected.append((p, r, _routh(p.coeffs)[2]))

        def refuse(a, b):
            raise AssertionError("p1/p0 was reduced by a Euclid")
        monkeypatch.setattr("genhurwitz.polyalg.poly_gcd", refuse)
        seen = set()
        for p, r, stalled in expected:
            text = ",".join(str(c) for c in p.coeffs)
            assert run_json(["minors", "--", text])["hankel_order"] == r, p
            seen.add((stalled, r < even_odd_split(p).p0.degree))
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}


def _hankel_corpus():
    """Seeded polynomials of degree 0-12: small integers, rationals, odd
    degree with a_1 = 0 (a_3 zero or not), sparse 0/+-1 coefficients
    (stalled Routh arrays), and f(z^2) g products (whole zero rows,
    shared even factors, vanishing even halves), some times z."""
    rng = random.Random(1212)
    lead = (-3, -2, -1, 1, 2, 3)
    for i in range(420):
        kind = i % 6
        n = rng.randint(0, 12)
        if kind == 0:
            cs = [rng.choice(lead)] + [rng.randint(-4, 4) for _ in range(n)]
        elif kind == 1:
            cs = [Fraction(rng.choice(lead), rng.randint(1, 5))] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(n)]
        elif kind == 2:
            n = rng.choice((3, 5, 7, 9, 11))
            cs = [rng.choice(lead)] + [rng.randint(-3, 3) for _ in range(n)]
            cs[1] = 0
            cs[3] = 0 if rng.random() < 0.3 else rng.choice(lead)
        elif kind == 3:
            cs = [rng.choice((-1, 1))] + [rng.choice((0, 0, 1, -1))
                                          for _ in range(n)]
        else:
            f = P(1, *[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
            g = P(rng.choice(lead), *[rng.choice((0, 0, 1, -1, 2))
                                      for _ in range(rng.randint(0, 6))])
            p = compose_even(f) * g
            yield times_z(p) if kind == 5 else p
            continue
        yield Polynomial(cs)


def _hankel_by_series(p, cap):
    """The old route, kept as the oracle: expand p1/p0 at infinity and
    take both Hankel minor families by Bareiss determinants.  Returns the
    `minors` payload's Hankel part, or the refusal message."""
    try:
        R = associated_function(p)
        r = R.reduced().den.degree
        order = r if cap is None else min(r, cap)
        hk = hankel_minors(laurent_expand(R, order), order)
    except PolyError as e:
        return f"error: {e}\n"
    return ([str(d) for d in hk.D], [str(d) for d in hk.Dhat], order)


class TestHankelFromHurwitz:
    def test_matches_the_series_route_under_every_cap(self):
        cases = set()
        for p in _hankel_corpus():
            text = ",".join(str(c) for c in p.coeffs)
            split = even_odd_split(p)
            if not split.p0.is_zero():
                cases.add(("e", p.degree - 1 - 2 * split.p0.degree))
            _, aux, stalled = _routh(p.coeffs)
            cases.add(("stalled", stalled))
            cases.add(("zero row", aux is not None))
            if any(c.denominator != 1 for c in p.coeffs):
                cases.add("rational")
            for cap in [None] + list(range(p.degree // 2 + 2)):
                option = [] if cap is None else ["--max-order", str(cap)]
                code, out, err = run(option + ["minors", "--", text])
                expected = _hankel_by_series(p, cap)
                if isinstance(expected, str):
                    assert (code, out, err) == (3, "", expected), (p, cap)
                    cases.add("p0 = 0" if "even half" in err else "growth")
                    continue
                d = json.loads(out)
                assert (d["hankel_d"], d["hankel_dhat"],
                        d["hankel_order"]) == expected, (p, cap)
        assert {("e", e) for e in (-1, 0, 2)} <= cases
        assert {"rational", ("stalled", True), ("zero row", True),
                "p0 = 0", "growth"} <= cases, cases

    def test_no_series_or_hankel_sweep(self, monkeypatch):
        # every input, stalled arrays included, is answered from the
        # Hurwitz chain alone, with the same bytes
        expected = [(text, run(["minors", "--", text])) for text in (
            ",".join(str(c) for c in p.coeffs) for p in _hankel_corpus())]
        assert any(_routh(p.coeffs)[2] for p in _hankel_corpus())

        def refuse(*args):
            raise AssertionError("second route to the Hankel minors")
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "genhurwitz":
                continue
            for fn in ("laurent_expand", "hankel_minors", "exact_det"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
        for text, result in expected:
            assert run(["minors", "--", text]) == result, text


class TestCfCommand:
    def test_odd_degree(self):
        d = run_json(["cf", "1,4,1,-6"])
        assert d["c0"] == "1/4"
        assert d["c"] == ["8/5", "-5/12"]
        assert d["negative_even_coefficients"] == 1
        assert d["negative_poles"] == 0

    def test_even_degree(self):
        d = run_json(["cf", "1,2,1"])
        assert d["c0"] == "0"
        assert d["c"] == ["1/2", "2"]
        assert d["negative_poles"] == 1
        assert d["real_pole_pattern"] is True

    def test_degree_one_without_a_1_is_refused(self):
        # a_1 = 0 is a zero tail, so the ratio chain has one step, t_0
        assert run(["cf", "1,0"]) == (
            3, "", "error: no expansion: Delta_1 = 0\n")


class TestStrangeCommand:
    def test_reports_images(self):
        d = run_json(["strange", "1,2,1"])
        assert d["degree"] == 2
        assert len(d["images"]) == 2
        # image 2 is (z+1)^2: 0 zeros right and 2 left, as the law says
        assert [im["counts_match"] for im in d["images"]] == [True, True]

    def test_requires_stable_input(self):
        code, _, err = run(["strange", "1,1,-2"])
        assert code == 3
        assert "stable" in err


class TestSweepCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "family.sweep"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_order_transitions(self, tmp_path):
        path = self.write(tmp_path,
                          "2;1,4,1,2\n\n0;1,4,1,0\n-6;1,4,1,-6\n")
        d = run_json(["sweep", path])
        labels = [s["report"]["label"] for s in d["samples"]]
        assert labels == ["hurwitz-stable", "quasi-stable",
                          "generalized-hurwitz"]
        assert d["transitions"] == [{
            "from_alpha": "2", "to_alpha": "-6",
            "from_order": 0, "to_order": 1,
        }]
        assert d["order_non_decreasing"] is True

    def test_degree_change_is_domain_error(self, tmp_path):
        path = self.write(tmp_path, "1;1,2,1\n2;1,4,1,2\n")
        code, _, err = run(["sweep", path])
        assert code == 3
        assert "degree" in err

    def test_missing_separator(self, tmp_path):
        path = self.write(tmp_path, "1,2,1\n")
        assert run(["sweep", path])[0] == 2

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        assert run(["sweep", path])[0] == 2

    def test_missing_file(self):
        assert run(["sweep", "/no/such/file.sweep"])[0] == 2


class TestMatrixCommand:
    def test_build_anti_bidiagonal(self):
        d = run_json(["matrix", "build", "antibidiag:a1=1;b=1,1;c=1,1"])
        assert d["n"] == 3
        assert d["rows"][0] == ["0", "0", "1"]

    def test_build_flip(self):
        d = run_json(["matrix", "build", "flip:n=2"])
        assert d["rows"] == [["0", "1"], ["1", "0"]]

    def test_build_random_tn_uses_seed(self):
        one = run_json(["--seed", "7", "matrix", "build", "randomtn:n=3"])
        two = run_json(["--seed", "7", "matrix", "build", "randomtn:n=3"])
        other = run_json(["--seed", "8", "matrix", "build", "randomtn:n=3"])
        assert one == two
        assert one != other

    def test_check_report(self):
        d = run_json(["matrix", "check", "1,2;1,1"])
        assert d["char_poly"] == ["1", "-2", "-1"]
        assert d["si_spectrum"] is True
        assert d["class_n_plus"] is True
        assert d["entries_condition"] is True
        assert d["totally_nonnegative"] is False
        assert d["signature"] == {
            "checked_order": 2, "definite": True, "signs": [1, -1]}

    def test_check_reports_signature_witness(self):
        d = run_json(["matrix", "check", "1,-1;1,1"])
        assert d["signature"]["definite"] is False
        assert d["signature"]["witness"]["order"] == 1

    def test_check_null_anti_tridiagonal_off_pattern(self):
        d = run_json(["matrix", "check", "1,1;1,0"])
        assert d["anti_tridiagonal"] is None

    def test_bad_kind(self):
        code, _, err = run(["matrix", "build", "squircle:n=3"])
        assert code == 2 and "squircle" in err

    @pytest.mark.parametrize("spec", ["flip:n=x", "randomtn:n=x"])
    def test_non_integer_size(self, spec):
        code, out, err = run(["matrix", "build", spec])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'x'" in err

    def test_ragged_rows(self):
        assert run(["matrix", "check", "1,2;1"])[0] == 2

    def test_check_reads_minors_from_tables(self, monkeypatch):
        # every exact_det binding counts: the scans once took one call per
        # minor, hundreds for a 6 x 6
        import genhurwitz.minors as minors
        import genhurwitz.simatrix as simatrix
        from genhurwitz.simatrix import flip, random_tn_matrix
        calls = []
        real = minors.exact_det

        def counting(rows):
            calls.append(len(rows))
            return real(rows)
        for module in (minors, simatrix):
            monkeypatch.setattr(module, "exact_det", counting)
        for seed in range(3):
            A = flip(6) * random_tn_matrix(6, seed)
            rows = ";".join(",".join(str(x) for x in row) for row in A.rows)
            calls.clear()
            d = run_json(["matrix", "check", rows])
            assert d["si_spectrum"] and d["signature"]["definite"]
            assert len(calls) <= 2, calls

    def test_check_refuses_past_the_cap_before_the_spectrum(self, monkeypatch):
        import genhurwitz.simatrix as simatrix

        def refuse(*args):
            raise AssertionError("ran on an input past the scan cap")
        monkeypatch.setattr(simatrix, "char_poly", refuse)
        monkeypatch.setattr("genhurwitz.cli.classify", refuse)
        rows = ";".join(",".join("1" if i == j else "0" for j in range(9))
                        for i in range(9))
        assert run(["matrix", "check", rows]) == (
            3, "", "error: sign definiteness scan is capped at 8x8\n")

    @pytest.mark.parametrize("kind", ["flip", "randomtn"])
    def test_build_refuses_past_the_cap(self, kind):
        assert run(["matrix", "build", f"{kind}:n=9"]) == (
            3, "", "error: dimension must lie in 1..8\n")
        assert run(["matrix", "build", f"{kind}:n=100000000"])[0] == 3
        assert run_json(["matrix", "build", f"{kind}:n=8"])["n"] == 8

    def test_float_entries_rejected(self):
        assert run(["matrix", "check", "1.5,0;0,1"])[0] == 2


class TestExitCodes:
    def test_bad_token_names_offender(self):
        code, _, err = run(["classify", "1,2.5,1"])
        assert code == 2
        assert "2.5" in err

    def test_domain_error(self):
        # purely odd polynomial has no even half to divide by
        code, _, err = run(["minors", "1,0,1,0"])
        assert code == 3

    def test_no_subcommand(self):
        assert run([])[0] == 2

    @pytest.mark.parametrize("argv", [["minors", "1,2,3"],
                                      ["matrix", "check", "1,2;1,1"]])
    def test_negative_max_order_is_malformed(self, argv):
        code, out, err = run(["--max-order", "-1"] + argv)
        assert code == 2 and out == ""
        assert "--max-order" in err and "'-1' is negative" in err
        code, _, err = run(["--max-order", "x"] + argv)
        assert code == 2 and "invalid int value: 'x'" in err

    def test_zero_max_order(self):
        assert run_json(["--max-order", "0", "minors", "1,2,3"]) == {
            "degree": 2, "delta": ["2", "6"], "eta": ["1", "2", "6"],
            "hankel_d": [], "hankel_dhat": [], "hankel_order": 0}
        assert run(["--max-order", "0", "matrix", "check", "1,2;1,1"]) == (
            3, "", "error: max_order out of range\n")

    def test_errors_leave_stdout_empty(self):
        _, out, _ = run(["classify", "1,2.5,1"])
        assert out == ""

    @pytest.mark.parametrize("token", ["7" * 5000, "-1/" + "3" * 5000],
                             ids=["numerator", "denominator"])
    def test_over_long_token_is_malformed(self, token):
        # past CPython's int-to-str digit limit the token is named by its
        # position and digit count, not echoed
        limit = sys.get_int_max_str_digits()
        for argv in (["classify", f"1,{token},1"], ["minors", f"1,{token},1"],
                     ["matrix", "check", token]):
            code, out, err = run(argv[:-1] + ["--", argv[-1]])
            assert (code, out) == (2, ""), argv
            assert "5000 digits" in err and f"{limit}-digit" in err, err
            assert token not in err
        assert "coefficient token 2 " in run(["cf", f"1,{token}"])[2]

    @pytest.mark.parametrize("command", ["classify", "minors", "cf",
                                         "matrix"])
    def test_large_exact_output_is_refused(self, command):
        # a result past CPython's int-to-str digit limit is a domain
        # refusal named by its digit count, with nothing on stdout
        rng = random.Random(1)
        p = P(1)
        for _ in range(95):
            p = p * P(1, rng.randint(1, 9))
        x = "7" * 3000
        argv = {"classify": ["classify", ",".join(map(str, p.coeffs))],
                "minors": ["minors", ",".join(map(str, p.coeffs))],
                "cf": ["cf", f"1,{x},{x},1"],
                "matrix": ["matrix", "check", f"{x},0;0,{x}"]}[command]
        code, out, err = run(argv)
        assert (code, out) == (3, ""), err
        limit = sys.get_int_max_str_digits()
        assert f"digits, past the {limit}-digit limit" in err
        assert x not in err

    def test_non_decimal_digits_are_malformed(self):
        # str.isdigit accepts superscripts, which Fraction refuses
        for text in ("1,\u00b2", "1,1/\u00b2"):
            code, out, err = run(["classify", text])
            assert (code, out) == (2, "")
            assert "bad coefficient token" in err

    def test_negative_leading_coefficient_needs_no_separator(self):
        # '-' and a digit is a value, so every coefficient-taking command
        # gives the same bytes with and without --
        for argv, code in ((["classify", "-1,0,0"], 0), (["classify", "-1"], 0),
                           (["minors", "-1,4,1,-6"], 0), (["cf", "-3/2,1,1"], 0),
                           (["dual", "-1,2"], 0), (["strange", "-1,-2,-1"], 0),
                           (["matrix", "check", "-1,2;3,4"], 0),
                           (["classify", "-1,2.5"], 2), (["cf", "-1,0"], 3)):
            result = run(argv)
            assert result[0] == code, (argv, result)
            assert run(argv[:-1] + ["--", argv[-1]]) == result, argv
        assert run(["--max-order", "-1", "minors", "-1,2"])[0] == 2
        assert run(["--max-order", "1", "minors", "-1,2"])[0] == 0


def _fuzz_argv(rng, sweep_files):
    """One seeded argument list: any flag, malformed, Unicode-digit and
    over-long tokens, bad matrix specs and sweep files, negative leading
    coefficients with and without --, and stalled sparse polynomials
    (a_1 = 0) up to degree 40."""
    def coeffs(top):
        cs = [rng.choice(("1", "-1", "2", "-3/2"))] + [
            rng.choice(("0", "0", "0", "1", "-1", "2", "1/3"))
            for _ in range(rng.randint(0, top))]
        if len(cs) > 1 and rng.random() < 0.6:
            cs[1] = "0"
        return ",".join(cs)
    bad = ["", ",", "1,,2", "1,2.5", "abc", "1/0", "1/-2", "1e3", "0x10",
           "-", "--1", "1,\u0663", "\u0661,\u0662", "1,\u00b2", "+1,2",
           " 1, 2", "1/2/3", "0,0", "7" * 5000, "-1/" + "3" * 5000, "-x"]
    kind = rng.choice((0, 0, 0, 0, 1, 1, 2, 3, 4, 5))
    if kind == 0:
        cmd = [rng.choice(("classify", "minors", "cf")), coeffs(40)]
    elif kind == 1:
        cmd = [rng.choice(("classify", "minors", "cf", "dual", "strange")),
               rng.choice(bad + [coeffs(6)])]
    elif kind == 2:
        cmd = ["matrix", "build", rng.choice((
            "antibidiag:a1=1;b=1,2;c=3,4", "antibidiag:", "tridiag:a1=x",
            "flip:n=3", "flip:n=x", "flip:n=-2", "flip:n=99", "randomtn:n=3",
            "randomtn:n=0", "randomtn:n=99", "nope:n=1", "flip", "flip:n",
            "tridiag:a1=1;b=1;c=", "antibidiag:a1=1;b=1,,2"))]
    elif kind == 3:
        cmd = ["matrix", "check", rng.choice((
            "1,2;3,4", "-1,2;3,4", "1,2;3", "1;2", "", ";", "a,b;c,d",
            "1,0,0;0,1,0;0,0,1", "2.5,1;1,1", "1/0,1;1,1",
            ";".join([",".join(["1"] * 9)] * 9), "\u0663,1;1,1"))]
    elif kind == 4:
        cmd = ["sweep", rng.choice(sweep_files)]
    else:
        cmd = [rng.choice(("matrix", "sweep", "classify", "nope")),
               *rng.sample(["check", "build", "1,2", "-1,2", "x"],
                           rng.randint(0, 3))]
    if len(cmd) > 1 and cmd[-1].startswith("-") and rng.random() < 0.5:
        cmd = cmd[:-1] + ["--", cmd[-1]]
    flags = []
    for flag, values in (("--pretty", None),
                         ("--max-order", ("0", "1", "2", "5", "-1", "x")),
                         ("--seed", ("0", "7", "-3", "12", "x"))):
        if rng.random() < 0.25:
            flags += [flag] if values is None else [flag, rng.choice(values)]
    if rng.random() < 0.02:
        flags.append(rng.choice(("-h", "--help", "--nope")))
    return flags + cmd


def test_seeded_cli_fuzz(tmp_path):
    # every argument list ends in the exit-code contract: 0, 2 or 3, no
    # traceback, and nothing on stdout unless it succeeded
    rng = random.Random(1606)
    sweep_files = [str(tmp_path / "missing.sweep")]
    for i, text in enumerate(("1;1,2,1\n2;1,4,1,2\n", "x;1,2\n", "1,2,1\n",
                              "\n\n", "0;1,0,1,0\n-1;1,2,1\n",
                              "1;1,2\n2;1,2,3\n", "1;-1,0,0\n2;\u0663\n")):
        path = tmp_path / f"f{i}.sweep"
        path.write_text(text, encoding="utf-8")
        sweep_files.append(str(path))
    codes = set()
    for _ in range(400):
        argv = _fuzz_argv(rng, sweep_files)
        code, out, err = run(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        assert code == 0 or out == "", argv
        codes.add(code)
    assert codes == {0, 2, 3}


def test_console_script_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "genhurwitz.cli", "classify", "1,2,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "hurwitz-stable"
