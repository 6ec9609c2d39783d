"""Command line front end.

Every subcommand prints one JSON document on standard output with keys
sorted, so identical inputs give byte-identical outputs.  Exit codes:
0 success, 2 malformed input (the message names the offending token),
3 a domain refusal such as an expansion that does not exist.

Coefficients are comma-separated exact rationals ("1,4,1,-6" or
"1,-3/2,0"); decimals and exponents are rejected on purpose.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import List, Optional

from .polyalg import (
    InvalidInputError,
    PolyError,
    Polynomial,
    associated_function,
    format_polynomial,
    parse_polynomial,
    _check_growth,
    _parse_token,
)
from .minors import (
    _hankel_from_hurwitz,
    hurwitz_minors,
    total_nonnegativity_scan,
)
from .stieltjes import cf_from_hurwitz_minors, pole_sign_summary
from .classify import LABEL_SI, _jsonable, classify, dual_transform

__all__ = ["main", "entry"]


class _BadToken(Exception):
    """Input that failed to parse; reported with exit code 2."""


def _poly(text: str) -> Polynomial:
    try:
        return parse_polynomial(text)
    except InvalidInputError as e:
        raise _BadToken(str(e)) from None


def _rational(text: str):
    try:
        return _parse_token(text)
    except InvalidInputError as e:
        raise _BadToken(str(e)) from None


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args) -> dict:
    return classify(_poly(args.coeffs)).to_json_dict()


def _cmd_minors(args) -> dict:
    """Hurwitz minors of p, and the Hankel minors of p1/p0 read off them.

    Refused, in this order: p0 = 0 (`associated_function`), then e >= 4,
    growth past one linear term (`_check_growth`).  The order is the pole
    count deg p0 - deg gcd(p0, p1), capped by --max-order.
    """
    p = _poly(args.coeffs)
    hm = hurwitz_minors(p)
    R = associated_function(p)
    p0 = R.den
    _check_growth(R.num.degree, p0.degree)
    r = p0.degree - hm.halves_gcd.degree
    order = r if args.max_order is None else min(r, args.max_order)
    mn = _hankel_from_hurwitz(hm, p.degree - 1 - 2 * p0.degree,
                              p0.coeffs[0], order)
    return {
        "degree": p.degree,
        "delta": hm.delta,
        "eta": hm.eta,
        "hankel_d": mn.D,
        "hankel_dhat": mn.Dhat,
        "hankel_order": order,
    }


def _cmd_cf(args) -> dict:
    p = _poly(args.coeffs)
    cf = cf_from_hurwitz_minors(p)
    negatives, real_pattern = pole_sign_summary(cf)
    return {
        "c0": cf.c0,
        "c": cf.c,
        "tail": cf.tail,
        "r": cf.r,
        "negative_poles": negatives,
        "real_pole_pattern": real_pattern,
        "negative_even_coefficients": sum(1 for v in cf.c[1::2] if v < 0),
    }


def _cmd_dual(args) -> str:
    return format_polynomial(dual_transform(_poly(args.coeffs)))


def _cmd_strange(args) -> dict:
    from .oracle import strange_experiment
    return strange_experiment(_poly(args.coeffs))


def _cmd_sweep(args) -> dict:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise _BadToken(f"cannot read sweep file {args.file}: {e}") from None
    samples = []
    degree = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if ";" not in line:
            raise _BadToken(
                f"sweep line {lineno} lacks the alpha;coefficients separator")
        alpha_text, coeff_text = line.split(";", 1)
        alpha = _rational(alpha_text.strip())
        p = _poly(coeff_text.strip())
        if degree is None:
            degree = p.degree
        elif p.degree != degree:
            raise InvalidInputError(
                f"sweep degree changed from {degree} to {p.degree} "
                f"at line {lineno}")
        samples.append((alpha, p))
    if not samples:
        raise _BadToken("sweep file holds no samples")

    reports = []
    orders: List[Optional[int]] = []
    for alpha, p in samples:
        rep = classify(p)
        orders.append(rep.order_k)
        reports.append({"alpha": alpha, "report": rep.to_json_dict()})
    transitions = []
    prev_idx = None
    for i, k in enumerate(orders):
        if k is None:
            continue
        if prev_idx is not None and orders[prev_idx] != k:
            transitions.append({
                "from_alpha": reports[prev_idx]["alpha"],
                "to_alpha": reports[i]["alpha"],
                "from_order": orders[prev_idx],
                "to_order": k,
            })
        prev_idx = i
    defined = [k for k in orders if k is not None]
    return {
        "degree": degree,
        "samples": reports,
        "transitions": transitions,
        # observation, not a promise: sampling may step over crossings
        "order_non_decreasing": all(a <= b for a, b in zip(defined, defined[1:])),
    }


def _matrix_from_rows(text: str):
    from .simatrix import ExactMatrix, MatrixShapeError
    rows = []
    for chunk in text.split(";"):
        rows.append([_rational(tok) for tok in chunk.split(",")])
    try:
        return ExactMatrix(rows)
    except MatrixShapeError as e:
        raise _BadToken(str(e)) from None


def _parse_spec(text: str, seed: int):
    from . import simatrix as sm
    if ":" not in text:
        raise _BadToken(f"matrix spec {text!r} lacks a kind: prefix")
    kind, _, body = text.partition(":")
    params = {}
    for part in body.split(";"):
        if not part:
            continue
        if "=" not in part:
            raise _BadToken(f"matrix spec field {part!r} lacks '='")
        key, _, val = part.partition("=")
        params[key.strip()] = val.strip()

    def rational_list(key):
        raw = params.get(key, "")
        return [_rational(tok) for tok in raw.split(",")] if raw else []

    if kind in ("antibidiag", "tridiag"):
        if "a1" not in params:
            raise _BadToken(f"matrix spec {kind!r} needs a1=")
        a1 = _rational(params["a1"])
        b, c = rational_list("b"), rational_list("c")
        build = sm.anti_bidiagonal if kind == "antibidiag" \
            else sm.tridiagonal_equivalent
        return build(a1, b, c)
    if kind in ("flip", "randomtn"):
        if "n" not in params:
            raise _BadToken(f"matrix spec {kind!r} needs n=")
        try:
            n = int(params["n"])
        except ValueError:
            raise _BadToken(
                f"matrix spec field n={params['n']!r} is not an integer") from None
        if kind == "randomtn":
            return sm.random_tn_matrix(n, seed)
        if n > sm.SCAN_CAP:
            raise InvalidInputError(f"dimension must lie in 1..{sm.SCAN_CAP}")
        return sm.flip(n)
    raise _BadToken(f"unknown matrix spec kind {kind!r}")


def _cmd_matrix(args) -> dict:
    from . import simatrix as sm
    if args.action == "build":
        M = _parse_spec(args.spec, args.seed)
        return {"n": M.n, "rows": M.rows}
    M = _matrix_from_rows(args.spec)
    # first, so an input past the scan cap or a bad order costs nothing more
    sig = sm.signature_scan(M, args.max_order)
    cp = sm.char_poly(M)
    report = classify(cp)
    out = {
        "n": M.n,
        "rows": M.rows,
        "char_poly": cp,
        "classification": report.to_json_dict(),
        "si_spectrum": report.label == LABEL_SI,
        "signature": {
            "signs": list(sig.signs),
            "definite": sig.definite,
            "checked_order": sig.checked_order,
        },
        # the signature scan saw every minor unless a cap stopped it
        "totally_nonnegative": sig.definite and -1 not in sig.signs and (
            sig.checked_order == M.n or total_nonnegativity_scan(M.rows).ok),
        "entries_condition": sm.entries_condition(M),
        "class_n_plus": sm.class_n_plus_check(M),
    }
    if sig.witness is not None:
        order, first, second = sig.witness
        out["signature"]["witness"] = {
            "order": order,
            "first": dict(zip(("rows", "cols", "value"), first)),
            "second": dict(zip(("rows", "cols", "value"), second)),
        }
    try:
        out["anti_tridiagonal"] = sm.anti_tridiagonal_criterion(M)
    except InvalidInputError:
        out["anti_tridiagonal"] = None
    return out


# ---------------------------------------------------------------------------
# parser plumbing

def _nonnegative_int(text: str) -> int:
    """argparse type for --max-order: a negative cap is malformed input."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main`
    call (parsing leaves it unchanged)."""
    top = argparse.ArgumentParser(
        prog="genhurwitz",
        description="Zero-location taxonomy of real polynomials, exactly.")
    top.add_argument("--pretty", action="store_true",
                     help="indent the JSON output")
    top.add_argument("--max-order", type=_nonnegative_int, default=None,
                     metavar="N",
                     help="cap for minor scans")
    top.add_argument("--seed", type=int, default=0, metavar="N",
                     help="seed for randomized constructions")
    sub = top.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
            ("classify", _cmd_classify, "classify a polynomial"),
            ("minors", _cmd_minors, "determinant tables"),
            ("cf", _cmd_cf, "Stieltjes continued fraction"),
            ("dual", _cmd_dual, "coefficients of the dual polynomial"),
            ("strange", _cmd_strange,
             "root statistics of the half-twisted recombinations")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("coeffs", help="comma-separated rational coefficients")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("sweep", help="classify samples along a parameter path")
    sp.add_argument("file", help="one 'alpha;c0,c1,...' line per sample")
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("matrix", help="matrix constructions and checks")
    sp.add_argument("action", choices=("build", "check"))
    sp.add_argument("spec",
                    help="build: kind:field=value;... | check: rows 'a,b;c,d'")
    sp.set_defaults(handler=_cmd_matrix)
    # argparse takes "-1" as a value but "-1,0,0" as an unknown option; no
    # option here starts with a digit, so '-' and a digit is always a value
    for parser in (top, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"-\d")
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        payload = args.handler(args)
        text = json.dumps(_jsonable(payload), sort_keys=True,
                          indent=2 if args.pretty else None)
    except _BadToken as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PolyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
