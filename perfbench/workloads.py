"""Seeded inputs and output checks for the three benchmark workloads.

A workload is a sequence of rounds.  Every round has the same fixed mix of
input kinds and degrees; only the concrete polynomials and matrices change
with the seed and the round number.  A run executes whole rounds, so the
mix the program sees does not depend on how many rounds fit in the time.

Each operation is an `Op`: the request the worker executes (coefficient
strings for `classify`, an argv list for `cli.main`) and a check that the
parent applies to the worker's output outside the timed interval.  The
program only ever sees the generated polynomials.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from genhurwitz.classify import (
    LABEL_ALMOST_SI,
    LABEL_GH,
    LABEL_QUASI,
    LABEL_QUASI_SI,
    LABEL_SI,
    LABEL_STABLE,
    dual_transform,
)
from genhurwitz.oracle import (
    IndeterminateVerdict,
    OracleFailureError,
    StructureSpec,
    classify_by_roots,
    generate_instance,
    numeric_roots,
)
from genhurwitz.polyalg import Polynomial, associated_function
from genhurwitz.simatrix import entries_condition, flip, random_tn_matrix
from genhurwitz.stieltjes import StieltjesCF, cf_reconstruct


@dataclass
class Op:
    """One request plus the check of its output.

    `check(output)` returns None when the output is right and a message
    otherwise.  `checked` is False for inputs whose only check is that the
    call did not raise (the root oracle abstained on them).
    """
    request: object
    check: Callable[[object], Optional[str]]
    checked: bool = True


def _coeffs(p: Polynomial) -> List[str]:
    return [str(c) for c in p.coeffs]


def _fields(label, order_k=None, degeneracy_m=None, si_type=None):
    """The report fields the worker sends back for a classify call."""
    return [label, order_k, degeneracy_m, si_type]


def _expected(spec: StructureSpec):
    """Report fields a generated instance must classify to."""
    n, kmax = spec.degree, (spec.degree + 1) // 2
    if spec.label == LABEL_STABLE:
        return _fields(LABEL_STABLE, order_k=0)
    if spec.label in (LABEL_QUASI, LABEL_QUASI_SI):
        si_type = spec.si_type if spec.label == LABEL_QUASI_SI else None
        return _fields(spec.label, degeneracy_m=spec.degeneracy_m,
                       si_type=si_type)
    if spec.label in (LABEL_SI, LABEL_ALMOST_SI):
        return _fields(spec.label, order_k=kmax, si_type=spec.si_type)
    if spec.label == LABEL_GH:
        return _fields(LABEL_GH, order_k=spec.order_k, si_type=spec.si_type)
    raise ValueError(f"no expectation for {spec.label} (degree {n})")


def _spec(rng: random.Random, kind: str, n: int) -> StructureSpec:
    """Kinds are '<label>[:I|II][:m=<m>]'; GH draws its order from rng."""
    label, *rest = kind.split(":")
    si_type, m = "I", None
    for part in rest:
        if part.startswith("m="):
            m = int(part[2:])
        else:
            si_type = part
    order_k = None
    if label == LABEL_GH:
        order_k = 1 + rng.randrange((n + 1) // 2 - 1)
    return StructureSpec(label=label, degree=n, si_type=si_type,
                         order_k=order_k, degeneracy_m=m)


def _generated(rng: random.Random, kind: str, n: int):
    spec = _spec(rng, kind, n)
    return spec, generate_instance(spec, rng.getrandbits(32))


def _classify_op(p: Polynomial, expected) -> Op:
    def check(out):
        if out != expected:
            return f"got {out}, expected {expected}"
        return None
    return Op(_coeffs(p), check)


def _random_op(rng: random.Random, n: int) -> Op:
    """Small-integer polynomial checked against the numeric root oracle."""
    lead = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    p = Polynomial([lead] + [rng.randint(-4, 4) for _ in range(n)])
    try:
        rep = classify_by_roots(numeric_roots(p))
    except (IndeterminateVerdict, OracleFailureError):
        return Op(_coeffs(p), lambda out: None, checked=False)
    return _classify_op(p, _fields(rep.label, rep.order_k, rep.degeneracy_m,
                                   rep.si_type))


# ---------------------------------------------------------------------------
# classify-small

SMALL_KINDS = (
    LABEL_STABLE,
    f"{LABEL_QUASI}:m=1", f"{LABEL_QUASI}:m=2", f"{LABEL_QUASI}:m=3",
    f"{LABEL_SI}:I", f"{LABEL_SI}:II",
    f"{LABEL_ALMOST_SI}:I", f"{LABEL_ALMOST_SI}:II",
    f"{LABEL_GH}:I", f"{LABEL_GH}:II",
    f"{LABEL_QUASI_SI}:I:m=2", f"{LABEL_QUASI_SI}:II:m=2",
)
SMALL_DEGREES = range(3, 13)
RANDOM_DEGREES = range(3, 9)
RANDOM_PER_DEGREE = 10


def classify_small_round(rng: random.Random) -> List[Op]:
    ops = []
    for n in SMALL_DEGREES:
        for kind in SMALL_KINDS:
            spec, p = _generated(rng, kind, n)
            ops.append(_classify_op(p, _expected(spec)))
    for n in RANDOM_DEGREES:
        ops += [_random_op(rng, n) for _ in range(RANDOM_PER_DEGREE)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# classify-large

LARGE_KINDS = (
    LABEL_STABLE, f"{LABEL_QUASI}:m=2", f"{LABEL_SI}:I", f"{LABEL_SI}:II",
    f"{LABEL_GH}:I", f"{LABEL_GH}:II", f"{LABEL_QUASI_SI}:I:m=2",
)
LARGE_DEGREES = (24, 28, 32)


def classify_large_round(rng: random.Random) -> List[Op]:
    ops = []
    for n in LARGE_DEGREES:
        for kind in LARGE_KINDS:
            spec, p = _generated(rng, kind, n)
            ops.append(_classify_op(p, _expected(spec)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-certificates

CLI_DEGREES = (6, 8, 10, 12, 15, 20)
CLI_REQUESTS = (
    # the expansion exists only without vanishing Hurwitz minors, which
    # stability guarantees; SI or GH inputs are refused when one vanishes
    ("cf", LABEL_STABLE), ("cf", LABEL_STABLE),
    ("minors", LABEL_STABLE), ("minors", f"{LABEL_GH}:II"),
    ("minors", f"{LABEL_QUASI}:m=2"),
    ("dual", LABEL_STABLE), ("dual", f"{LABEL_SI}:II"), ("dual", f"{LABEL_GH}:I"),
    ("dual", f"{LABEL_QUASI_SI}:I:m=2"),
    ("strange", LABEL_STABLE),
)
MATRIX_SIZES = (4, 5, 6)


def _argv(command: str, p: Polynomial) -> List[str]:
    text = ",".join(_coeffs(p))
    return [command, "--", text] if text.startswith("-") else [command, text]


def _json_output(out):
    """(payload, None) for a successful run, (None, message) otherwise."""
    if not (isinstance(out, list) and len(out) == 2):
        return None, f"call raised: {out}"
    code, text = out
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "stdout is not JSON"


def _cli_check(command: str, p: Polynomial):
    n = p.degree

    def check(out):
        payload, err = _json_output(out)
        if err:
            return err
        if command == "dual":
            q = Polynomial([Fraction(c) for c in payload.split(",")])
            if dual_transform(q) != p:
                return "dual applied twice does not return the input"
        elif command == "cf":
            cf = StieltjesCF(Fraction(payload["c0"]),
                             tuple(Fraction(v) for v in payload["c"]),
                             payload["tail"], payload["r"])
            if cf_reconstruct(cf) != associated_function(p):
                return "continued fraction does not fold back to p1/p0"
        elif command == "minors":
            delta = [Fraction(v) for v in payload["delta"]]
            # Delta_n = a_n * Delta_{n-1}: the last Hurwitz column is a_n e_n
            if payload["degree"] != n or len(delta) != n \
                    or delta[-1] != p.coeffs[-1] * delta[-2]:
                return "Hurwitz minor table has the wrong shape or last entry"
        elif command == "strange":
            if payload["degree"] != n or len(payload["images"]) != 2:
                return "experiment report has the wrong shape"
        return None
    return check


def _matrix_op(rng: random.Random, n: int) -> Op:
    """`matrix check` of J*A for a totally nonnegative A with the entries
    condition, whose spectrum is self-interlacing."""
    while True:
        A = random_tn_matrix(n, rng.getrandbits(32))
        if entries_condition(A):
            break
    rows = ";".join(",".join(str(x) for x in row) for row in (flip(n) * A).rows)

    def check(out):
        payload, err = _json_output(out)
        if err:
            return err
        if payload["si_spectrum"] is not True:
            return "flipped totally nonnegative matrix lost its SI spectrum"
        return None
    return Op(["matrix", "check", rows], check)


def cli_certificates_round(rng: random.Random) -> List[Op]:
    ops = []
    for n in CLI_DEGREES:
        for command, kind in CLI_REQUESTS:
            _, p = _generated(rng, kind, n)
            ops.append(Op(_argv(command, p), _cli_check(command, p)))
    ops += [_matrix_op(rng, n) for n in MATRIX_SIZES]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], List[Op]]
    # rounds in a traced run: a fixed amount of work, so its counts repeat
    trace_rounds: int
    # worker processes that each run every round of a timed run once; an
    # operation's latency is its fastest pass
    passes: int

    def round(self, seed: int, index: int) -> List[Op]:
        return self.make_round(random.Random(seed * 1_000_003 + index))


WORKLOADS = {w.name: w for w in (
    Workload("classify-small", classify_small_round, 4, passes=3),
    Workload("classify-large", classify_large_round, 2, passes=2),
    Workload("cli-certificates", cli_certificates_round, 4, passes=5),
)}
