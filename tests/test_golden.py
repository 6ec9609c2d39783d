"""Byte pins: classify reports and CLI output on a seeded corpus.

One sha256 digest covers, for every corpus polynomial, the JSON of
`classify(p).to_json_dict()` (keys sorted) and the exit code, stdout and
stderr of `cli.main` for `classify`, `minors`, `cf` and `dual`.  A change
that moves any of those bytes changes the digest.  Update `DIGEST` only
for an intended output change, and say which bytes moved and why.
"""

import contextlib
import hashlib
import io
import json
import random

from genhurwitz.classify import classify
from genhurwitz.cli import main
from genhurwitz.polyalg import Polynomial, compose_even, times_z

DIGEST = "b716229e560ab068b1b7a7b941a7a1db1d9777f97050040cfb61cc38930b4fdf"

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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_digest():
    h = hashlib.sha256()
    for p in _corpus():
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
    assert corpus_digest() == DIGEST
