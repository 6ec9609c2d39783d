"""Benchmark worker: a client process that calls genhurwitz; run.py asks
one worker at a time.

    python3 perfbench/worker.py setup <workload>
        import what the workload calls and make one warm-up call in this
        fresh interpreter; print the seconds that took;
    python3 perfbench/worker.py serve <workload>
        set up the same way, print "ready", then answer JSON-line requests
        on stdin until told to stop:
          {"run": [request, ...], "trace": bool}
              -> {"latency": [s, ...], "wall": s, "outputs": [...],
                  "reference": s}
          {"stop": true, "spans": path or null}
              -> {"rss_mb": peak resident MB, "trace": summary or null}

Inputs are parsed before the timed loop and outputs are checked by the
parent afterwards, so the timed interval holds only the program's calls.
Around each round the worker also times a fixed reference kernel that
never calls the program; its fastest time tells how fast the shared
machine ran this process then.
"""

from __future__ import annotations

import gc
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCE_REPEATS = 10   # reference-kernel runs before and after each round


def load(workload: str):
    """Import the modules the workload calls and warm them up.

    Returns (parse, call): parse turns a request into call arguments outside
    the timed interval; call runs one operation and returns its output in
    JSON form.  Calls go through module attributes so a tracer can rebind
    them.
    """
    if workload == "cli-certificates":
        # `strange` and `matrix check` import oracle and simatrix lazily;
        # import them here so each operation pays only its own work
        import genhurwitz.cli
        import genhurwitz.oracle    # noqa: F401
        import genhurwitz.simatrix  # noqa: F401
        cli = sys.modules["genhurwitz.cli"]

        def call(argv):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return [code, out.getvalue()]

        def parse(argv):
            return argv
        warm = ["classify", "1,3,3,1"]
    else:
        from fractions import Fraction
        import genhurwitz.classify
        from genhurwitz.polyalg import Polynomial
        mod = sys.modules["genhurwitz.classify"]

        def call(p):
            r = mod.classify(p)
            return [r.label, r.order_k, r.degeneracy_m, r.si_type]

        def parse(coeffs):
            return Polynomial([Fraction(c) for c in coeffs])
        warm = ["1", "3", "3", "1"]
    call(parse(warm))
    return parse, call


def reference_kernel() -> Fraction:
    """A fixed computation that never calls genhurwitz: fraction-free
    elimination of a 9x9 integer matrix and a sum of Fractions, the kind
    of work the program does."""
    n, x, a = 9, 12345, []
    for i in range(n):
        row = []
        for j in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 201 - 100)
        a.append(row)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(a[-1][-1] % 97 + 1, i)
    return s


def reference_time() -> float:
    """Fastest of REFERENCE_REPEATS runs of the reference kernel, in
    seconds, with the collector off so the program's heap does not weigh
    on it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            reference_kernel()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


def run(parse, call, requests, tracer):
    args = [parse(r) for r in requests]
    reference = reference_time()
    latency, outputs = [], []
    wall = perf_counter()
    for a in args:
        if tracer is not None:
            tracer.request += 1
        start = perf_counter()
        try:
            out = call(a)
        except Exception as e:  # a failed operation is counted, not fatal
            out = {"raised": f"{type(e).__name__}: {e}"}
        latency.append(perf_counter() - start)
        outputs.append(out)
    wall = perf_counter() - wall
    return {"latency": latency, "wall": wall, "outputs": outputs,
            "reference": min(reference, reference_time())}


def serve(workload: str) -> None:
    parse, call = load(workload)
    tracer = None
    traced_ops = 0
    print("ready", flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        if "stop" in msg:
            summary = None
            if tracer is not None:
                summary = tracer.summary(traced_ops)
                if msg.get("spans"):
                    tracer.write(msg["spans"])
            print(json.dumps({"rss_mb": peak_rss_mb(), "trace": summary}),
                  flush=True)
            return
        if msg["trace"]:
            if tracer is None:
                from tracer import Tracer
                tracer = Tracer()
            tracer.install()
            traced_ops += len(msg["run"])
        elif tracer is not None:
            tracer.uninstall()
        reply = run(parse, call, msg["run"], tracer if msg["trace"] else None)
        print(json.dumps(reply), flush=True)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    VmHWM starts again at exec; getrusage's ru_maxrss would keep the peak of
    the parent that forked this process, which has numpy loaded.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    if argv[0] == "setup":
        start = perf_counter()
        load(argv[1])
        print(perf_counter() - start)
    else:
        serve(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
