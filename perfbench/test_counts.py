"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_counts.py -q

The traced run covers a fixed number of rounds, so the counts it reports
must repeat exactly for a seed; later changes cite them as counts.  The
worker's peak memory must be its own, not that of the process that
started it.  An operation's latency is its fastest pass at reference
speed, and passes that disagree on an output fail it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-small", "classify-large", "cli-certificates")

EXACT = ("minors.hurwitz_minors.calls_per_op", "minors.stall_frac",
         "minors.max_bits", "classify.reflect_frac")


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in declared}
    counts = [k for k in first["metrics"] if k.endswith(".calls") or k in EXACT]
    assert len(counts) == 9
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["minors.hurwitz_minors.calls_per_op"]["value"] > 0


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def test_worker_peak_is_its_own():
    # the classify worker never loads numpy; its parent, like run.py's
    # through the root oracle, has it loaded before starting the worker,
    # and here also holds 64 MB more (bytearray zero-fills, so it is resident)
    import numpy  # noqa: F401
    ballast = bytearray(64 << 20)

    sys.path.insert(0, str(HERE))
    from run import Worker
    with Worker("classify-small") as worker:
        rss_mb = worker.ask({"stop": True})["rss_mb"]
    assert 0 < rss_mb < _rss_mb() - len(ballast) / 2**20


def test_latency_is_fastest_scaled_pass():
    sys.path.insert(0, str(HERE))
    from types import SimpleNamespace
    from run import ALPHA, REFERENCE_S, Tally

    ops = [SimpleNamespace(request=i, checked=True, check=lambda out: None)
           for i in range(2)]
    # the second pass ran while the machine was twice as slow
    fast = {"latency": [1.0, 3.0], "wall": 4.0, "outputs": ["a", "b"],
            "reference": REFERENCE_S}
    slow = {"latency": [1.5, 4.0], "wall": 5.5, "outputs": ["a", "b"],
            "reference": 2 * REFERENCE_S}
    tally = Tally()
    tally.add(ops, [fast, slow])
    scale = 0.5 ** ALPHA
    assert tally.latency == [min(1.0, 1.5 * scale), min(3.0, 4.0 * scale)]
    assert (tally.attempted, tally.failed) == (2, 0)

    differs = dict(slow, outputs=["a", "c"])
    tally = Tally()
    tally.add(ops, [fast, differs])
    assert tally.failed == 1 and tally.failures[0][0] == 1


def test_end_to_end_reports_declared_metrics():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-small",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["correct"] and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())
