"""Determinism of traced benchmark runs.

Two traced runs of a workload must give identical count metrics, and every
op's stdout must be byte-identical with tracing on and off.  Each case
runs one workload traced twice (one to two minutes each), so a plain
``pytest`` does not collect this file; run it by name:

    python3 -m pytest perfbench/tests/determinism_check.py
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(BENCH, "run.py")
OUT = os.path.join(BENCH, "out")


def _traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace1.json")) as fh:
        record = json.load(fh)
    return line, record


@pytest.mark.parametrize("workload", ["report", "construct", "census"])
def test_counts_and_stdout_repeat(workload):
    first, rec_first = _traced_run(workload, 7)
    second, rec_second = _traced_run(workload, 7)
    for line in (first, second):
        assert line["correct"] and line["failed"] == 0
        assert line["metrics"]["budgets.refusals"]["value"] == 0

    def counts(line):
        return {name: m["value"] for name, m in line["metrics"].items()
                if m["unit"] == "count"}
    assert counts(first) == counts(second)

    for rec in (rec_first, rec_second):
        traced, untraced, traced_again = rec["stdout_sha256"]
        assert traced == untraced == traced_again
    assert rec_first["stdout_sha256"][0] == rec_second["stdout_sha256"][0]
