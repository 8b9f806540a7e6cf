"""Smoke test of the benchmark harness in ``perfbench/``: its self-test
passes, and one traced round of every workload runs through the public
API it calls with every output correct.  Both run in a ``python -B``
subprocess, so no bytecode is written under ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

TRACED_ROUNDS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing, workloads
for workload in workloads.WORKLOADS:
    _, attempted, failed, correct, _ = tracing.traced_run(workload, workloads.build(workload, 1), 0)
    print(json.dumps([workload, attempted, failed, correct]))
"""


def _run(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-B", *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_perfbench_selftest_passes():
    lines = _run(str(BENCH / "selftest.py"))
    count, word = lines[-1].split()
    assert word == "passed" and int(count) == len(lines) - 1 > 0
    assert all(line.startswith("ok  test_") for line in lines[:-1])


def test_perfbench_traced_round_of_each_workload():
    code = TRACED_ROUNDS.format(src=str(ROOT / "src"), bench=str(BENCH))
    results = [json.loads(line) for line in _run("-c", code)]
    assert [workload for workload, *_ in results] == [
        "verify-ladder",
        "verify-wide",
        "report-session",
        "reflexive-tables",
    ]
    for workload, attempted, failed, correct in results:
        assert attempted > 0 and failed == 0 and correct, workload
