"""Smoke test of ``tools/op_digests.py``: with one seed it runs every
benchmark operation in the three formats, one line per run, and every run
exits 0."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-ladder", "verify-wide", "report-session", "reflexive-tables")


def test_op_digests_one_seed():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_digests.py"), "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # 3 + 3 + 4 + 12 operations of seed 1, each in json, csv and table
    assert len(lines) == 66
    for line in lines:
        workload, seed, op, fmt, code, digest = line.split()
        assert workload in WORKLOADS and seed == "1" and fmt in ("json", "csv", "table") and code == "0", line
        assert re.fullmatch(r"\d+:[a-z]+", op) and re.fullmatch(r"[0-9a-f]{64}", digest), line
