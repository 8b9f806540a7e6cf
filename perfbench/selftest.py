"""Fast self-test of the benchmark's checks (a few seconds).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Shows that the independent checks in ``oracles.py`` agree with the program
on every small system, and that they catch planted wrong answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from weightspec import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

COMMANDS = ("spectrum", "jordan", "filtrations", "frobenius", "verify")


def run(op: Op) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(op.argv))
    return rc, out.getvalue()


def small_systems(mu_max: int):
    """Every nondecreasing gcd-1 system of 2 to 4 weights with mu <= mu_max."""

    def extend(prefix: list[int], total: int):
        if len(prefix) >= 2 and math.gcd(*prefix) == 1:
            yield tuple(prefix)
        if len(prefix) == 4:
            return
        for w in range(prefix[-1] if prefix else 1, mu_max - total + 1):
            yield from extend(prefix + [w], total + w)

    yield from extend([], 0)


def op_for(command: str, weights) -> Op:
    extra = ("--all",) if command == "verify" else ()
    return workloads.weight_op(command, list(reversed(weights)), *extra)


def reflexive_op(n: int, fmt: str) -> Op:
    return Op("reflexive", ("reflexive", "-n", str(n), "--format", fmt), dimension=n, fmt=fmt)


def test_checks_agree_with_program_on_small_systems():
    systems = list(small_systems(12))
    assert len(systems) == 115
    for weights in systems:
        for command in COMMANDS:
            op = op_for(command, weights)
            problems = oracles.check_op(op, *run(op))
            assert problems == [], (op.argv, problems)


def test_reflexive_tables_agree_across_formats():
    ops = [reflexive_op(n, fmt) for n in (1, 2, 3, 4) for fmt in workloads.FORMATS]
    assert oracles.check_pass(ops, [run(op) for op in ops]) == [[]] * len(ops)


def test_swapped_spectrum_entries_are_caught():
    op = op_for("spectrum", (1, 2, 3))
    rc, text = run(op)
    doc = json.loads(text)
    s = doc["payload"]["spectrum"]["s"]
    s[3], s[4] = s[4], s[3]
    assert s[3] != s[4]
    assert oracles.check_op(op, rc, json.dumps(doc)) != []


def test_dimension_3_table_without_2334_is_caught():
    ops = [reflexive_op(3, fmt) for fmt in workloads.FORMATS]
    results = [run(op) for op in ops]
    rc, table = results[2]
    assert "2 3 3 4 | 12\n" in table
    results[2] = (rc, table.replace("2 3 3 4 | 12\n", ""))
    problems = oracles.check_pass(ops, results)
    assert problems[0] == [] and problems[1] == [] and problems[2] != []


def test_misquoted_jordan_profile_is_caught():
    # the commonly quoted 13 blocks of size 2 and 20 of size 1 for (1,2,12,15,30)
    op = op_for("jordan", (1, 2, 12, 15, 30))
    rc, text = run(op)
    doc = json.loads(text)
    sizes = doc["payload"]["jordan"]["size_multiset"]
    assert sizes == {"1": 18, "2": 14, "3": 3, "5": 1}
    sizes.update({"1": 20, "2": 13})
    assert oracles.check_op(op, rc, json.dumps(doc)) != []


def test_wrong_charpoly_and_failed_suite_are_caught():
    op = op_for("frobenius", (1, 1, 2))
    rc, text = run(op)
    doc = json.loads(text)
    doc["payload"]["frobenius"]["charpoly"][-1] = {"num": -255, "den": 1}
    assert oracles.check_op(op, rc, json.dumps(doc)) != []
    op = op_for("verify", (1, 2, 3))
    rc, text = run(op)
    doc = json.loads(text)
    doc["payload"]["verify-summary"]["suites"]["pairing"] = "failed"
    assert oracles.check_op(op, rc, json.dumps(doc)) != []
    assert oracles.check_op(op, 2, text) != []


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 1)
        assert first == workloads.build(workload, 1)
        assert first != workloads.build(workload, 2)
    for op in workloads.build("verify-ladder", 3):
        assert len(op.weights) in (7, 8, 10) and math.gcd(*op.weights) == 1


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
