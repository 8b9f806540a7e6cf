"""Print a digest of the CLI's output for every benchmark operation.

Usage: python tools/op_digests.py N

For each workload of ``perfbench/workloads.py`` and each seed 1..N, every
operation of ``workloads.build(workload, seed)`` is run through
``weightspec.cli.run`` once in each of the json, csv and table formats.
Each run prints one line:

    workload seed op-index:command format exit-code sha256-of-stdout

Two trees that print the same lines give the same bytes and exit codes on
every benchmark input, so a change meant to keep the output can be checked
by diffing this script's output before and after it.  It only reads
``perfbench/workloads.py``; no bytecode is written next to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # before the imports below: perfbench/ stays as it is
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from weightspec import cli  # noqa: E402


def digests(seeds: int):
    """Yield one line per (workload, seed, operation, format) run."""
    for workload in workloads.WORKLOADS:
        for seed in range(1, seeds + 1):
            for index, op in enumerate(workloads.build(workload, seed)):
                for fmt in workloads.FORMATS:
                    stdout = io.StringIO()
                    # argparse keeps the last --format of the argv
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run([*op.argv, "--format", fmt])
                    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                    yield f"{workload} {seed} {index}:{op.command} {fmt} {code} {digest}"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: python tools/op_digests.py N  (N >= 1 seeds)", file=sys.stderr)
        return 1
    for line in digests(int(argv[0])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
