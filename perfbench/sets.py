"""Run a set of seeds per workload and summarise each metric.

    python3 perfbench/sets.py [--seeds 1-10] [--seconds 26] [--trace 0] [WORKLOAD ...]

For every workload (default: all) runs ``run.py`` once per seed, one after
another, and prints for each metric the median of the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
run's result line, with the last stderr line of the run (its per-pass
samples), is appended to ``perfbench/out/sets.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="26")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "sets.jsonl")
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
                                     "samples": proc.stderr.strip().splitlines()[-1:], **result}) + "\n")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct {correct}, failed {failed} of {attempted}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = ""
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"  spread {(q3 - q1) / median:.3f}"
            print(f"  {name:36s} median {median:.6g}{spread}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
