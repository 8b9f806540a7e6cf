"""weightspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured in fresh processes
(``runner.py``); with ``--trace 1`` they are the per-layer ones, measured
in this process with spans (``tracing.py``).  End-to-end times are given
at the reference speed (``workloads.at_ref_speed``): the measured seconds
scaled by the machine reference kernel run around them, which takes out
the drift of a shared machine.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracles  # noqa: E402
import workloads  # noqa: E402

# Fresh processes per untraced run: each times its set-up, one cold pass
# and warm passes for its share of --seconds.  Extra starts that stop after
# the set-up bring the set-up samples of a run to SETUP_SAMPLES.
RUNNERS = 10
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # every fresh process is stopped by then
# set-up is timed from cached bytecode, as an installed CLI runs, whatever
# the caller's environment says; the first, unmeasured start writes it
RUNNER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _runner(deadline: float, workload: str, seed: int, budget: float, dump_dir: str = "") -> dict:
    argv = [sys.executable, os.path.join(HERE, "runner.py"), workload, str(seed), repr(budget)]
    if dump_dir:
        argv.append(dump_dir)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, cwd=ROOT, env=RUNNER_ENV, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"runner exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = workloads.build(workload, seed)
    dump_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(dump_dir, exist_ok=True)
    try:
        _runner(deadline, workload, seed, 0)  # compiles bytecode once; not measured
        began = time.monotonic()
        runs = []
        for i in range(RUNNERS):
            # a process that ends early leaves its unused share to the next ones;
            # one that gets none still makes its cold pass and one warm pass
            share = max(1e-6, (seconds - (time.monotonic() - began)) / (RUNNERS - i))
            runs.append(_runner(deadline, workload, seed, share, dump_dir if i == 0 else ""))
        runs_setup = runs + [_runner(deadline, workload, seed, 0) for _ in range(SETUP_SAMPLES - RUNNERS)]
        setups = [(r["setup_s"], r["setup_ref_s"]) for r in runs_setup]
        outputs = []
        for index in range(len(ops)):
            with open(os.path.join(dump_dir, f"op{index}.txt")) as fh:
                outputs.append(fh.read())
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)

    # the cold outputs of the first process are checked by the oracles; every
    # other call of the same operation must return the same bytes
    cold = runs[0]["passes"][0]["ops"]
    problems = oracles.check_pass(ops, [(rc, text) for (rc, _), text in zip(cold, outputs)])
    for i, p in enumerate(problems):
        if p:
            sys.stderr.write(f"FAILED {' '.join(ops[i].argv)}: {'; '.join(p)}\n")
    verified = [None if p else result for p, result in zip(problems, cold)]
    attempted = failed = 0
    wrong = False  # some call exited 0 with an output that is not the verified one
    for run in runs:
        for one_pass in run["passes"]:
            for index, result in enumerate(one_pass["ops"]):
                attempted += 1
                if result != verified[index]:
                    failed += 1
                    wrong |= result[0] == 0

    # every time is reported at the reference speed (workloads.at_ref_speed)
    scaled = workloads.at_ref_speed
    cold = [r["passes"][0] for r in runs]
    warm = [p for r in runs for p in r["passes"][1:]]
    metrics = {
        "setup_s": statistics.median(scaled(s, refs) for s, refs in setups),
        "cold_pass_s": statistics.median(scaled(p["seconds"], p["ref_s"]) for p in cold),
        "warm_pass_s": statistics.median(scaled(p["seconds"], p["ref_s"]) for p in warm),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    refs = [ref for p in cold + warm for ref in p["ref_s"]]
    sys.stderr.write(
        f"{workload} seed {seed} (measured seconds): cold {[round(p['seconds'], 3) for p in cold]} "
        f"warm {[round(p['seconds'], 3) for p in warm]} setup {[round(s, 4) for s, _ in setups]} "
        f"ref median {statistics.median(refs):.4f} s\n"
    )
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "MB" if name.endswith("_mb") else "s"}
                    for name, value in metrics.items()},
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    import tracing

    ops = workloads.build(workload, seed)
    metrics, attempted, failed, correct, spans = tracing.traced_run(workload, ops, seconds)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": spans,
        }, fh)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "weightspec", "cli.py")):
        print(f"error: no weightspec source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
