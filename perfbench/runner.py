"""One fresh process of the untraced benchmark.

Usage: runner.py WORKLOAD SEED BUDGET_SECONDS [DUMP_DIR]

Times its own set-up (import ``weightspec.cli`` and build the inputs),
then a cold pass over the workload's operations, then warm passes while
another one is expected to end within BUDGET_SECONDS (at least one).  A
budget of 0 stops after the set-up.  The machine reference kernel runs
just before and just after the set-up, and in every pass before each
operation and after the last, off the clock; run.py scales each time by
the kernel's times around it.  Each operation goes through
``weightspec.cli.run`` with stdout captured; the clock stops between
operations while the output is hashed (and, for the cold pass, written to
DUMP_DIR for the oracles).
Prints one JSON line.  Arguments are read by hand so that nothing the
program would import is loaded before the set-up clock starts.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (standard library only)


def main() -> None:
    workload, seed, budget = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    dump_dir = sys.argv[4] if len(sys.argv) > 4 else ""
    ref = workloads.machine_ref
    setup_refs = [ref()]
    start = time.perf_counter()
    from weightspec import cli

    ops = workloads.build(workload, seed)
    setup_s = time.perf_counter() - start
    setup_refs.append(ref())

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    def one_pass(dump: bool) -> dict:
        seconds = 0.0
        refs = []
        results = []
        for index, op in enumerate(ops):
            refs.append(ref())
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run(list(op.argv))
            except Exception:  # noqa: BLE001 - a crash is a failed operation
                rc = -1
                traceback.print_exc()
            seconds += time.perf_counter() - began
            text = out.getvalue()
            results.append([rc, hashlib.sha256(text.encode()).hexdigest()])
            if dump:
                with open(os.path.join(dump_dir, f"op{index}.txt"), "w") as fh:
                    fh.write(text)
        refs.append(ref())
        return {"seconds": seconds, "ref_s": refs, "ops": results}

    passes = []
    if budget > 0:
        began = time.perf_counter()
        passes.append(one_pass(bool(dump_dir)))
        last = time.perf_counter() - began
        while len(passes) < 2 or time.perf_counter() - began + last <= budget:
            pass_began = time.perf_counter()
            passes.append(one_pass(False))
            last = time.perf_counter() - pass_began
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_refs,
        "peak_rss_mb": peak_kb / 1024,
        "passes": passes,
    }))


if __name__ == "__main__":
    main()
