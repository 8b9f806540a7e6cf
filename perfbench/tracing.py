"""The traced run: spans around the benchmark's own calls into each layer.

A round replays the workload's pass through ``cli.run`` (one span per
call), then calls each layer's public functions directly on the same
inputs, with every ``lru_cache`` of the package emptied first so that each
round sees the work of a cold pass.  Spans (id, parent, name, start, end)
stay in memory and are written out when the run ends.  A per-layer metric
is the sum of its spans' durations in one round; the run reports the
median over its rounds.  ``machine.ref_s`` is the reference kernel at the
start and end of the run.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import tracemalloc

from weightspec import cli, filtrations, frobenius, gaussmanin, report, reflexive, spectrum, verify
from weightspec import linalg, weights as weights_layer

import oracles
import workloads
from workloads import Op

PACKAGE_MODULES = (
    weights_layer, spectrum, gaussmanin, frobenius, filtrations,
    linalg, reflexive, verify, report, cli,
)
REPORT_KINDS = ("spectrum", "jordan", "filtrations", "frobenius", "verify", "reflexive")
CLI_COMMANDS = ("spectrum", "jordan", "filtrations", "frobenius", "reflexive", "verify")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    names = [f"verify.{suite}_s" for suite in oracles.SUITES]
    names += [
        "gaussmanin.reduce_monomial_s", "gaussmanin.f_action_s", "gaussmanin.tau_dtau_s",
        "spectrum.spectrum_direct_s", "spectrum.step_sequence_s", "spectrum.spectrum_direct_peak_mb",
        "filtrations.jordan_blocks_s", "filtrations.saito_filtration_s",
        "frobenius.initial_data_s", "frobenius.charpoly_A0_s",
    ]
    for kind in REPORT_KINDS:
        names += [f"report.{kind}.payload_s", f"report.{kind}.to_json_s"]
    names += ["report.reflexive.csv_s", "report.reflexive.table_s", "report.output_bytes"]
    names += ["reflexive.enumerate_reflexive_s", "reflexive.records_count"]
    names += [f"cli.run.{command}_s" for command in CLI_COMMANDS]
    names += ["cli.pass_s", "weights.make_weight_system_s", "machine.ref_s"]
    units = {"_s": "s", "_mb": "MB", "_bytes": "bytes", "_count": "count"}
    return {name: next(u for suffix, u in units.items() if name.endswith(suffix)) for name in names}


class Tracer:
    """In-memory spans plus per-round sums by span name."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, float] = {}
        self._stack = [0]

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans) + 1
        parent = self._stack[-1]
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id - 1] = (span_id, parent, name, start, end)
            self.totals[name] = self.totals.get(name, 0.0) + end - start

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value


def clear_caches() -> None:
    for module in PACKAGE_MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _cli_pass(tracer: Tracer, ops: list[Op]) -> list[tuple[int, str]]:
    results = []
    with tracer.span("cli.pass"):
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with tracer.span(f"cli.run.{op.command}"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run(list(op.argv))
            results.append((rc, out.getvalue()))
    tracer.add("report.output_bytes", sum(len(text.encode()) for _, text in results))
    return results


def _spectrum_layers(tracer: Tracer, w) -> None:
    clear_caches()
    with tracer.span("spectrum.spectrum_direct"):
        spectrum.spectrum_direct(w)
    with tracer.span("spectrum.step_sequence"):
        spectrum.step_sequence(w)
    spectrum.spectrum_direct.cache_clear()
    tracemalloc.start()
    spectrum.spectrum_direct(w)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    tracer.totals["spectrum.spectrum_direct_peak_mb"] = max(
        peak, tracer.totals.get("spectrum.spectrum_direct_peak_mb", 0.0)
    )
    with tracer.span("filtrations.jordan_blocks"):
        filtrations.jordan_blocks(w)
    with tracer.span("filtrations.saito_filtration"):
        filtrations.saito_filtration(w)


def _frobenius_layers(tracer: Tracer, w) -> None:
    with tracer.span("frobenius.initial_data"):
        frobenius.initial_data(w)
    with tracer.span("frobenius.charpoly_A0"):
        frobenius.charpoly_A0(w)


def _render(tracer: Tracer, kind: str, envelope_kind: str, make_payload, w=None) -> None:
    with tracer.span(f"report.{kind}.payload"):
        payload = make_payload()
    with tracer.span(f"report.{kind}.to_json"):
        warnings = list(w.warnings) if w is not None else None
        report.to_json(report.envelope(envelope_kind, payload, w, warnings))


def _verify_round(tracer: Tracer, systems: list) -> None:
    for w in systems:
        with tracer.span("system"):
            clear_caches()
            results = {}
            for suite in verify.ALL_SUITES:
                with tracer.span(f"verify.{suite}"):
                    results.update(verify.verify_all(w, [suite]))
            _render(tracer, "verify", "verify-summary", lambda: report.verify_payload(results), w)
            _spectrum_layers(tracer, w)
            _frobenius_layers(tracer, w)
            steps = spectrum.step_sequence(w)
            for k in range(w.mu):
                with tracer.span("gaussmanin.reduce_monomial"):
                    gaussmanin.reduce_monomial(steps.exponents[k], w)
                with tracer.span("gaussmanin.f_action"):
                    gaussmanin.f_action(steps.exponents[k], w)
                with tracer.span("gaussmanin.tau_dtau"):
                    gaussmanin.tau_dtau(gaussmanin.GElement.basis(w.mu, k), w)


def _session_round(tracer: Tracer, ops: list[Op], systems: list) -> None:
    for op, w in zip(ops, systems):
        if op.command == "frobenius":
            with tracer.span("system"):
                clear_caches()
                _frobenius_layers(tracer, w)
                _render(tracer, "frobenius", "frobenius", lambda: report.frobenius_payload(w), w)
        elif op.command == "spectrum":
            with tracer.span("system"):
                _spectrum_layers(tracer, w)
                for kind, make in (
                    ("spectrum", report.spectrum_payload),
                    ("jordan", report.jordan_payload),
                    ("filtrations", report.filtrations_payload),
                ):
                    _render(tracer, kind, kind, lambda: make(w), w)


def _reflexive_round(tracer: Tracer, ops: list[Op]) -> None:
    for n in sorted({op.dimension for op in ops}):
        with tracer.span("system"):
            with tracer.span("reflexive.enumerate_reflexive"):
                records = reflexive.enumerate_reflexive(n)
            tracer.add("reflexive.records_count", len(records))
            _render(tracer, "reflexive", "reflexive-list", lambda: report.reflexive_payload(records, n))
            with tracer.span("report.reflexive.csv"):
                report.reflexive_csv(records, n)
            with tracer.span("report.reflexive.table"):
                report.reflexive_table_text(records)


def traced_run(workload: str, ops: list[Op], seconds: float):
    """Rounds while another is expected to end within ``seconds`` (at
    least one).  Returns the per-layer metrics, the attempted and failed
    operation counts, whether every output was correct, and the spans."""
    ref_start = workloads.machine_ref()
    tracer = Tracer()
    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    wrong = False
    began = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - began + last <= seconds:
        round_start = time.perf_counter()
        tracer.totals = {}
        with tracer.span("round"):
            clear_caches()
            with tracer.span("weights.make_weight_system"):
                systems = [weights_layer.make_weight_system(op.weights) for op in ops if op.weights]
            results = _cli_pass(tracer, ops)
            problems = oracles.check_pass(ops, results)
            attempted += len(ops)
            failed += sum(1 for p in problems if p)
            wrong |= any(p and rc == 0 for p, (rc, _) in zip(problems, results))
            if workload.startswith("verify"):
                _verify_round(tracer, systems)
            elif workload == "report-session":
                _session_round(tracer, ops, systems)
            else:
                _reflexive_round(tracer, ops)
        rounds.append(dict(tracer.totals))
        last = time.perf_counter() - round_start
    metrics = {}
    for name, unit in per_layer_units().items():
        key = name[:-2] if unit == "s" else name  # span totals are keyed by span name
        values = [r.get(key, 0.0) for r in rounds]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["machine.ref_s"]["value"] = (ref_start + workloads.machine_ref()) / 2
    return metrics, attempted, failed, not wrong, tracer.spans
