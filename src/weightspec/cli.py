"""Command-line interface.

Subcommands: spectrum, frobenius, jordan, filtrations, reflexive, verify.
Exit codes: 0 success, 1 invalid input (bad weights, unknown flags),
2 verify found failing identities, including an identity that a builder
raised as IdentityViolation during verify.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import report
from .reflexive import DimensionTooLarge, enumerate_reflexive
from .verify import ALL_SUITES, verify_all
from .weights import WeightSystem, WeightSystemError, make_weight_system


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # failed verification, so remap every parse problem to exit 1
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_weights(text: str) -> list[int]:
    # int() alone also takes "1_0" and non-ASCII digits
    fields = [part.strip() for part in text.split(",")]
    for part in fields:
        if not re.fullmatch(r"[+-]?[0-9]+", part):
            raise _UsageError(f"bad weight list {text!r}: {part!r} is not a decimal integer")
    return [int(part) for part in fields]


def _build_parser() -> _Parser:
    parser = _Parser(prog="weightspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weights=True):
        if weights:
            p.add_argument("-w", "--weights", required=True, metavar="W0,W1,...")
            p.add_argument(
                "--allow-gcd-normalize",
                action="store_true",
                help="divide out a common factor instead of rejecting",
            )
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            default="table",
        )

    for name in ("spectrum", "frobenius", "jordan", "filtrations"):
        add_common(sub.add_parser(name))

    reflexive = sub.add_parser("reflexive")
    reflexive.add_argument("-n", "--dimension", type=int, required=True)
    reflexive.add_argument("--max-dimension", type=int, default=5)
    reflexive.add_argument(
        "--format", choices=("json", "csv", "table"), default="table"
    )

    verify = sub.add_parser("verify")
    add_common(verify)
    chosen = verify.add_mutually_exclusive_group()
    chosen.add_argument(
        "--all", action="store_true", help="run every suite (the default)"
    )
    chosen.add_argument(
        "--suite",
        action="append",
        choices=sorted(ALL_SUITES),
        help="run only the named suite (repeatable)",
    )
    return parser


def _weight_system(args) -> WeightSystem:
    return make_weight_system(
        _parse_weights(args.weights),
        allow_gcd_normalize=getattr(args, "allow_gcd_normalize", False),
    )


_REPORTS = {
    "spectrum": (report.spectrum_payload, report.spectrum_rows),
    "frobenius": (report.frobenius_payload, report.frobenius_rows),
    "jordan": (report.jordan_payload, report.jordan_rows),
    "filtrations": (report.filtrations_payload, report.filtration_rows),
}


def _emit(args, w: WeightSystem) -> None:
    """Write the report for ``args.command``, building only what ``--format`` needs."""
    payload, rows = _REPORTS[args.command]
    if args.format == "json":
        doc = report.envelope(args.command, payload(w), w, list(w.warnings))
        sys.stdout.write(report.to_json(doc))
    elif args.format == "csv":
        sys.stdout.write(report.render_csv(*rows(w)))
    else:
        sys.stdout.write(report.render_table(*rows(w)))


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _REPORTS:
            _emit(args, _weight_system(args))
        elif args.command == "reflexive":
            n = args.dimension
            records = enumerate_reflexive(n, max_dimension=args.max_dimension)
            if args.format == "json":
                doc = report.envelope("reflexive-list", report.reflexive_payload(records, n))
                sys.stdout.write(report.to_json(doc))
            elif args.format == "csv":
                sys.stdout.write(report.reflexive_csv(records, n))
            else:
                sys.stdout.write(report.reflexive_table_text(records))
        elif args.command == "verify":
            return _run_verify(args)
        return 0
    except (_UsageError, WeightSystemError, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_verify(args) -> int:
    w = _weight_system(args)
    suites = args.suite if args.suite else None
    results = verify_all(w, suites)
    payload = report.verify_payload(results)
    failures = payload["failures"]
    if args.format == "json":
        sys.stdout.write(
            report.to_json(report.envelope("verify-summary", payload, w, list(w.warnings)))
        )
    else:
        render = report.render_csv if args.format == "csv" else report.render_table
        rows = [[name, status] for name, status in payload["suites"].items()]
        sys.stdout.write(render(["suite", "status"], rows))
        for message in failures:
            sys.stdout.write(f"FAILED: {message}\n")
    return 2 if failures else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
