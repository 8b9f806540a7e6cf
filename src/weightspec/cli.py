"""Command-line interface.

Subcommands: spectrum, frobenius, jordan, filtrations, reflexive, verify.
Exit codes: 0 success, 1 invalid input (bad weights, unknown flags),
2 a failed identity from any command: verify lists them on stdout, every
other command names it on stderr and writes no report.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import report
from .reflexive import DEFAULT_MAX_DIMENSION, DimensionTooLarge, enumerate_reflexive
from .spectrum import IdentityViolation
from .verify import ALL_SUITES, verify_all
from .weights import WeightSystemError, make_weight_system


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # failed identities, so remap every parse problem to exit 1
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
    for name in ("spectrum", "frobenius", "jordan", "filtrations", "reflexive", "verify"):
        p = sub.add_parser(name)
        if name == "reflexive":
            p.add_argument("-n", "--dimension", type=int, required=True)
            p.add_argument("--max-dimension", type=int, default=DEFAULT_MAX_DIMENSION)
        else:
            p.add_argument("-w", "--weights", required=True, metavar="W0,W1,...")
            p.add_argument(
                "--allow-gcd-normalize",
                action="store_true",
                help="divide out a common factor instead of rejecting",
            )
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    chosen = sub.choices["verify"].add_mutually_exclusive_group()
    chosen.add_argument("--all", action="store_true", help="run every suite (the default)")
    chosen.add_argument(
        "--suite",
        action="append",
        choices=sorted(ALL_SUITES),
        help="run only the named suite (repeatable)",
    )
    return parser


# command -> (payload builder, rows builder); run calls only the one that
# --format asks for
_REPORTS = {
    "spectrum": (report.spectrum_payload, report.spectrum_rows),
    "frobenius": (report.frobenius_payload, report.frobenius_rows),
    "jordan": (report.jordan_payload, report.jordan_rows),
    "filtrations": (report.filtrations_payload, report.filtration_rows),
}


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        failures: list[str] = []
        if args.command == "reflexive":
            n = args.dimension
            records = enumerate_reflexive(n, max_dimension=args.max_dimension)
            if args.format == "json":
                doc = report.envelope("reflexive-list", report.reflexive_payload(records, n))
                text = report.to_json(doc)
            elif args.format == "csv":
                text = report.reflexive_csv(records, n)
            else:
                text = report.reflexive_table_text(records)
        else:
            w = make_weight_system(
                _parse_weights(args.weights), allow_gcd_normalize=args.allow_gcd_normalize
            )
            kind = args.command
            if kind == "verify":
                summary = report.verify_payload(verify_all(w, args.suite))
                failures = summary["failures"]
                table = ["suite", "status"], [list(item) for item in summary["suites"].items()]
                kind, payload, rows = "verify-summary", lambda w: summary, lambda w: table
            else:
                payload, rows = _REPORTS[kind]
            if args.format == "json":
                text = report.to_json(report.envelope(kind, payload(w), w, list(w.warnings)))
            else:
                render = report.render_csv if args.format == "csv" else report.render_table
                text = render(*rows(w)) + "".join(f"FAILED: {m}\n" for m in failures)
        sys.stdout.write(text)
        return 2 if failures else 0
    except (_UsageError, WeightSystemError, DimensionTooLarge, IdentityViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, IdentityViolation) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
