"""Report envelopes and the JSON / CSV / table renderers.

Every rational value is serialized as {"num": int, "den": int} — never as
a float.  JSON output is canonical: sorted keys, a two-space indent and
ASCII escapes, so that parse + re-serialize is byte-identical.  The
module's own emitter writes it, byte-equal to
``json.dumps(doc, sort_keys=True, indent=2)``, whose ``indent`` would send
CPython to its pure-Python encoder.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from numbers import Rational
from typing import Any

from . import __version__
from .filtrations import jordan_blocks, saito_filtration
from .frobenius import initial_data
from .reflexive import ReflexiveRecord
from .spectrum import spectral_polynomial, spectrum_direct
from .weights import WeightSystem


def encode_rational(value: Rational, den: int = 1) -> dict[str, int]:
    """value/den in lowest terms, for an int or ``Fraction`` value: the
    spectrum, Jordan and Frobenius data pass integers over D = lcm(w)."""
    num, den = value.numerator, value.denominator * den
    g = math.gcd(num, den)
    return {"num": num // g, "den": den // g}


def rational_text(value: Rational, den: int = 1) -> str:
    f = encode_rational(value, den)
    return str(f["num"]) if f["den"] == 1 else f"{f['num']}/{f['den']}"


def envelope(
    kind: str,
    payload: dict[str, Any],
    w: WeightSystem | None = None,
    warnings: list[str] | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "tool_version": __version__,
        "input": (
            {"weights": list(w.weights), "mu": w.mu, "n": w.n}
            if w is not None
            else {}
        ),
        "payload": {kind: payload},
        "warnings": list(warnings or ()),
    }
    return doc


def to_json(doc: dict[str, Any]) -> str:
    """The canonical text of ``doc`` and a newline: the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``."""
    out: list[str] = []
    _emit(doc, "", "", out)
    out.append("\n")
    return "".join(out)


def _emit(value: Any, head: str, indent: str, out: list[str]) -> None:
    """Append ``head`` and then the JSON text of ``value`` to ``out``.

    ``head`` is what precedes the value (separator, newline, indent and
    ``"key": ``); a scalar goes into ``out`` with it as one string, which
    keeps the list short.  Only dicts with str keys, lists, str and int
    are JSON here: anything else, bool and None included, is a TypeError.
    """
    kind = type(value)
    if kind is int:
        out.append(head + str(value))
    elif kind is str:
        out.append(head + encode_basestring_ascii(value))
    elif kind is list or kind is dict:
        opening, closing = ("[", "]") if kind is list else ("{", "}")
        if not value:
            out.append(head + opening + closing)
            return
        inner = indent + "  "
        head += opening + "\n" + inner
        if kind is list:
            for item in value:
                _emit(item, head, inner, out)
                head = ",\n" + inner
        else:
            for key in sorted(value):  # encode_basestring_ascii rejects a non-str key
                _emit(value[key], head + encode_basestring_ascii(key) + ": ", inner, out)
                head = ",\n" + inner
        out.append("\n" + indent + closing)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def spectrum_payload(w: WeightSystem) -> dict[str, Any]:
    spec = spectrum_direct(w)
    d, scaled = spec.denominator, spec.scaled
    return {
        "s": [encode_rational(v, d) for v in scaled],
        "sigma": [encode_rational(x, d) for x in spec.sigma_scaled],
        "alpha": [encode_rational(-v % d, d) for v in scaled],
        "spectral_polynomial": [
            {"root": encode_rational(root), "multiplicity": mult}
            for root, mult in spectral_polynomial(w)
        ],
    }


def frobenius_payload(w: WeightSystem) -> dict[str, Any]:
    data = initial_data(w)
    g = [list(row) for row in data.metric]  # the residue pairing is g
    return {
        "a0": [[encode_rational(x) for x in row] for row in data.a0],
        "ainf_diagonal": [encode_rational(x, data.denominator) for x in data.sigma_scaled],
        "g": g,
        "e0": data.unit_index,
        "pairing": g,
        "charpoly": [encode_rational(c) for c in data.charpoly()],
    }


def jordan_payload(w: WeightSystem) -> dict[str, Any]:
    data = jordan_blocks(w)
    d = data.denominator
    classes = []
    for alpha, blocks in sorted(data.classes().items()):
        classes.append(
            {
                "alpha": encode_rational(alpha, d),
                "blocks": [
                    {
                        "start": b.start,
                        "size": b.size,
                        "value": encode_rational(b.value, d),
                    }
                    for b in blocks
                ],
            }
        )
    return {
        "classes": classes,
        "nu": list(data.nu),
        "offsets": list(data.offset),
        "size_multiset": {
            str(size): count for size, count in sorted(data.size_multiset().items())
        },
    }


def filtrations_payload(w: WeightSystem) -> dict[str, Any]:
    report = saito_filtration(w)

    def index_map(mapping: dict[int, frozenset[int]]) -> dict[str, list[int]]:
        return {str(level): sorted(members) for level, members in mapping.items()}

    return {
        "hp": index_map(report.hp),
        "gp": index_map(report.gp),
        "m": index_map(report.m),
        "w": index_map(report.w),
        "primitive": sorted(report.primitive),
        "conjugation": list(report.conj),
    }


def reflexive_payload(records: list[ReflexiveRecord], n: int) -> dict[str, Any]:
    return {
        "dimension": n,
        "count": len(records),
        "systems": [
            {"weights": list(r.weights.weights), "mu": r.mu, "q": list(r.q)}
            for r in records
        ],
    }


def verify_payload(results: dict[str, list[str]]) -> dict[str, Any]:
    return {
        "suites": {name: ("ok" if not bad else "failed") for name, bad in results.items()},
        "failures": [msg for bad in results.values() for msg in bad],
    }


# --- plain-text / CSV renderers ------------------------------------------


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(headers: list[str], rows: list[list[str]]) -> str:
    out = [",".join(headers)]
    out.extend(",".join(row) for row in rows)
    return "\n".join(out) + "\n"


def spectrum_rows(w: WeightSystem) -> tuple[list[str], list[list[str]]]:
    spec = spectrum_direct(w)
    d = spec.denominator
    headers = ["k", "s", "sigma", "alpha"]
    rows = [
        [
            str(k),
            rational_text(v, d),
            rational_text(x, d),
            rational_text(-v % d, d),
        ]
        for k, (v, x) in enumerate(zip(spec.scaled, spec.sigma_scaled))
    ]
    return headers, rows


def frobenius_rows(w: WeightSystem) -> tuple[list[str], list[list[str]]]:
    data = initial_data(w)
    headers = ["k", "sigma", "pairs_with"]
    rows = [
        [str(k), rational_text(x, data.denominator), str(p)]
        for k, (x, p) in enumerate(zip(data.sigma_scaled, data.partner))
    ]
    return headers, rows


def jordan_rows(w: WeightSystem) -> tuple[list[str], list[list[str]]]:
    data = jordan_blocks(w)
    d = data.denominator
    headers = ["alpha", "value", "start", "size"]
    rows = [
        [
            rational_text(-b.value % d, d),
            rational_text(b.value, d),
            str(b.start),
            str(b.size),
        ]
        for b in data.blocks
    ]
    return headers, rows


def filtration_rows(w: WeightSystem) -> tuple[list[str], list[list[str]]]:
    report = saito_filtration(w)
    headers = ["filtration", "level", "indices"]
    rows = []
    for name, mapping in (("H", report.hp), ("G", report.gp), ("M", report.m), ("W", report.w)):
        for level in sorted(mapping):
            rows.append(
                [name, str(level), " ".join(str(k) for k in sorted(mapping[level]))]
            )
    rows.append(["primitive", "", " ".join(str(k) for k in sorted(report.primitive))])
    rows.append(["conjugation", "", " ".join(str(k) for k in report.conj)])
    return headers, rows


def reflexive_table_text(records: list[ReflexiveRecord]) -> str:
    lines = []
    for r in records:
        lines.append(
            " ".join(str(wi) for wi in r.weights.weights) + f" | {r.mu}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def reflexive_csv(records: list[ReflexiveRecord], n: int) -> str:
    headers = [f"w{i}" for i in range(n + 1)] + ["mu"]
    rows = [
        [str(wi) for wi in r.weights.weights] + [str(r.mu)] for r in records
    ]
    return render_csv(headers, rows)
