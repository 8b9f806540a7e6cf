"""Report envelopes and the JSON / CSV / table renderers.

Every rational value is serialized as {"num": int, "den": int} in lowest
terms — never as a float.  The payloads carry no such dicts: they hold
ints over one denominator, as column nodes: :class:`RationalColumn` for a
list of rationals, :class:`RecordList` for a list of same-keyed dicts
stored by column and :class:`GroupedColumn` for a column cut into
consecutive lists.  Only the emitter writes the leaves, one template per
list with the gcd reduction inline.  JSON output is canonical: sorted
keys, a two-space indent and ASCII escapes, so that parse + re-serialize
is byte-identical.  The module's own emitter writes it, byte-equal to
``json.dumps(doc, sort_keys=True, indent=2)`` of the document with each
node expanded to its lists and dicts; that ``indent`` would send CPython
to its pure-Python encoder.  Strings go through the C escaper that
``json.encoder`` wraps, imported from ``_json`` so that a command does not
load the ``json`` package; where ``_json`` is missing, as
``json.encoder`` does, it falls back to that module's pure-Python escaper.
CSV and table text writes a rational with ``spectrum.rational_text``.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import TYPE_CHECKING, Any

from . import __version__
from .filtrations import jordan_blocks, saito_filtration
from .frobenius import initial_data
from .reflexive import ReflexiveRecord
from .spectrum import _root_counts, rational_text, spectrum_direct
from .weights import WeightSystem

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

if TYPE_CHECKING:
    from collections.abc import Sequence
    from typing import Union

    Column = Union[list[int], "RationalColumn", "RecordList", "GroupedColumn"]


class RationalColumn:
    """The ints ``nums`` over one denominator ``den`` > 0.  In JSON, a list
    of {"num": int, "den": int} leaves, each in lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int = 1) -> None:
        self.nums, self.den = nums, den

    def __len__(self) -> int:
        return len(self.nums)

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each leaf, closed at ``indent``."""
        nums, den = self.nums, self.den
        _check_ints(nums)
        template = f'{{\n{indent}  "den": %d,\n{indent}  "num": %d\n{indent}}}'
        return [template % (den // (g := gcd(v, den)), v // g) for v in nums]


class RecordList:
    """A list of dicts that all have the keys of ``columns``, stored by
    column: each key maps to its values in record order, as a list of ints,
    a :class:`RationalColumn` or a :class:`GroupedColumn`."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Column]) -> None:
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("record columns differ in length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each record, closed at ``indent``."""
        inner = indent + "  "
        keys = sorted(self.columns)  # encode_basestring_ascii rejects a non-str key
        heads = [inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
        template = "{\n" + ",\n".join(heads) + "\n" + indent + "}"
        return [template % row for row in zip(*(_texts(self.columns[key], inner) for key in keys))]


class GroupedColumn:
    """``column`` cut into consecutive groups of the given ``sizes``.  In
    JSON, a list of lists."""

    __slots__ = ("column", "sizes")

    def __init__(self, column: Column, sizes: Sequence[int]) -> None:
        if sum(sizes) != len(column):
            raise ValueError("group sizes do not add up to the column length")
        self.column, self.sizes = column, sizes

    def __len__(self) -> int:
        return len(self.sizes)

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each group, closed at ``indent``; every item is
        written in one pass first."""
        flat = _texts(self.column, indent + "  ")
        groups, start = [], 0
        for size in self.sizes:
            groups.append(_list_text(flat[start : start + size], indent))
            start += size
        return groups


_NODES = (RationalColumn, RecordList, GroupedColumn)


def _check_ints(values: Sequence[int]) -> None:
    for kind in set(map(type, values)):
        if kind is not int:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _texts(column: Column, indent: str) -> list[str]:
    # the JSON text of each value of a column, closed at indent
    if type(column) in _NODES:
        return column.texts(indent)
    _check_ints(column)
    return list(map(str, column))


def _list_text(texts: list[str], indent: str) -> str:
    # a JSON list closed at indent whose items are texts
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


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
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, where each
    column node is read as the list it stands for."""
    out: list[str] = []
    _emit(doc, "", "", out)
    out.append("\n")
    return "".join(out)


def _emit(value: Any, head: str, indent: str, out: list[str]) -> None:
    """Append ``head`` and then the JSON text of ``value`` to ``out``.

    ``head`` is what precedes the value (separator, newline, indent and
    ``"key": ``); a scalar goes into ``out`` with it as one string, which
    keeps the list short.  Two shapes go in as one string too: a list of
    ints, joined, and a column node, from its item texts.  Only dicts with
    str keys, lists, str, int and the column nodes are JSON here: anything
    else, bool and None included, is a TypeError.
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
        if kind is dict:
            for key in sorted(value):  # encode_basestring_ascii rejects a non-str key
                _emit(value[key], head + encode_basestring_ascii(key) + ": ", inner, out)
                head = ",\n" + inner
        elif set(map(type, value)) == {int}:
            out.append(head + (",\n" + inner).join(map(str, value)))
        else:
            for item in value:
                _emit(item, head, inner, out)
                head = ",\n" + inner
        out.append("\n" + indent + closing)
    elif kind in _NODES:
        out.append(head + _list_text(value.texts(indent + "  "), indent))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def spectrum_payload(w: WeightSystem) -> dict[str, Any]:
    spec = spectrum_direct(w)
    d, scaled = spec.denominator, spec.scaled
    roots = _root_counts(spec)
    return {
        "s": RationalColumn(scaled, d),
        "sigma": RationalColumn(spec.sigma_scaled, d),
        "alpha": RationalColumn([-v % d for v in scaled], d),
        "spectral_polynomial": RecordList(
            {
                "root": RationalColumn([x for x, _ in roots], d),
                "multiplicity": [mult for _, mult in roots],
            }
        ),
    }


def _monomial_rows(columns: Sequence[int], value: int) -> list[list[int]]:
    # dense rows of a monomial matrix: row j holds value at columns[j]
    rows = []
    for k in columns:
        row = [0] * len(columns)
        row[k] = value
        rows.append(row)
    return rows


def frobenius_payload(w: WeightSystem) -> dict[str, Any]:
    data = initial_data(w)
    mu = data.mu
    g = _monomial_rows(data.partner, 1)  # the residue pairing is g
    return {
        # A0 = mu * cyclic shift: row j holds mu at column (j - 1) mod mu
        "a0": [RationalColumn(row) for row in _monomial_rows(range(-1, mu - 1), mu)],
        "ainf_diagonal": RationalColumn(data.sigma_scaled, data.denominator),
        "g": g,
        "e0": data.unit_index,
        "pairing": g,
        "charpoly": RationalColumn(data.charpoly()),
    }


def jordan_payload(w: WeightSystem) -> dict[str, Any]:
    data = jordan_blocks(w)
    d = data.denominator
    # a stable sort keeps the canonical order of the blocks within a class
    blocks = sorted(data.blocks, key=lambda b: -b.value % d)
    blocks_per_class = Counter(-b.value % d for b in blocks)  # keys ascend with the blocks
    return {
        "classes": RecordList(
            {
                "alpha": RationalColumn(list(blocks_per_class), d),
                "blocks": GroupedColumn(
                    RecordList(
                        {
                            "start": [b.start for b in blocks],
                            "size": [b.size for b in blocks],
                            "value": RationalColumn([b.value for b in blocks], d),
                        }
                    ),
                    list(blocks_per_class.values()),
                ),
            }
        ),
        "nu": list(data.nu),
        "offsets": list(data.offset),
        "size_multiset": {
            str(size): count for size, count in sorted(data.size_multiset().items())
        },
    }


def filtrations_payload(w: WeightSystem) -> dict[str, Any]:
    report = saito_filtration(w)
    payload: dict[str, Any] = {
        name: {str(level): members for level, members in sets.items()}
        for name, sets in report.index_sets().items()
    }
    payload["primitive"] = sorted(report.primitive)
    payload["conjugation"] = list(report.conj)
    return payload


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
    names = {"hp": "H", "gp": "G", "m": "M", "w": "W"}
    rows = [
        [names[name], str(level), " ".join(map(str, members))]
        for name, sets in report.index_sets().items()
        for level, members in sets.items()
    ]
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
