"""Report envelopes and the JSON / CSV / table renderers.

Every rational value is serialized as {"num": int, "den": int} in lowest
terms — never as a float.  The payloads carry no such dicts: they hold
ints over one denominator, as column nodes: :class:`RationalColumn` for a
list of rationals, :class:`RecordList` for a list of same-keyed dicts
stored by column, :class:`GroupedColumn` for a column cut into
consecutive lists, :class:`MonomialRows` for the rows of a monomial
matrix (A0 and g), each cut from one zero row, and :class:`IndexList` for
a list of indices written from a table of their texts, which the
``filtrations`` payload makes once for all its index lists.  Only the
emitter writes the leaves, each once, from one ``%``-template per
rational column, per record, or per grouping of one width: a record's
template holds the template of each of its columns, and the template of
groups of one width holds that of its column's items as many times, so a
``jordan`` class whose groups of blocks all have one count is one
template.  Groups of several widths are joined from their items' texts.
The gcd reduction is done by column; the ``spectrum`` payload computes
gcd(v, D) once for its ``s``, ``sigma`` and ``alpha`` columns, whose
numerators v, k*D - v and -v mod D share it.  JSON output is canonical:
sorted keys, a two-space indent and ASCII escapes, so that parse +
re-serialize is byte-identical.  The module's own emitter writes it,
byte-equal to ``json.dumps(doc, sort_keys=True, indent=2)`` of the
document with each node expanded to its lists and dicts; that ``indent``
would send CPython to its pure-Python encoder.  An int is written in full
even past CPython's int-to-text digit limit.  Strings go through the C
escaper that ``json.encoder`` wraps, imported from ``_json`` so that a
command does not load the ``json`` package; where ``_json`` is missing,
as ``json.encoder`` does, it falls back to that module's pure-Python
escaper.
CSV and table text writes a rational with ``spectrum.rational_text``.
The ``reflexive`` report is written by column: its payload is a
:class:`RecordList` whose weights and q are groupings of one width over
ints, so each record is one template with its q and weights inline, and
its CSV and table writers fill a one-line ``%s`` template, repeated once
per record, in one ``%``-format.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, repeat
from math import gcd
from operator import add, attrgetter, floordiv
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

    Column = Union[list[int], "RationalColumn", "RecordList", "GroupedColumn", "MonomialRows", "IndexList"]


class RationalColumn:
    """The ints ``nums`` over one denominator ``den`` > 0.  In JSON, a list
    of {"num": int, "den": int} leaves, each in lowest terms.  ``gcds``,
    when given, holds gcd(num, den) of each num, for columns that share it."""

    __slots__ = ("nums", "den", "gcds")

    def __init__(self, nums: Sequence[int], den: int = 1, gcds: Sequence[int] | None = None) -> None:
        if gcds is not None and len(gcds) != len(nums):
            raise ValueError("one gcd per num")
        self.nums, self.den, self.gcds = nums, den, gcds

    def __len__(self) -> int:
        return len(self.nums)

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each leaf, closed at ``indent``."""
        return _fill(*self.leaves(indent))

    def leaves(self, indent: str) -> tuple[str, list[list[int]]]:
        """The leaf template closed at ``indent``, then the reduced dens and nums."""
        nums, den, gcds = self.nums, self.den, self.gcds
        _check_ints(nums)
        if gcds is None:
            gcds = list(map(gcd, nums, repeat(den)))
        template = f'{{\n{indent}  "den": %d,\n{indent}  "num": %d\n{indent}}}'
        return template, [list(map(floordiv, repeat(den), gcds)), list(map(floordiv, nums, gcds))]


class RecordList:
    """A list of dicts that all have the keys of ``columns``, stored by
    column: each key maps to its values in record order, as a list of ints
    or another column node."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Column]) -> None:
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("record columns differ in length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each record, closed at ``indent``."""
        return _fill(*self.leaves(indent))

    def leaves(self, indent: str) -> tuple[str, list[Sequence]]:
        """The record template closed at ``indent``, holding the leaf
        template of each column, then the streams that fill it."""
        inner = indent + "  "
        heads, streams = [], []
        for key, column in sorted(self.columns.items()):  # a non-str key is a TypeError
            spec, values = _leaves(column, inner)
            heads.append(inner + encode_basestring_ascii(key).replace("%", "%%") + ": " + spec)
            streams += values
        return "{\n" + ",\n".join(heads) + "\n" + indent + "}", streams


class GroupedColumn:
    """``column`` cut into consecutive groups of the given ``sizes``.  In
    JSON, a list of lists."""

    __slots__ = ("column", "sizes")

    def __init__(self, column: Column, sizes: Sequence[int]) -> None:
        if sizes and (set(map(type, sizes)) != {int} or min(sizes) < 0):
            raise ValueError("a group size is not an int >= 0")
        if sum(sizes) != len(column):
            raise ValueError("group sizes do not add up to the column length")
        self.column, self.sizes = column, sizes

    def __len__(self) -> int:
        return len(self.sizes)

    def leaves(self, indent: str) -> tuple[str, list[Sequence]] | None:
        """For groups of one width k: the group template closed at
        ``indent``, k copies of the column's leaf template, and the streams
        ``stream[i::k]`` of the column's streams; else None."""
        sizes = self.sizes
        if len(set(sizes)) != 1:
            return None
        k = sizes[0]
        if not k:  # no stream to zip: each group is "[]" through "%s"
            return "%s", [["[]"] * len(sizes)]
        inner = indent + "  "
        leaf, streams = _leaves(self.column, inner)
        template = "[\n" + inner + (",\n" + inner).join([leaf] * k) + "\n" + indent + "]"
        return template, [stream[i::k] for i in range(k) for stream in streams]

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each group, closed at ``indent``: one template
        for groups of one width, else the item texts of one pass over the
        column."""
        if leaves := self.leaves(indent):
            return _fill(*leaves)
        inner = indent + "  "
        flat = iter(_texts(self.column, inner))
        opening, separator, closing = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
        return [
            opening + separator.join(islice(flat, size)) + closing if size else "[]"
            for size in self.sizes
        ]


class MonomialRows:
    """The rows of a monomial matrix: row j holds the second of the two
    ``leaves`` at column ``columns[j]`` and the first everywhere else.  In
    JSON, a list of lists."""

    __slots__ = ("columns", "leaves")

    def __init__(self, columns: Sequence[int], leaves: list[int] | RationalColumn) -> None:
        if any(type(k) is not int or not 0 <= k < len(columns) for k in columns):
            raise ValueError("a monomial row's column is not an int in range(len(columns))")
        self.columns, self.leaves = columns, leaves

    def __len__(self) -> int:
        return len(self.columns)

    def texts(self, indent: str) -> list[str]:
        """The JSON text of each row, closed at ``indent``: two slices of
        one zero row with the value leaf between them."""
        inner = indent + "  "
        zero, value = _texts(self.leaves, inner)
        separator = ",\n" + inner
        row = "[\n" + inner + separator.join([zero] * len(self.columns)) + "\n" + indent + "]"
        start, step = len(inner) + 2, len(zero) + len(separator)
        return [row[: (at := start + k * step)] + value + row[at + len(zero) :] for k in self.columns]


class IndexList:
    """Indices into ``table``, which holds the text of each int in
    ``range(len(table))``, made once for a payload.  In JSON, the list of
    the indices."""

    __slots__ = ("indices", "table")

    def __init__(self, indices: Sequence[int], table: Sequence[str]) -> None:
        self.indices, self.table = indices, table

    def __len__(self) -> int:
        return len(self.indices)

    def texts(self, indent: str) -> list[str]:
        """The text of each index; an index outside the table is an IndexError."""
        indices = self.indices
        _check_ints(indices)
        if indices and min(indices) < 0:  # the table would wrap it
            raise IndexError("a negative index")
        return list(map(self.table.__getitem__, indices))


_NODES = (RationalColumn, RecordList, GroupedColumn, MonomialRows, IndexList)


def _check_ints(values: Sequence[int]) -> None:
    for kind in set(map(type, values)):
        if kind is not int:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _leaves(column: Column, indent: str) -> tuple[str, list[Sequence]]:
    # the leaf template of a column's items closed at indent, and the streams
    # that fill it: "%d" and the column for ints, a node's own template where
    # it has one, else "%s" and the node's item texts
    if type(column) in (RationalColumn, RecordList, GroupedColumn) and (leaves := column.leaves(indent)):
        return leaves
    if type(column) in _NODES:
        return "%s", [column.texts(indent)]
    _check_ints(column)
    return "%d", [column]


def _texts(column: Column, indent: str) -> Sequence[str]:
    # the JSON text of each value of a column, closed at indent
    if type(column) in _NODES:
        return column.texts(indent)
    _check_ints(column)
    return _int_texts(column)


def _fill(template: str, streams: list[Sequence]) -> list[str]:
    # template % each row of the zipped streams; past CPython's int-to-text
    # digit limit each %d becomes %s of _int_text (a %% pair stays literal)
    try:
        return list(map(template.__mod__, zip(*streams)))
    except ValueError:
        template = "%%".join(part.replace("%d", "%s") for part in template.split("%%"))
        return [template % tuple(_int_text(v) if type(v) is int else v for v in row) for row in zip(*streams)]


def _int_texts(values: Sequence[int]) -> list[str]:
    # str() of each int, through _int_text once one is past the digit limit
    try:
        return list(map(str, values))
    except ValueError:
        return list(map(_int_text, values))


def _int_text(value: int) -> str:
    # str(value), also past CPython's int-to-text digit limit: there the
    # digits in chunks of 4000, every chunk but the first zero-padded
    try:
        return str(value)
    except ValueError:
        pass
    chunks, rest = [], abs(value)
    while rest >= 10**4000:
        rest, low = divmod(rest, 10**4000)
        chunks.append(str(low).zfill(4000))
    return "-" * (value < 0) + str(rest) + "".join(reversed(chunks))


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
    keeps the list short.  A list of ints goes in as one string too, and a
    column node as its item texts joined, after ``head``.  Only dicts with
    str keys, lists, str, int and the column nodes are JSON here: anything
    else, bool and None included, is a TypeError.
    """
    kind = type(value)
    if kind is int:
        out.append(head + _int_text(value))
    elif kind is str:
        out.append(head + encode_basestring_ascii(value))
    elif kind is list or kind is dict or kind in _NODES:
        opening, closing = ("{", "}") if kind is dict else ("[", "]")
        if not value:
            out.append(head + opening + closing)
            return
        inner = indent + "  "
        head += opening + "\n" + inner
        if kind is dict:
            for key in sorted(value):  # encode_basestring_ascii rejects a non-str key
                _emit(value[key], head + encode_basestring_ascii(key) + ": ", inner, out)
                head = ",\n" + inner
        elif kind in _NODES:  # head + the joined texts would copy them again
            out += (head, (",\n" + inner).join(value.texts(inner)))
        elif set(map(type, value)) == {int}:
            out += (head, (",\n" + inner).join(_int_texts(value)))
        else:
            for item in value:
                _emit(item, head, inner, out)
                head = ",\n" + inner
        out.append("\n" + indent + closing)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def spectrum_payload(w: WeightSystem) -> dict[str, Any]:
    spec = spectrum_direct(w)
    d, scaled = spec.denominator, spec.scaled
    roots = _root_counts(spec)
    # gcd(k*D - v, D) = gcd(-v mod D, D) = gcd(v, D): one gcd per index for s, sigma and alpha
    gcds = list(map(gcd, scaled, repeat(d)))
    return {
        "s": RationalColumn(scaled, d, gcds),
        "sigma": RationalColumn(spec.sigma_scaled, d, gcds),
        "alpha": RationalColumn([-v % d for v in scaled], d, gcds),
        "spectral_polynomial": RecordList(
            {
                "root": RationalColumn([x for x, _ in roots], d),
                "multiplicity": [mult for _, mult in roots],
            }
        ),
    }


def frobenius_payload(w: WeightSystem) -> dict[str, Any]:
    data = initial_data(w)
    mu = data.mu
    g = MonomialRows(data.partner, [0, 1])  # the residue pairing is g
    return {
        # A0 = mu * cyclic shift: row j holds mu at column (j - 1) mod mu
        "a0": MonomialRows([(j - 1) % mu for j in range(mu)], RationalColumn([0, mu])),
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
    table = list(map(str, range(w.mu)))  # the text of each index, made once
    payload: dict[str, Any] = {
        name: {str(level): IndexList(members, table) for level, members in sets.items()}
        for name, sets in report.index_sets().items()
    }
    payload["primitive"] = IndexList(sorted(report.primitive), table)
    payload["conjugation"] = IndexList(report.conj, table)
    return payload


_weights, _mu = attrgetter("weights.weights"), attrgetter("mu")


def reflexive_payload(records: list[ReflexiveRecord], n: int) -> dict[str, Any]:
    sizes = [n + 1] * len(records)
    return {
        "dimension": n,
        "count": len(records),
        "systems": RecordList(
            {
                "weights": GroupedColumn(list(chain.from_iterable(map(_weights, records))), sizes),
                "mu": list(map(_mu, records)),
                "q": GroupedColumn(list(chain.from_iterable(map(attrgetter("q"), records))), sizes),
            }
        ),
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


def _reflexive_lines(records: list[ReflexiveRecord], line: str) -> str:
    # one %-format: ``line`` once per record, filled with the weights and
    # mu of all records in turn; %s writes each value as str() does
    values = tuple(chain.from_iterable(map(add, map(_weights, records), zip(map(_mu, records)))))
    return line * len(records) % values


def reflexive_table_text(records: list[ReflexiveRecord]) -> str:
    """One line ``w0 w1 ... wn | mu`` per record; all records have one n."""
    width = len(_weights(records[0])) if records else 0
    return _reflexive_lines(records, " ".join(["%s"] * width) + " | %s\n")


def reflexive_csv(records: list[ReflexiveRecord], n: int) -> str:
    header = ",".join([f"w{i}" for i in range(n + 1)] + ["mu"])
    return header + "\n" + _reflexive_lines(records, ",".join(["%s"] * (n + 2)) + "\n")
