"""The report payloads, read back from their JSON text, against dicts
built apart from the program in ``Fraction`` arithmetic: the spectrum from
the ladder triples, every rational through the plain ``Fraction``
encoder.  The JSON emitter against ``json.dumps(doc, sort_keys=True,
indent=2)`` on generated documents, and on generated column nodes against
``json.dumps`` of the lists they stand for."""

import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import py_encode_basestring_ascii
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weightspec import WeightSystem, enumerate_reflexive, make_weight_system, report, spectrum
from weightspec.report import (
    GroupedColumn,
    MonomialRows,
    RationalColumn,
    RecordList,
    envelope,
    frobenius_payload,
    jordan_payload,
    rational_text,
    reflexive_csv,
    reflexive_payload,
    reflexive_table_text,
    spectrum_payload,
    to_json,
)

from conftest import exhaustive_mu, weight_systems_up_to
from test_spectrum import ladder_triples

F = Fraction


def enc(value) -> dict[str, int]:
    f = F(value)
    return {"num": f.numerator, "den": f.denominator}


def expected_spectrum(s: list[Fraction]) -> dict:
    sigma = [k - v for k, v in enumerate(s)]
    return {
        "s": [enc(v) for v in s],
        "sigma": [enc(v) for v in sigma],
        "alpha": [enc(math.ceil(v) - v) for v in s],
        "spectral_polynomial": [
            {"root": enc(root), "multiplicity": m} for root, m in sorted(Counter(sigma).items())
        ],
    }


def expected_jordan(s: list[Fraction]) -> dict:
    starts = [k for k in range(len(s)) if k == 0 or s[k] != s[k - 1]]
    sizes = [b - a for a, b in zip(starts, starts[1:] + [len(s)])]
    by_alpha: dict[Fraction, list[dict]] = {}
    for start, size in zip(starts, sizes):
        block = {"start": start, "size": size, "value": enc(s[start])}
        by_alpha.setdefault(math.ceil(s[start]) - s[start], []).append(block)
    return {
        "classes": [{"alpha": enc(a), "blocks": bs} for a, bs in sorted(by_alpha.items())],
        "nu": [size - 1 - 2 * j for size in sizes for j in range(size)],
        "offsets": [j for size in sizes for j in range(size)],
        "size_multiset": {str(size): c for size, c in sorted(Counter(sizes).items())},
    }


def expected_frobenius(w: WeightSystem, s: list[Fraction]) -> dict:
    mu, n = w.mu, w.n
    partner = [n - k if k <= n else mu + n - k for k in range(mu)]
    g = [[int(partner[j] == k) for k in range(mu)] for j in range(mu)]
    return {
        "a0": [[enc(mu if j == (k + 1) % mu else 0) for k in range(mu)] for j in range(mu)],
        "ainf_diagonal": [enc(k - v) for k, v in enumerate(s)],
        "g": g,
        "e0": 0,
        "pairing": g,
        "charpoly": [enc(1)] + [enc(0)] * (mu - 1) + [enc(-(mu**mu))],
    }


def _document(kind: str, payload: dict, w: WeightSystem) -> dict:
    # the payload as a report reader sees it: parsed from the JSON text
    return json.loads(to_json(envelope(kind, payload, w)))["payload"][kind]


def _assert_payloads(w: WeightSystem) -> None:
    s = [v for v, _, _ in ladder_triples(w)]
    assert _document("spectrum", spectrum_payload(w), w) == expected_spectrum(s)
    assert _document("jordan", jordan_payload(w), w) == expected_jordan(s)
    assert _document("frobenius", frobenius_payload(w), w) == expected_frobenius(w, s)


def test_payloads_against_fraction_oracle_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(14)):
        _assert_payloads(WeightSystem(tup))


def test_payloads_against_fraction_oracle_three_primes():
    # lcm(w) = 1001, so the classes have denominators 7, 11 and 13
    _assert_payloads(WeightSystem((7, 11, 13)))


def _column(nums: list[int], den: int) -> list:
    return json.loads(to_json(RationalColumn(nums, den)))


def test_encoders_reduce_like_fraction():
    nums = list(range(-30, 31))
    for den in range(1, 13):
        assert _column(nums, den) == [enc(F(num, den)) for num in nums]
        for num in nums:
            assert rational_text(num, den) == str(F(num, den))
    # zero, negative and large numerators over 1 and over the session's D
    # of three primes
    large = 3**200
    for d in (1, 1319 * 1321 * 1361):
        nums = [0, 1, -1, 1319, -1321 * 1361, d, -d, -7 * d + 1361, large, -large * 1319, 2**64 * d]
        assert _column(nums, d) == [enc(F(num, d)) for num in nums]
        for num in nums:
            assert rational_text(num, d) == str(F(num, d))
    # the reports and the failure messages share one formatter
    assert rational_text is spectrum.rational_text


def _decimal(value: int) -> str:
    # str(value) past CPython's int-to-text digit limit, in 1000-digit chunks
    chunks, rest = [], abs(value)
    while rest:
        rest, low = divmod(rest, 10**1000)
        chunks.append(f"{low:01000d}")
    return "-" * (value < 0) + ("".join(reversed(chunks)).lstrip("0") or "0")


def test_ints_past_the_digit_limit_are_written_in_full():
    # the charpoly T^mu - mu^mu of mu = 1371 ends in a 4,300-digit constant
    mu = 1371
    charpoly = frobenius_payload(make_weight_system([7, 1364]))["charpoly"]
    constant = -(mu**mu)
    assert charpoly.nums == [1] + [0] * (mu - 1) + [constant]
    zeros = json.dumps([enc(F(v)) for v in charpoly.nums[:-1] + [0]], sort_keys=True, indent=2)
    head, tail = zeros.rsplit('"num": 0', 1)
    assert to_json(charpoly) == head + f'"num": {_decimal(constant)}' + tail + "\n"
    # either side of a 4000-digit chunk, reduced over a large denominator
    big = [10**4000, 10**4000 - 1, -(10**8000) * 7, 3 * 10**4300 + 1]
    den = 2 * 10**4400
    texts = json.dumps([{"den": 0, "num": 0}] * len(big), sort_keys=True, indent=2).split('"den": 0')
    expected = texts[0]
    for num, text in zip(big, texts[1:]):
        g = math.gcd(num, den)
        expected += f'"den": {_decimal(den // g)}' + text.replace("0", _decimal(num // g), 1)
    assert to_json(RationalColumn(big, den)) == expected + "\n"


def test_ints_past_the_digit_limit_are_written_in_full_in_records():
    # a numerator of 4,401 digits that reduces by 3 over 6, and an int
    # column past the limit, beside a key whose "%d" must stay as it is
    big = 3 * 10**4400 + 3
    records = RecordList({"%d": [1, -(10**4500), 3], "r": RationalColumn([1, big, 4], 6)})
    stand_ins = {987654321: _decimal(big // 3), -123456789: _decimal(-(10**4500))}
    rows = [
        {"%d": 1, "r": enc(F(1, 6))},
        {"%d": -123456789, "r": {"num": 987654321, "den": 2}},
        {"%d": 3, "r": enc(F(4, 6))},
    ]
    for node, plain in ((records, rows), (GroupedColumn(records, [1, 0, 2]), [rows[:1], [], rows[1:]])):
        expected = json.dumps(plain, sort_keys=True, indent=2) + "\n"
        for stand_in, text in stand_ins.items():
            expected = expected.replace(f": {stand_in}", f": {text}")
        assert to_json(node) == expected


# quotes, backslashes, control and non-ASCII characters, and astral ones
# that json writes as surrogate pairs
_texts = st.text(
    st.one_of(st.sampled_from('"\\/%\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters())
)
# "10" sorts before "2" as text and after it as a number
_keys = st.one_of(_texts, st.integers(0, 120).map(str))
_ints = st.one_of(
    st.integers(-1000, 1000), st.integers(max_value=-(2**64)), st.integers(min_value=2**64)
)


def _rational(num, den, den_first: bool) -> dict:
    return {"den": den, "num": num} if den_first else {"num": num, "den": den}


# {"num": int, "den": int} in either insertion order, and near misses of it:
# one key alone, a third key, a list, dict or str as a value
_rationals = st.builds(_rational, _ints, _ints, st.booleans())
_leaves = st.one_of(
    _ints,
    _texts,
    st.just([]),
    st.just({}),
    st.lists(_ints, max_size=40),
    _rationals,
    _ints.map(lambda num: {"num": num}),
    _ints.map(lambda den: {"den": den}),
)
# int lists up to 40 long; the nested lists below stop at 5
_documents = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_keys, children, max_size=5)
    | st.builds(_rational, children, children, st.booleans())
    | st.builds(lambda r, key, v: {**r, key: v}, _rationals, _keys, children),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(_documents)
def test_to_json_matches_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert to_json(doc) == expected
    # the pure-Python escaper report falls back to where _json is missing
    with mock.patch.object(report, "encode_basestring_ascii", py_encode_basestring_ascii):
        assert to_json(doc) == expected


def test_report_imports_without_json_accelerator():
    # a fresh interpreter where the C module _json cannot be imported
    script = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import json, json.encoder\n"
        "from weightspec import report\n"
        "assert report.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii\n"
        "doc = {'\\u00e9 \"\\\\\\n\\x7f\\U0001f600': ['', '\\t', {'num': -3, 'den': 4}]}\n"
        "assert report.to_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + '\\n'\n"
    )
    package_root = Path(report.__file__).parent.parent
    subprocess.run([sys.executable, "-c", script, str(package_root)], check=True, timeout=60)


def test_to_json_rejects_what_it_does_not_write():
    for bad in (True, False, None, 1.5, (1, 2)):
        rational_shaped = ({"num": bad, "den": 1}, {"num": 1, "den": bad})
        for doc in (bad, [0, bad], [0, 1, 2, bad], {"k": bad}, *rational_shaped):
            with pytest.raises(TypeError):
                to_json(doc)
    for doc in ({1: "x"}, {"a": {2: []}}):
        with pytest.raises(TypeError):
            to_json(doc)
    # a rational-shaped dict is an ordinary dict, whatever its values; the
    # loop above has {"num": True, "den": 1} and {"num": 1, "den": None}
    for doc in ({"num": 1.5, "den": 2}, [{"num": 1, "den": 2}, {"num": False, "den": 1}]):
        with pytest.raises(TypeError):
            to_json(doc)
    # a column holds ints only, a record list str keys only
    for bad in (True, 1.5, None, F(1, 2)):
        for doc in (
            RationalColumn([0, bad], 3),
            RecordList({"k": [1, bad]}),
            RecordList({"k": GroupedColumn([1, bad], [0, 2])}),
        ):
            with pytest.raises(TypeError):
                to_json(doc)
    with pytest.raises(TypeError):
        to_json(RecordList({1: [0]}))
    for leaves in ([0, True], [0, 1.5], RationalColumn([0, None])):
        with pytest.raises(TypeError):
            to_json(MonomialRows([1, 0], leaves))
    # a record list's columns have one length, a grouping covers its column
    with pytest.raises(ValueError):
        RecordList({"a": [1, 2], "b": RationalColumn([1], 2)})
    with pytest.raises(ValueError):
        GroupedColumn([1, 2, 3], [1, 1])


def test_monomial_rows_reject_a_column_off_the_row():
    for columns in ([0, -1], [0, 2], [2, 0], [True, 0], [0, False], [0, 1.0], [F(0), 1], ["0", 1]):
        with pytest.raises(ValueError):
            MonomialRows(columns, [0, 1])
    assert len(MonomialRows([], [0, 1])) == 0


# --- column nodes against the lists they stand for -------------------------

_dens = st.one_of(
    st.just(1), st.integers(1, 60), st.just(1319 * 1321 * 1361), st.integers(2**64, 2**70)
)


@st.composite
def _rational_columns(draw, length: int) -> RationalColumn:
    den = draw(_dens)
    # multiples of den reduce to den 1
    nums = st.one_of(_ints, st.just(0), st.integers(-5, 5).map(lambda k: k * den))
    return RationalColumn(draw(st.lists(nums, min_size=length, max_size=length)), den)


@st.composite
def _monomial_rows(draw, length: int) -> MonomialRows:
    # int or rational leaves, and columns that repeat or skip
    columns = st.lists(st.integers(0, max(length - 1, 0)), min_size=length, max_size=length)
    leaves = st.one_of(st.lists(_ints, min_size=2, max_size=2), _rational_columns(2))
    return MonomialRows(draw(columns), draw(leaves))


@st.composite
def _columns(draw, length: int, depth: int):
    kinds = ["ints", "rationals", "monomial"] + (["grouped", "records"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ints":
        return draw(st.lists(_ints, min_size=length, max_size=length))
    if kind == "rationals":
        return draw(_rational_columns(length))
    if kind == "monomial":
        return draw(_monomial_rows(length))
    if kind == "grouped":
        # empty groups included
        sizes = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
        return GroupedColumn(draw(_columns(sum(sizes), depth + 1)), sizes)
    return draw(_record_lists(length, depth + 1))


@st.composite
def _record_lists(draw, length: int, depth: int) -> RecordList:
    # a record list of length rows has at least one key unless it has none;
    # the keys go into a %-template
    keys = st.one_of(_keys, st.sampled_from(["%", "%s", "%(k)d%%"]))
    keys = draw(st.lists(keys, min_size=min(length, 1), max_size=3, unique=True))
    return RecordList({key: draw(_columns(length, depth)) for key in keys})


def _expand(column):
    """The plain lists and dicts a column node stands for, its rationals
    through ``Fraction``."""
    if isinstance(column, RationalColumn):
        return [enc(F(num, column.den)) for num in column.nums]
    if isinstance(column, RecordList):
        keys = list(column.columns)
        values = [_expand(c) for c in column.columns.values()]
        return [dict(zip(keys, row)) for row in zip(*values)]
    if isinstance(column, MonomialRows):
        zero, value = _expand(column.leaves)
        width = len(column.columns)
        return [[value if k == at else zero for k in range(width)] for at in column.columns]
    if isinstance(column, GroupedColumn):
        flat, groups = _expand(column.column), []
        for size in column.sizes:
            groups.append(flat[:size])
            flat = flat[size:]
        return groups
    return list(column)


_nodes = st.one_of(
    st.integers(0, 5).flatmap(_rational_columns),
    st.integers(0, 4).flatmap(lambda length: _record_lists(length, 0)),
    st.integers(0, 4).flatmap(lambda length: _columns(length, 1)),
)


@settings(max_examples=100, deadline=None)
@given(_nodes, st.lists(st.booleans(), max_size=3))
def test_column_nodes_match_json_dumps(node, wrappers):
    # each wrapper puts the node one indent further in, in a list or a dict
    doc, expected = node, _expand(node)
    for in_list in wrappers:
        doc, expected = ([0, doc], [0, expected]) if in_list else ({"k": doc, "z": []}, {"k": expected, "z": []})
    assert to_json(doc) == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(_monomial_rows))
def test_monomial_rows_match_json_dumps_of_dense_rows(rows):
    assert to_json(rows) == json.dumps(_expand(rows), sort_keys=True, indent=2) + "\n"


def _held_ints(value, seen: set[int]) -> int:
    # the ints in the lists and tuples a payload holds, each list once
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        return sum(_held_ints(v, seen) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(1 if type(v) is int else _held_ints(v, seen) for v in value)
    return sum(_held_ints(getattr(value, name), seen) for name in getattr(value, "__slots__", ()))


@pytest.mark.parametrize("weights", [(1, 1, 1), (5, 7), (17, 19, 26, 34)])
def test_frobenius_payload_holds_O_mu_ints(weights):
    # A0 and g are monomial rows, not dense: at mu 96 the dense rows of A0
    # and g held 2 * mu**2 = 18,432 ints, written as 3 * mu**2 = 27,648
    w = make_weight_system(list(weights))
    payload = frobenius_payload(w)
    assert type(payload["a0"]) is MonomialRows and payload["g"] is payload["pairing"]
    assert _held_ints(payload, set()) < 4 * w.mu + 8


# --- the reflexive reports against per-record oracles ----------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_reflexive_reports_match_per_record_oracles(n):
    records = enumerate_reflexive(n)
    systems = [{"weights": list(r.weights.weights), "mu": r.mu, "q": list(r.q)} for r in records]
    doc = envelope("reflexive-list", {"dimension": n, "count": len(records), "systems": systems})
    payload = reflexive_payload(records, n)
    assert to_json(envelope("reflexive-list", payload)) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    rows = [[*map(str, r.weights.weights), str(r.mu)] for r in records]
    header = [f"w{i}" for i in range(n + 1)] + ["mu"]
    assert reflexive_csv(records, n) == "".join(",".join(row) + "\n" for row in [header, *rows])
    table = "".join(" ".join(row[:-1]) + " | " + row[-1] + "\n" for row in rows)
    assert reflexive_table_text(records) == table


def test_reflexive_reports_of_no_records():
    assert reflexive_table_text([]) == ""
    assert reflexive_csv([], 2) == "w0,w1,w2,mu\n"
    doc = {"dimension": 2, "count": 0, "systems": []}
    assert to_json(reflexive_payload([], 2)) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
