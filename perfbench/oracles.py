"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``weightspec``.  Every expected value is recomputed
from the weights with integer arithmetic, or is a property the paper
states (the characteristic polynomial ``T^mu - mu^mu``, the metric as an
involution) or a published count (OEIS A002966 for the reflexive tables).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from workloads import Op

SUITES = (
    "spectrum", "periodicity", "bernstein", "birkhoff", "charpoly", "pairing",
    "jordan", "saito", "orthogonality", "reflexive", "reduction", "v_order",
)
# number of reflexive weight systems per dimension n (OEIS A002966)
REFLEXIVE_COUNTS = {1: 1, 2: 3, 3: 14, 4: 147, 5: 3462}

Rational = tuple[int, int]  # (numerator, denominator), reduced, den > 0


def ladder_spectrum(weights: tuple[int, ...]) -> list[Rational]:
    """s(0..mu-1): the ladders ``l*mu/w_i`` sorted through the integer keys
    ``l*L/w_i`` with ``L = lcm(w)``."""
    mu = sum(weights)
    lcm = math.lcm(*weights)
    keys = sorted(l * (lcm // wi) for wi in weights for l in range(wi))
    values = []
    for key in keys:
        g = math.gcd(mu * key, lcm)
        values.append((mu * key // g, lcm // g))
    return values


def sigma_of(values: list[Rational]) -> list[Rational]:
    """sigma(k) = k - s(k)."""
    return [(k * den - num, den) for k, (num, den) in enumerate(values)]


def alpha_of(value: Rational) -> Rational:
    """alpha = ceil(s) - s, in [0, 1)."""
    num, den = value
    return ((-(-num // den)) * den - num, den)


def metric_partner(k: int, mu: int, n: int) -> int:
    return n - k if k <= n else mu + n - k


def _rat(value: Rational) -> dict[str, int]:
    return {"num": value[0], "den": value[1]}


def _rats(values) -> list[dict[str, int]]:
    return [{"num": num, "den": den} for num, den in values]


def _runs(values: list[Rational]) -> list[tuple[int, int]]:
    """Maximal runs of equal values as (start, size)."""
    runs = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[start]:
            runs.append((start, k - start))
            start = k
    return runs


def _monodromy_weights(values: list[Rational]) -> list[int]:
    nu = [0] * len(values)
    for start, size in _runs(values):
        for j in range(size):
            nu[start + j] = size - 1 - 2 * j
    return nu


def _envelope_payload(text: str, kind: str, weights: tuple[int, ...], problems: list[str]):
    doc = json.loads(text)
    mu, n = sum(weights), len(weights) - 1
    if doc.get("input") != {"weights": list(weights), "mu": mu, "n": n}:
        problems.append(f"{kind}: envelope input {doc.get('input')} != {list(weights)}")
    if list(doc.get("payload", {})) != [kind]:
        problems.append(f"{kind}: payload kinds {list(doc.get('payload', {}))}")
        return {}
    return doc["payload"][kind]


def check_spectrum(weights: tuple[int, ...], payload: dict) -> list[str]:
    values = ladder_spectrum(weights)
    sigma = sigma_of(values)
    problems = []
    if payload.get("s") != _rats(values):
        problems.append("spectrum: s differs from the sorted ladders")
    if payload.get("sigma") != _rats(sigma):
        problems.append("spectrum: sigma != k - s")
    if payload.get("alpha") != _rats(alpha_of(v) for v in values):
        problems.append("spectrum: alpha != ceil(s) - s")
    roots = sorted(Counter(sigma).items(), key=lambda item: Fraction(*item[0]))
    expected = [{"root": _rat(root), "multiplicity": m} for root, m in roots]
    if payload.get("spectral_polynomial") != expected:
        problems.append("spectrum: spectral polynomial roots differ from sigma")
    return problems


def check_jordan(weights: tuple[int, ...], payload: dict) -> list[str]:
    values = ladder_spectrum(weights)
    problems = []
    multiplicities = Counter(Counter(values).values())
    expected_sizes = {str(size): count for size, count in sorted(multiplicities.items())}
    if payload.get("size_multiset") != expected_sizes:
        problems.append("jordan: size multiset != value multiplicities")
    by_alpha: dict[Rational, list[dict]] = {}
    for start, size in _runs(values):
        block = {"start": start, "size": size, "value": _rat(values[start])}
        by_alpha.setdefault(alpha_of(values[start]), []).append(block)
    classes = [
        {"alpha": _rat(alpha), "blocks": blocks}
        for alpha, blocks in sorted(by_alpha.items(), key=lambda item: Fraction(*item[0]))
    ]
    if payload.get("classes") != classes:
        problems.append("jordan: blocks are not the maximal runs of equal values")
    nu = _monodromy_weights(values)
    if payload.get("nu") != nu:
        problems.append("jordan: monodromy weights differ")
    offsets = [j for _, size in _runs(values) for j in range(size)]
    if payload.get("offsets") != offsets:
        problems.append("jordan: offsets differ")
    return problems


def check_filtrations(weights: tuple[int, ...], payload: dict) -> list[str]:
    values = ladder_spectrum(weights)
    mu, n = sum(weights), len(weights) - 1
    floors = [num // den for num, den in sigma_of(values)]
    nu = _monodromy_weights(values)
    integral = [den == 1 for _, den in values]
    problems = []
    hp = {str(p): [k for k in range(mu) if floors[k] >= p] for p in range(n + 2)}
    if payload.get("hp") != hp:
        problems.append("filtrations: hp[p] != {k : floor(sigma_k) >= p}")
    gp = {str(p): [k for k in range(mu) if floors[k] <= p] for p in range(n + 1)}
    if payload.get("gp") != gp:
        problems.append("filtrations: gp[p] != {k : floor(sigma_k) <= p}")
    m = {str(j): [k for k in range(mu) if nu[k] <= j] for j in range(-n - 1, n + 2)}
    if payload.get("m") != m:
        problems.append("filtrations: m[j] != {k : nu_k <= j}")
    w = {
        str(j): [k for k in range(mu) if nu[k] <= (j - n if integral[k] else j - n - 1)]
        for j in range(-1, 2 * n + 2)
    }
    if payload.get("w") != w:
        problems.append("filtrations: w differs from the shifted weight filtration")
    if payload.get("primitive") != [start for start, _ in _runs(values)]:
        problems.append("filtrations: primitive indices != block starts")
    conj = payload.get("conjugation") or []
    if len(conj) != mu or any(conj[k] != k for k in range(n + 1)):
        problems.append("filtrations: conjugation is not the identity on 0..n")
    elif any(conj[conj[k]] != k for k in range(mu)):
        problems.append("filtrations: conjugation is not an involution")
    elif any(
        values[conj[k]][0] * values[k][1] != (mu * values[k][1] - values[k][0]) * values[conj[k]][1]
        for k in range(n + 1, mu)
    ):
        problems.append("filtrations: s(conj(k)) != mu - s(k)")
    return problems


def check_frobenius(weights: tuple[int, ...], payload: dict) -> list[str]:
    values = ladder_spectrum(weights)
    sigma = sigma_of(values)
    mu, n = sum(weights), len(weights) - 1
    problems = []
    zero, scale = _rat((0, 1)), _rat((mu, 1))
    a0 = payload.get("a0") or []
    if len(a0) != mu or any(
        row != [scale if j == (k + 1) % mu else zero for k in range(mu)]
        for j, row in enumerate(a0)
    ):
        problems.append("frobenius: A0 != mu * cyclic shift")
    if payload.get("ainf_diagonal") != _rats(sigma):
        problems.append("frobenius: A_inf diagonal != sigma")
    partner = [metric_partner(k, mu, n) for k in range(mu)]
    g = [[1 if j == partner[k] else 0 for j in range(mu)] for k in range(mu)]
    if payload.get("g") != g:
        problems.append("frobenius: g is not the involution k -> n-k / mu+n-k")
    # the paper's metric pairs sigma(k) with n - sigma(k)
    if any(sigma[k][0] * sigma[partner[k]][1] + sigma[partner[k]][0] * sigma[k][1]
           != n * sigma[k][1] * sigma[partner[k]][1] for k in range(mu)):
        problems.append("frobenius: sigma(k) + sigma(g(k)) != n")
    if payload.get("pairing") != g:
        problems.append("frobenius: pairing != g")
    if payload.get("e0") != 0:
        problems.append("frobenius: e0 != 0")
    charpoly = [_rat((1, 1))] + [zero] * (mu - 1) + [_rat((-(mu**mu), 1))]
    if payload.get("charpoly") != charpoly:
        problems.append("frobenius: charpoly != T^mu - mu^mu")
    return problems


def check_verify(payload: dict) -> list[str]:
    problems = []
    if payload.get("suites") != {name: "ok" for name in SUITES}:
        problems.append(f"verify: suites {payload.get('suites')}")
    if payload.get("failures") != []:
        problems.append(f"verify: failures {payload.get('failures')}")
    return problems


def reflexive_rows(fmt: str, text: str, n: int) -> list[tuple[tuple[int, ...], int]]:
    """The (weights, mu) rows of a reflexive table in any of the formats."""
    if fmt == "json":
        payload = json.loads(text)["payload"]["reflexive-list"]
        if payload["dimension"] != n or payload["count"] != len(payload["systems"]):
            raise ValueError("reflexive json: dimension or count field wrong")
        rows = []
        for record in payload["systems"]:
            weights, mu = tuple(record["weights"]), record["mu"]
            if record["q"] != [mu // wi for wi in weights]:
                raise ValueError(f"reflexive json: q wrong for {weights}")
            rows.append((weights, mu))
        return rows
    lines = text.splitlines()
    if fmt == "csv":
        header = [f"w{i}" for i in range(n + 1)] + ["mu"]
        if not lines or lines[0].split(",") != header:
            raise ValueError("reflexive csv: bad header")
        cells = [list(map(int, line.split(","))) for line in lines[1:]]
        return [(tuple(row[:-1]), row[-1]) for row in cells]
    rows = []
    for line in lines:
        left, _, right = line.partition(" | ")
        rows.append((tuple(map(int, left.split())), int(right)))
    return rows


def check_reflexive(n: int, rows: list[tuple[tuple[int, ...], int]]) -> list[str]:
    problems = []
    if len(rows) != REFLEXIVE_COUNTS.get(n, -1):
        problems.append(f"reflexive: {len(rows)} systems in dimension {n}, expected {REFLEXIVE_COUNTS.get(n)}")
    if rows != sorted(set(rows), key=lambda row: (row[1], row[0])):
        problems.append("reflexive: rows not unique or not sorted by (mu, weights)")
    for weights, mu in rows:
        if (
            len(weights) != n + 1
            or list(weights) != sorted(weights)
            or min(weights) < 1
            or sum(weights) != mu
            or math.gcd(*weights) != 1
            or any(mu % wi for wi in weights)
        ):
            problems.append(f"reflexive: {weights} | {mu} is not a reflexive system")
            break
    return problems


def check_op(op: Op, rc: int, text: str) -> list[str]:
    """Problems with one operation's exit code and output (empty: correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if op.command == "reflexive":
            return check_reflexive(op.dimension, reflexive_rows(op.fmt, text, op.dimension))
        problems: list[str] = []
        kind = "verify-summary" if op.command == "verify" else op.command
        payload = _envelope_payload(text, kind, op.weights, problems)
        checker = {
            "spectrum": check_spectrum,
            "jordan": check_jordan,
            "filtrations": check_filtrations,
            "frobenius": check_frobenius,
        }.get(op.command)
        problems += check_verify(payload) if checker is None else checker(op.weights, payload)
        return problems
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_pass(ops: list[Op], results: list[tuple[int, str]]) -> list[list[str]]:
    """Problems per operation of one pass, including the agreement of the
    json, csv and table forms of each reflexive table."""
    problems = [check_op(op, rc, text) for op, (rc, text) in zip(ops, results)]
    tables: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        if op.command == "reflexive" and not problems[index]:
            tables.setdefault(op.dimension, []).append(index)
    for n, indices in tables.items():
        forms = [reflexive_rows(ops[i].fmt, results[i][1], n) for i in indices]
        if any(form != forms[0] for form in forms):
            for i in indices:
                problems[i].append(f"reflexive: formats disagree in dimension {n}")
    return problems
