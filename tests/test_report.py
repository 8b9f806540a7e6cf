"""The report payloads against dicts built apart from the program, in
``Fraction`` arithmetic: the spectrum from the ladder triples, every
rational through the plain ``Fraction`` encoder."""

import math
from collections import Counter
from fractions import Fraction

from weightspec import WeightSystem
from weightspec.report import (
    encode_rational,
    frobenius_payload,
    jordan_payload,
    rational_text,
    spectrum_payload,
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


def _assert_payloads(w: WeightSystem) -> None:
    s = [v for v, _, _ in ladder_triples(w)]
    assert spectrum_payload(w) == expected_spectrum(s)
    assert jordan_payload(w) == expected_jordan(s)
    assert frobenius_payload(w) == expected_frobenius(w, s)


def test_payloads_against_fraction_oracle_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(14)):
        _assert_payloads(WeightSystem(tup))


def test_payloads_against_fraction_oracle_three_primes():
    # lcm(w) = 1001, so the classes have denominators 7, 11 and 13
    _assert_payloads(WeightSystem((7, 11, 13)))


def test_encoders_reduce_like_fraction():
    for den in range(1, 13):
        for num in range(-30, 31):
            value = F(num, den)
            assert encode_rational(num, den) == enc(value)
            assert encode_rational(value) == enc(value)
            assert rational_text(num, den) == str(value)
            assert rational_text(value) == str(value)
    assert encode_rational(F(3, 4), 6) == enc(F(1, 8))
