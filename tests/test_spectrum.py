import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightspec import (
    Spectrum,
    WeightSystem,
    check_symmetry,
    eigenvalue_classes,
    make_weight_system,
    spectral_polynomial,
    spectrum_direct,
    spectrum_from_steps,
    step_sequence,
)
from conftest import exhaustive_mu, random_systems, weight_systems_up_to

F = Fraction


def spectrum(*weights):
    return spectrum_direct(make_weight_system(list(weights)))


def test_step_sequence_examples():
    w = make_weight_system([1, 1, 1])
    seq = step_sequence(w)
    assert seq.indices[:3] == (0, 1, 2)
    assert seq.exponents[3] == (1, 1, 1)

    w = make_weight_system([1, 2, 3])
    seq = step_sequence(w)
    assert seq.indices[:6] == (0, 1, 2, 2, 1, 2)
    assert seq.exponents[6] == (1, 2, 3)

    w = make_weight_system([1, 1, 2])
    seq = step_sequence(w)
    assert seq.indices[:4] == (0, 1, 2, 2)
    assert seq.exponents[4] == (1, 1, 2)


def test_first_steps_are_unit_prefix():
    # a(k) for k <= n+1 is 1 on the first k coordinates
    for tup in [(1, 2, 3), (2, 3, 7), (1, 1, 4, 6)]:
        w = make_weight_system(list(tup))
        seq = step_sequence(w)
        for k in range(w.n + 2):
            assert seq.exponents[k] == tuple(
                1 if i < k else 0 for i in range(w.n + 1)
            )


def test_spectrum_examples():
    # s(k) = scaled[k] / denominator, with denominator = lcm(w)
    spec = spectrum(1, 1, 1)
    assert (spec.denominator, spec.scaled) == (1, (0, 0, 0))
    assert spec.sigma_scaled == (0, 1, 2)

    spec = spectrum(1, 2, 3)  # sigma(k) * D, with sigma = 0, 1, 2, 1, 1, 1
    assert spec.sigma_scaled == tuple(6 * x for x in (0, 1, 2, 1, 1, 1))
    assert spec.denominator == 6
    assert spec.scaled == (0, 0, 0, 12, 18, 24)  # s = 0, 0, 0, 2, 3, 4
    assert spec.floors == (0, 1, 2, 1, 1, 1)
    for name in ("scaled", "sigma_scaled", "floors"):
        with pytest.raises(AttributeError):
            setattr(spec, name, ())
    assert spec.floors == (0, 1, 2, 1, 1, 1)

    spec = spectrum(1, 1, 3)
    assert (spec.denominator, spec.scaled) == (3, (0, 0, 0, 5, 10))  # 5/3, 10/3
    assert spec.sigma_scaled == tuple(3 * x for x in (0, 1, 2, F(4, 3), F(2, 3)))
    assert all(type(x) is int for x in spec.sigma_scaled)
    # alpha = 0, 0, 0, 1/3, 2/3, keyed by alpha*3
    assert eigenvalue_classes(make_weight_system([1, 1, 3])) == {0: (0, 1, 2), 1: (3,), 2: (4,)}


def test_direct_examples():
    spec = spectrum(1, 1, 2)
    assert (spec.denominator, spec.scaled) == (2, (0, 0, 0, 4))  # s = 0, 0, 0, 2
    spec = spectrum(1, 1, 1)
    assert (spec.denominator, spec.scaled) == (1, (0, 0, 0))
    assert spectrum(1, 2, 12, 15, 30).scaled.count(0) == 5


def test_spectral_polynomial_examples():
    for n in range(2, 6):
        roots = spectral_polynomial(make_weight_system([1] * (n + 1)))
        assert roots == [(F(k), 1) for k in range(n + 1)]
        assert all(type(root) is Fraction for root, _ in roots)
    assert spectral_polynomial(make_weight_system([1, 2, 3])) == [
        (F(0), 1),
        (F(1), 4),
        (F(2), 1),
    ]
    assert spectral_polynomial(make_weight_system([1, 1, 3])) == [
        (F(0), 1),
        (F(2, 3), 1),
        (F(1), 1),
        (F(4, 3), 1),
        (F(2), 1),
    ]


def test_check_symmetry_examples():
    for tup in [(1, 2, 3), (1, 1, 1), (1, 1, 2)]:
        w = make_weight_system(list(tup))
        assert check_symmetry(spectrum_direct(w), w) == []


def test_check_symmetry_failure_messages():
    # corrupted spectra over D = 3 (mu = 5) and D = 6 (mu = 6), n = 2
    def bad(d, scaled):
        return check_symmetry(Spectrum(d, scaled, (0,) * len(scaled)))

    assert bad(3, (0, 0, 0, 4, 10)) == [
        "sym: s(3) + s(4) = 14/3 != 5",
        "sym: s(4) + s(3) = 14/3 != 5",
    ]
    assert bad(6, (0, 0, 0, 12, 18, 30)) == [
        "sym: s(3) + s(5) = 7 != 6",
        "sym: s(5) + s(3) = 7 != 6",
        "range: sigma(5) = 0 at k != 0",
    ]
    assert bad(6, (0, 0, 0, 3, 18, 36)) == [
        "sym: s(3) + s(5) = 13/2 != 6",
        "sym: s(5) + s(3) = 13/2 != 6",
        "range: sigma(3) = 5/2 outside [0, 2]",
        "range: sigma(5) = -1 outside [0, 2]",
    ]
    assert bad(3, (0, 0, 0, -1, 6)) == [
        "sym: s(3) + s(4) = 5/3 != 5",
        "sym: s(4) + s(3) = 5/3 != 5",
        "alphaleq: sigma(3) = 10/3 > sigma(2) + 1",
        "range: sigma(3) = 10/3 outside [0, 2]",
        "range: sigma(4) = 2 at k != 2",
    ]
    assert bad(3, (0, 1, 0, 0, 10)) == [
        "sym: s(3) + s(4) = 10/3 != 5",
        "sym: s(4) + s(3) = 10/3 != 5",
        "alphaleq: sigma(2) = 2 > sigma(1) + 1",
        "range: sigma(3) = 3 outside [0, 2]",
        "low-range sym: sigma(1) + sigma(1) != 2",
    ]
    spec = Spectrum(3, (0, 0, 0, 4, 10), (0,) * 5)
    assert check_symmetry(spec, make_weight_system([1, 1, 4])) == [
        "dimension mismatch: spectrum has (mu, n) = (5, 2)"
    ]


def test_ladders_examples():
    # the ladder i(k) of each value; equals the recursion's indices i(k)
    w = make_weight_system([1, 1, 2])
    assert spectrum_direct(w).ladders == (0, 1, 2, 2)
    # (2, 3, 4): 9/2 lies on ladders 0 and 2, and the smaller index comes first
    w = make_weight_system([2, 3, 4])
    spec = spectrum_direct(w)
    assert spec.denominator == 12
    assert spec.scaled[5:7] == (54, 54)  # 9/2 = 54/12
    assert spec.ladders == (0, 1, 2, 2, 1, 0, 2, 1, 2)
    assert spec.ladders == step_sequence(w).indices[: w.mu]


def _index_map(w: WeightSystem) -> dict[int, tuple[int, int]]:
    """k -> (i(k), a(k)_{i(k)}) on k = 0..mu-1, read off the recursion."""
    seq = step_sequence(w)
    return {k: (i, seq.exponents[k][i]) for k, i in enumerate(seq.indices[: w.mu])}


def test_index_bijection_examples():
    # a(mu) = w, reached one unit step at a time, makes the map a bijection
    # onto the ladder pairs (i, l) with 0 <= l < w_i
    w = make_weight_system([1, 1, 2])
    assert _index_map(w) == {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (2, 1)}

    w = make_weight_system([1, 1, 1])
    assert _index_map(w) == {0: (0, 0), 1: (1, 0), 2: (2, 0)}

    w = make_weight_system([1, 2, 3])
    mapping = _index_map(w)
    for i, wi in enumerate(w.weights):
        assert sum(1 for pair in mapping.values() if pair[0] == i) == wi
    assert sorted(mapping.values()) == [(i, l) for i, wi in enumerate(w.weights) for l in range(wi)]


def _assert_invariants(w: WeightSystem):
    spec = spectrum_direct(w)
    mu, n, d = w.mu, w.n, spec.denominator
    assert d == math.lcm(*w.weights)
    assert spec.scaled[: n + 1] == (0,) * (n + 1)
    if mu > n + 1:
        assert spec.scaled[n + 1] * w.weights[-1] == mu * d  # s(n+1) = mu/w_max
        assert spec.scaled[n + 1] < (n + 1) * d
    classes = eigenvalue_classes(w)
    assert all(0 <= a < d for a in classes)  # alpha*D with 0 <= alpha < 1
    # the views and the classes against their definitions from s(k)
    values = [F(v, d) for v in spec.scaled]
    assert spec.sigma_scaled == tuple((k - s) * d for k, s in enumerate(values))
    assert all(type(x) is int for x in spec.sigma_scaled)
    alpha_of = {k: a for a, ks in classes.items() for k in ks}
    assert [alpha_of[k] for k in range(mu)] == [(math.ceil(s) - s) * d for s in values]
    assert spec.floors == tuple(math.floor(k - s) for k, s in enumerate(values))
    assert check_symmetry(spec, w) == []
    roots = spectral_polynomial(w)
    assert sum(m for _, m in roots) == mu
    assert all(0 <= r <= n for r, _ in roots)


def ladder_triples(w: WeightSystem) -> list[tuple[Fraction, int, int]]:
    """The ladders {l*mu/w_i} as (value, ladder i, rung l), sorted."""
    return sorted(
        (F(l * w.mu, wi), i, l) for i, wi in enumerate(w.weights) for l in range(wi)
    )


def _assert_oracle_equality(w: WeightSystem):
    seq = step_sequence(w)
    by_steps = spectrum_from_steps(seq, w)
    assert by_steps == spectrum_direct(w)
    # canonical tie order: the recursion emits the ladder triples in the
    # exact order of the (value, ladder) sorted multiset
    d = by_steps.denominator
    recursion = [
        (F(by_steps.scaled[k], d), seq.indices[k], seq.exponents[k][seq.indices[k]])
        for k in range(w.mu)
    ]
    assert recursion == ladder_triples(w)


def test_oracle_equality_exhaustive_small():
    for tup in weight_systems_up_to(exhaustive_mu(16)):
        w = WeightSystem(tup)
        _assert_oracle_equality(w)
        _assert_invariants(w)


def test_oracle_equality_random_large():
    for w in random_systems(seed=101, count=60, mu_max=200):
        _assert_oracle_equality(w)
        _assert_invariants(w)


def test_periodicity():
    for tup in list(weight_systems_up_to(12)) + [(1, 2, 12, 15, 30)]:
        w = WeightSystem(tup)
        mu = w.mu
        seq = step_sequence(w, k_max=2 * mu)
        for k in range(mu):
            assert seq.indices[k + mu] == seq.indices[k]
            i = seq.indices[k]
            assert seq.exponents[k + mu][i] == w.weights[i] + seq.exponents[k][i]


@st.composite
def weight_tuples(draw):
    tup = draw(
        st.lists(st.integers(1, 30), min_size=2, max_size=6).map(sorted).map(tuple)
    )
    if math.gcd(*tup) != 1:
        tup = (1,) + tup[1:]
    return tup


@settings(max_examples=60, deadline=None)
@given(weight_tuples())
def test_spectrum_properties(tup):
    w = make_weight_system(list(tup))
    _assert_oracle_equality(w)
    _assert_invariants(w)
