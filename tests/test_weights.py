import math

import pytest
from hypothesis import given, strategies as st

from weightspec import (
    GcdNotOne,
    NonPositiveWeight,
    TooFewWeights,
    WeightSystemError,
    make_weight_system,
)
from weightspec.weights import TWO_WEIGHT_WARNING


def test_basic_examples():
    w = make_weight_system([1, 1, 1])
    assert w.weights == (1, 1, 1)
    assert w.n == 2
    assert w.mu == 3

    w = make_weight_system([30, 1, 15, 2, 12])
    assert w.weights == (1, 2, 12, 15, 30)
    assert w.n == 4
    assert w.mu == 60


def test_gcd_rejected():
    with pytest.raises(GcdNotOne, match="gcd is 2, not 1"):
        make_weight_system([2, 4, 6])


def test_gcd_normalize_flag():
    w = make_weight_system([2, 4, 6], allow_gcd_normalize=True)
    assert w.weights == (1, 2, 3)
    assert any("common factor 2" in msg for msg in w.warnings)
    # warnings are notes, not part of the value
    a, b = make_weight_system([2, 4], allow_gcd_normalize=True), make_weight_system([1, 2])
    assert a.warnings != b.warnings
    assert a == b and not a != b and hash(a) == hash(b)
    assert make_weight_system([1, 3]) != b
    with pytest.raises(AttributeError):
        a.weights = (1, 2)  # type: ignore[misc]


def test_too_few():
    with pytest.raises(TooFewWeights):
        make_weight_system([])
    with pytest.raises(TooFewWeights):
        make_weight_system([5])


def test_nonpositive():
    with pytest.raises(NonPositiveWeight):
        make_weight_system([0, 1])
    with pytest.raises(NonPositiveWeight):
        make_weight_system([3, -1])
    with pytest.raises(NonPositiveWeight):
        make_weight_system([1, "2"])  # type: ignore[list-item]


def test_two_weight_warning():
    assert TWO_WEIGHT_WARNING in make_weight_system([1, 2]).warnings
    assert TWO_WEIGHT_WARNING not in make_weight_system([1, 2, 3]).warnings


def test_idempotent():
    w = make_weight_system([3, 1, 2])
    again = make_weight_system(list(w.weights))
    assert again == w
    assert again.weights == w.weights


def test_all_ones_mu():
    for n in range(1, 9):
        assert make_weight_system([1] * (n + 1)).mu == n + 1


@given(st.lists(st.integers(-3, 40), min_size=0, max_size=8))
def test_validation_total(raw):
    try:
        w = make_weight_system(raw)
    except WeightSystemError:
        return
    assert len(w.weights) >= 2
    assert all(x >= 1 for x in w.weights)
    assert list(w.weights) == sorted(w.weights)
    assert math.gcd(*w.weights) == 1
    assert w.mu == sum(w.weights)
    assert make_weight_system(list(w.weights)) == w
