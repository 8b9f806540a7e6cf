import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weightspec import (
    DimensionTooLarge,
    InconsistentRecord,
    ReflexiveRecord,
    WeightSystem,
    enumerate_reflexive,
    is_reflexive,
    make_weight_system,
    verify_all,
)
from weightspec.reflexive import _sorted_records, _unit_fraction_tuples, has_integral_spectrum

from conftest import (
    exhaustive_mu,
    random_systems,
    weight_systems_up_to,
    weight_systems_with_parts,
)

# Independently tabulated reflexive systems used as containment fixtures;
# both lists are cross-checked against the brute-force oracle below.
TABLE_DIM3 = [
    (1, 1, 1, 1),
    (1, 1, 1, 3),
    (1, 1, 2, 2),
    (1, 1, 2, 4),
    (1, 2, 2, 5),
    (1, 1, 4, 6),
    (1, 2, 3, 6),
    (1, 3, 4, 4),
    (1, 2, 6, 9),
    (1, 4, 5, 10),
    (1, 3, 8, 12),
    (2, 3, 10, 15),
    (1, 6, 14, 21),
]

TABLE_DIM4 = [
    (1, 1, 1, 1, 2),
    (1, 1, 2, 2, 2),
    (1, 1, 1, 1, 4),
    (1, 1, 1, 3, 3),
    (1, 1, 1, 2, 5),
    (2, 2, 2, 3, 3),
    (1, 1, 3, 3, 4),
    (1, 1, 2, 2, 6),
    (1, 1, 1, 3, 6),
    (1, 1, 3, 5, 5),
    (1, 1, 2, 4, 8),
    (1, 1, 4, 4, 10),
    (1, 1, 4, 6, 12),
    (1, 1, 2, 8, 12),
    (1, 1, 3, 10, 15),
    (1, 1, 4, 12, 18),
    (1, 1, 8, 10, 20),
    (1, 1, 6, 16, 24),
    (1, 2, 12, 15, 30),
]

# One tabulated dimension-4 row circulating in the literature fails the
# defining divisibility test (8 does not divide 1+1+8+20+30 = 60), so no
# correct enumeration can contain it; see README.
TABLE_DIM4_ERRATUM = (1, 1, 8, 20, 30)


def brute_force_reflexive(n: int, mu_max: int) -> set[tuple[int, ...]]:
    found = set()
    for tup in weight_systems_with_parts(n + 1, mu_max):
        mu = sum(tup)
        if all(mu % wi == 0 for wi in tup):
            found.add(tup)
    return found


def fraction_unit_fraction_tuples(
    terms: int, minimum: int, remaining: Fraction, prefix: list[int]
) -> list[tuple[int, ...]]:
    """The unit-fraction recursion in Fraction arithmetic: the reference
    for the integer recursion, in content and in order."""
    if terms == 1:
        if remaining.numerator == 1 and remaining.denominator >= minimum:
            return [tuple(prefix + [remaining.denominator])]
        return []
    found = []
    low = max(minimum, math.ceil(Fraction(1) / remaining))
    high = math.floor(Fraction(terms) / remaining)
    for q in range(low, high + 1):
        rest = remaining - Fraction(1, q)
        if rest <= 0:
            continue
        found.extend(fraction_unit_fraction_tuples(terms - 1, q, rest, prefix + [q]))
    return found


def test_integer_recursion_matches_fraction_oracle():
    for n in range(1, 6):
        expected = fraction_unit_fraction_tuples(n + 1, 2, Fraction(1), [])
        assert list(_unit_fraction_tuples(n + 1, 2, 1, 1, ())) == expected
        # enumerate_reflexive keeps one record per q tuple, so distinct q
        # tuples must give distinct weights
        weights = [r.weights.weights for r in enumerate_reflexive(n)]
        assert len(weights) == len(set(weights)) == len(expected)


@given(
    st.integers(2, 10**4).flatmap(lambda den: st.tuples(st.integers(1, den - 1), st.just(den))),
    st.integers(1, 3 * 10**4),
    st.lists(st.integers(2, 50), max_size=3),
)
def test_two_term_base_case_matches_fraction_oracle(fraction, minimum, prefix):
    # the base case solves 1/r = num/den - 1/q for r in the loop over q
    g = math.gcd(*fraction)
    num, den = fraction[0] // g, fraction[1] // g
    expected = fraction_unit_fraction_tuples(2, minimum, Fraction(num, den), prefix)
    assert list(_unit_fraction_tuples(2, minimum, num, den, tuple(prefix))) == expected


def test_is_reflexive_examples():
    assert is_reflexive(make_weight_system([1, 1, 4, 6]))
    assert not is_reflexive(make_weight_system([1, 1, 3]))
    assert is_reflexive(make_weight_system([2, 3, 10, 15]))


def test_enumerate_dim2_exact():
    records = enumerate_reflexive(2)
    assert [r.weights.weights for r in records] == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 3),
    ]
    assert brute_force_reflexive(2, 100) == {r.weights.weights for r in records}


def test_enumerate_dim1():
    assert [r.weights.weights for r in enumerate_reflexive(1)] == [(1, 1)]


def test_enumerate_dim3_against_brute_force():
    enumerated = {r.weights.weights for r in enumerate_reflexive(3)}
    assert len(enumerated) == 14
    assert brute_force_reflexive(3, 100) == {
        t for t in enumerated if sum(t) <= 100
    }
    assert enumerated == brute_force_reflexive(3, 100)  # all have mu <= 42


def test_enumeration_contains_reference_tables():
    missing3, _ = table_compare(3, TABLE_DIM3)
    assert missing3 == []
    missing4, _ = table_compare(4, TABLE_DIM4)
    assert missing4 == []


def test_dim4_erratum_row_is_not_reflexive():
    w = make_weight_system(list(TABLE_DIM4_ERRATUM))
    assert w.mu == 60
    assert w.mu % 8 != 0
    assert not is_reflexive(w)
    assert not has_integral_spectrum(w)
    missing, _ = table_compare(4, [TABLE_DIM4_ERRATUM])
    assert missing == [TABLE_DIM4_ERRATUM]


def table_compare(
    n: int, expected: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Set difference both ways between the enumeration for dimension n and
    an expected list of weight tuples: (missing-from-enumeration,
    extra-beyond-expected)."""
    enumerated = {r.weights.weights for r in enumerate_reflexive(n)}
    wanted = {tuple(sorted(row)) for row in expected}
    missing = sorted(wanted - enumerated)
    extra = sorted(enumerated - wanted)
    return missing, extra


def test_table_compare_examples():
    missing, extra = table_compare(2, [(1, 1, 1)])
    assert missing == []
    assert extra == [(1, 1, 2), (1, 2, 3)]

    own = [r.weights.weights for r in enumerate_reflexive(3)]
    missing, extra = table_compare(3, own)
    assert missing == [] and extra == []


def test_record_invariants():
    for n in (1, 2, 3, 4):
        records = enumerate_reflexive(n)
        tuples = [r.weights.weights for r in records]
        assert tuples == sorted(tuples, key=lambda t: (sum(t), t))
        assert len(set(tuples)) == len(tuples)
        for r in records:
            assert sum(Fraction(1, q) for q in r.q) == 1
            assert all(q * wi == r.mu for q, wi in zip(r.q, r.weights.weights))
            assert is_reflexive(r.weights)
            assert has_integral_spectrum(r.weights)
            assert math.gcd(*r.weights.weights) == 1


def test_inconsistent_record_raises():
    w = make_weight_system([1, 1, 1])
    with pytest.raises(InconsistentRecord):
        ReflexiveRecord(w, 3, (3, 3, 2))
    # q_i * w_i = mu holds, but mu is not sum(w), so sum 1/q_i = 1/2
    with pytest.raises(InconsistentRecord):
        ReflexiveRecord(w, 6, (6, 6, 6))
    record = ReflexiveRecord(w, 3, (3, 3, 3))
    with pytest.raises(InconsistentRecord):
        record._replace(q=(3, 3, 2))
    # one q_i per weight: a q that is short or long by one is rejected
    w = make_weight_system([1, 1, 2])
    record = ReflexiveRecord(w, 4, (4, 4, 2))
    for q in ((4, 4), (4, 4, 2, 4), (4, 4, 2, 1), ()):
        with pytest.raises(InconsistentRecord):
            ReflexiveRecord(w, 4, q)
        with pytest.raises(InconsistentRecord):
            record._replace(q=q)


def test_dimension_bounds():
    # the bounds are checked before the per-dimension cache is looked at
    _sorted_records.cache_clear()
    with pytest.raises(DimensionTooLarge):
        enumerate_reflexive(6)
    with pytest.raises(DimensionTooLarge):
        enumerate_reflexive(0)
    info = _sorted_records.cache_info()
    assert info.hits == info.misses == info.currsize == 0
    assert len(enumerate_reflexive(5, max_dimension=5)) == 3462


@pytest.mark.parametrize(
    "n, bound", [(True, 5), (2.0, 5), ("2", 5), (None, 5), (1, True), (5, 5.0), (2, "5"), (2, None)]
)
def test_dimension_and_bound_must_be_ints(n, bound):
    # True equals 1, so without the type check it would read the n = 1 entry
    _sorted_records.cache_clear()
    with pytest.raises(DimensionTooLarge):
        enumerate_reflexive(n, max_dimension=bound)
    assert _sorted_records.cache_info().currsize == 0


def test_integrality_iff_reflexive():
    for tup in weight_systems_up_to(exhaustive_mu(16)):
        w = WeightSystem(tup)
        assert is_reflexive(w) == has_integral_spectrum(w)
    for w in random_systems(seed=29, count=40, mu_max=60):
        assert is_reflexive(w) == has_integral_spectrum(w)


def test_enumeration_deterministic():
    a = [(r.weights.weights, r.mu, r.q) for r in enumerate_reflexive(3)]
    b = [(r.weights.weights, r.mu, r.q) for r in enumerate_reflexive(3)]
    assert a == b


def test_each_call_returns_a_new_list():
    first = enumerate_reflexive(3)
    first.clear()
    assert len(enumerate_reflexive(3)) == 14


def test_cleared_cache_rebuilds_equal_records():
    cached = enumerate_reflexive(4)
    _sorted_records.cache_clear()
    rebuilt = enumerate_reflexive(4)
    assert rebuilt == cached
    assert all(new is not old for new, old in zip(rebuilt, cached))


def test_all_suites_on_reflexive_dimension_4():
    # reflexive systems have integral spectrum, where the Jordan bounds and
    # reflexive <=> integral are tightest; all 147, up to mu = 1806
    records = enumerate_reflexive(4)
    assert len(records) == 147 and max(r.mu for r in records) == 1806
    for r in records:
        results = verify_all(r.weights)
        assert len(results) == 12 and not any(results.values()), (r.weights, results)
