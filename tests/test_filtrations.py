import json
import math
from fractions import Fraction
from itertools import groupby

import pytest

from weightspec import (
    IndexOutOfRange,
    WeightSystem,
    conjugate_index,
    eigenvalue_classes,
    jordan_blocks,
    make_weight_system,
    primitive_indices,
    saito_filtration,
    spectrum_direct,
    verify_all,
)
from weightspec import linalg
import weightspec.verify as verify_mod
from weightspec.report import filtrations_payload, to_json

from conftest import exhaustive_mu, random_systems, weight_systems_up_to

F = Fraction


def nilpotent_matrix(w: WeightSystem, key: int) -> list[list[Fraction]]:
    """Dense oracle for the normalized nilpotent operator N on the class
    keyed ``key`` = alpha*lcm(w): the basis vector of index k maps to that
    of k+1 when the spectrum values agree, to zero otherwise."""
    indices = eigenvalue_classes(w)[key]
    position = {k: pos for pos, k in enumerate(indices)}
    values = spectrum_direct(w).scaled
    matrix = [[F(0)] * len(indices) for _ in indices]
    for k in indices:
        if k + 1 < w.mu and values[k + 1] == values[k]:
            matrix[position[k + 1]][position[k]] = F(1)
    return matrix


def test_jordan_examples():
    data = jordan_blocks(make_weight_system([1, 1, 2]))
    assert data.denominator == 2
    # (alpha*D, value*D, start, size): values 0 and 2, both of alpha 0
    assert [(-b.value % 2, b.value, b.start, b.size) for b in data.blocks] == [
        (0, 0, 0, 3),
        (0, 4, 3, 1),
    ]
    assert list(data.classes()) == [0]

    data = jordan_blocks(make_weight_system([1, 1, 3]))
    assert [(b.value, b.start, b.size) for b in data.blocks] == [(0, 0, 3), (5, 3, 1), (10, 4, 1)]
    assert {a: [b.start for b in bs] for a, bs in data.classes().items()} == {0: [0], 1: [3], 2: [4]}

    for n in (2, 3, 5):
        data = jordan_blocks(make_weight_system([1] * (n + 1)))
        assert len(data.blocks) == 1
        assert data.blocks[0].size == n + 1
        assert data.blocks[0].value == 0


def test_jordan_mu60_fixture():
    data = jordan_blocks(make_weight_system([1, 2, 12, 15, 30]))
    sizes = data.size_multiset()
    assert max(sizes) == 5 and sizes[5] == 1
    assert sizes[3] == 3
    assert sum(size * count for size, count in sizes.items()) == 60
    assert set(eigenvalue_classes(make_weight_system([1, 2, 12, 15, 30]))) == {0}


def test_jordan_weights_and_offsets():
    data = jordan_blocks(make_weight_system([1, 2, 3]))
    # zero block 0..2 has top weight 2 dropping by 2
    assert data.nu[:3] == (2, 0, -2)
    assert data.offset[:3] == (0, 1, 2)
    assert data.nu[3:] == (0, 0, 0)


def test_block_multiset_matches_value_multiplicities():
    for w in random_systems(seed=3, count=30, mu_max=50):
        counts = {}
        for v in spectrum_direct(w).scaled:
            counts[v] = counts.get(v, 0) + 1
        expect = {}
        for c in counts.values():
            expect[c] = expect.get(c, 0) + 1
        assert jordan_blocks(w).size_multiset() == expect


def test_nilpotent_matrix_examples():
    m = nilpotent_matrix(make_weight_system([1, 1, 1]), 0)
    assert m == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert linalg.is_zero_matrix(linalg.mat_pow(m, 3))
    assert not linalg.is_zero_matrix(linalg.mat_pow(m, 2))

    m = nilpotent_matrix(make_weight_system([1, 1, 3]), 1)  # alpha = 1/3, D = 3
    assert m == [[0]]

    assert list(eigenvalue_classes(make_weight_system([1, 1, 1]))) == [0]
    # alpha = 1/2 is the key 1 at D = 2, and (1, 1, 2) has no such class;
    # (2, 3, 4) has one (s = 9/2), at the key 6 = (1/2)*12
    w = make_weight_system([1, 1, 2])
    assert F(1, 2) * spectrum_direct(w).denominator == 1
    assert 1 not in eigenvalue_classes(w)
    w = make_weight_system([2, 3, 4])
    assert F(1, 2) * spectrum_direct(w).denominator == 6
    assert eigenvalue_classes(w)[6] == (5, 6)


def test_nilpotency_index_property():
    for w in random_systems(seed=13, count=15, mu_max=40):
        data = jordan_blocks(w)
        for alpha, blocks in data.classes().items():
            m = nilpotent_matrix(w, alpha)
            largest = max(b.size for b in blocks)
            assert linalg.is_zero_matrix(linalg.mat_pow(m, largest))
            if largest > 1:
                assert not linalg.is_zero_matrix(linalg.mat_pow(m, largest - 1))
        # the jordan suite's chain check agrees with the dense nilpotency index
        assert verify_all(w, ["jordan"]) == {"jordan": []}


def test_primitive_examples():
    assert primitive_indices(make_weight_system([1, 1, 2])) == {0, 3}
    assert primitive_indices(make_weight_system([1, 1, 1, 1])) == {0}
    assert primitive_indices(make_weight_system([1, 2, 3])) == {0, 3, 4, 5}


def test_filtration_examples():
    sets = saito_filtration(make_weight_system([1, 2, 3])).index_sets()
    assert sets["hp"][1] == [1, 2, 3, 4, 5]
    assert sets["hp"][2] == [2]

    w = make_weight_system([1, 1, 1])
    sets = saito_filtration(w).index_sets()
    for p in range(4):
        assert sets["hp"].get(p, []) == list(range(p, 3))

    sets = saito_filtration(make_weight_system([1, 1, 2])).index_sets()
    assert sets["gp"][0] == [0]
    assert sets["gp"][1] == [0, 1, 3]
    assert sets["gp"][2] == [0, 1, 2, 3]


def filtration_sets(w: WeightSystem) -> dict[str, dict[int, list[int]]]:
    """Oracle for the index sets from their definitions, with the Fraction
    sigma(k) = k - s(k) and nu(k) = r-1-2j at position j of a run of r
    equal values s:  H^p = {floor(sigma) >= p}, G_p = {floor(sigma) <= p},
    M_j = {nu <= j} and W_j = M_(j-n) on the zero class together with
    M_(j-n-1) on the others."""
    spec = spectrum_direct(w)
    s = [F(v, spec.denominator) for v in spec.scaled]
    sigma = [k - v for k, v in enumerate(s)]
    nu = []
    for _, run in groupby(s):
        r = len(list(run))
        nu.extend(r - 1 - 2 * j for j in range(r))
    mu, n = w.mu, w.n

    def m(j: int) -> set[int]:
        return {k for k in range(mu) if nu[k] <= j}

    zero_class = {k for k in range(mu) if s[k].denominator == 1}
    return {
        "hp": {p: [k for k in range(mu) if math.floor(sigma[k]) >= p] for p in range(n + 2)},
        "gp": {p: [k for k in range(mu) if math.floor(sigma[k]) <= p] for p in range(n + 1)},
        "m": {j: sorted(m(j)) for j in range(-n - 1, n + 2)},
        "w": {
            j: sorted(m(j - n) & zero_class | m(j - n - 1) - zero_class)
            for j in range(-1, 2 * n + 2)
        },
    }


def test_index_sets_match_set_definitions():
    # three prime weights, mu 199: off the zero block every value is a distinct noninteger
    systems = [WeightSystem(tup) for tup in weight_systems_up_to(exhaustive_mu(12))]
    for w in systems + [make_weight_system([61, 67, 71])]:
        expected = filtration_sets(w)
        report = saito_filtration(w)
        assert report.index_sets() == expected
        payload = json.loads(to_json(filtrations_payload(w)))
        for name, sets in expected.items():
            assert payload[name] == {str(level): members for level, members in sets.items()}
        assert payload["primitive"] == sorted(report.primitive)
        assert payload["conjugation"] == list(report.conj)


def test_conjugate_examples():
    w = make_weight_system([1, 2, 3])
    assert conjugate_index(w, 3) == 5
    spec = spectrum_direct(w)
    s = spec.scaled
    assert s[5] == w.mu * spec.denominator - s[3]
    assert conjugate_index(w, 4) == 4
    for k in range(w.n + 1):
        assert conjugate_index(w, k) == k


# on (1, 2, 3), mu = 6: all but -1 and mu lie in 0..5
NOT_AN_INDEX = (1.5, 4.0, True, F(3), -1, 6)


@pytest.mark.parametrize("k", NOT_AN_INDEX, ids=repr)
def test_conjugate_index_rejects_non_index(k):
    with pytest.raises(IndexOutOfRange):
        conjugate_index(make_weight_system([1, 2, 3]), k)


def test_conjugation_involution_and_value_flip():
    for w in random_systems(seed=17, count=25, mu_max=50):
        spec = spectrum_direct(w)
        values, top = spec.scaled, w.mu * spec.denominator
        # mu+n-k-nu(k) off the zero block, written out here as the reference
        nu = jordan_blocks(w).nu
        expected = tuple(k if k <= w.n else w.mu + w.n - k - nu[k] for k in range(w.mu))
        assert saito_filtration(w).conj == tuple(conjugate_index(w, k) for k in range(w.mu)) == expected
        for k in range(w.mu):
            kbar = conjugate_index(w, k)
            assert conjugate_index(w, kbar) == k
            if k > w.n:
                assert values[kbar] == top - values[k]


def test_conjugation_pairs_blocks():
    for w in random_systems(seed=19, count=20, mu_max=50):
        blocks = jordan_blocks(w).blocks
        starts = {b.start: b for b in blocks}
        for block in blocks:
            image = {conjugate_index(w, k) for k in block.indices}
            partner = starts[min(image)]
            assert image == set(partner.indices)
            assert partner.size == block.size


def test_saito_identity_examples():
    for tup in [(1, 2, 3), (1, 1, 2), (1, 1, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        assert verify_all(w, ["saito", "orthogonality"]) == {"saito": [], "orthogonality": []}


def test_orthogonality_examples():
    for tup in [(1, 2, 3), (1, 1, 1), (1, 1, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        assert verify_all(w, ["saito", "orthogonality"]) == {"saito": [], "orthogonality": []}


def test_hodge_tate_all_ones():
    for n in range(1, 7):
        w = make_weight_system([1] * (n + 1))
        sets = saito_filtration(w).index_sets()
        for p in range(n + 2):
            assert sets["hp"][p] == sets["m"].get(n - 2 * p, [])


def test_nilpotent_raises_filtration_level():
    for w in random_systems(seed=23, count=20, mu_max=50):
        hp = saito_filtration(w).index_sets()["hp"]
        values = spectrum_direct(w).scaled
        for p in range(w.n + 1):
            for k in hp[p]:
                if k + 1 < w.mu and values[k + 1] == values[k]:
                    assert k + 1 in hp[p + 1]


def test_cor_max_bounds_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(16)):
        w = WeightSystem(tup)
        data = jordan_blocks(w)
        for block in data.blocks:
            if block.value == 0:
                assert block.size == w.n + 1
            elif block.value % data.denominator == 0:
                assert block.size <= w.n - 1
            else:
                assert block.size <= w.n


def test_saito_suite_small_corpus():
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        assert 0 in eigenvalue_classes(w)
        assert verify_all(w, ["saito", "orthogonality"]) == {"saito": [], "orthogonality": []}


def test_class_failure_messages_print_alpha(monkeypatch):
    # classes are keyed by alpha*12 on (2, 3, 4); the messages print alpha
    w = make_weight_system([2, 3, 4])
    monkeypatch.setattr(verify_mod, "_longest_chain", lambda indices, values: 0)
    assert verify_all(w, ["jordan"])["jordan"] == [
        "jordan: N has index 0 != 3 on class 0",
        "jordan: N has index 0 != 1 on class 3/4",
        "jordan: N has index 0 != 2 on class 1/2",
        "jordan: N has index 0 != 1 on class 1/4",
    ]
    # a metric that pairs each index with itself breaks every class, in
    # the order of alpha*12: 0, 3, 6, 9
    monkeypatch.setattr(verify_mod, "metric_partner", lambda j, w: j)
    assert verify_all(w, ["orthogonality"])["orthogonality"] == [
        f"orthogonality: fails at alpha = {a}, p = {p}"
        for a, p in [("0", 1), ("0", 2), ("1/4", 0), ("1/4", 1), ("1/2", 1), ("3/4", 0)]
    ]
