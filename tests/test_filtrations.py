from fractions import Fraction

import pytest

from weightspec import (
    IndexOutOfRange,
    UnknownEigenvalueClass,
    WeightSystem,
    conjugate_index,
    eigenvalue_classes,
    jordan_blocks,
    make_weight_system,
    orthogonality_check,
    primitive_indices,
    saito_filtration,
    saito_identity_check,
    spectrum_direct,
)
from weightspec import linalg
import weightspec.verify as verify_mod
from weightspec.verify import verify_jordan, verify_orthogonality

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
        # verify_jordan's chain check agrees with the dense nilpotency index
        assert verify_jordan(w) == []


def test_primitive_examples():
    assert primitive_indices(make_weight_system([1, 1, 2])) == {0, 3}
    assert primitive_indices(make_weight_system([1, 1, 1, 1])) == {0}
    assert primitive_indices(make_weight_system([1, 2, 3])) == {0, 3, 4, 5}


def test_filtration_examples():
    report = saito_filtration(make_weight_system([1, 2, 3]))
    assert report.hp[1] == {1, 2, 3, 4, 5}
    assert report.hp[2] == {2}

    w = make_weight_system([1, 1, 1])
    report = saito_filtration(w)
    for p in range(4):
        assert report.hp.get(p, frozenset()) == frozenset(range(p, 3))

    report = saito_filtration(make_weight_system([1, 1, 2]))
    assert report.gp[0] == {0}
    assert report.gp[1] == {0, 1, 3}
    assert report.gp[2] == {0, 1, 2, 3}


def test_conjugate_examples():
    w = make_weight_system([1, 2, 3])
    assert conjugate_index(w, 3) == 5
    spec = spectrum_direct(w)
    s = spec.scaled
    assert s[5] == w.mu * spec.denominator - s[3]
    assert conjugate_index(w, 4) == 4
    for k in range(w.n + 1):
        assert conjugate_index(w, k) == k
    with pytest.raises(IndexOutOfRange):
        conjugate_index(w, 6)
    with pytest.raises(IndexOutOfRange):
        conjugate_index(w, -1)


def test_conjugation_involution_and_value_flip():
    for w in random_systems(seed=17, count=25, mu_max=50):
        spec = spectrum_direct(w)
        values, top = spec.scaled, w.mu * spec.denominator
        # the report's conjugation is built in one pass, apart from conjugate_index
        assert saito_filtration(w).conj == tuple(conjugate_index(w, k) for k in range(w.mu))
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
    w = make_weight_system([1, 2, 3])
    assert saito_identity_check(w, 1)
    for tup in [(1, 1, 2), (1, 1, 3), (2, 3, 7)]:
        assert saito_identity_check(make_weight_system(list(tup)), 0)
    assert saito_identity_check(make_weight_system([1, 1, 3]), 2)


def test_orthogonality_examples():
    w = make_weight_system([1, 2, 3])
    assert orthogonality_check(w, 0, 1)
    for tup in [(1, 1, 1), (1, 1, 3), (2, 3, 7)]:
        assert orthogonality_check(make_weight_system(list(tup)), 0, 0)
    assert orthogonality_check(make_weight_system([1, 1, 3]), 1, 1)  # alpha*3 = 1
    with pytest.raises(UnknownEigenvalueClass):
        orthogonality_check(w, 6, 1)  # keys alpha*6 lie in 0..5
    with pytest.raises(UnknownEigenvalueClass):
        orthogonality_check(w, 3, 1)  # alpha*6 = 3 is not a class


def test_hodge_tate_all_ones():
    for n in range(1, 7):
        w = make_weight_system([1] * (n + 1))
        report = saito_filtration(w)
        for p in range(n + 2):
            assert report.hp[p] == report.m.get(n - 2 * p, frozenset())


def test_nilpotent_raises_filtration_level():
    for w in random_systems(seed=23, count=20, mu_max=50):
        report = saito_filtration(w)
        values = spectrum_direct(w).scaled
        for p in range(w.n + 1):
            for k in report.hp[p]:
                if k + 1 < w.mu and values[k + 1] == values[k]:
                    assert k + 1 in report.hp[p + 1]


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
        for p in range(w.n + 2):
            assert saito_identity_check(w, p)
        classes = eigenvalue_classes(w)
        assert 0 in classes
        for key in classes:
            for p in range(w.n + 2):
                assert orthogonality_check(w, key, p)


def test_class_failure_messages_print_alpha(monkeypatch):
    # classes are keyed by alpha*12 on (2, 3, 4); the messages print alpha
    w = make_weight_system([2, 3, 4])
    monkeypatch.setattr(verify_mod, "_longest_chain", lambda indices, values: 0)
    assert verify_jordan(w) == [
        "jordan: N has index 0 != 3 on class 0",
        "jordan: N has index 0 != 1 on class 3/4",
        "jordan: N has index 0 != 2 on class 1/2",
        "jordan: N has index 0 != 1 on class 1/4",
    ]
    calls = []

    def failing_at_p1(w, key, p):
        calls.append(key)
        return orthogonality_check(w, key, p) and p != 1

    monkeypatch.setattr(verify_mod, "orthogonality_check", failing_at_p1)
    assert verify_orthogonality(w) == [
        f"orthogonality: fails at alpha = {a}, p = 1" for a in ("0", "1/4", "1/2", "3/4")
    ]
    assert sorted(set(calls)) == [0, 3, 6, 9]  # alpha*12
