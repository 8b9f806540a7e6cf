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
from weightspec.verify import verify_jordan

from conftest import exhaustive_mu, random_systems, weight_systems_up_to

F = Fraction


def nilpotent_matrix(w: WeightSystem, alpha) -> list[list[Fraction]]:
    """Dense oracle for the normalized nilpotent operator N on the class of
    ``alpha``: the basis vector of index k maps to that of k+1 when the
    spectrum values agree, to zero otherwise."""
    indices = eigenvalue_classes(w)[F(alpha)]
    position = {k: pos for pos, k in enumerate(indices)}
    values = spectrum_direct(w).values
    matrix = [[F(0)] * len(indices) for _ in indices]
    for k in indices:
        if k + 1 < w.mu and values[k + 1] == values[k]:
            matrix[position[k + 1]][position[k]] = F(1)
    return matrix


def test_jordan_examples():
    data = jordan_blocks(make_weight_system([1, 1, 2]))
    assert [(b.alpha, b.start, b.size) for b in data.blocks] == [
        (0, 0, 3),
        (0, 3, 1),
    ]

    for n in (2, 3, 5):
        data = jordan_blocks(make_weight_system([1] * (n + 1)))
        assert len(data.blocks) == 1
        assert data.blocks[0].size == n + 1
        assert data.blocks[0].alpha == 0


def test_jordan_mu60_fixture():
    data = jordan_blocks(make_weight_system([1, 2, 12, 15, 30]))
    sizes = data.size_multiset()
    assert max(sizes) == 5 and sizes[5] == 1
    assert sizes[3] == 3
    assert sum(size * count for size, count in sizes.items()) == 60
    assert set(eigenvalue_classes(make_weight_system([1, 2, 12, 15, 30]))) == {F(0)}


def test_jordan_weights_and_offsets():
    data = jordan_blocks(make_weight_system([1, 2, 3]))
    # zero block 0..2 has top weight 2 dropping by 2
    assert data.nu[:3] == (2, 0, -2)
    assert data.offset[:3] == (0, 1, 2)
    assert data.nu[3:] == (0, 0, 0)


def test_block_multiset_matches_value_multiplicities():
    for w in random_systems(seed=3, count=30, mu_max=50):
        counts = {}
        for v in spectrum_direct(w).values:
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

    m = nilpotent_matrix(make_weight_system([1, 1, 3]), F(1, 3))
    assert m == [[0]]

    assert F(1, 2) not in eigenvalue_classes(make_weight_system([1, 1, 1]))


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
    s = spectrum_direct(w).values
    assert s[5] == w.mu - s[3]
    assert conjugate_index(w, 4) == 4
    for k in range(w.n + 1):
        assert conjugate_index(w, k) == k
    with pytest.raises(IndexOutOfRange):
        conjugate_index(w, 6)
    with pytest.raises(IndexOutOfRange):
        conjugate_index(w, -1)


def test_conjugation_involution_and_value_flip():
    for w in random_systems(seed=17, count=25, mu_max=50):
        values = spectrum_direct(w).values
        for k in range(w.mu):
            kbar = conjugate_index(w, k)
            assert conjugate_index(w, kbar) == k
            if k > w.n:
                assert values[kbar] == w.mu - values[k]


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
    assert orthogonality_check(make_weight_system([1, 1, 3]), F(1, 3), 1)
    with pytest.raises(UnknownEigenvalueClass):
        orthogonality_check(w, F(1, 5), 1)


def test_hodge_tate_all_ones():
    for n in range(1, 7):
        w = make_weight_system([1] * (n + 1))
        report = saito_filtration(w)
        for p in range(n + 2):
            assert report.hp[p] == report.m.get(n - 2 * p, frozenset())


def test_nilpotent_raises_filtration_level():
    for w in random_systems(seed=23, count=20, mu_max=50):
        report = saito_filtration(w)
        values = spectrum_direct(w).values
        for p in range(w.n + 1):
            for k in report.hp[p]:
                if k + 1 < w.mu and values[k + 1] == values[k]:
                    assert k + 1 in report.hp[p + 1]


def test_cor_max_bounds_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(16)):
        w = WeightSystem(tup)
        for block in jordan_blocks(w).blocks:
            if block.value == 0:
                assert block.size == w.n + 1
            elif block.value.denominator == 1:
                assert block.size <= w.n - 1
            else:
                assert block.size <= w.n


def test_saito_suite_small_corpus():
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        for p in range(w.n + 2):
            assert saito_identity_check(w, p)
        for alpha in set(eigenvalue_classes(w)) | {F(0)}:
            for p in range(w.n + 2):
                assert orthogonality_check(w, alpha, p)
