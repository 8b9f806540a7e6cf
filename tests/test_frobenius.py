import random
from fractions import Fraction

import pytest

from weightspec import (
    IndexOutOfRange,
    WeightSystem,
    charpoly_A0,
    initial_data,
    make_weight_system,
    metric_partner,
)
from weightspec import linalg
from weightspec.frobenius import metric_violations

from conftest import exhaustive_mu, random_systems, weight_systems_up_to

F = Fraction


# --- independent determinant oracle: fraction-free Bareiss elimination ----


def bareiss_det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if not m[col][col]:
            swap = next((r for r in range(col + 1, n) if m[r][col]), None)
            if swap is None:
                return 0
            m[col], m[swap] = m[swap], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def charpoly_by_interpolation(matrix):
    """det(t*I - M) evaluated at n+1 integer points, then exact Lagrange
    interpolation; independent of the library's Hessenberg route."""
    n = len(matrix)
    points = list(range(n + 1))
    values = []
    for t in points:
        shifted = [
            [t * (1 if i == j else 0) - matrix[i][j] for j in range(n)]
            for i in range(n)
        ]
        values.append(bareiss_det(shifted))
    # Lagrange interpolation, coefficients leading-first
    coeffs = [F(0)] * (n + 1)
    for i, t_i in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for j, t_j in enumerate(points):
            if j == i:
                continue
            # multiply basis polynomial by (t - t_j)
            nxt = [F(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += c
                nxt[d + 1] -= c * t_j
            basis = nxt
            denom *= t_i - t_j
        scale = F(values[i], 1) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return coeffs


def test_bareiss_oracle_on_known_determinants():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_char_poly_against_oracle_on_random_matrices():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert [F(c) for c in linalg.char_poly(m)] == charpoly_by_interpolation(m)


def test_initial_data_examples():
    data = initial_data(make_weight_system([1, 1, 1]))
    assert data.a_inf_entries == {(1, 1): 1, (2, 2): 2}
    assert [row.index(1) for row in data.metric] == [2, 1, 0]

    data = initial_data(make_weight_system([1, 2, 3]))
    assert [row.index(1) for row in data.metric] == [2, 1, 0, 5, 4, 3]

    for n in (3, 4, 5):
        data = initial_data(make_weight_system([1] * (n + 1)))
        assert [data.a_inf_entries.get((k, k), 0) for k in range(n + 1)] == list(range(n + 1))

    assert data.unit_index == 0


def test_a0_shape():
    w = make_weight_system([1, 1, 2])
    data = initial_data(w)
    for j in range(4):
        for k in range(4):
            assert data.a0[j][k] == (4 if j == (k + 1) % 4 else 0)


def test_pairing_examples():
    c = initial_data(make_weight_system([1, 1, 1])).metric
    expected = {(0, 2), (1, 1), (2, 0)}
    assert {(k, l) for k in range(3) for l in range(3) if c[k][l]} == expected

    c = initial_data(make_weight_system([1, 2, 3])).metric
    high = {(k, l) for k in range(3, 6) for l in range(6) if c[k][l]}
    assert high == {(3, 5), (4, 4), (5, 3)}

    for tup in [(1, 1, 2), (2, 3, 7), (1, 1, 4, 6)]:
        w = make_weight_system(list(tup))
        assert initial_data(w).metric[0][w.n] == 1


def test_charpoly_examples():
    assert charpoly_A0(make_weight_system([1, 1, 1])) == [1, 0, 0, -27]
    assert charpoly_A0(make_weight_system([1, 1, 2])) == [1, 0, 0, 0, -256]


def test_charpoly_against_oracle_small_mu():
    seen = set()
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        if w.mu in seen:  # A0 depends only on mu
            continue
        seen.add(w.mu)
        a0 = [list(row) for row in initial_data(w).a0]
        assert all(type(x) is int for row in a0 for x in row)
        coeffs = charpoly_A0(w)
        assert coeffs == charpoly_by_interpolation(a0)
        assert all(type(c) is int for c in coeffs)
        assert coeffs[0] == 1
        assert coeffs[-1] == -(w.mu**w.mu)
        assert all(c == 0 for c in coeffs[1:-1])
    # structured cycle route against the dense Hessenberg oracle
    for mu in range(2, 41):
        w = WeightSystem(tuple([1] * mu))
        dense = [F(c) for c in linalg.char_poly(initial_data(w).a0)]
        assert charpoly_A0(w) == dense


def test_metric_identities_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(14)):
        w = WeightSystem(tup)
        data = initial_data(w)
        g = [list(row) for row in data.metric]
        a_inf = [[s if j == k else 0 for k in range(w.mu)] for j, s in enumerate(data.sigma)]
        assert linalg.mat_eq(linalg.matmul(g, g), linalg.identity(w.mu))
        lhs = linalg.mat_add(
            linalg.matmul(g, a_inf), linalg.matmul(linalg.transpose(a_inf), g)
        )
        assert linalg.mat_eq(lhs, linalg.mat_scale(g, w.n))


def test_metric_partner_involution():
    for w in random_systems(seed=7, count=25, mu_max=40):
        for k in range(w.mu):
            assert metric_partner(metric_partner(k, w), w) == k
        for k in (-1, w.mu):
            with pytest.raises(IndexOutOfRange):
                metric_partner(k, w)


def test_metric_violations_reported():
    sigma = (F(0), F(1), F(2))
    assert metric_violations(2, sigma, (2, 1, 0)) == []
    assert metric_violations(2, sigma, (1, 1, 0)) == [
        "g is not a symmetric involution at k = 0",
        "g is not a symmetric involution at k = 2",
    ]
    assert metric_violations(2, sigma, (0, 1, 2)) == [
        "g*A_inf + A_inf^T*g != n*g at k = 0",
        "g*A_inf + A_inf^T*g != n*g at k = 2",
    ]
