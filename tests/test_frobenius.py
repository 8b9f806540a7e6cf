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


# --- dense oracle forms of the structured A0 and g -------------------------


def dense(entries, mu):
    """The mu x mu int rows of the matrix with these (row, column) nonzeros."""
    rows = [[0] * mu for _ in range(mu)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return rows


def a0_rows(data):
    return dense(data.a0_entries, data.mu)


def metric_rows(data):
    """g, which is also the residue pairing: 1 at (k, partner[k])."""
    return dense({(k, p): 1 for k, p in enumerate(data.partner)}, data.mu)


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
    assert (data.denominator, data.sigma_scaled) == (1, (0, 1, 2))
    assert data.a_inf_entries == {(1, 1): 1, (2, 2): 2}
    assert [row.index(1) for row in metric_rows(data)] == [2, 1, 0]

    # A_inf over D = 3: sigma = 0, 1, 2, 4/3, 2/3
    data = initial_data(make_weight_system([1, 1, 3]))
    assert data.denominator == 3
    assert data.a_inf_entries == {(1, 1): 3, (2, 2): 6, (3, 3): 4, (4, 4): 2}

    data = initial_data(make_weight_system([1, 2, 3]))
    assert [row.index(1) for row in metric_rows(data)] == [2, 1, 0, 5, 4, 3]

    for n in (3, 4, 5):
        data = initial_data(make_weight_system([1] * (n + 1)))
        assert [data.a_inf_entries.get((k, k), 0) for k in range(n + 1)] == list(range(n + 1))

    assert data.unit_index == 0


def test_a0_shape():
    w = make_weight_system([1, 1, 2])
    a0 = a0_rows(initial_data(w))
    for j in range(4):
        for k in range(4):
            assert a0[j][k] == (4 if j == (k + 1) % 4 else 0)


def test_pairing_examples():
    c = metric_rows(initial_data(make_weight_system([1, 1, 1])))
    expected = {(0, 2), (1, 1), (2, 0)}
    assert {(k, l) for k in range(3) for l in range(3) if c[k][l]} == expected

    c = metric_rows(initial_data(make_weight_system([1, 2, 3])))
    high = {(k, l) for k in range(3, 6) for l in range(6) if c[k][l]}
    assert high == {(3, 5), (4, 4), (5, 3)}

    for tup in [(1, 1, 2), (2, 3, 7), (1, 1, 4, 6)]:
        w = make_weight_system(list(tup))
        assert metric_rows(initial_data(w))[0][w.n] == 1


def test_charpoly_examples():
    assert charpoly_A0(make_weight_system([1, 1, 1])) == [1, 0, 0, -27]
    assert charpoly_A0(make_weight_system([1, 1, 2])) == [1, 0, 0, 0, -256]
    # the one cycle's mu equal entries are multiplied as one power
    w = make_weight_system([7, 9993])
    assert charpoly_A0(w) == [1] + [0] * (w.mu - 1) + [-(w.mu**w.mu)]


def test_charpoly_against_oracle_small_mu():
    seen = set()
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        if w.mu in seen:  # A0 depends only on mu
            continue
        seen.add(w.mu)
        a0 = a0_rows(initial_data(w))
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
        hessenberg = [F(c) for c in linalg.char_poly(a0_rows(initial_data(w)))]
        assert charpoly_A0(w) == hessenberg


def test_metric_identities_small_corpus():
    for tup in weight_systems_up_to(exhaustive_mu(14)):
        w = WeightSystem(tup)
        data = initial_data(w)
        g = metric_rows(data)
        a_inf = [
            [F(s, data.denominator) if j == k else 0 for k in range(w.mu)]
            for j, s in enumerate(data.sigma_scaled)
        ]
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


# on (1, 2, 3), mu = 6: all but -1 and mu lie in 0..5
NOT_AN_INDEX = (1.5, 4.0, True, F(3), -1, 6)


@pytest.mark.parametrize("k", NOT_AN_INDEX, ids=repr)
def test_metric_partner_rejects_non_index(k):
    with pytest.raises(IndexOutOfRange):
        metric_partner(k, make_weight_system([1, 2, 3]))


def test_metric_violations_reported():
    sigma = (F(0), F(1), F(2))
    assert metric_violations(2, sigma, (2, 1, 0)) == []
    assert metric_violations(2, sigma, (1, 1, 0)) == [
        "g is not a symmetric involution at k = 0",
        "g is not a symmetric involution at k = 2",
    ]
    assert metric_violations(2, sigma, (0, 1, 2)) == [
        "g*A_inf + A_inf^T*g != n*g at k = 0",
        "g is not invariant under the product at k = 1",
        "g*A_inf + A_inf^T*g != n*g at k = 2",
    ]
    # the same identities on sigma * D over D = 3, as initial_data passes them
    assert metric_violations(2 * 3, (0, 3, 6), (2, 1, 0)) == []
    assert metric_violations(2 * 3, (0, 3, 6), (0, 1, 2)) == metric_violations(2, sigma, (0, 1, 2))
