import random
from fractions import Fraction

import pytest

from weightspec import (
    DimensionMismatch,
    GElement,
    WeightSystem,
    bernstein_check,
    birkhoff_matrices,
    canonical_exponents,
    f_action,
    make_weight_system,
    reduce_monomial,
    spectrum_direct,
    step_sequence,
    tau_dtau,
    v_order,
    verify_all,
)

from conftest import random_systems, weight_systems_up_to

F = Fraction


def basis(mu, k, tau_power=0, coefficient=1):
    return GElement.basis(mu, k, tau_power=tau_power, coefficient=coefficient)


def test_gelement_arithmetic():
    p = GElement(4, {(1, 2): 3, (3, -1): F(1, 2)})
    q = GElement(4, {(1, 2): -3, (0, 0): 1})
    assert p + q == GElement(4, {(3, -1): F(1, 2), (0, 0): 1})
    assert (p - p).is_zero() and p - p == GElement.zero(4)
    assert GElement(4, {(2, 0): 0}).is_zero()
    assert (GElement(4, {(2, 1): 5}) + GElement(4, {(2, 1): -5})).is_zero()
    assert p.shift(2) == GElement(4, {(1, 4): 3, (3, 1): F(1, 2)})
    assert p.scale(2) == GElement(4, {(1, 2): 6, (3, -1): 1})
    assert p.scale(0) == GElement.zero(4)
    assert hash(p + q) == hash(GElement(4, {(0, 0): 1, (3, -1): F(1, 2)}))
    with pytest.raises(DimensionMismatch):
        p + GElement.zero(5)
    with pytest.raises(DimensionMismatch):
        p - GElement.zero(3)


def test_gelement_is_frozen():
    # built checked (basis) and unchecked (shift goes through _raw)
    for x in (GElement.basis(3, 0), GElement.basis(3, 0).shift(1)):
        s = {x}
        with pytest.raises(TypeError):
            x.coeffs[1, 0] = 5
        assert x in s


def test_basis_index_out_of_range():
    for k in (7, -1):
        with pytest.raises(DimensionMismatch):
            GElement.basis(4, k)
        with pytest.raises(DimensionMismatch):
            GElement(4, {(k, 0): 1})


def test_tau_dtau_examples():
    w = make_weight_system([1, 1, 1])
    assert tau_dtau(basis(3, 0), w) == basis(3, 1, tau_power=1, coefficient=-3)
    assert tau_dtau(GElement.zero(3), w).is_zero()
    assert tau_dtau(basis(3, 1, tau_power=1), w) == basis(
        3, 2, tau_power=2, coefficient=-3
    )
    # Leibniz: tau^2 * omega_0 picks up 2 - sigma(0) = 2 on the diagonal
    assert tau_dtau(basis(3, 0, tau_power=2), w) == basis(
        3, 0, tau_power=2, coefficient=2
    ) + basis(3, 1, tau_power=3, coefficient=-3)


def test_tau_dtau_wraps_at_top_index():
    w = make_weight_system([1, 1, 2])
    sigma = spectrum_direct(w).spectral_numbers
    image = tau_dtau(basis(4, 3), w)
    assert image == basis(4, 3, coefficient=-sigma[3]) + basis(
        4, 0, tau_power=1, coefficient=-4
    )


def test_dimension_mismatch():
    w = make_weight_system([1, 1, 1])
    with pytest.raises(DimensionMismatch):
        tau_dtau(GElement.zero(5), w)
    with pytest.raises(DimensionMismatch):
        v_order(GElement.zero(5), w)
    with pytest.raises(DimensionMismatch):
        canonical_exponents((1, 2), w)


def test_bernstein_examples():
    for tup, mu in [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]:
        w = make_weight_system(list(tup))
        assert bernstein_check(w) == basis(mu, 0, tau_power=mu)


def test_bernstein_small_corpus():
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        assert bernstein_check(w) == basis(w.mu, 0, tau_power=w.mu)


def test_birkhoff_examples():
    for n in (2, 3, 4):
        w = make_weight_system([1] * (n + 1))
        _, ainf = birkhoff_matrices(w)
        assert [ainf.get((k, k), 0) for k in range(n + 1)] == list(range(n + 1))

    w = make_weight_system([1, 1, 2])
    a0, ainf = birkhoff_matrices(w)
    assert [ainf.get((k, k), 0) for k in range(4)] == [0, 1, 2, 1]
    assert a0 == {((k + 1) % 4, k): 4 for k in range(4)}

    w = make_weight_system([1, 2, 3])
    a0, _ = birkhoff_matrices(w)
    assert a0 == {((k + 1) % 6, k): 6 for k in range(6)}


def test_reduce_monomial_step_path_gives_basis():
    for tup in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        seq = step_sequence(w)
        for k in range(w.mu):
            assert reduce_monomial(seq.exponents[k], w) == basis(w.mu, k)


def test_reduce_monomial_trivial_cases():
    w = make_weight_system([1, 2, 3])
    assert reduce_monomial([0, 0, 0], w) == basis(6, 0)
    assert reduce_monomial([1, 2, 3], w) == basis(6, 0)  # u^w = 1
    assert reduce_monomial([2, 4, 6], w) == basis(6, 0)
    assert reduce_monomial([-1, -2, -3], w) == basis(6, 0)


def test_canonical_representative():
    w = make_weight_system([1, 2, 3])
    assert canonical_exponents((-3, 5, 2), w) == (0, 11, 11)
    assert canonical_exponents((0, 0, 0), w) == (0, 0, 0)
    assert canonical_exponents((1, 2, 3), w) == (0, 0, 0)
    canon = canonical_exponents((5, 7, 9), w)
    assert min(c - 0 for c in canon) >= 0
    assert any(c < wi for c, wi in zip(canon, w.weights))


def test_reduce_monomial_path_independence_seeded():
    rng = random.Random(2024)
    for w in random_systems(seed=11, count=8, mu_max=20, max_parts=4):
        for _ in range(25):
            a = tuple(rng.randint(-10, 10) for _ in range(w.n + 1))
            target = canonical_exponents(a, w)
            path = [j for j, c in enumerate(target) for _ in range(c)]
            rng.shuffle(path)
            assert reduce_monomial(a, w, path=path) == reduce_monomial(a, w)


def test_reduce_monomial_bad_path_rejected():
    w = make_weight_system([1, 1, 2])
    with pytest.raises(ValueError):
        reduce_monomial([1, 0, 0], w, path=[1])
    for path in ([-1], [5]):
        with pytest.raises(ValueError):
            reduce_monomial([0, 0, 1], w, path=path)


def test_reduce_monomial_agrees_with_operator_composition():
    # one increment via the public operator composition must match the
    # internal integer-scaled loop
    w = make_weight_system([1, 2, 3])
    rng = random.Random(5)
    for _ in range(20):
        target = tuple(rng.randint(0, 3) for _ in range(3))
        base = reduce_monomial(target, w)
        j = rng.randrange(3)
        l_j = sum(target) - F(w.mu * target[j], w.weights[j])
        composed = (
            (tau_dtau(base, w) + base.scale(l_j)).scale(F(-1, w.mu)).shift(-1)
        )
        bumped = target[:j] + (target[j] + 1,) + target[j + 1:]
        assert composed == reduce_monomial(bumped, w)


def test_f_action_examples():
    for tup in [(1, 1, 1), (1, 2, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        mu = w.mu
        assert f_action(basis(mu, 0), w) == basis(mu, 1, coefficient=mu)

    # higher basis vectors pick up a theta correction; modulo theta the
    # action is the cyclic matrix
    w = make_weight_system([1, 1, 2])
    sigma = spectrum_direct(w).spectral_numbers
    assert f_action(basis(4, 1), w) == basis(4, 2, coefficient=4) + basis(
        4, 1, tau_power=-1, coefficient=sigma[1]
    )
    assert _mod_theta(f_action(basis(4, 1), w)) == basis(4, 2, coefficient=4)
    assert _mod_theta(f_action(basis(4, 3), w)) == basis(4, 0, coefficient=4)


def _mod_theta(x: GElement) -> GElement:
    return GElement(x.mu, {(k, m): c for k, m, c in x.terms() if m == 0})


def test_f_action_two_routes_agree():
    for tup in [(1, 1, 2), (1, 2, 3), (1, 1, 3)]:
        w = make_weight_system(list(tup))
        seq = step_sequence(w)
        for k in range(w.mu):
            assert f_action(seq.exponents[k], w) == f_action(basis(w.mu, k), w)


def test_v_order_examples():
    w = make_weight_system([1, 2, 3])
    sigma = spectrum_direct(w).spectral_numbers
    for k in range(6):
        assert v_order(basis(6, k), w) == sigma[k]
    assert v_order(basis(6, 0, tau_power=1), w) == 1
    w111 = make_weight_system([1, 1, 1])
    assert v_order(basis(3, 2) + basis(3, 0, tau_power=1), w111) == 2
    assert v_order(GElement.zero(3), w111) is None


def test_v_order_of_derivative():
    # exact value: max(sigma(k) when nonzero, sigma(k+1 mod mu) + 1), and
    # the slope bound v_order(tau_dtau(x)) <= v_order(x) + 2
    for tup in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        sigma = spectrum_direct(w).spectral_numbers
        for k in range(w.mu):
            order = v_order(tau_dtau(basis(w.mu, k), w), w)
            shifted = sigma[(k + 1) % w.mu] + 1
            assert order == (shifted if sigma[k] == 0 else max(sigma[k], shifted))
            assert order <= sigma[k] + 2


def test_sparse_suites_beyond_corpus():
    # mu = 600: bernstein, birkhoff and v_order touch O(1) terms per step
    w = make_weight_system([7, 593])
    suites = ["bernstein", "birkhoff", "v_order"]
    assert verify_all(w, suites) == {name: [] for name in suites}
