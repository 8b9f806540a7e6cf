import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weightspec import (
    DimensionMismatch,
    GElement,
    WeightSystem,
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

import fraction_oracle
from weightspec.gaussmanin import _step, _step_data
from weightspec.verify import ALL_SUITES

from conftest import exhaustive_mu, random_systems, weight_systems_up_to

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


MU = 4
FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
ELEMENTS = st.dictionaries(st.tuples(st.integers(0, MU - 1), st.integers(-3, 3)), FRACTIONS, max_size=6)


def _model_plus(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _in_lowest_terms(x: GElement) -> bool:
    nums = x._nums.values()
    return x._den > 0 and all(nums) and math.gcd(x._den, *nums) == 1


@given(ELEMENTS, ELEMENTS, FRACTIONS | st.integers(-5, 5), st.integers(-4, 4))
def test_gelement_matches_fraction_model(a, b, factor, power):
    # the model is a dict of nonzero Fractions, the parent's representation
    x, y = GElement(MU, a), GElement(MU, b)
    ma = {key: c for key, c in a.items() if c}
    mb = {key: c for key, c in b.items() if c}
    cases = [
        (x, ma),
        (x + y, _model_plus(ma, mb, 1)),
        (x - y, _model_plus(ma, mb, -1)),
        (x.scale(factor), {key: c * factor for key, c in ma.items()} if factor else {}),
        (x.shift(power), {(k, m + power): c for (k, m), c in ma.items()}),
    ]
    for element, model in cases:
        assert dict(element.coeffs) == model
        assert element.terms() == [(k, m, c) for (k, m), c in sorted(model.items())]
        assert all(type(c) is Fraction for c in element.coeffs.values())
        assert all(type(c) is Fraction for _, _, c in element.terms())
        assert element.is_zero() == (not model)
        assert _in_lowest_terms(element)
    assert (x == y) == (ma == mb)
    # equal elements reached by different routes are equal and hash alike
    for same in (x + y - y, x.scale(6).scale(F(1, 6)), x.shift(power).shift(-power)):
        assert same == x and hash(same) == hash(x)


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
    # k and m must be exactly int: no float, bool or Fraction keys
    for key in ((0, 1.5), (1.0, 0), (0, True), (True, 0), (0, F(2))):
        with pytest.raises(DimensionMismatch):
            GElement(3, {key: 1})
    with pytest.raises(DimensionMismatch):
        GElement.basis(3, 0, tau_power=0.5)
    for power in (1.5, 1.0, True, F(1)):
        with pytest.raises(DimensionMismatch):
            basis(3, 0).shift(power)
    assert GElement(3, {(0, 0): 0, (2, -1): 1}) == basis(3, 2).shift(-1)


def test_basis_matches_constructor():
    # the constructor stores an int coefficient as it is, with no Fraction,
    # and a Fraction one reduced; the checks are the same for both
    for coefficient in (0, -3, 5):
        for k, power in ((0, 0), (3, -2), (1, 4)):
            x = GElement.basis(4, k, tau_power=power, coefficient=coefficient)
            y = GElement(4, {(k, power): coefficient})
            assert (x.mu, x._nums, x._den) == (y.mu, y._nums, y._den)
            assert x == y and hash(x) == hash(y)
            assert x.is_zero() == (coefficient == 0)
            assert all(type(c) is Fraction for c in x.coeffs.values())
    for k, power in ((4, 0), (-1, -2), (True, 0), (1.0, 0), (0, False), (0, -1.0)):
        for coefficient in (0, -3, 5, F(1, 2)):
            with pytest.raises(DimensionMismatch):
                GElement.basis(4, k, tau_power=power, coefficient=coefficient)
    x = GElement.basis(4, 2, tau_power=-1, coefficient=F(-6, 4))
    assert (x._nums, x._den) == ({(2, -1): -3}, 2)
    assert x.terms() == [(2, -1, F(-3, 2))]


def test_coefficient_is_an_int_or_a_fraction():
    # a float, bool, string or Decimal is rejected before the zero test, so
    # 0.0 and False are not silently dropped and 0.1 is not stored as a
    # binary fraction
    x = basis(3, 1)
    for value in (0.5, 0.0, True, "1/2", Decimal("0.1")):
        with pytest.raises(DimensionMismatch):
            GElement(3, {(0, 0): value})
        with pytest.raises(DimensionMismatch):
            GElement.basis(3, 0, coefficient=value)
        with pytest.raises(DimensionMismatch):
            x.scale(value)
    assert x.scale(0) == GElement.zero(3) and x.scale(F(0)) == GElement.zero(3)


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
    sigma = fraction_oracle.spectral_numbers(w)
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
    # True == 1 and 1.0 == 1, but an exponent must be exactly an int
    for entry in (True, 1.0, "1"):
        for route in (canonical_exponents, reduce_monomial, f_action):
            with pytest.raises(DimensionMismatch):
                route([entry, 0, 0], w)


def test_bernstein_examples():
    for tup, mu in [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]:
        w = make_weight_system(list(tup))
        assert w.mu == mu
        assert verify_all(w, ["bernstein"]) == {"bernstein": []}


def test_bernstein_small_corpus():
    for tup in weight_systems_up_to(12):
        w = WeightSystem(tup)
        assert verify_all(w, ["bernstein"]) == {"bernstein": []}


def _birkhoff_entries(w):
    """A0 and A_inf times D = lcm(w), read from the columns
    f_action(omega_k) = A0 omega_k + theta * A_inf omega_k."""
    d, a0, ainf = spectrum_direct(w).denominator, {}, {}
    for k in range(w.mu):
        for j, m, c in f_action(basis(w.mu, k), w).terms():
            assert m in (0, -1) and (c * d).denominator == 1
            (a0 if m == 0 else ainf)[j, k] = int(c * d)
    return a0, ainf


def test_birkhoff_examples():
    # both maps hold their entries times D = lcm(w)
    for n in (2, 3, 4):
        w = make_weight_system([1] * (n + 1))
        _, ainf = _birkhoff_entries(w)
        assert [ainf.get((k, k), 0) for k in range(n + 1)] == list(range(n + 1))

    w = make_weight_system([1, 1, 2])
    a0, ainf = _birkhoff_entries(w)
    assert [ainf.get((k, k), 0) for k in range(4)] == [0, 2, 4, 2]  # 0, 1, 2, 1 over 2
    assert a0 == {((k + 1) % 4, k): 4 * 2 for k in range(4)}

    w = make_weight_system([1, 2, 3])
    a0, _ = _birkhoff_entries(w)
    assert a0 == {((k + 1) % 6, k): 6 * 6 for k in range(6)}

    w = make_weight_system([1, 1, 3])
    a0, ainf = _birkhoff_entries(w)
    assert ainf == {(k, k): s for k, s in [(1, 3), (2, 6), (3, 4), (4, 2)]}  # 1, 2, 4/3, 2/3 over 3


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
    # 0.0 == 0 and True == 1, but a path entry must be exactly an int
    for path in ([0.0], [True], ["0"]):
        with pytest.raises(ValueError):
            reduce_monomial([1, 0, 0], w, path=path)


def test_reduce_monomial_agrees_with_operator_composition():
    # one increment via the public operator composition, tau_dtau on
    # GElement rather than _step, must match the integer step; the
    # two-weight systems reach states with terms at d = -m >= 5
    rng = random.Random(5)
    deep = [make_weight_system([7, 93]), make_weight_system([11, 85])]
    systems = [make_weight_system([1, 2, 3]), *deep]
    for w in systems + random_systems(seed=21, count=6, mu_max=40, max_parts=5):
        size, deepest = w.n + 1, 0
        for _ in range(12):
            target = tuple(rng.randint(0, 8) for _ in range(size))
            base = reduce_monomial(target, w)
            deepest = max(deepest, -min(m for _, m, _ in base.terms()))
            j = rng.randrange(size)
            l_j = sum(target) - F(w.mu * target[j], w.weights[j])
            composed = (
                (tau_dtau(base, w) + base.scale(l_j)).scale(F(-1, w.mu)).shift(-1)
            )
            bumped = target[:j] + (target[j] + 1,) + target[j + 1:]
            assert composed == reduce_monomial(bumped, w), (w, target, j)
        assert w not in deep or deepest >= 5, w


def test_step_state_layout():
    # flat[d] is (D*mu)^d times the coefficient of tau^(-d): flat[0] stays
    # 1, the state ends in a nonzero entry, and read back in Fractions it
    # is reduce_monomial's element, here along a shuffled path
    rng = random.Random(21)
    for tup in [(1, 2, 3), (2, 3, 7), (7, 93), (11, 85), (1, 2, 12, 15, 30)]:
        w = make_weight_system(list(tup))
        data = _step_data(w)
        step_denom = spectrum_direct(w).denominator * w.mu
        for _ in range(6):
            target = tuple(rng.randint(0, 10) for _ in range(w.n + 1))
            path = [j for j, c in enumerate(canonical_exponents(target, w)) for _ in range(c)]
            rng.shuffle(path)
            flat, b = [1], [0] * (w.n + 1)
            for total, j in enumerate(path):
                flat = _step(flat, j, b[j], total, data)
                b[j] += 1
                assert flat[0] == 1 and flat[-1], (tup, target, total)
            coeffs = {
                ((len(path) - d) % w.mu, -d): F(c, step_denom**d) for d, c in enumerate(flat)
            }
            assert GElement(w.mu, coeffs) == reduce_monomial(target, w), (tup, target)


def test_one_step_states_equal_reduction_from_scratch():
    # each class u^(a(k)+1_i) of the reduction suite is one step from
    # omega_k; read back in Fractions, that state is the class reduced from
    # omega_0 along its coordinate-major path
    systems = [WeightSystem(tup) for tup in weight_systems_up_to(exhaustive_mu(12))]
    for w in systems + [make_weight_system([7, 11, 13])]:
        mu, data = w.mu, _step_data(w)
        step_denom = spectrum_direct(w).denominator * mu
        for k, a in enumerate(step_sequence(w).exponents[:mu]):
            for i, a_i in enumerate(a):
                flat = _step([1], i, a_i, k, data)
                assert flat[0] == 1 and flat[-1] != 0
                coeffs = {((k + 1 - d) % mu, -d): F(c, step_denom**d) for d, c in enumerate(flat)}
                bumped = a[:i] + (a_i + 1,) + a[i + 1:]
                assert GElement(mu, coeffs) == reduce_monomial(bumped, w), (w, k, i)


def test_suite_targets_in_closed_form():
    # [u^a(k)] = omega_k is the state [1]; one step in coordinate i adds
    # the entry -t, t = (L_i(a(k)) - sigma(k)) * D = s(k)*D - mu*a_i(k)*D/w_i,
    # which is stripped where it is 0, as it is for i = i(k)
    systems = [WeightSystem(tup) for tup in weight_systems_up_to(exhaustive_mu(12))]
    for tup in [(1, 2, 3), (1, 2, 12, 15, 30), (7, 11, 13), (9, 55)]:
        systems.append(make_weight_system(list(tup)))
    for w in systems:
        mu, data = w.mu, _step_data(w)
        spec = spectrum_direct(w)
        seq = step_sequence(w)
        for k, a in enumerate(seq.exponents[:mu]):
            assert reduce_monomial(a, w) == basis(mu, k), (w, k)
            for i, a_i in enumerate(a):
                second = mu * a_i * (spec.denominator // w.weights[i]) - spec.scaled[k]
                assert _step([1], i, a_i, k, data) == ([1, second] if second else [1]), (w, k, i)
                assert i != seq.indices[k] or not second, (w, k)


def test_product_form_equals_reduction():
    # the factors of the product form are polynomials in tau_dtau, so they
    # commute: every path gives one class, here with a not canonicalised
    rng = random.Random(27)
    for w in random_systems(seed=27, count=25, mu_max=24, max_parts=5):
        for _ in range(6):
            a = tuple(rng.randint(0, 2 * wi) for wi in w.weights)
            assert GElement(w.mu, fraction_oracle.product_form(a, w)) == reduce_monomial(a, w), (w, a)


def test_f_action_examples():
    for tup in [(1, 1, 1), (1, 2, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        mu = w.mu
        assert f_action(basis(mu, 0), w) == basis(mu, 1, coefficient=mu)

    # higher basis vectors pick up a theta correction; modulo theta the
    # action is the cyclic matrix
    w = make_weight_system([1, 1, 2])
    sigma = fraction_oracle.spectral_numbers(w)
    assert f_action(basis(4, 1), w) == basis(4, 2, coefficient=4) + basis(
        4, 1, tau_power=-1, coefficient=sigma[1]
    )
    assert _mod_theta(f_action(basis(4, 1), w)) == basis(4, 2, coefficient=4)
    assert _mod_theta(f_action(basis(4, 3), w)) == basis(4, 0, coefficient=4)


def _mod_theta(x: GElement) -> GElement:
    return GElement(x.mu, {(k, m): c for k, m, c in x.terms() if m == 0})


def _f_via_monomials(a, w) -> GElement:
    """sum_i w_i * [u^(a + 1_i)]: f = sum_i w_i u_i applied to the monomial
    before reduction, each product reduced on its own."""
    a, acc = tuple(a), GElement.zero(w.mu)
    for i, wi in enumerate(w.weights):
        acc = acc + reduce_monomial(a[:i] + (a[i] + 1,) + a[i + 1:], w).scale(wi)
    return acc


def test_f_action_two_routes_agree():
    for tup in [(1, 1, 2), (1, 2, 3), (1, 1, 3)]:
        w = make_weight_system(list(tup))
        seq = step_sequence(w)
        for k in range(w.mu):
            assert _f_via_monomials(seq.exponents[k], w) == f_action(basis(w.mu, k), w)


def test_f_action_same_on_class_and_reduced_element():
    # theta^2 d_theta with its Leibniz term, so reducing first or
    # multiplying the monomial first gives the same element
    cases = [
        (make_weight_system(list(tup)), itertools.product(range(-1, 4), repeat=len(tup)))
        for tup in [(1, 2, 3), (2, 3, 7), (5, 7), (3, 4, 5, 11)]
    ]
    rng = random.Random(14)
    wide = make_weight_system([1, 2, 12, 15, 30])
    cases.append((wide, [tuple(rng.randint(-1, 3) for _ in range(5)) for _ in range(60)]))
    for w, exponents in cases:
        for a in exponents:
            assert f_action(a, w) == f_action(reduce_monomial(a, w), w) == _f_via_monomials(a, w), (w, a)


def test_f_action_leibniz_rule():
    # f(tau^m x) = tau^m f(x) - m * tau^(m-1) x
    rng = random.Random(1414)
    for w in random_systems(seed=14, count=10, mu_max=30, max_parts=5):
        for _ in range(10):
            x = GElement(w.mu, {
                (rng.randrange(w.mu), rng.randint(-3, 3)): F(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 6))
            })
            m = rng.randint(-4, 4)
            assert f_action(x.shift(m), w) == f_action(x, w).shift(m) - x.shift(m - 1).scale(m)


def test_v_order_examples():
    w = make_weight_system([1, 2, 3])
    sigma = fraction_oracle.spectral_numbers(w)
    for k in range(6):
        assert v_order(basis(6, k), w) == sigma[k]
    assert v_order(basis(6, 0, tau_power=1), w) == 1
    assert type(v_order(basis(6, 0, tau_power=1), w)) is Fraction
    w111 = make_weight_system([1, 1, 1])
    assert v_order(basis(3, 2) + basis(3, 0, tau_power=1), w111) == 2
    assert v_order(GElement.zero(3), w111) is None


def test_v_order_of_derivative():
    # exact value: max(sigma(k) when nonzero, sigma(k+1 mod mu) + 1), and
    # the slope bound v_order(tau_dtau(x)) <= v_order(x) + 2
    for tup in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (2, 3, 7)]:
        w = make_weight_system(list(tup))
        sigma = fraction_oracle.spectral_numbers(w)
        for k in range(w.mu):
            order = v_order(tau_dtau(basis(w.mu, k), w), w)
            shifted = sigma[(k + 1) % w.mu] + 1
            assert order == (shifted if sigma[k] == 0 else max(sigma[k], shifted))
            assert order <= sigma[k] + 2


def test_sparse_suites_beyond_corpus():
    # mu = 600 and 2000: bernstein, birkhoff and v_order touch O(1) terms
    # per step, and the reduction suite takes one step per class of its
    # 2 * mu classes u^(a(k)+1_i)
    suites = ["bernstein", "birkhoff", "v_order", "reduction"]
    for weights in ([7, 593], [7, 1993]):
        w = make_weight_system(weights)
        assert verify_all(w, suites) == {name: [] for name in suites}


def test_all_suites_on_a_balanced_ladder_system():
    # ten weights at mu = 120, the planned ladder size: the reduction
    # suite takes one step to each of its 10 * mu classes
    w = make_weight_system([9, 10, 11, 11, 12, 12, 13, 13, 14, 15])
    assert w.mu == 120
    assert verify_all(w) == {name: [] for name in ALL_SUITES}
