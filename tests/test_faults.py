"""Fault witnesses: each one plants a fault in the data a verify suite
reads, never in the suite itself, and asserts that the suite fails.
Where only that suite reads the faulty data, every other suite must stay
ok, so a suite that silently checked nothing could not pass here.
The integer suites are also compared with element and ``Fraction``
oracles, with and without the same planted fault.
"""

import inspect
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import fraction_oracle
import weightspec.frobenius as frobenius
import weightspec.gaussmanin as gaussmanin
import weightspec.reflexive as reflexive
import weightspec.spectrum as spectrum
import weightspec.verify as verify
from weightspec import (
    GElement,
    f_action,
    make_weight_system,
    tau_dtau,
    v_order,
    verify_all,
)

from conftest import exhaustive_mu, weight_systems_up_to


def _failed(w) -> set[str]:
    return {name for name, failures in verify_all(w).items() if failures}


def _shifted(spec, k: int = 1):
    """The spectrum with s(k) lowered by 1/D, i.e. sigma(k) raised by 1/D."""
    scaled = list(spec.scaled)
    scaled[k] -= 1
    return spec._replace(scaled=tuple(scaled))


def _planted(module, *edits: str) -> dict:
    """The namespace of a copy of ``module`` whose source has, for each
    pair ``old, new`` of ``edits``, the one occurrence of ``old`` replaced
    by ``new``."""
    source = inspect.getsource(module)
    for old, new in zip(edits[::2], edits[1::2]):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {"__name__": "weightspec._planted", "__package__": "weightspec"}
    exec(compile(source, f"<planted {module.__name__}>", "exec"), namespace)
    return namespace


def _plant_in_gaussmanin(monkeypatch, *edits: str) -> SimpleNamespace:
    """Point ``verify`` at a copy of ``gaussmanin`` with ``edits`` planted
    as in ``_planted``, and return that copy."""
    namespace = _planted(gaussmanin, *edits)
    shared = [name for name, value in vars(verify).items() if getattr(gaussmanin, name, None) is value]
    assert "_derive" in shared
    for name in shared:
        monkeypatch.setattr(verify, name, namespace[name])
    return SimpleNamespace(**namespace)


# the integer step of monomial reduction, shared by every reduced target
STEP_FAULTS = {
    "L_j dropped on the last coordinate": (
        "t = l_scaled - d * scale - sigma_scaled[(total - d) % mu]",
        "t = (l_scaled if j < len(rungs) - 1 else 0) - d * scale - sigma_scaled[(total - d) % mu]",
    ),
    "sigma(1) shifted by 1/D": (
        "t = l_scaled - d * scale - sigma_scaled[(total - d) % mu]",
        "t = l_scaled - d * scale - sigma_scaled[(total - d) % mu] - ((total - d) % mu == 1)",
    ),
    # every step of the suite's induction starts at d = 0, so only the
    # certificate's steps on tau^(-1) * omega_k can see this one
    "depth term dropped": (
        "t = l_scaled - d * scale - sigma_scaled[(total - d) % mu]",
        "t = l_scaled - sigma_scaled[(total - d) % mu]",
    ),
    # the product rule x * omega_k = omega_(k+1) at theta = 0: a step keeps
    # entry 0, so each one-step state from omega_k starts with 1; the f
    # route sums entry 0, and the certificate compares it as [1, moved]
    "entry 0 raised in coordinate 0": ("nxt = flat + [0]", "nxt = [flat[0] + (j == 0)] + flat[1:] + [0]"),
}
STEP_FAULT_SYSTEMS = [(1, 2, 3), (1, 2, 12, 15, 30), (7, 11, 13)]


@pytest.mark.parametrize("fault", sorted(STEP_FAULTS))
@pytest.mark.parametrize("weights", STEP_FAULT_SYSTEMS)
def test_reduction_step_fault(monkeypatch, fault, weights):
    w = make_weight_system(list(weights))
    assert _failed(w) == set()
    _plant_in_gaussmanin(monkeypatch, *STEP_FAULTS[fault])
    assert _failed(w) == {"reduction"}


# sigma(1) raised by 1/D alike in the step and in the derivative's diagonal
COMMON_SIGMA_FAULT = (
    *STEP_FAULTS["sigma(1) shifted by 1/D"],
    "(m * scale - sigma_scaled[k]) * c",
    "(m * scale - sigma_scaled[k] - (k == 1)) * c",
)


@pytest.mark.parametrize("weights", STEP_FAULT_SYSTEMS)
def test_common_sigma_fault(monkeypatch, weights):
    # the certificate ties the step to the derivative, so it cannot see a
    # shift common to both; the f route compares the steps with
    # A0 + theta * A_inf read from the spectrum, as birkhoff compares the
    # derivative with it
    w = make_weight_system(list(weights))
    _plant_in_gaussmanin(monkeypatch, *COMMON_SIGMA_FAULT)
    results = verify_all(w)
    assert results["reduction"] == [
        "reduction: two routes for f*omega_1 disagree",
        "reduction: class of u^a(2) != omega_2",
    ]
    assert {name for name, failures in results.items() if failures} == {"bernstein", "birkhoff", "reduction"}


@pytest.mark.parametrize("weights", STEP_FAULT_SYSTEMS)
def test_reduction_trailing_zero_fault(monkeypatch, weights):
    # a step strips its trailing zeros, so omega_k is exactly [1]
    _plant_in_gaussmanin(monkeypatch, "while not nxt[-1]:", "while False:")
    assert _failed(make_weight_system(list(weights))) == {"reduction"}


def _reduction_via_elements(w, gm) -> list[str]:
    """The reduction suite computed in ``GElement`` arithmetic from the
    module ``gm``: each ``_step`` state read as an element, the weighted sum
    of the classes of u^(a(k)+1_i) against column k of the Birkhoff normal
    form A0 + theta * A_inf of ``initial_data``, and the step on
    tau^(-d) * omega_k against -(1/mu) tau^(-1) (tau_dtau + L), all in
    Fractions."""
    failures = []
    mu, data = w.mu, gm._step_data(w)
    frobenius = verify.initial_data(w)
    normal_form = [{} for _ in range(mu)]  # column k, as (j, m) -> coefficient
    for (j, k), c in frobenius.a0_entries.items():
        normal_form[k][j, 0] = c
    for (j, k), c in frobenius.a_inf_entries.items():
        normal_form[k][j, -1] = Fraction(c, frobenius.denominator)
    exponents, indices = verify.step_sequence(w)
    reached = not any(exponents[0])
    for k in range(mu):
        a = exponents[k]
        if not reached:
            failures.append(f"reduction: class of u^a({k}) != omega_{k}")
        states = [gm._step([1], i, a_i, k, data) for i, a_i in enumerate(a)]
        images = [gm._unscaled(flat, k + 1, data) for flat in states]
        i = indices[k]
        bumped = a[:i] + (a[i] + 1,) + a[i + 1:]
        reached = images[i] == gm.GElement.basis(mu, (k + 1) % mu) and exponents[k + 1] == bumped
        via_monomials = gm.GElement.zero(mu)
        for wi, image in zip(w.weights, images):
            via_monomials = via_monomials + image.scale(wi)
        if via_monomials != gm.GElement(mu, normal_form[k]):
            failures.append(f"reduction: two routes for f*omega_{k} disagree")
        for d in (0, 1):
            start = [0] * d + [1]
            x = gm._unscaled(start, k + d, data)
            certified = True
            for j, a_j in enumerate(a):
                for b in (a_j, a_j + 1):
                    l_j = k + d - Fraction(mu * b, w.weights[j])
                    operator = (gm.tau_dtau(x, w) + x.scale(l_j)).scale(Fraction(-1, mu)).shift(-1)
                    step = gm._unscaled(gm._step(start, j, b, k + d, data), k + d + 1, data)
                    certified = certified and step == operator
            if not certified:
                failures.append(
                    f"reduction: step at depth {d} of omega_{k} is not -(1/mu) tau^(-1) (tau_dtau + L)"
                )
    return failures


def test_integer_reduction_suite_matches_elements_on_corpus():
    for weights in list(weight_systems_up_to(exhaustive_mu(12))) + STEP_FAULT_SYSTEMS:
        w = make_weight_system(list(weights))
        assert verify_all(w, ["reduction"])["reduction"] == _reduction_via_elements(w, gaussmanin) == []


@pytest.mark.parametrize("fault", sorted(STEP_FAULTS))
@pytest.mark.parametrize("weights", STEP_FAULT_SYSTEMS)
def test_integer_reduction_suite_matches_elements_under_fault(monkeypatch, fault, weights):
    # the same k values flagged with the same messages
    planted = _plant_in_gaussmanin(monkeypatch, *STEP_FAULTS[fault])
    w = make_weight_system(list(weights))
    failures = verify_all(w, ["reduction"])["reduction"]
    assert failures
    assert failures == _reduction_via_elements(w, planted)


def test_spectrum_two_route_fault(monkeypatch):
    real = verify.spectrum_from_steps

    def recursion_off_by_one(seq, w):
        return _shifted(real(seq, w))

    monkeypatch.setattr(verify, "spectrum_from_steps", recursion_off_by_one)
    w = make_weight_system([2, 3, 7])
    results = verify_all(w)
    assert results.pop("spectrum") == ["spectrum: recursion and multiset merge disagree"]
    assert all(failures == [] for failures in results.values())


def test_periodicity_fault(monkeypatch):
    real = verify.step_sequence

    def extension_off(w, k_max=None):
        seq = real(w, k_max)
        if seq.k_max <= w.mu:
            return seq
        # past mu, where only the periodicity suite reads the recursion
        exponents = list(seq.exponents)
        exponents[2 * w.mu - 1] = tuple(a + 1 for a in exponents[2 * w.mu - 1])
        return seq._replace(exponents=tuple(exponents))

    monkeypatch.setattr(verify, "step_sequence", extension_off)
    w = make_weight_system([2, 3, 7])
    results = verify_all(w)
    assert results.pop("periodicity") == [f"periodicity: exponent at k = {w.mu - 1} off"]
    assert all(failures == [] for failures in results.values())


def _argmin_ties_to_largest(a, weights):
    best = 0
    for j in range(1, len(weights)):
        if a[j] * weights[best] <= a[best] * weights[j]:
            best = j
    return best


def _argmin_skips_last(a, weights):
    best = 0
    for j in range(1, len(weights) - 1):
        if a[j] * weights[best] < a[best] * weights[j]:
            best = j
    return best


SYSTEMS = [(1, 2, 3), (2, 3, 7), (1, 2, 12, 15, 30)]


@pytest.mark.parametrize("weights", SYSTEMS)
def test_step_tie_order_fault(monkeypatch, weights):
    # still a min-ratio recursion, so it reaches a(mu) = w, but in the
    # wrong tie order, and i(mu) = n != i(0) = 0
    monkeypatch.setattr(spectrum, "_argmin_ratio", _argmin_ties_to_largest)
    results = verify_all(make_weight_system(list(weights)))
    assert results.pop("spectrum") == ["spectrum: canonical tie order violated"]
    assert results.pop("periodicity")
    assert all(failures == [] for failures in results.values())


@pytest.mark.parametrize("weights", SYSTEMS)
def test_step_skipped_coordinate_fault(monkeypatch, weights):
    # coordinate n is never stepped, so a(mu) != w and step_sequence raises
    # in every suite that runs the recursion
    monkeypatch.setattr(spectrum, "_argmin_ratio", _argmin_skips_last)
    assert _failed(make_weight_system(list(weights))) == {"spectrum", "periodicity", "reduction"}


def test_step_exponent_fault(monkeypatch):
    # a(3) off in coordinate 0 on (1, 2, 3), where i(3) = 2: the spectrum
    # and periodicity suites read only a(k)_{i(k)}, the reduction all of a(k)
    real = verify.step_sequence

    def exponent_off(w, k_max=None):
        seq = real(w, k_max)
        exponents = list(seq.exponents)
        exponents[3] = (exponents[3][0] + 1,) + exponents[3][1:]
        return seq._replace(exponents=tuple(exponents))

    w = make_weight_system([1, 2, 3])
    assert real(w).indices[3] == 2
    monkeypatch.setattr(verify, "step_sequence", exponent_off)
    results = verify_all(w)
    assert "reduction: class of u^a(3) != omega_3" in results.pop("reduction")
    assert all(failures == [] for failures in results.values())


# faults in the derivative, each as (plant in the integer kernel ``_derive``,
# plant in the Fraction oracle's ``tau_dtau``)
LEIBNIZ_FAULT = (
    ("(m * scale - sigma_scaled[k]) * c", "-sigma_scaled[k] * c"),
    ("(m - sigma[k]) * c", "-sigma[k] * c"),
)


def test_bernstein_fault(monkeypatch):
    # the Leibniz term vanishes on basis vectors, so only the Bernstein
    # product, which differentiates tau^k * omega_k, and the certificate of
    # the reduction step on tau^(-1) * omega_k can see it dropped
    _plant_in_gaussmanin(monkeypatch, *LEIBNIZ_FAULT[0])
    w = make_weight_system([1, 2, 3])
    results = verify_all(w)
    assert results.pop("bernstein") == ["bernstein: product on omega_0 != tau^mu * omega_0"]
    assert results.pop("reduction") == [
        f"reduction: step at depth 1 of omega_{k} is not -(1/mu) tau^(-1) (tau_dtau + L)" for k in range(w.mu)
    ]
    assert all(failures == [] for failures in results.values())


# faults in the derivative on basis vectors: the birkhoff suite splits
# f * omega_k = -tau^(-1) tau_dtau(omega_k) into A0 (its tau^0 part) and
# A_inf (its theta part), and the bernstein suite's product and the
# reduction suite's certificate read the same derivative
BIRKHOFF_FAULTS = {
    "birkhoff: A0 is not mu * cyclic shift": (
        ("-mu * scale * c", "-(mu + 1) * scale * c"),
        ("-mu * c", "-(mu + 1) * c"),
    ),
    "birkhoff: A_inf is not diag(sigma)": (
        ("(m * scale - sigma_scaled[k]) * c", "(m * scale - sigma_scaled[k] - (k == 1) * scale) * c"),
        ("(m - sigma[k]) * c", "(m - sigma[k] - (k == 1)) * c"),
    ),
}
DERIVATIVE_FAULTS = {"Leibniz term dropped": LEIBNIZ_FAULT, **BIRKHOFF_FAULTS}


@pytest.mark.parametrize("message", sorted(BIRKHOFF_FAULTS))
@pytest.mark.parametrize("weights", SYSTEMS)
def test_birkhoff_fault(monkeypatch, message, weights):
    _plant_in_gaussmanin(monkeypatch, *BIRKHOFF_FAULTS[message][0])
    results = verify_all(make_weight_system(list(weights)))
    assert results["birkhoff"] == [message]
    assert {name for name, failures in results.items() if failures} == {"bernstein", "birkhoff", "reduction"}


@pytest.mark.parametrize("weights", SYSTEMS)
def test_birkhoff_fault_below_one(monkeypatch, weights):
    # A0 entries of mu * D + 1 in units of 1/D: flooring them by D would
    # give mu back and hide the fault, so the suite compares in units of 1/D
    _plant_in_gaussmanin(monkeypatch, "-mu * scale * c)", "-mu * scale * c - 1)")
    results = verify_all(make_weight_system(list(weights)))
    assert results["birkhoff"] == ["birkhoff: A0 is not mu * cyclic shift"]


def test_saito_fault(monkeypatch):
    real = verify.saito_filtration

    def conjugation_broken(w):
        report = real(w)
        conj = report.conj[:-1] + (0,)  # conj(0) = 0, so conj(conj(mu-1)) != mu-1
        return report._replace(conj=conj)

    monkeypatch.setattr(verify, "saito_filtration", conjugation_broken)
    w = make_weight_system([2, 3, 7])
    results = verify_all(w)
    assert f"saito: conjugation not involutive at k = {w.mu - 1}" in results.pop("saito")
    assert all(failures == [] for failures in results.values())


def test_saito_level_fault(monkeypatch):
    # on (1, 1, 1), floor(sigma) is 0, 1, 2 along the one block 0..2 and
    # nu is 2, 0, -2; lowering floor(sigma(1)) to 0 leaves N(omega_0) in
    # level 0 and H^1 = {2} != M_0 = {1, 2}; conj, the identity here, maps
    # {k : floor(sigma(k)) + w_level(k) <= 4 - p} = {1, 2} at p = 1 and 2
    # onto itself, but H^1 = H^2 = {2} now
    real = verify.saito_filtration

    def level_lowered(w):
        report = real(w)
        return report._replace(floors=(0, 0) + report.floors[2:])

    monkeypatch.setattr(verify, "saito_filtration", level_lowered)
    results = verify_all(make_weight_system([1, 1, 1]))
    assert results.pop("saito") == [
        "saito: opposite-filtration identity fails at p = 1",
        "saito: opposite-filtration identity fails at p = 2",
        "saito: N does not raise level at k = 0, p = 0",
        "saito: Hodge-Tate identity fails at p = 1",
    ]
    assert all(failures == [] for failures in results.values())


def test_saito_w_level_fault(monkeypatch):
    # w_level(0) = 2n on the zero block; one more takes index 0, which conj
    # fixes, out of the image {k : floor(sigma(k)) + w_level(k) <= 2n - p}
    # at p = 0, while H^0 keeps it; only the saito suite reads w_level
    real = verify.saito_filtration

    def level_raised(w):
        report = real(w)
        return report._replace(w_level=(report.w_level[0] + 1,) + report.w_level[1:])

    monkeypatch.setattr(verify, "saito_filtration", level_raised)
    results = verify_all(make_weight_system([2, 3, 7]))
    assert results.pop("saito") == ["saito: opposite-filtration identity fails at p = 0"]
    assert all(failures == [] for failures in results.values())


def test_saito_top_level_fault(monkeypatch):
    # on (1, 1, 1) floor(sigma(2)) is n = 2; raised to n + 1 = 3, index 2
    # stays in H^3, so the conj image and H^p differ at p = 2 and at the top
    # level p = n + 1, and so do H^3 and M_(-4) = {}; the orthogonality
    # suite reads its own floors, where both thresholds are at most n + 1,
    # so level n + 1 can never differ there
    real = verify.saito_filtration

    def top_level_raised(w):
        report = real(w)
        return report._replace(floors=report.floors[:2] + (3,) + report.floors[3:])

    monkeypatch.setattr(verify, "saito_filtration", top_level_raised)
    w = make_weight_system([1, 1, 1])
    assert real(w).floors[2] == w.n
    results = verify_all(w)
    assert results.pop("saito") == [
        "saito: opposite-filtration identity fails at p = 2",
        "saito: opposite-filtration identity fails at p = 3",
        "saito: Hodge-Tate identity fails at p = 3",
    ]
    assert all(failures == [] for failures in results.values())


@pytest.mark.parametrize("weights", SYSTEMS)
def test_jordan_fault(monkeypatch, weights):
    # the largest block is the zero block 0..n, which the conjugation fixes
    # pointwise, so only the jordan suite sees its two halves
    real = verify.jordan_blocks

    def largest_block_split(w):
        data = real(w)
        blocks = list(data.blocks)
        pos = max(range(len(blocks)), key=lambda i: blocks[i].size)
        block = blocks[pos]
        half = block.size // 2
        blocks[pos:pos + 1] = [
            block._replace(size=half),
            block._replace(start=block.start + half, size=block.size - half),
        ]
        return data._replace(blocks=tuple(blocks))

    monkeypatch.setattr(verify, "jordan_blocks", largest_block_split)
    w = make_weight_system(list(weights))
    results = verify_all(w)
    size = w.n + 1
    assert results.pop("jordan") == [
        "jordan: block sizes != value multiplicities",
        f"jordan: N has index {size} != {size - size // 2} on class 0",
    ]
    assert all(failures == [] for failures in results.values())


# on (1, 2, 3) the swap changes no complement, so it is left out
@pytest.mark.parametrize("weights", [(2, 3, 7), (1, 2, 12, 15, 30)])
def test_orthogonality_fault(monkeypatch, weights):
    # of all the suites, only orthogonality reads this name
    real = verify.metric_partner

    def partners_swapped(k, w):
        return real(2 * w.n + 3 - k if k in (w.n + 1, w.n + 2) else k, w)

    monkeypatch.setattr(verify, "metric_partner", partners_swapped)
    results = verify_all(make_weight_system(list(weights)))
    assert results.pop("orthogonality")
    assert all(failures == [] for failures in results.values())


def test_metric_invariance_fault(monkeypatch):
    # on (1, 1, 2) the partner (2, 3, 0, 1) in place of (2, 1, 0, 3) is a
    # symmetric involution with sigma(k) + sigma(partner(k)) = n and leaves
    # every orthogonality complement as it was; only the invariance of g
    # under the product A0 sees it, where initial_data builds g
    w = make_weight_system([1, 1, 2])
    assert tuple(frobenius.metric_partner(k, w) for k in range(w.mu)) == (2, 1, 0, 3)
    for module in (frobenius, verify):
        monkeypatch.setattr(module, "metric_partner", lambda k, w: (2, 3, 0, 1)[k])
    results = verify_all(w)
    for name in ("birkhoff", "charpoly", "pairing"):
        assert results.pop(name) == [f"{name}: g is not invariant under the product at k = 0"]
    assert all(failures == [] for failures in results.values())


def test_reflexive_fault(monkeypatch):
    # (1, 2, 3) is reflexive, so its spectrum is integral until shifted
    real = reflexive.spectrum_direct
    monkeypatch.setattr(reflexive, "spectrum_direct", lambda w: _shifted(real(w)))
    w = make_weight_system([1, 2, 3])
    results = verify_all(w)
    assert results.pop("reflexive") == ["reflexive: divisibility and spectrum integrality disagree"]
    assert all(failures == [] for failures in results.values())


def test_v_order_fault(monkeypatch):
    # the derivative as the four suites that read it call it: the bernstein
    # product loses tau^mu, the birkhoff split loses A0, the v_order suite
    # loses the shift term's order and the reduction suite's certificate
    # its depth-0 steps; the f route reads no derivative
    real = verify._derive

    def shift_term_dropped(nums, data):
        return {(k, m): c for (k, m), c in real(nums, data).items() if m <= 0}

    monkeypatch.setattr(verify, "_derive", shift_term_dropped)
    w = make_weight_system([2, 3, 7])
    results = verify_all(w)
    assert results.pop("v_order")[:2] == [
        "v_order: tau_dtau(omega_0) has order None",
        "v_order: bound exceeded at k = 0",
    ]
    assert results.pop("reduction") == [
        f"reduction: step at depth 0 of omega_{k} is not -(1/mu) tau^(-1) (tau_dtau + L)" for k in range(w.mu)
    ]
    assert results.pop("bernstein") == ["bernstein: product on omega_0 != tau^mu * omega_0"]
    assert results.pop("birkhoff") == ["birkhoff: A0 is not mu * cyclic shift"]
    assert all(failures == [] for failures in results.values())


# the shared sigma(k) * D is read by the derivative, the reduction step,
# the metric identities of initial_data (so birkhoff, charpoly and pairing,
# which all build initial_data, fail too), check_symmetry (so the spectrum
# suite fails) and the v_order suite's expectation; only the spectrum
# suite's two routes compare scaled itself
SIGMA_FAULT_SYSTEMS = STEP_FAULT_SYSTEMS + [(9, 55)]


@pytest.mark.parametrize("weights", SIGMA_FAULT_SYSTEMS)
def test_shared_sigma_fault(monkeypatch, weights):
    w = make_weight_system(list(weights))
    assert _failed(w) == set()
    real = spectrum.Spectrum.sigma_scaled.func

    def raised_at_1(spec):
        values = list(real(spec))
        values[1] += 1
        return tuple(values)

    # a property outranks the value cached_property stored on the instance
    monkeypatch.setattr(spectrum.Spectrum, "sigma_scaled", property(raised_at_1))
    assert _failed(w) == {"bernstein", "birkhoff", "charpoly", "pairing", "reduction", "spectrum", "v_order"}


def _oracle_terms(rng: random.Random, mu: int, k: int) -> dict:
    """omega_k plus one random term c * tau^m * omega_j, m in -3..3."""
    terms = {(k, 0): Fraction(1)}
    terms[rng.randrange(mu), rng.randint(-3, 3)] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 7))
    return terms


def test_integer_derivative_matches_fraction_oracle_on_corpus():
    rng = random.Random(16)
    for weights in list(weight_systems_up_to(exhaustive_mu(12))) + SIGMA_FAULT_SYSTEMS:
        w = make_weight_system(list(weights))
        mu = w.mu
        for k in range(mu):
            x = GElement(mu, _oracle_terms(rng, mu, k))
            assert tau_dtau(x, w) == GElement(mu, fraction_oracle.tau_dtau(dict(x.coeffs), w))
            assert v_order(x, w) == fraction_oracle.v_order(x.coeffs, w)
        columns = [f_action(GElement.basis(mu, k), w) for k in range(mu)]
        a0 = {(j, k): c for k, column in enumerate(columns) for j, m, c in column.terms() if m == 0}
        ainf = {(j, k): c for k, column in enumerate(columns) for j, m, c in column.terms() if m == -1}
        assert sum(len(column.terms()) for column in columns) == len(a0) + len(ainf)
        assert (a0, ainf) == fraction_oracle.birkhoff_split(w)
        for name, suite in fraction_oracle.SUITES.items():
            assert verify_all(w, [name])[name] == suite(w) == [], (weights, name)


@pytest.mark.parametrize("fault", sorted(DERIVATIVE_FAULTS))
@pytest.mark.parametrize("weights", SYSTEMS)
def test_integer_derivative_matches_fraction_oracle_under_fault(monkeypatch, fault, weights):
    # the same fault in both derivatives: the suites flag the same things
    plant, oracle_plant = DERIVATIVE_FAULTS[fault]
    _plant_in_gaussmanin(monkeypatch, *plant)
    oracle = _planted(fraction_oracle, *oracle_plant)
    w = make_weight_system(list(weights))
    results = verify_all(w, list(oracle["SUITES"]))
    assert any(results.values())
    assert results == {name: suite(w) for name, suite in oracle["SUITES"].items()}
