"""Aggregated identity suites for a single weight system.

Each suite returns a list of human-readable failure strings (empty on
success), so the CLI, CI and the acceptance tests share one entry point.
An :class:`IdentityViolation` raised by a builder a suite calls becomes
that suite's one failure.
All comparisons are exact and run on structured data (sparse entries, the
metric involution, chains of the nilpotent shift), never on dense matrices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .filtrations import (
    eigenvalue_classes,
    jordan_blocks,
    orthogonality_check,
    saito_filtration,
    saito_identity_check,
)
from .frobenius import charpoly_A0, initial_data, metric_partner, metric_violations
from .gaussmanin import (
    GElement,
    bernstein_check,
    birkhoff_matrices,
    f_action,
    reduce_monomial,
    tau_dtau,
    v_order,
)
from .reflexive import has_integral_spectrum, is_reflexive
from .spectrum import (
    IdentityViolation,
    check_symmetry,
    index_bijection,
    spectrum_direct,
    spectrum_from_steps,
    step_sequence,
)
from .weights import WeightSystem


def verify_spectrum(w: WeightSystem) -> list[str]:
    """Two-route equality, canonical tie order, step invariants, bijection."""
    failures = []
    seq = step_sequence(w)
    by_steps = spectrum_from_steps(seq, w)
    direct = spectrum_direct(w)
    if by_steps.scaled != direct.scaled:
        failures.append("spectrum: recursion and multiset merge disagree")
    # with equal values, equal ladders also give equal rungs l = s*w_i/mu
    if by_steps.ladders != direct.ladders:
        failures.append("spectrum: canonical tie order violated")
    # ratio chain: r(k) <= r(k+1) <= r(k) + 1/w_{i(k)}
    for k in range(w.mu):
        i, j = seq.indices[k], seq.indices[k + 1]
        lhs = seq.exponents[k][i] * w.weights[j]
        mid = seq.exponents[k + 1][j] * w.weights[i]
        rhs = (seq.exponents[k][i] + 1) * w.weights[j]
        if not lhs <= mid <= rhs:
            failures.append(f"steps: ratio chain broken at k = {k}")
    try:
        index_bijection(seq, w)
    except IdentityViolation as exc:
        failures.append(f"steps: {exc}")
    failures.extend(check_symmetry(direct, w))
    return failures


def verify_periodicity(w: WeightSystem) -> list[str]:
    """Extended recursion: i(k+mu) = i(k) and the exponent gains one w."""
    failures = []
    mu = w.mu
    seq = step_sequence(w, k_max=2 * mu)
    for k in range(mu):
        if seq.indices[k + mu] != seq.indices[k]:
            failures.append(f"periodicity: i({k + mu}) != i({k})")
            continue
        i = seq.indices[k]
        if seq.exponents[k + mu][i] != w.weights[i] + seq.exponents[k][i]:
            failures.append(f"periodicity: exponent at k = {k} off")
    return failures


def verify_bernstein(w: WeightSystem) -> list[str]:
    expected = GElement.basis(w.mu, 0, tau_power=w.mu)
    if bernstein_check(w) != expected:
        return ["bernstein: product on omega_0 != tau^mu * omega_0"]
    return []


def verify_birkhoff(w: WeightSystem) -> list[str]:
    failures = []
    mu = w.mu
    data = initial_data(w)
    a0, ainf = birkhoff_matrices(w)
    if a0 != data.a0_entries:
        failures.append("birkhoff: A0 is not mu * cyclic shift")
    if ainf != data.a_inf_entries:
        failures.append("birkhoff: A_inf is not diag(sigma)")
    f_mod_theta = {}
    for k in range(mu):
        image = f_action(GElement.basis(mu, k), w)
        for j, m, c in image.terms():
            if m == 0:
                f_mod_theta[j, k] = c
            elif m > 0:
                failures.append(f"birkhoff: positive tau power in f*omega_{k}")
    if f_mod_theta != data.a0_entries:
        failures.append("birkhoff: f-multiplication matrix mod theta != A0")
    return failures


def verify_charpoly(w: WeightSystem) -> list[str]:
    mu = w.mu
    expected = [1] + [0] * (mu - 1) + [-(mu**mu)]
    if charpoly_A0(w) != expected:
        return ["charpoly: det(T*I - A0) != T^mu - mu^mu"]
    return []


def verify_pairing(w: WeightSystem) -> list[str]:
    partner = tuple(metric_partner(k, w) for k in range(w.mu))
    sigma = spectrum_direct(w).spectral_numbers
    return [f"pairing: {msg}" for msg in metric_violations(w.n, sigma, partner)]


def _longest_chain(indices: tuple[int, ...], values: tuple[int, ...]) -> int:
    """Nilpotency index of N on a class: the longest chain k, k+1, ... in
    ``indices`` along which the shift k -> k+1 (equal values) is nonzero."""
    longest = run = 0
    for pos, k in enumerate(indices):
        chained = pos and indices[pos - 1] == k - 1 and values[k - 1] == values[k]
        run = run + 1 if chained else 1
        longest = max(longest, run)
    return longest


def verify_jordan(w: WeightSystem) -> list[str]:
    failures = []
    data = jordan_blocks(w)
    # block multiset must match value multiplicities of the direct oracle
    values = spectrum_direct(w).scaled
    if data.size_multiset() != Counter(Counter(values).values()):
        failures.append("jordan: block sizes != value multiplicities")
    classes = eigenvalue_classes(w)
    for alpha, blocks in data.classes().items():  # both keyed by alpha*D
        largest = max(b.size for b in blocks)
        chain = _longest_chain(classes.get(alpha, ()), values)
        if chain != largest:
            alpha = Fraction(alpha, data.denominator)
            failures.append(f"jordan: N has index {chain} != {largest} on class {alpha}")
    return failures


def verify_saito(w: WeightSystem) -> list[str]:
    failures = []
    mu, n = w.mu, w.n
    report = saito_filtration(w)
    spec = spectrum_direct(w)
    values, top = spec.scaled, mu * spec.denominator
    for p in range(n + 2):
        if not saito_identity_check(w, p):
            failures.append(f"saito: opposite-filtration identity fails at p = {p}")
    # nilpotent operator maps level p into level p+1
    for p in range(n + 1):
        for k in report.hp[p]:
            if k + 1 < mu and values[k + 1] == values[k] and k + 1 not in report.hp[p + 1]:
                failures.append(f"saito: N does not raise level at k = {k}, p = {p}")
    conj = report.conj
    for k in range(mu):
        if conj[conj[k]] != k:
            failures.append(f"saito: conjugation not involutive at k = {k}")
        if k > n and values[conj[k]] != top - values[k]:
            failures.append(f"saito: value of conjugate wrong at k = {k}")
    # conjugation pairs whole blocks
    blocks = jordan_blocks(w).blocks
    starts = {b.start: b for b in blocks}
    for block in blocks:
        image = {conj[k] for k in block.indices}
        partner = starts.get(min(image))
        if partner is None or image != set(partner.indices) or partner.size != block.size:
            failures.append(f"saito: conjugate of block at {block.start} is not a block")
    if all(wi == 1 for wi in w.weights):
        for p in range(n + 2):
            if report.hp[p] != report.m.get(n - 2 * p, frozenset()):
                failures.append(f"saito: Hodge-Tate identity fails at p = {p}")
    return failures


def verify_orthogonality(w: WeightSystem) -> list[str]:
    failures = []
    d = spectrum_direct(w).denominator
    for alpha in sorted(Fraction(key, d) for key in set(eigenvalue_classes(w)) | {0}):
        for p in range(w.n + 2):
            if not orthogonality_check(w, alpha, p):
                failures.append(
                    f"orthogonality: fails at alpha = {alpha}, p = {p}"
                )
    return failures


def verify_reflexivity(w: WeightSystem) -> list[str]:
    if is_reflexive(w) != has_integral_spectrum(w):
        return ["reflexive: divisibility and spectrum integrality disagree"]
    return []


def verify_reduction(w: WeightSystem) -> list[str]:
    """Monomial reduction reproduces the basis along the step sequence and
    the exact multiplication rule for f."""
    failures = []
    mu = w.mu
    seq = step_sequence(w)
    for k in range(mu):
        if reduce_monomial(seq.exponents[k], w) != GElement.basis(mu, k):
            failures.append(f"reduction: class of u^a({k}) != omega_{k}")
    for k in range(mu):
        basis = GElement.basis(mu, k)
        via_monomials = f_action(seq.exponents[k], w)
        if via_monomials != f_action(basis, w):
            failures.append(f"reduction: two routes for f*omega_{k} disagree")
    return failures


def verify_v_order(w: WeightSystem) -> list[str]:
    """Exact order of the derivative of each basis vector, plus the +2 bound."""
    failures = []
    mu = w.mu
    sigma = spectrum_direct(w).spectral_numbers
    for k in range(mu):
        image = tau_dtau(GElement.basis(mu, k), w)
        order = v_order(image, w)
        shifted = sigma[(k + 1) % mu] + 1
        expected = shifted if sigma[k] == 0 else max(sigma[k], shifted)
        if order != expected:
            failures.append(f"v_order: tau_dtau(omega_{k}) has order {order}")
        if order is None or order > sigma[k] + 2:
            failures.append(f"v_order: bound exceeded at k = {k}")
    return failures


ALL_SUITES = {
    "spectrum": verify_spectrum,
    "periodicity": verify_periodicity,
    "bernstein": verify_bernstein,
    "birkhoff": verify_birkhoff,
    "charpoly": verify_charpoly,
    "pairing": verify_pairing,
    "jordan": verify_jordan,
    "saito": verify_saito,
    "orthogonality": verify_orthogonality,
    "reflexive": verify_reflexivity,
    "reduction": verify_reduction,
    "v_order": verify_v_order,
}


def verify_all(
    w: WeightSystem, suites: list[str] | None = None
) -> dict[str, list[str]]:
    """Run the named suites (``None``: all) and map suite -> failures; a
    suite that raises :class:`IdentityViolation` fails with its message."""
    chosen = list(ALL_SUITES) if suites is None else suites
    unknown = [name for name in chosen if name not in ALL_SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    results = {}
    for name in chosen:
        try:
            results[name] = ALL_SUITES[name](w)
        except IdentityViolation as exc:
            results[name] = [f"{name}: {exc}"]
    return results
