"""Aggregated identity suites for a single weight system.

Each suite returns a list of human-readable failure strings (empty on
success), so the CLI, CI and the acceptance tests share one entry point.
An :class:`IdentityViolation` raised by a builder a suite calls becomes
that suite's one failure.
All comparisons are exact and run on structured data (sparse entries, the
metric involution, chains of the nilpotent shift), never on dense matrices.
"""

from __future__ import annotations

import math
from collections import Counter

from .filtrations import (
    eigenvalue_classes,
    jordan_blocks,
    orthogonality_check,
    saito_filtration,
    saito_identity_check,
)
from .frobenius import charpoly_A0, initial_data
from .gaussmanin import (
    GElement,
    _derive,
    _reduce_walk,
    _unscaled,
    bernstein_check,
    birkhoff_matrices,
    f_action,
)
from .reflexive import has_integral_spectrum, is_reflexive
from .spectrum import (
    IdentityViolation,
    check_symmetry,
    rational_text,
    spectrum_direct,
    spectrum_from_steps,
    step_sequence,
)
from .weights import WeightSystem


def verify_spectrum(w: WeightSystem) -> list[str]:
    """Two-route equality, canonical tie order, symmetry and range."""
    failures = []
    by_steps = spectrum_from_steps(step_sequence(w), w)
    direct = spectrum_direct(w)
    if by_steps.scaled != direct.scaled:
        failures.append("spectrum: recursion and multiset merge disagree")
    # with equal values, equal ladders also give equal rungs l = s*w_i/mu
    if by_steps.ladders != direct.ladders:
        failures.append("spectrum: canonical tie order violated")
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
    data = initial_data(w)
    a0, ainf = birkhoff_matrices(w)  # both in units of 1/D, never floored
    if a0 != {key: c * data.denominator for key, c in data.a0_entries.items()}:
        failures.append("birkhoff: A0 is not mu * cyclic shift")
    if ainf != data.a_inf_entries:
        failures.append("birkhoff: A_inf is not diag(sigma)")
    return failures


def verify_charpoly(w: WeightSystem) -> list[str]:
    mu = w.mu
    expected = [1] + [0] * (mu - 1) + [-(mu**mu)]
    if charpoly_A0(w) != expected:
        return ["charpoly: det(T*I - A0) != T^mu - mu^mu"]
    return []


def verify_pairing(w: WeightSystem) -> list[str]:
    """The metric identities, checked where ``initial_data`` builds g: its
    first violation, raised as :class:`IdentityViolation`, becomes this
    suite's one failure through ``verify_all``."""
    initial_data(w)
    return []


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
            alpha = rational_text(alpha, data.denominator)
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
    for key in sorted(eigenvalue_classes(w)):  # alpha*D; 0 is always a class
        for p in range(w.n + 2):
            if not orthogonality_check(w, key, p):
                failures.append(f"orthogonality: fails at alpha = {rational_text(key, d)}, p = {p}")
    return failures


def verify_reflexivity(w: WeightSystem) -> list[str]:
    if is_reflexive(w) != has_integral_spectrum(w):
        return ["reflexive: divisibility and spectrum integrality disagree"]
    return []


def _reduction_targets(w: WeightSystem) -> list[tuple[int, ...]]:
    """a(k), then a(k) + 1_i for i = 0..n, for each k = 0..mu-1 in turn."""
    targets = []
    for a in step_sequence(w).exponents[:w.mu]:
        targets.append(a)
        targets.extend(a[:i] + (a[i] + 1,) + a[i + 1:] for i in range(w.n + 1))
    return targets


def verify_reduction(w: WeightSystem) -> list[str]:
    """Monomial reduction reproduces the basis along the step sequence and
    the exact multiplication rule for f.  The classes of u^a(k) and of
    u^(a(k)+1_i) are reduced in one ``_reduce_walk``, each from omega_0
    along its own coordinate-major path, and compared in integers: a class
    is omega_k iff its state is [denom] at total = k (mod mu), and the sum
    of w_i [u^(a(k)+1_i)] over their lcm denominator, read as an element by
    ``_unscaled``, is f_action(omega_k)."""
    failures = []
    mu, row = w.mu, w.n + 2
    reduced = _reduce_walk(_reduction_targets(w), w)
    for k in range(mu):
        flat, denom, total = reduced[k * row]
        if flat != [denom] or total % mu != k:
            failures.append(f"reduction: class of u^a({k}) != omega_{k}")
    for k in range(mu):
        # the totals of u^(a(k)+1_i) agree mod mu, so equal d is equal (k, m)
        images = reduced[k * row + 1:(k + 1) * row]
        lcm = math.lcm(*(denom for _, denom, _ in images))
        via_monomials = [0] * max(len(flat) for flat, _, _ in images)
        for wi, (flat, denom, _) in zip(w.weights, images):
            factor = wi * (lcm // denom)
            for d, c in enumerate(flat):
                via_monomials[d] += factor * c
        if _unscaled(via_monomials, lcm, images[0][2], mu) != f_action(GElement.basis(mu, k), w):
            failures.append(f"reduction: two routes for f*omega_{k} disagree")
    return failures


def verify_v_order(w: WeightSystem) -> list[str]:
    """Exact order of the derivative of each basis vector, plus the +2 bound,
    in units of 1/D: the image's orders read ``sigma_scaled``, the expectation s(k)*D."""
    failures = []
    mu = w.mu
    spec = spectrum_direct(w)
    d, sigma_scaled = spec.denominator, spec.sigma_scaled
    sigma = [k * d - v for k, v in enumerate(spec.scaled)]
    for k in range(mu):
        image = _derive({(k, 0): 1}, w)
        order = max((sigma_scaled[j] + m * d for j, m in image), default=None)
        shifted = sigma[(k + 1) % mu] + d
        expected = shifted if sigma[k] == 0 else max(sigma[k], shifted)
        if order != expected:
            shown = None if order is None else rational_text(order, d)
            failures.append(f"v_order: tau_dtau(omega_{k}) has order {shown}")
        if order is None or order > sigma[k] + 2 * d:
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
