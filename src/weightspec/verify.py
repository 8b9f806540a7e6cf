"""Aggregated identity suites for a single weight system.

Each suite returns a list of human-readable failure strings (empty on
success), so the CLI, CI and the acceptance tests share one entry point.
A suite reads each fact through ``built``, so a pass builds it once; an
:class:`IdentityViolation` its builder raises fails each suite reading it.
All comparisons are exact and run on structured data (sparse entries, the
metric involution, chains of the nilpotent shift), never on dense matrices;
the filtration identities read one level per index, for every p at once.
The connection suites run the integer kernels of ``gaussmanin`` on the
pass's one step record ``_step_data`` and compare numerators, so no suite
builds a ``GElement``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from .filtrations import eigenvalue_classes, jordan_blocks, saito_filtration
from .frobenius import initial_data, metric_partner
from .gaussmanin import _add_term, _derive, _step, _step_data
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


def _steps(w: WeightSystem):
    """The recursion to 2*mu: periodicity reads past mu, the others to mu."""
    return step_sequence(w, k_max=2 * w.mu)


def verify_spectrum(w: WeightSystem, built: Callable) -> list[str]:
    """Two-route equality, canonical tie order, symmetry and range."""
    failures = []
    by_steps = spectrum_from_steps(built(_steps), w)
    direct = built(spectrum_direct)
    if by_steps.scaled != direct.scaled:
        failures.append("spectrum: recursion and multiset merge disagree")
    # with equal values, equal ladders also give equal rungs l = s*w_i/mu
    if by_steps.ladders != direct.ladders:
        failures.append("spectrum: canonical tie order violated")
    failures.extend(check_symmetry(direct, w))
    return failures


def verify_periodicity(w: WeightSystem, built: Callable) -> list[str]:
    """Extended recursion: i(k+mu) = i(k) and the exponent gains one w."""
    failures = []
    mu = w.mu
    seq = built(_steps)
    for k in range(mu):
        if seq.indices[k + mu] != seq.indices[k]:
            failures.append(f"periodicity: i({k + mu}) != i({k})")
            continue
        i = seq.indices[k]
        if seq.exponents[k + mu][i] != w.weights[i] + seq.exponents[k][i]:
            failures.append(f"periodicity: exponent at k = {k} off")
    return failures


def verify_bernstein(w: WeightSystem, built: Callable) -> list[str]:
    """prod_{k=0}^{mu-1} [ -(1/mu) (tau_dtau - s(k)) ] on omega_0, factor
    k = 0 first, is tau^mu * omega_0.  The product runs on the numerators
    over one denominator: each factor multiplies it by mu * D, and then both
    are divided by their gcd, so the integers stay the size of the result.
    s(k) comes from the spectrum, the derivative from the step record."""
    data = built(_step_data)
    mu, _, d, _ = data
    nums, den = {(0, 0): 1}, 1
    for v in built(spectrum_direct).scaled:
        # (v * x - tau_dtau x) over den * mu * D, with s(k) = v / D
        image = _derive(nums, data)
        for key, c in nums.items():
            _add_term(image, key, -v * c)
        den *= mu * d
        g = math.gcd(den, *image.values())
        nums, den = {key: -c // g for key, c in image.items()}, den // g
    if (nums, den) != ({(0, mu): 1}, 1):
        return ["bernstein: product on omega_0 != tau^mu * omega_0"]
    return []


def verify_birkhoff(w: WeightSystem, built: Callable) -> list[str]:
    """Split theta^2 d_theta omega_k = -tau^(-1) tau_dtau(omega_k), the
    derivative read from the step record, into A0 (its tau^0 part) and
    A_inf (its theta part), and compare both with ``initial_data``'s
    entries, in units of 1/D, never floored; another tau-power raises."""
    failures = []
    data = built(initial_data)
    a0, ainf, step_data = {}, {}, built(_step_data)
    for k in range(w.mu):
        # tau_dtau(omega_k) over D; f shifts each tau-power down by one
        for (j, m), c in _derive({(k, 0): 1}, step_data).items():
            if m == 1:
                a0[j, k] = -c
            elif m == 0:
                ainf[j, k] = -c
            else:
                raise IdentityViolation(f"tau^{m - 1} term in theta^2 d_theta omega_{k}")
    if a0 != {key: c * data.denominator for key, c in data.a0_entries.items()}:
        failures.append("birkhoff: A0 is not mu * cyclic shift")
    if ainf != data.a_inf_entries:
        failures.append("birkhoff: A_inf is not diag(sigma)")
    return failures


def verify_charpoly(w: WeightSystem, built: Callable) -> list[str]:
    mu = w.mu
    expected = [1] + [0] * (mu - 1) + [-(mu**mu)]
    if built(initial_data).charpoly() != expected:
        return ["charpoly: det(T*I - A0) != T^mu - mu^mu"]
    return []


def verify_pairing(w: WeightSystem, built: Callable) -> list[str]:
    """The metric identities, checked where ``initial_data`` builds g: its
    first violation, raised as :class:`IdentityViolation`, becomes this
    suite's one failure through ``verify_all``."""
    built(initial_data)
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


def verify_jordan(w: WeightSystem, built: Callable) -> list[str]:
    failures = []
    data = built(jordan_blocks)
    # block multiset must match value multiplicities of the direct oracle
    values = built(spectrum_direct).scaled
    if data.size_multiset() != Counter(Counter(values).values()):
        failures.append("jordan: block sizes != value multiplicities")
    classes = built(eigenvalue_classes)
    for alpha, blocks in data.classes().items():  # both keyed by alpha*D
        largest = max(b.size for b in blocks)
        chain = _longest_chain(classes.get(alpha, ()), values)
        if chain != largest:
            alpha = rational_text(alpha, data.denominator)
            failures.append(f"jordan: N has index {chain} != {largest} on class {alpha}")
    return failures


def _differing_levels(thresholds, last: int) -> list[int]:
    """The levels p in 0..last where two threshold sets differ: an index
    with thresholds (a, b) is in the one for p >= a and in the other for
    p >= b, or in each below them, so the sets differ for p between a and b."""
    levels = set()
    for a, b in thresholds:
        levels.update(range(max(min(a, b), 0), min(max(a, b), last + 1)))
    return sorted(levels)


def verify_saito(w: WeightSystem, built: Callable) -> list[str]:
    """On the levels of ``saito_filtration``, every p at once: conj maps
    {k : floors[k] + w_level[k] <= 2n - p} onto H^p = {k : floors[k] >= p}
    (the opposite filtration), N raises the level, conj is an involution
    that flips values and pairs blocks, and all-ones weights have H^p = M_(n-2p)."""
    failures = []
    mu, n = w.mu, w.n
    report = built(saito_filtration)
    floors, nu, conj = report.floors, report.nu, report.conj
    spec = built(spectrum_direct)
    values, top = spec.scaled, mu * spec.denominator
    image_end = [0] * mu  # j is in the image for p < image_end[j]
    for k, (f, level) in enumerate(zip(floors, report.w_level)):
        image_end[conj[k]] = max(image_end[conj[k]], 2 * n + 1 - f - level)
    for p in _differing_levels(zip(image_end, [f + 1 for f in floors]), n + 1):
        failures.append(f"saito: opposite-filtration identity fails at p = {p}")
    # nilpotent operator maps H^p into H^(p+1): N sends k to k+1 within a
    # block, and fails at p when floor(sigma(k+1)) <= p <= floor(sigma(k))
    links = [k for k in range(mu - 1) if values[k + 1] == values[k]]
    for p in range(n + 1):
        for k in links:
            if floors[k + 1] <= p <= floors[k]:
                failures.append(f"saito: N does not raise level at k = {k}, p = {p}")
    for k in range(mu):
        if conj[conj[k]] != k:
            failures.append(f"saito: conjugation not involutive at k = {k}")
        if k > n and values[conj[k]] != top - values[k]:
            failures.append(f"saito: value of conjugate wrong at k = {k}")
    # conjugation pairs whole blocks
    blocks = built(jordan_blocks).blocks
    starts = {b.start: b for b in blocks}
    for block in blocks:
        image = {conj[k] for k in block.indices}
        partner = starts.get(min(image))
        if partner is None or image != set(partner.indices) or partner.size != block.size:
            failures.append(f"saito: conjugate of block at {block.start} is not a block")
    if all(wi == 1 for wi in w.weights):
        # H^p = M_(n-2p): floor(sigma(k)) >= p exactly where nu(k) <= n - 2p
        ends = [(f + 1, (n - v) // 2 + 1) for f, v in zip(floors, nu)]
        for p in _differing_levels(ends, n + 1):
            failures.append(f"saito: Hodge-Tate identity fails at p = {p}")
    return failures


def verify_orthogonality(w: WeightSystem, built: Callable) -> list[str]:
    """For each class alpha (keyed alpha*D), every p at once: the metric
    complement of {k in alpha : floors[k] >= p} in the partner class
    (1 - alpha; 0 for alpha = 0) is {j : floors[j] >= n - p}, n + 1 - p on
    the zero class.  So j enters the complement at p = floors[k] + 1 for
    its partner k = metric_partner(j), or at 0 when k is not in alpha."""
    failures = []
    spec = built(spectrum_direct)
    d, floors, n = spec.denominator, spec.floors, w.n
    classes = built(eigenvalue_classes)
    for key in sorted(classes):  # alpha*D; 0 is always a class
        members = set(classes[key])
        partners = [(j, metric_partner(j, w)) for j in classes.get(-key % d, ())]
        ends = [(floors[k] + 1 if k in members else 0, n + (key == 0) - floors[j]) for j, k in partners]
        for p in _differing_levels(ends, n + 1):
            failures.append(f"orthogonality: fails at alpha = {rational_text(key, d)}, p = {p}")
    return failures


def verify_reflexivity(w: WeightSystem, built: Callable) -> list[str]:
    if is_reflexive(w) != has_integral_spectrum(w):
        return ["reflexive: divisibility and spectrum integrality disagree"]
    return []


def verify_reduction(w: WeightSystem, built: Callable) -> list[str]:
    """Monomial reduction reproduces the basis along the step sequence and
    the exact multiplication rule for f, by induction on k.  omega_k is the
    ``_step`` state [1] at total k, and the class of u^(a(k)+1_i) is the one
    step from it in coordinate i.  u^a(0) = 1 is omega_0, and u^a(k+1) is
    omega_{k+1} iff a(k+1) = a(k) + 1_i(k) and that step's state is [1].  As
    every state scales entry d by (D*mu)^d, the w_i * flat_i add entry by
    entry to the state of f * omega_k, the Birkhoff normal form
    A0 + theta * A_inf on omega_k: mu * omega_{k+1} + sigma(k) * tau^(-1) *
    omega_k is [mu, mu * sigma(k) * D] at total k + 1, with sigma(k) * D
    read from the step record ``_step_data``, the diagonal ``initial_data``
    stores as A_inf.

    The step itself is certified against the operator
    -(1/mu) tau^(-1) (tau_dtau + L) built from ``_derive``, on the one-term
    states tau^(-d) * omega_k for every k and j, at d = 0, 1 and at
    b_j = a(k)_j, a(k)_j + 1: the step is linear in the state and affine in
    L and in d, so two values of each are checked."""
    failures = []
    data = built(_step_data)
    mu, rungs, scale, sigma = data
    exponents, indices = built(_steps)
    reached = not any(exponents[0])
    for k in range(mu):
        a = exponents[k]
        if not reached:
            failures.append(f"reduction: class of u^a({k}) != omega_{k}")
        states = [_step([1], i, a_i, k, data) for i, a_i in enumerate(a)]
        i = indices[k]
        reached = states[i] == [1] and exponents[k + 1] == a[:i] + (a[i] + 1,) + a[i + 1:]
        # the states share total k + 1, so equal d is equal (k, m)
        via_monomials = [0] * max(2, *map(len, states))
        for wi, flat in zip(w.weights, states):
            for d, c in enumerate(flat):
                via_monomials[d] += wi * c
        if via_monomials != [mu, mu * sigma[k]]:
            failures.append(f"reduction: two routes for f*omega_{k} disagree")
        for d in (0, 1):
            # the operator on the state tau^(-d) * omega_k: over D, its shift
            # term -mu*D stays at d as 1, and its diagonal term plus L*D,
            # L*D = (k + d)*D - b*rung, moves to d + 1 with the sign flipped
            head = [0] * d + [1]
            image = _derive({(k, -d): 1}, data)
            certified = image.pop(((k + 1) % mu, 1 - d), 0) == -mu * scale
            diagonal = image.pop((k, -d), 0)
            certified = certified and not image
            for j, (a_j, rung) in enumerate(zip(a, rungs)):
                for b in (a_j, a_j + 1):
                    step = states[j] if d == 0 and b == a_j else _step(head, j, b, k + d, data)
                    moved = b * rung - (k + d) * scale - diagonal
                    certified = certified and step == (head + [moved] if moved else head)
            if not certified:
                failures.append(
                    f"reduction: step at depth {d} of omega_{k} is not -(1/mu) tau^(-1) (tau_dtau + L)"
                )
    return failures


def verify_v_order(w: WeightSystem, built: Callable) -> list[str]:
    """Exact order of the derivative of each basis vector, plus the +2 bound,
    in units of 1/D: the image's orders and the expectation read sigma(k) * D
    from the step record ``_step_data``, as the derivative does."""
    failures = []
    data = built(_step_data)
    mu, _, d, sigma = data
    for k in range(mu):
        image = _derive({(k, 0): 1}, data)
        order = max((sigma[j] + m * d for j, m in image), default=None)
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
    """Run the named suites (``None``: all), each once in first-seen order,
    and map suite -> failures; a suite that raises :class:`IdentityViolation`
    fails with its message.  ``built(build)`` is ``build(w)``, made once per call."""
    chosen = list(ALL_SUITES) if suites is None else list(dict.fromkeys(suites))
    unknown = [name for name in chosen if name not in ALL_SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    memo = {}

    def built(build):
        return memo[build] if build in memo else memo.setdefault(build, build(w))
    results = {}
    for name in chosen:
        try:
            results[name] = ALL_SUITES[name](w, built)
        except IdentityViolation as exc:
            results[name] = [f"{name}: {exc}"]
    return results
