"""The connection module in ``Fraction`` arithmetic, kept as a test oracle.

An element is a plain dict (k, m) -> nonzero Fraction, the coefficient of
tau^m * omega_k.  The derivative, the Bernstein product, the Birkhoff
split and the V-order below are the rational formulas the integer
kernel ``gaussmanin._derive`` replaced, with sigma(k) = k - s(k) built
here from ``Spectrum.scaled``, not read from the library's shared
``sigma_scaled``; the three suites restate the ``verify`` suites on them
with the same messages.  ``product_form`` reduces a monomial class by a
route that shares no code with ``gaussmanin``'s step.  Tests plant the
same fault here and in ``gaussmanin`` by replacing one line of source in
each.
"""

from __future__ import annotations

from fractions import Fraction

from weightspec.frobenius import initial_data
from weightspec.spectrum import IdentityViolation, spectrum_direct


def _add_term(out: dict, key: tuple[int, int], c) -> None:
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def spectral_numbers(w) -> tuple[Fraction, ...]:
    """sigma(k) = k - s(k) as Fractions, from the values s(k)."""
    spec = spectrum_direct(w)
    return tuple(k - Fraction(v, spec.denominator) for k, v in enumerate(spec.scaled))


def tau_dtau(coeffs: dict, w) -> dict:
    mu = w.mu
    sigma = spectral_numbers(w)
    out: dict = {}
    for (k, m), c in coeffs.items():
        # Leibniz: tau d/dtau on the coefficient, then the basis action
        _add_term(out, (k, m), (m - sigma[k]) * c)
        _add_term(out, ((k + 1) % mu, m + 1), -mu * c)
    return out


def bernstein_product(w) -> dict:
    """prod_k [ -(1/mu) (tau_dtau - s(k)) ] on omega_0, factor k = 0 first."""
    spec = spectrum_direct(w)
    acc = {(0, 0): Fraction(1)}
    for v in spec.scaled:
        image = tau_dtau(acc, w)
        for key, c in acc.items():
            _add_term(image, key, -Fraction(v, spec.denominator) * c)
        acc = {key: c / -w.mu for key, c in image.items()}
    return acc


def product_form(a, w) -> dict:
    """(-1/mu)^N tau^(-N) prod_j prod_{r < a_j} (tau_dtau - mu*r/w_j) omega_0
    with N = sum(a), for exponents a >= 0 as given: the class of u^a with
    the tau^(-1) of every unit step moved to the left, where each factor
    is a polynomial in tau_dtau, so the order of the steps is irrelevant."""
    acc = {(0, 0): Fraction(1)}
    for a_j, w_j in zip(a, w.weights):
        for r in range(a_j):
            image = tau_dtau(acc, w)
            for key, c in acc.items():
                _add_term(image, key, -Fraction(w.mu * r, w_j) * c)
            acc = image
    n = sum(a)
    return {(k, m - n): c * Fraction(-1, w.mu) ** n for (k, m), c in acc.items()}


def birkhoff_split(w) -> tuple[dict, dict]:
    """A0 and A_inf from f * omega_k = -tau^(-1) tau_dtau(omega_k)."""
    a0, ainf = {}, {}
    for k in range(w.mu):
        for (j, m), c in tau_dtau({(k, 0): Fraction(1)}, w).items():
            if m == 1:
                a0[j, k] = -c
            elif m == 0:
                ainf[j, k] = -c
            else:
                raise IdentityViolation(f"tau^{m - 1} term in theta^2 d_theta omega_{k}")
    return a0, ainf


def v_order(coeffs: dict, w):
    sigma = spectral_numbers(w)
    return max((sigma[k] + m for k, m in coeffs), default=None)


def verify_bernstein(w) -> list[str]:
    if bernstein_product(w) != {(0, w.mu): 1}:
        return ["bernstein: product on omega_0 != tau^mu * omega_0"]
    return []


def verify_birkhoff(w) -> list[str]:
    failures = []
    data = initial_data(w)
    a0, ainf = birkhoff_split(w)
    if a0 != data.a0_entries:
        failures.append("birkhoff: A0 is not mu * cyclic shift")
    if ainf != {key: Fraction(s, data.denominator) for key, s in data.a_inf_entries.items()}:
        failures.append("birkhoff: A_inf is not diag(sigma)")
    return failures


def verify_v_order(w) -> list[str]:
    failures = []
    mu = w.mu
    sigma = spectral_numbers(w)
    for k in range(mu):
        order = v_order(tau_dtau({(k, 0): Fraction(1)}, w), w)
        shifted = sigma[(k + 1) % mu] + 1
        expected = shifted if sigma[k] == 0 else max(sigma[k], shifted)
        if order != expected:
            failures.append(f"v_order: tau_dtau(omega_{k}) has order {order}")
        if order is None or order > sigma[k] + 2:
            failures.append(f"v_order: bound exceeded at k = {k}")
    return failures


SUITES = {
    "bernstein": verify_bernstein,
    "birkhoff": verify_birkhoff,
    "v_order": verify_v_order,
}
