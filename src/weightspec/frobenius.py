"""Initial data of the associated semisimple Frobenius structure.

Stored in structured form: A0 is mu times the cyclic shift k -> k+1 mod
mu, A_inf the diagonal of the ints sigma(k) * D over D = lcm(w), the 0/1
metric g the involution ``partner`` pairing k with n-k (k <= n) or mu+n-k
(k >= n+1), and the unit is basis index 0.  The residue pairing is g
itself, so it has no builder of its own.  No dense mu x mu form is kept:
the ``frobenius`` report writes the rows of A0 and g from ``mu`` and
``partner``.  The identities are checked in O(mu) on ``partner`` and
``sigma_scaled``.  The characteristic polynomial of A0 is T^mu - mu^mu,
so its eigenvalues are the mu critical values of the defining linear form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .spectrum import IdentityViolation, spectrum_direct
from .weights import WeightSystem


class IndexOutOfRange(IndexError):
    """Basis index that is not an int in 0..mu-1."""


def _check_index(k: int, w: WeightSystem) -> None:
    """Raise :class:`IndexOutOfRange` unless k is exactly an int (not a
    bool, float or Fraction) in 0..mu-1."""
    if type(k) is not int or not 0 <= k < w.mu:
        raise IndexOutOfRange(f"index {k!r} is not an int in 0..{w.mu - 1}")


class FrobeniusInitialData(NamedTuple):
    """A0 = mu * cyclic shift, A_inf = diag(sigma), g = permutation matrix
    of ``partner``; ``sigma_scaled[k]`` is sigma(k) * ``denominator``.
    ``*_entries`` map (row, column) to nonzero ints, A_inf's over
    ``denominator``; g, which is also the residue pairing, is 1 at
    (k, partner[k]) in units of the normalized value at (0, n) times
    tau^(-n), else 0."""

    denominator: int
    sigma_scaled: tuple[int, ...]
    partner: tuple[int, ...]
    unit_index: int

    @property
    def mu(self) -> int:
        return len(self.sigma_scaled)

    @property
    def a0_entries(self) -> dict[tuple[int, int], int]:
        return {((k + 1) % self.mu, k): self.mu for k in range(self.mu)}

    @property
    def a_inf_entries(self) -> dict[tuple[int, int], int]:
        return {(k, k): s for k, s in enumerate(self.sigma_scaled) if s}

    def charpoly(self) -> list[int]:
        """det(T*I - A0), leading coefficient first.  A0 is monomial, so
        this is the product over the cycles C of its permutation of
        (T^|C| - prod c^m), over the entries c of C, m the times c occurs."""
        image = {k: (j, c) for (j, k), c in self.a0_entries.items()}
        poly = [1]
        while image:
            start, (k, c) = image.popitem()
            counts = {c: 1}
            while k != start:
                k, c = image.pop(k)
                counts[c] = counts.get(c, 0) + 1
            product = math.prod(pow(c, m) for c, m in counts.items())
            pad = [0] * sum(counts.values())
            poly = [a - product * b for a, b in zip(poly + pad, pad + poly)]
        return poly


def metric_partner(k: int, w: WeightSystem) -> int:
    """The unique index paired with k by the metric."""
    _check_index(k, w)
    return w.n - k if k <= w.n else w.mu + w.n - k


def metric_violations(n: int, sigma: tuple, partner: tuple[int, ...]) -> list[str]:
    """The metric identities in O(mu), one message per failing index: g is a
    symmetric involution iff partner[partner[k]] = k, g*A_inf + A_inf^T*g = n*g
    iff sigma[k] + sigma[partner[k]] = n (n, sigma in one unit), and g is
    invariant under A0 iff partner[k + 1] = partner[k] - 1 (mod mu)."""
    bad, mu = [], len(partner)
    for k, p in enumerate(partner):
        if not 0 <= p < mu or partner[p] != k:
            bad.append(f"g is not a symmetric involution at k = {k}")
        elif sigma[k] + sigma[p] != n:
            bad.append(f"g*A_inf + A_inf^T*g != n*g at k = {k}")
        elif partner[(k + 1) % mu] != (p - 1) % mu:
            bad.append(f"g is not invariant under the product at k = {k}")
    return bad


def initial_data(w: WeightSystem) -> FrobeniusInitialData:
    """Construct (A0, A_inf, g, unit index); raise
    :class:`IdentityViolation` if the metric identities fail."""
    spec = spectrum_direct(w)
    partner = tuple(metric_partner(k, w) for k in range(w.mu))
    bad = metric_violations(w.n * spec.denominator, spec.sigma_scaled, partner)
    if bad:
        raise IdentityViolation(bad[0])
    return FrobeniusInitialData(spec.denominator, spec.sigma_scaled, partner, 0)


def charpoly_A0(w: WeightSystem) -> list[int]:
    """Characteristic polynomial of A0, leading coefficient first
    (mu + 1 exact coefficients); equals T^mu - mu^mu."""
    return initial_data(w).charpoly()
