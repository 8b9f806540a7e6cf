"""Initial data of the associated semisimple Frobenius structure.

Stored in structured form: A0 is mu times the cyclic shift k -> k+1 mod
mu, A_inf the diagonal of the ints sigma(k) * D over D = lcm(w), the 0/1
metric g the involution ``partner`` pairing k with n-k (k <= n) or mu+n-k
(k >= n+1), and the unit is basis index 0.  The residue pairing is g
itself, so it has no builder of its own: ``FrobeniusInitialData.metric``
is the one dense form of both, built only on access, for the JSON report
and test oracles.  The identities are checked in O(mu) on ``partner`` and
``sigma_scaled``.  The characteristic polynomial of A0 is T^mu - mu^mu,
so its eigenvalues are the mu critical values of the defining linear form.
"""

from __future__ import annotations

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


def _dense(entries: dict[tuple[int, int], int], mu: int) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * mu for _ in range(mu)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return tuple(tuple(row) for row in rows)


class FrobeniusInitialData(NamedTuple):
    """A0 = mu * cyclic shift, A_inf = diag(sigma), g = permutation matrix
    of ``partner``; ``sigma_scaled[k]`` is sigma(k) * ``denominator``.
    ``*_entries`` map (row, column) to nonzero ints, A_inf's over
    ``denominator``; ``a0`` and ``metric`` build dense tuples on access."""

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

    @property
    def a0(self) -> tuple[tuple[int, ...], ...]:
        return _dense(self.a0_entries, self.mu)

    @property
    def metric(self) -> tuple[tuple[int, ...], ...]:
        """g, which is also the residue pairing: 1 at (k, partner[k]), in
        units of the normalized value at (0, n) times tau^(-n), else 0."""
        entries = {(k, p): 1 for k, p in enumerate(self.partner)}
        return _dense(entries, self.mu)

    def charpoly(self) -> list[int]:
        """det(T*I - A0), leading coefficient first.  A0 is monomial, so
        this is the product over the cycles C of its permutation of
        (T^|C| - product of the entries on C)."""
        image = {k: (j, c) for (j, k), c in self.a0_entries.items()}
        poly = [1]
        while image:
            start, (k, product) = image.popitem()
            length = 1
            while k != start:
                k, c = image.pop(k)
                product, length = product * c, length + 1
            pad = [0] * length
            poly = [a - product * b for a, b in zip(poly + pad, pad + poly)]
        return poly


def metric_partner(k: int, w: WeightSystem) -> int:
    """The unique index paired with k by the metric."""
    _check_index(k, w)
    return w.n - k if k <= w.n else w.mu + w.n - k


def metric_violations(n: int, sigma: tuple, partner: tuple[int, ...]) -> list[str]:
    """The metric identities in O(mu), one message per failing index: g is
    symmetric and involutive iff partner[partner[k]] = k, and
    g*A_inf + A_inf^T*g = n*g iff sigma[k] + sigma[partner[k]] = n, with n
    and sigma in one unit (1/D for the ints sigma(k) * D)."""
    bad = []
    for k, p in enumerate(partner):
        if not 0 <= p < len(partner) or partner[p] != k:
            bad.append(f"g is not a symmetric involution at k = {k}")
        elif sigma[k] + sigma[p] != n:
            bad.append(f"g*A_inf + A_inf^T*g != n*g at k = {k}")
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
