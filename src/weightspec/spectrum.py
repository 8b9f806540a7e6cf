"""Spectrum of a weight system, by two independent algorithms.

For weights (w_0, ..., w_n) with sum mu, the spectrum is built from the
mu-element multiset obtained as the disjoint union of the arithmetic
ladders {l*mu/w_i : l = 0, ..., w_i - 1}.  Sorting it nondecreasingly
gives the values s(0) <= ... <= s(mu-1); the spectral numbers are
sigma(k) = k - s(k) and the spectral polynomial is prod_k (S + sigma(k)).
Every value is an integer over D = lcm(w): a ``Spectrum`` stores the
integers s(k)*D and each ladder i(k), found by one sort of the integers
l*(D/w_i)*(n+1) + i (by value, then by ladder).  The ints sigma*D and
floor(sigma) are views built on first access and kept on the instance.

The same data is generated by an integer step recursion: starting from
the zero exponent vector, repeatedly increment the coordinate whose
current ratio a_i/w_i is minimal (smallest index on ties).  The recursion
must end at a(mu) = w, and both routes must agree exactly, in values and
in ladders i(k); ``step_sequence`` and the ``spectrum`` suite check this.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .weights import WeightSystem

if TYPE_CHECKING:
    from fractions import Fraction


class IdentityViolation(RuntimeError):
    """An identity the paper states fails on the computed data."""


class StepSequence(NamedTuple):
    """The pairs (exponents[k], indices[k]) of the generating recursion.

    ``exponents[k]`` is the integer vector after k increments (entries sum
    to k); ``indices[k]`` is the coordinate with minimal exponents[k]_i/w_i
    (minimal index on ties), i.e. the coordinate incremented to reach
    ``exponents[k+1]``.  Both run over k = 0..k_max with k_max >= mu.
    """

    exponents: tuple[tuple[int, ...], ...]
    indices: tuple[int, ...]

    @property
    def k_max(self) -> int:
        return len(self.indices) - 1


class _SpectrumFields(NamedTuple):
    denominator: int
    scaled: tuple[int, ...]
    ladders: tuple[int, ...]


class Spectrum(_SpectrumFields):
    """Exact spectral data as integers over ``denominator`` D = lcm(w):
    s(k) = scaled[k] / D, and ``ladders[k]`` is the ladder i(k) that s(k)
    belongs to.  Read-only views give sigma(k) = k - s(k) as the ints
    sigma(k) * D, and floor(sigma(k)); alpha(k) = ceil(s(k)) - s(k) is -scaled[k] % D over D.
    The views are cached in the ``__dict__`` this subclass has, so a
    ``_replace`` copy computes its own."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Spectrum.{name}")

    @property
    def mu(self) -> int:
        return len(self.scaled)

    @cached_property
    def sigma_scaled(self) -> tuple[int, ...]:
        """sigma(k) * D: A_inf, the connection's diagonal and the metric's sigma."""
        d = self.denominator
        return tuple(k * d - v for k, v in enumerate(self.scaled))

    @cached_property
    def floors(self) -> tuple[int, ...]:
        d = self.denominator
        return tuple(x // d for x in self.sigma_scaled)


def _argmin_ratio(a: list[int], weights: tuple[int, ...]) -> int:
    # min index attaining min_j a_j/w_j, compared by integer cross products
    best = 0
    for j in range(1, len(weights)):
        if a[j] * weights[best] < a[best] * weights[j]:
            best = j
    return best


def step_sequence(w: WeightSystem, k_max: int | None = None) -> StepSequence:
    """Run the increment recursion up to ``k_max`` (default mu) steps."""
    weights = w.weights
    mu = w.mu
    if k_max is None:
        k_max = mu
    a = [0] * len(weights)
    exponents = [tuple(a)]
    indices = [0]
    for k in range(k_max):
        a[indices[k]] += 1
        exponents.append(tuple(a))
        indices.append(_argmin_ratio(a, weights))
    # one unit step at a time from 0 to w: each coordinate i passes through
    # 0..w_i-1 once, so k -> (i(k), a(k)_{i(k)}) hits each ladder pair once
    if k_max >= mu and exponents[mu] != weights:
        raise IdentityViolation(f"exponents[{mu}] = {exponents[mu]} != {weights}")
    return StepSequence(tuple(exponents), tuple(indices))


def spectrum_from_steps(seq: StepSequence, w: WeightSystem) -> Spectrum:
    """Spectrum via the recursion: s(k) = mu * a(k)_{i(k)} / w_{i(k)}."""
    mu = w.mu
    if seq.k_max < mu:
        raise ValueError(f"step sequence too short for mu = {mu}")
    d = math.lcm(*w.weights)
    ladders = seq.indices[:mu]
    scaled = tuple(
        seq.exponents[k][i] * (d // w.weights[i]) * mu for k, i in enumerate(ladders)
    )
    return Spectrum(d, scaled, ladders)


@lru_cache(maxsize=4096)
def spectrum_direct(w: WeightSystem) -> Spectrum:
    """Spectrum via the sorted multiset of the ladders {l*mu/w_i}.

    Ties between equal values from different ladders are ordered by the
    ladder index i, which reproduces the recursion's emission order.
    Results are immutable and cached.
    """
    mu, base = w.mu, w.n + 1
    d = math.lcm(*w.weights)
    # l*mu/w_i is l*(D/w_i)*mu over D; with the ladder index as the lowest
    # digit in base n+1, one int per entry carries both sort keys
    keys = sorted(
        l * (d // wi) * base + i for i, wi in enumerate(w.weights) for l in range(wi)
    )
    scaled = tuple(key // base * mu for key in keys)
    ladders = tuple(key % base for key in keys)
    return Spectrum(d, scaled, ladders)


def _root_counts(spec: Spectrum) -> list[tuple[int, int]]:
    # (sigma*D, multiplicity) for each distinct sigma, sorted by sigma
    return sorted(Counter(spec.sigma_scaled).items())


def rational_text(num: int, den: int) -> str:
    """The int num/den (den > 0) in lowest terms as text, "n" or "n/d": the
    ``str`` of the ``Fraction``, for reports and failure messages."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def spectral_polynomial(w: WeightSystem) -> list[tuple[Fraction, int]]:
    """Roots with multiplicities of prod_k (S + sigma(k)), sorted by root.

    The roots are counted as the ints sigma*D over D = lcm(w); the
    ``Fraction`` roots are built here, for the caller."""
    from fractions import Fraction

    spec = spectrum_direct(w)
    return [(Fraction(x, spec.denominator), m) for x, m in _root_counts(spec)]


def check_symmetry(spec: Spectrum, w: WeightSystem | None = None) -> list[str]:
    """Verify the symmetry and range identities; returns violations (empty
    on success):

    * s(k) + s(mu+n-k) = mu for k = n+1..mu-1,
    * sigma(k+1) <= sigma(k) + 1, reading sigma(mu) as 0,
    * 0 <= sigma(k) <= n with sigma(k) = 0 only at k = 0 and = n only at k = n,
    * sigma(k) + sigma(n-k) = n for k = 0..n.

    The dimension is read off the spectrum itself (the value 0 occurs with
    multiplicity exactly n+1); passing ``w`` just cross-checks it.
    """
    mu = spec.mu
    n = spec.scaled.count(0) - 1
    if w is not None and (w.mu, w.n) != (mu, n):
        return [f"dimension mismatch: spectrum has (mu, n) = ({mu}, {n})"]
    d, s, sigma = spec.denominator, spec.scaled, spec.sigma_scaled
    bad: list[str] = []
    for k in range(n + 1, mu):
        if s[k] + s[mu + n - k] != mu * d:
            bad.append(f"sym: s({k}) + s({mu + n - k}) = {rational_text(s[k] + s[mu + n - k], d)} != {mu}")
    for k in range(mu):
        nxt = sigma[k + 1] if k + 1 < mu else 0
        if nxt > sigma[k] + d:
            bad.append(f"alphaleq: sigma({k + 1}) = {rational_text(nxt, d)} > sigma({k}) + 1")
    for k in range(mu):
        if not 0 <= sigma[k] <= n * d:
            bad.append(f"range: sigma({k}) = {rational_text(sigma[k], d)} outside [0, {n}]")
        if sigma[k] == 0 and k != 0:
            bad.append(f"range: sigma({k}) = 0 at k != 0")
        if sigma[k] == n * d and k != n:
            bad.append(f"range: sigma({k}) = {n} at k != {n}")
    for k in range(n + 1):
        if sigma[k] + sigma[n - k] != n * d:
            bad.append(f"low-range sym: sigma({k}) + sigma({n - k}) != {n}")
    return bad
