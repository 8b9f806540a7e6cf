"""Reflexive weight systems and their complete enumeration per dimension.

A weight system is reflexive when every weight divides mu, equivalently
when the whole spectrum is integral.  Writing q_i = mu / w_i turns the
condition into a unit-fraction decomposition sum_i 1/q_i = 1, so the
systems of a given dimension are enumerated completely by the classical
bounded recursion over nondecreasing q tuples; weights are recovered as
lcm(q)/q_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spectrum import spectrum_direct
from .weights import WeightSystem, make_weight_system

DEFAULT_MAX_DIMENSION = 5


class DimensionTooLarge(ValueError):
    """Requested dimension exceeds the enumeration bound."""


class InconsistentRecord(ValueError):
    """A record whose q does not satisfy q_i * w_i = mu and sum 1/q_i = 1."""


@dataclass(frozen=True)
class ReflexiveRecord:
    weights: WeightSystem
    mu: int
    q: tuple[int, ...]

    def __post_init__(self):
        divides = all(qi * wi == self.mu for qi, wi in zip(self.q, self.weights.weights))
        if not divides or sum(Fraction(1, qi) for qi in self.q) != 1:
            raise InconsistentRecord(f"q = {self.q} is not mu / w_i with sum 1/q_i = 1")


def is_reflexive(w: WeightSystem) -> bool:
    """True iff every weight divides mu (iff the spectrum is integral)."""
    return all(w.mu % wi == 0 for wi in w.weights)


def has_integral_spectrum(w: WeightSystem) -> bool:
    return all(s.denominator == 1 for s in spectrum_direct(w).values)


def _unit_fraction_tuples(
    terms: int, minimum: int, remaining: Fraction, prefix: list[int]
) -> list[tuple[int, ...]]:
    if terms == 1:
        if remaining.numerator == 1 and remaining.denominator >= minimum:
            return [tuple(prefix + [remaining.denominator])]
        return []
    found = []
    # 1/q <= remaining and q <= terms/remaining keep the search finite
    low = max(minimum, math.ceil(Fraction(1) / remaining))
    high = math.floor(Fraction(terms) / remaining)
    for q in range(low, high + 1):
        rest = remaining - Fraction(1, q)
        if rest <= 0:
            continue
        found.extend(_unit_fraction_tuples(terms - 1, q, rest, prefix + [q]))
    return found


def _record_from_q(q: tuple[int, ...]) -> ReflexiveRecord:
    level = math.lcm(*q)
    raw = [level // qi for qi in q]
    g = math.gcd(*raw)
    system = make_weight_system([r // g for r in raw])
    mu = system.mu
    return ReflexiveRecord(
        system, mu, tuple(mu // wi for wi in system.weights)
    )


def enumerate_reflexive(
    n: int, *, max_dimension: int = DEFAULT_MAX_DIMENSION
) -> list[ReflexiveRecord]:
    """All reflexive weight systems of dimension n (n+1 weights), complete
    and duplicate-free, sorted by (mu, weights)."""
    if n < 1:
        raise DimensionTooLarge(f"dimension must be >= 1, got {n}")
    if n > max_dimension:
        raise DimensionTooLarge(
            f"dimension {n} exceeds the enumeration bound {max_dimension}"
        )
    records = {}
    for q in _unit_fraction_tuples(n + 1, 2, Fraction(1), []):
        record = _record_from_q(q)
        records[record.weights.weights] = record
    return sorted(
        records.values(), key=lambda r: (r.mu, r.weights.weights)
    )


def table_compare(
    n: int, expected: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Set difference both ways between the enumeration for dimension n and
    an expected list of weight tuples: (missing-from-enumeration,
    extra-beyond-expected)."""
    enumerated = {r.weights.weights for r in enumerate_reflexive(n)}
    wanted = {tuple(sorted(row)) for row in expected}
    missing = sorted(wanted - enumerated)
    extra = sorted(enumerated - wanted)
    return missing, extra
