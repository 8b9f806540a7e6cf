"""Reflexive weight systems and their complete enumeration per dimension.

A weight system is reflexive when every weight divides mu, equivalently
when the whole spectrum is integral.  Writing q_i = mu / w_i turns the
condition into a unit-fraction decomposition sum_i 1/q_i = 1, so the
systems of a given dimension are enumerated completely by the classical
bounded recursion over nondecreasing q tuples; weights are recovered as
lcm(q)/q_i.  The recursion runs in integers: the part of 1 still to be
written as unit fractions is the lowest-terms pair (num, den).  Distinct
q tuples give distinct weights, since the weights give back mu and
q_i = mu/w_i, so the enumeration needs no de-duplication.

The last two unit fractions are solved inside the loop rather than by one
more level of recursion: for each candidate q the rest num/den - 1/q is
1/r exactly when num*q - den divides den*q, and then r >= q.  The search
yields its tuples one at a time, so no level of it holds a list.  The sorted
records of each dimension are built once per process and kept as a tuple
by a cache bounded to DEFAULT_MAX_DIMENSION entries (dimensions 1..5
together hold about 1.6 MB); ``enumerate_reflexive`` checks n and its bound
(both exactly ints) before it looks at the cache and returns a new list on each call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mul
from typing import Iterator, NamedTuple

from .spectrum import spectrum_direct
from .weights import WeightSystem

DEFAULT_MAX_DIMENSION = 5


class DimensionTooLarge(ValueError):
    """Requested dimension or bound is not exactly an int, or the dimension
    is below 1 or exceeds the bound."""


class InconsistentRecord(ValueError):
    """A record whose q does not satisfy q_i * w_i = mu, one q_i per weight,
    and sum 1/q_i = 1."""


class _ReflexiveFields(NamedTuple):
    weights: WeightSystem
    mu: int
    q: tuple[int, ...]


class ReflexiveRecord(_ReflexiveFields):
    __slots__ = ()

    def __new__(cls, weights: WeightSystem, mu: int, q: tuple[int, ...]):
        w = weights.weights
        # given q_i * w_i = mu, sum 1/q_i = sum w_i / mu is 1 iff sum w_i = mu
        if len(q) != len(w) or list(map(mul, q, w)) != [mu] * len(w) or weights.mu != mu:
            raise InconsistentRecord(f"q = {q} is not mu / w_i with sum 1/q_i = 1")
        return super().__new__(cls, weights, mu, q)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check q there too
        return cls(*iterable)


def is_reflexive(w: WeightSystem) -> bool:
    """True iff every weight divides mu (iff the spectrum is integral)."""
    return all(w.mu % wi == 0 for wi in w.weights)


def has_integral_spectrum(w: WeightSystem) -> bool:
    spec = spectrum_direct(w)
    return all(v % spec.denominator == 0 for v in spec.scaled)


def _unit_fraction_tuples(
    terms: int, minimum: int, num: int, den: int, prefix: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Yield every ``prefix`` + (q_1, ..., q_terms) with minimum <= q_1 <=
    ... <= q_terms and sum_j 1/q_j = num/den, a fraction in lowest terms,
    for terms >= 2, in increasing order of (q_1, ..., q_terms)."""
    # 1/q <= num/den and q <= terms*den/num keep the search finite
    for q in range(max(minimum, -(-den // num)), terms * den // num + 1):
        rest_num, rest_den = num * q - den, den * q
        if rest_num <= 0:
            continue
        if terms == 2:
            # 1/r = rest_num / rest_den; r >= q since q <= 2*den/num
            r, rem = divmod(rest_den, rest_num)
            if not rem:
                yield (*prefix, q, r)
        else:
            g = math.gcd(rest_num, rest_den)
            yield from _unit_fraction_tuples(
                terms - 1, q, rest_num // g, rest_den // g, (*prefix, q)
            )


def _record_from_q(q: tuple[int, ...]) -> ReflexiveRecord:
    # sum 1/q_i = 1 makes mu = sum lcm(q)/q_i = lcm(q), and the weights have
    # gcd 1: a prime's top power in q exactly divides some q_i.  q is
    # nondecreasing, so reversed it gives the weights in ascending order.
    mu = math.lcm(*q)
    q = q[::-1]
    return ReflexiveRecord(WeightSystem(tuple(map(floordiv, repeat(mu), q))), mu, q)


@lru_cache(maxsize=DEFAULT_MAX_DIMENSION)
def _sorted_records(n: int) -> tuple[ReflexiveRecord, ...]:
    records = [_record_from_q(q) for q in _unit_fraction_tuples(n + 1, 2, 1, 1, ())]
    return tuple(sorted(records, key=lambda r: (r.mu, r.weights.weights)))


def enumerate_reflexive(
    n: int, *, max_dimension: int = DEFAULT_MAX_DIMENSION
) -> list[ReflexiveRecord]:
    """All reflexive weight systems of dimension n (n+1 weights), complete
    and duplicate-free, sorted by (mu, weights); a new list on each call."""
    if type(n) is not int or type(max_dimension) is not int:  # True would hit the n = 1 entry
        raise DimensionTooLarge(f"dimension {n!r} and bound {max_dimension!r} must be ints")
    if n < 1:
        raise DimensionTooLarge(f"dimension must be >= 1, got {n}")
    if n > max_dimension:
        raise DimensionTooLarge(
            f"dimension {n} exceeds the enumeration bound {max_dimension}"
        )
    return list(_sorted_records(n))
