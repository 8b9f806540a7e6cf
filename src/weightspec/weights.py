"""Validation and canonicalization of positive weight systems.

A weight system is a tuple of positive integers (w_0, ..., w_n) with
gcd 1.  Everything downstream (spectra, connection matrices, filtrations)
is computed from such a tuple exactly, in integers over one denominator
(D = lcm(w) for the spectral data); :class:`fractions.Fraction` appears
only at the API and report edge.  ``WeightSystem`` and every other result
record of the package is an immutable ``typing.NamedTuple``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class WeightSystemError(ValueError):
    """Base class for invalid weight-system input."""


class TooFewWeights(WeightSystemError):
    """Fewer than two weights were supplied."""


class NonPositiveWeight(WeightSystemError):
    """Some weight is zero or negative."""


class GcdNotOne(WeightSystemError):
    """The weights share a common factor greater than one."""


TWO_WEIGHT_WARNING = (
    "two-weight systems (n = 1) are a degenerate edge case; "
    "all computed identities remain well-defined"
)


class WeightSystem(NamedTuple):
    """An ascending tuple of positive integers with gcd 1; ``warnings`` are
    notes, not part of the value, so equality and hash read ``weights``."""

    weights: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self.weights == other.weights

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.weights)

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def mu(self) -> int:
        return sum(self.weights)


def make_weight_system(
    raw: Iterable[int], *, allow_gcd_normalize: bool = False
) -> WeightSystem:
    """Validate, sort ascending and wrap a list of weights.

    Raises :class:`TooFewWeights`, :class:`NonPositiveWeight` or
    :class:`GcdNotOne`.  With ``allow_gcd_normalize`` a common factor is
    divided out instead of rejected (recorded in ``warnings``).
    Idempotent on its own output.
    """
    entries = list(raw)
    if len(entries) < 2:
        raise TooFewWeights(f"need at least 2 weights, got {len(entries)}")
    for w in entries:
        if not isinstance(w, int) or isinstance(w, bool):
            raise NonPositiveWeight(f"weights must be integers, got {w!r}")
        if w <= 0:
            raise NonPositiveWeight(f"weights must be positive, got {w}")

    warnings: list[str] = []
    g = math.gcd(*entries)
    if g != 1:
        if not allow_gcd_normalize:
            raise GcdNotOne(f"gcd is {g}, not 1")
        entries = [w // g for w in entries]
        warnings.append(f"weights divided by common factor {g}")

    if len(entries) == 2:
        warnings.append(TWO_WEIGHT_WARNING)
    return WeightSystem(tuple(sorted(entries)), tuple(warnings))

