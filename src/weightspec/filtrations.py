"""Jordan structure of the monodromy and the index-level filtrations.

Everything here is combinatorial in the spectrum: indices k = 0..mu-1
are grouped by the fractional part alpha(k) of the spectrum value
(each class is a generalized eigenspace of the monodromy); within the
canonical order a maximal run of equal values is a Jordan block of the
nilpotent part.  The block structure determines monodromy weights nu_k,
the weight filtrations M and W, the decreasing filtration H^p and its
opposite G_p built from floor(sigma), the conjugation involution on
indices, and the orthogonality pattern of the metric across classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .frobenius import IndexOutOfRange, metric_partner
from .spectrum import IdentityViolation, spectrum_direct
from .weights import WeightSystem


class UnknownEigenvalueClass(ValueError):
    """The requested fractional class does not occur in the spectrum."""


@dataclass(frozen=True)
class JordanBlock:
    value: int
    start: int
    size: int

    @property
    def indices(self) -> range:
        return range(self.start, self.start + self.size)


@dataclass(frozen=True)
class JordanData:
    """Blocks in canonical index order plus per-index weight data.

    A block of value s stores s*D over ``denominator`` D = lcm(w), and
    ``classes()`` keys blocks by alpha*D.  ``nu[k]`` is the monodromy weight
    of index k (block top weight size-1, dropping by 2 per step into the
    block); ``offset[k]`` is the position of k within its block.
    """

    denominator: int
    blocks: tuple[JordanBlock, ...]
    nu: tuple[int, ...]
    offset: tuple[int, ...]

    def classes(self) -> dict[int, tuple[JordanBlock, ...]]:
        by_alpha: dict[int, list[JordanBlock]] = {}
        for block in self.blocks:
            by_alpha.setdefault(-block.value % self.denominator, []).append(block)
        return {a: tuple(bs) for a, bs in by_alpha.items()}

    def size_multiset(self) -> Counter[int]:
        return Counter(b.size for b in self.blocks)


@dataclass(frozen=True)
class FiltrationReport:
    """Index sets of all filtrations, the primitive indices and the
    conjugation involution."""

    hp: dict[int, frozenset[int]]
    gp: dict[int, frozenset[int]]
    m: dict[int, frozenset[int]]
    w: dict[int, frozenset[int]]
    primitive: frozenset[int]
    conj: tuple[int, ...]


@lru_cache(maxsize=1024)
def jordan_blocks(w: WeightSystem) -> JordanData:
    """Split 0..mu-1 into maximal runs of equal spectrum value.

    Verifies the size bounds: the zero-value block has size exactly n+1;
    blocks with nonzero integer value have size <= n-1; blocks with
    noninteger value have size <= n.  Results are immutable and cached.
    """
    spec = spectrum_direct(w)
    mu, n = w.mu, w.n
    d, scaled = spec.denominator, spec.scaled

    blocks: list[JordanBlock] = []
    nu = [0] * mu
    offset = [0] * mu
    start = 0
    for k in range(1, mu + 1):
        if k < mu and scaled[k] == scaled[start]:
            continue
        v, size = scaled[start], k - start
        if v == 0:
            if size != n + 1:
                raise IdentityViolation(f"zero block has size {size} != {n + 1}")
        elif v % d == 0:
            if size > n - 1:
                raise IdentityViolation(
                    f"integer-value block at {start} has size {size} > {n - 1}"
                )
        elif size > n:
            raise IdentityViolation(
                f"noninteger-value block at {start} has size {size} > {n}"
            )
        blocks.append(JordanBlock(v, start, size))
        for j in range(size):
            nu[start + j] = size - 1 - 2 * j
            offset[start + j] = j
        start = k
    return JordanData(d, tuple(blocks), tuple(nu), tuple(offset))


@lru_cache(maxsize=1024)
def eigenvalue_classes(w: WeightSystem) -> Mapping[int, tuple[int, ...]]:
    """Indices grouped by fractional part alpha, keyed by alpha*D with
    D = lcm(w), in canonical order; cached, read-only."""
    spec = spectrum_direct(w)
    classes: dict[int, list[int]] = {}
    for k, v in enumerate(spec.scaled):
        classes.setdefault(-v % spec.denominator, []).append(k)
    return MappingProxyType({a: tuple(ks) for a, ks in classes.items()})


def primitive_indices(w: WeightSystem) -> frozenset[int]:
    """Block starts: index 0 plus every k >= n+1 where the value jumps
    (the zero block is 0..n, as ``jordan_blocks`` checks)."""
    return frozenset(block.start for block in jordan_blocks(w).blocks)


def conjugate_index(w: WeightSystem, k: int) -> int:
    """The conjugation involution: identity on 0..n, else mu+n-k-nu(k)."""
    if not 0 <= k <= w.mu - 1:
        raise IndexOutOfRange(f"index {k} outside 0..{w.mu - 1}")
    if k <= w.n:
        return k
    nu = jordan_blocks(w).nu
    return w.mu + w.n - k - nu[k]


def _conjugation(w: WeightSystem) -> tuple[int, ...]:
    """``conjugate_index`` on all of 0..mu-1, in one pass over nu."""
    mu, n, nu = w.mu, w.n, jordan_blocks(w).nu
    return tuple(k if k <= n else mu + n - k - nu[k] for k in range(mu))


def saito_filtration(w: WeightSystem) -> FiltrationReport:
    """All index-level filtrations.

    * hp[p] = {k : floor(sigma(k)) >= p} for p = 0..n+1 (decreasing),
    * gp[p] = {k : floor(sigma(k)) <= p} for p = 0..n (increasing),
    * m[j]  = {k : nu(k) <= j} (monodromy weight filtration),
    * w[j]  = m[j-n-1] on nonzero classes together with m[j-n] on the
      zero class (the shifted weight filtration),
    * primitive block starts and the conjugation involution.
    """
    spec = spectrum_direct(w)
    mu, n = w.mu, w.n
    floors = spec.floors
    data = jordan_blocks(w)
    nu = data.nu

    hp = {
        p: frozenset(k for k in range(mu) if floors[k] >= p)
        for p in range(n + 2)
    }
    gp = {
        p: frozenset(k for k in range(mu) if floors[k] <= p)
        for p in range(n + 1)
    }
    m = {
        j: frozenset(k for k in range(mu) if nu[k] <= j)
        for j in range(-n - 1, n + 2)
    }
    d, scaled = spec.denominator, spec.scaled
    w_filt = {}
    for j in range(-1, 2 * n + 2):
        members = set()
        for k in range(mu):
            bound = j - n if scaled[k] % d == 0 else j - n - 1
            if nu[k] <= bound:
                members.add(k)
        w_filt[j] = frozenset(members)

    return FiltrationReport(hp, gp, m, w_filt, primitive_indices(w), _conjugation(w))


def saito_identity_check(w: WeightSystem, p: int) -> bool:
    """Combinatorial identity behind the canonical opposite filtration:
    conjugating {k : floor(sigma(k)) + nu(k) <= n - p, minus one more when
    sigma(k) is not an integer} lands exactly on hp[p]."""
    spec = spectrum_direct(w)
    d, floors = spec.denominator, spec.floors
    nu = jordan_blocks(w).nu
    selected = set()
    for k in range(w.mu):
        bound = w.n - p - (0 if spec.scaled[k] % d == 0 else 1)
        if floors[k] + nu[k] <= bound:
            selected.add(k)
    conj = _conjugation(w)
    image = {conj[k] for k in selected}
    target = {k for k in range(w.mu) if floors[k] >= p}
    return image == target


def orthogonality_check(w: WeightSystem, key: int, p: int) -> bool:
    """Check the metric-orthogonality of the canonical filtration across
    partner classes, for the class keyed ``key`` = alpha*D as in
    ``eigenvalue_classes``: the orthogonal complement of the span of
    {k in class alpha : floor(sigma(k)) >= p}, taken inside the partner
    class (1-alpha for alpha != 0, the zero class itself for alpha = 0),
    must be the partner filtration piece at level n-p (resp. n+1-p)."""
    spec = spectrum_direct(w)
    classes = eigenvalue_classes(w)
    if key not in classes:
        raise UnknownEigenvalueClass(f"no eigenvalue class with alpha*{spec.denominator} = {key}")
    partner_class = classes.get(-key % spec.denominator, ())
    floors = spec.floors
    span = {k for k in classes[key] if floors[k] >= p}
    complement = {
        j for j in partner_class if metric_partner(j, w) not in span
    }
    level = w.n + 1 - p if key == 0 else w.n - p
    expected = {j for j in partner_class if floors[j] >= level}
    return complement == expected
