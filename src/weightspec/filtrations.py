"""Jordan structure of the monodromy and the index-level filtrations.

Everything here is combinatorial in the spectrum: indices k = 0..mu-1
are grouped by the fractional part alpha(k) of the spectrum value
(each class is a generalized eigenspace of the monodromy); within the
canonical order a maximal run of equal values is a Jordan block of the
nilpotent part.  The block structure determines monodromy weights nu_k
and the conjugation involution on indices.  Each filtration is a
threshold set of one level per index: the decreasing filtration H^p and
its opposite G_p of floor(sigma), the weight filtration M of nu and the
shifted weight filtration W of nu + n, one more off the integer classes.
A ``FiltrationReport`` stores those levels; its ``index_sets`` writes
the sets, for the ``filtrations`` report.  The ``saito`` and
``orthogonality`` suites of ``verify`` check the opposite filtration and
the metric orthogonality on these levels, every level at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .frobenius import _check_index
from .spectrum import IdentityViolation, spectrum_direct
from .weights import WeightSystem


class JordanBlock(NamedTuple):
    value: int
    start: int
    size: int

    @property
    def indices(self) -> range:
        return range(self.start, self.start + self.size)


class JordanData(NamedTuple):
    """Blocks in canonical index order plus per-index weight data.

    A block of value s stores s*D over ``denominator`` D = lcm(w), and
    ``classes()`` keys blocks by alpha*D.  ``nu[k]`` is the monodromy weight
    of index k (block top weight size-1, dropping by 2 per step into the
    block); ``offset[k]`` is the position of k within its block.
    ``conj[k]`` is the conjugation involution: k on 0..n, else
    mu+n-k-nu(k).
    """

    denominator: int
    blocks: tuple[JordanBlock, ...]
    nu: tuple[int, ...]
    offset: tuple[int, ...]
    conj: tuple[int, ...]

    def classes(self) -> dict[int, tuple[JordanBlock, ...]]:
        by_alpha: dict[int, list[JordanBlock]] = {}
        for block in self.blocks:
            by_alpha.setdefault(-block.value % self.denominator, []).append(block)
        return {a: tuple(bs) for a, bs in by_alpha.items()}

    def size_multiset(self) -> Counter[int]:
        return Counter(b.size for b in self.blocks)


class FiltrationReport(NamedTuple):
    """The filtration level of each index, the primitive indices and the
    conjugation involution: ``floors[k]`` = floor(sigma(k)) for H^p and
    G_p, ``nu[k]`` for M and ``w_level[k]`` = nu(k) + n, plus one when
    sigma(k) is not an integer, for W."""

    floors: tuple[int, ...]
    nu: tuple[int, ...]
    w_level: tuple[int, ...]
    primitive: frozenset[int]
    conj: tuple[int, ...]

    def index_sets(self) -> dict[str, dict[int, list[int]]]:
        """Each filtration's index sets by level, levels and members ascending:

        * hp[p] = {k : floor(sigma(k)) >= p} for p = 0..n+1 (decreasing),
        * gp[p] = {k : floor(sigma(k)) <= p} for p = 0..n (increasing),
        * m[j]  = {k : nu(k) <= j} for j = -n-1..n+1 (monodromy weight filtration),
        * w[j]  = {k : w_level(k) <= j} for j = -1..2n+1, i.e. m[j-n-1] on
          nonzero classes together with m[j-n] on the zero class.
        """
        n = self.nu[0]  # the zero block 0..n has top weight n

        def ranked(levels: tuple[int, ...]) -> tuple[list[int], list[int]]:
            # indices by level, ties by index, and their levels: {k : levels[k]
            # <= j} is a prefix of ascending runs, which sorted() merges
            return sorted(range(len(levels)), key=levels.__getitem__), sorted(levels)

        def below(levels: tuple[int, ...], js: range) -> dict[int, list[int]]:
            order, rank = ranked(levels)
            return {j: sorted(order[: bisect_right(rank, j)]) for j in js}

        order, rank = ranked(self.floors)
        return {
            "hp": {p: sorted(order[bisect_left(rank, p) :]) for p in range(n + 2)},
            "gp": below(self.floors, range(n + 1)),
            "m": below(self.nu, range(-n - 1, n + 2)),
            "w": below(self.w_level, range(-1, 2 * n + 2)),
        }


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
    conj = tuple(k if k <= n else mu + n - k - nu[k] for k in range(mu))
    return JordanData(d, tuple(blocks), tuple(nu), tuple(offset), conj)


def eigenvalue_classes(w: WeightSystem) -> Mapping[int, tuple[int, ...]]:
    """Indices grouped by fractional part alpha, keyed by alpha*D with
    D = lcm(w), in canonical order; read-only."""
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
    _check_index(k, w)
    return jordan_blocks(w).conj[k]


def saito_filtration(w: WeightSystem) -> FiltrationReport:
    """The filtration levels of every index (see ``FiltrationReport``),
    the primitive block starts and the conjugation involution."""
    spec = spectrum_direct(w)
    d, n = spec.denominator, w.n
    data = jordan_blocks(w)
    w_level = tuple(v + n + (s % d != 0) for v, s in zip(data.nu, spec.scaled))
    return FiltrationReport(spec.floors, data.nu, w_level, primitive_indices(w), data.conj)

