"""Symbolic model of the rank-mu connection module in its canonical basis.

An element is a finite sum of terms c * tau^m * omega_k over the basis
omega_0, ..., omega_{mu-1}, stored sparsely as the map (k, m) -> nonzero
integer numerator over one positive denominator, in lowest terms, so every
operation costs time in the number of terms, not in mu.  ``Fraction`` is
only the API edge: the ``coeffs`` and ``terms`` views, ``v_order``, and a
non-int coefficient handed to ``GElement`` or any factor handed to
``scale``, which import ``fractions`` when called, so the integer kernels
and the CLI never load it.  The logarithmic derivative acts on basis
elements by

    tau_dtau(omega_k) = -sigma(k) * omega_k - mu * tau * omega_{k+1 mod mu}

(with omega_mu = omega_0) and extends by the Leibniz rule; the one integer
kernel ``_derive`` applies it with sigma(k) * D (D = lcm(w)) read from
``Spectrum.sigma_scaled``.  From this one operator everything else
follows: the degree-mu Bernstein relation, reduction of monomial classes
u^a * omega_0 to the basis, the V-order, and multiplication by
f = sum_i w_i u_i as theta^2 d_theta = -tau^(-1) tau_dtau (theta = 1/tau),
on a monomial class and its reduced element alike, which on basis vectors
is the Birkhoff normal form A0 + theta * A_inf.

Reduction steps a flat integer list: a unit step sends tau^m * omega_k to
(k, m-1) and (k+1, m), so after ``total`` steps from omega_0 every term has
k = total + m (mod mu), and the list holds the coefficients by d = -m, entry
d scaled by (D*mu)^d, so ``flat[0]`` is 1.  A step keeps the coefficient of
a term that stays at d; only a term moved to d+1 gains a factor over D*mu,
which the extra D*mu in the scale of entry d+1 absorbs.  So a step rescales
nothing, and the integers grow with the depth d, not with the number of steps.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .spectrum import IdentityViolation, spectrum_direct
from .weights import WeightSystem

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction


class DimensionMismatch(ValueError):
    """An element's mu or basis index does not fit the weight system, or a
    basis index or tau-power is not an int."""


def _add_term(out: dict, key: tuple[int, int], c: int) -> None:
    """out[key] += c, dropping the key when the sum vanishes."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class GElement:
    """An element of the rank-mu module: the coefficient of tau**m * omega_k,
    0 <= k < mu, is ``_nums[k, m] / _den``, with only nonzero numerators
    stored, ``_den > 0`` and gcd(_den, *_nums) = 1, so equal elements have
    equal fields.  ``coeffs`` is the read-only ``Fraction`` view."""

    __slots__ = ("mu", "_nums", "_den")

    def __init__(
        self, mu: int, coeffs: Mapping[tuple[int, int], Scalar] | None = None
    ):
        clean: dict[tuple[int, int], Scalar] = {}
        for (k, m), c in (coeffs or {}).items():
            if type(k) is not int or type(m) is not int:
                raise DimensionMismatch(f"basis index {k!r} and tau-power {m!r} must be ints")
            if not 0 <= k < mu:
                raise DimensionMismatch(f"basis index {k} outside 0..{mu - 1}")
            if c:
                if type(c) is not int:  # an int has numerator and denominator too
                    from fractions import Fraction

                    c = Fraction(c)
                clean[k, m] = c
        # each prime power of den is some reduced denominator: gcd(den, *nums) = 1
        den = math.lcm(*[c.denominator for c in clean.values()])
        self.mu = mu
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self._den = den

    @classmethod
    def _raw(cls, mu: int, nums: dict[tuple[int, int], int], den: int) -> "GElement":
        """Wrap in-range keys with nonzero int numerators over den > 0,
        unchecked; both are divided by their gcd."""
        g = math.gcd(den, *nums.values())
        out = cls.__new__(cls)
        out.mu = mu
        out._nums = {key: c // g for key, c in nums.items()} if g > 1 else nums
        out._den = den // g
        return out

    @classmethod
    def zero(cls, mu: int) -> "GElement":
        return cls(mu)

    @classmethod
    def basis(
        cls, mu: int, k: int, tau_power: int = 0, coefficient: Scalar = 1
    ) -> "GElement":
        """coefficient * tau**tau_power * omega_k."""
        return cls(mu, {(k, tau_power): coefficient})

    @property
    def coeffs(self) -> Mapping[tuple[int, int], Fraction]:
        """The map (k, m) -> nonzero Fraction coefficient, read-only."""
        from fractions import Fraction

        return MappingProxyType({key: Fraction(c, self._den) for key, c in self._nums.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GElement):
            return NotImplemented
        return self.mu == other.mu and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.mu, self._den, frozenset(self._nums.items())))

    def _plus(self, other: "GElement", sign: int) -> "GElement":
        if self.mu != other.mu:
            raise DimensionMismatch(f"{self.mu} != {other.mu}")
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, sign * (den // other._den)
        out = {key: c * mine for key, c in self._nums.items()}
        for key, c in other._nums.items():
            _add_term(out, key, c * theirs)
        return GElement._raw(self.mu, out, den)

    def __add__(self, other: "GElement") -> "GElement":
        return self._plus(other, 1)

    def __sub__(self, other: "GElement") -> "GElement":
        return self._plus(other, -1)

    def scale(self, factor: Scalar) -> "GElement":
        from fractions import Fraction

        factor = Fraction(factor)
        if not factor:
            return GElement.zero(self.mu)
        p, q = factor.numerator, factor.denominator
        return GElement._raw(self.mu, {key: c * p for key, c in self._nums.items()}, self._den * q)

    def shift(self, power: int) -> "GElement":
        """Multiply by tau**power."""
        if type(power) is not int:
            raise DimensionMismatch(f"tau-power {power!r} must be an int")
        return GElement._raw(
            self.mu, {(k, m + power): c for (k, m), c in self._nums.items()}, self._den
        )

    def is_zero(self) -> bool:
        return not self._nums

    def terms(self) -> list[tuple[int, int, Fraction]]:
        """All stored terms as (basis index k, tau power m, coefficient),
        sorted by (k, m)."""
        from fractions import Fraction

        return [(k, m, Fraction(c, self._den)) for (k, m), c in sorted(self._nums.items())]

    def __repr__(self) -> str:
        parts = [f"{c}*tau^{m}*w{k}" for k, m, c in self.terms()]
        return " + ".join(parts) if parts else "0"


def _require_mu(x: GElement, w: WeightSystem) -> int:
    if x.mu != w.mu:
        raise DimensionMismatch(f"element has mu = {x.mu}, system has mu = {w.mu}")
    return w.mu


def canonical_exponents(a: Sequence[int], w: WeightSystem) -> tuple[int, ...]:
    """The representative of the torus exponents u^a modulo u^w = 1 with
    all entries >= 0 and some entry < w_i, obtained by adding the single
    minimal multiple of w."""
    if len(a) != w.n + 1:
        raise DimensionMismatch(f"{len(a)} exponents for {w.n + 1} weights")
    shift = -min(map(operator.floordiv, a, w.weights))
    if not shift:
        return tuple(a)  # a tuple itself, not a copy
    return tuple(ai + shift * wi for ai, wi in zip(a, w.weights))


def _derive(nums: Mapping[tuple[int, int], int], w: WeightSystem) -> dict[tuple[int, int], int]:
    """tau_dtau on an element's numerators over den: the numerators of the
    image over den * D.  Leibniz on the coefficient, then the basis action,
    adds (m*D - sigma(k)*D) * c at (k, m) and -mu*D * c at (k+1, m+1)."""
    spec = spectrum_direct(w)
    scale, sigma_scaled = spec.denominator, spec.sigma_scaled
    mu = len(sigma_scaled)
    out = {}
    for (k, m), c in nums.items():
        _add_term(out, (k, m), (m * scale - sigma_scaled[k]) * c)
        _add_term(out, ((k + 1) % mu, m + 1), -mu * scale * c)
    return out


def tau_dtau(x: GElement, w: WeightSystem) -> GElement:
    """Apply the logarithmic derivative tau * d/dtau."""
    mu = _require_mu(x, w)
    return GElement._raw(mu, _derive(x._nums, w), x._den * spectrum_direct(w).denominator)


def bernstein_check(w: WeightSystem) -> GElement:
    """Apply prod_{k=0}^{mu-1} [ -(1/mu) (tau_dtau - s(k)) ] to omega_0,
    factor k = 0 first.  The result must equal tau**mu * omega_0; the
    caller asserts that equality.  The product runs on the numerators over
    one denominator: each factor multiplies it by mu * D, and then both are
    divided by their gcd, so the integers stay the size of the result."""
    spec = spectrum_direct(w)
    nums, den, scale = {(0, 0): 1}, 1, w.mu * spec.denominator
    for v in spec.scaled:
        # (v * x - tau_dtau x) over den * mu * D, with s(k) = v / D
        image = _derive(nums, w)
        for key, c in nums.items():
            _add_term(image, key, -v * c)
        den *= scale
        g = math.gcd(den, *image.values())
        nums, den = {key: -c // g for key, c in image.items()}, den // g
    return GElement._raw(w.mu, nums, den)


def birkhoff_matrices(
    w: WeightSystem,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Nonzero entries (row, column) -> coefficient * D (D = lcm(w)) of A0
    and A_inf in theta^2 d_theta = -tau^(-1) tau_dtau = ``f_action``: column
    k of A0 is the tau^0 part of f * omega_k, of A_inf its theta part.
    Other tau-powers raise IdentityViolation."""
    a0, ainf = {}, {}
    for k in range(w.mu):
        # tau_dtau(omega_k) over D; f shifts each tau-power down by one
        for (j, m), c in _derive({(k, 0): 1}, w).items():
            if m == 1:
                a0[j, k] = -c
            elif m == 0:
                ainf[j, k] = -c
            else:
                raise IdentityViolation(f"tau^{m - 1} term in theta^2 d_theta omega_{k}")
    return a0, ainf


# what the integer step reads: mu, the weights, D = lcm(w) and sigma(k) * D
_StepData = tuple[int, tuple[int, ...], int, tuple[int, ...]]
_Reduced = tuple[list[int], int, int]


def _step_data(w: WeightSystem) -> _StepData:
    spec = spectrum_direct(w)
    return w.mu, w.weights, spec.denominator, spec.sigma_scaled


def _step(flat: list[int], j: int, b_j: int, total: int, data: _StepData) -> list[int]:
    """One unit increment in coordinate j of the state at exponents b, with
    b_j and total = sum(b) given.  ``flat[d]`` is (D*mu)^d times the
    coefficient of tau^(-d) * omega_{(total - d) mod mu}, with no trailing
    zero, because every term has k = total + m (mod mu).  A term that stays
    at d keeps its coefficient and one that moves to d+1 gains -t/(D*mu),
    t = (L_j(b) - d - sigma(k)) * D, so in this layout the step is integer,
    gcd-free and rescales nothing, ``flat[0]`` stays 1, and
    ``_over_one_denominator`` turns a state back into coefficients."""
    mu, weights, scale, sigma_scaled = data
    l_scaled = total * scale - mu * b_j * (scale // weights[j])
    nxt = flat + [0]
    for d, c in enumerate(flat):
        t = l_scaled - d * scale - sigma_scaled[(total - d) % mu]
        nxt[d + 1] -= c * t
    while not nxt[-1]:  # nxt[0] = 1 is never 0
        nxt.pop()
    return nxt


def _over_one_denominator(flat: list[int], step_denom: int) -> tuple[list[int], int]:
    """A ``_step`` state as numerators over the one denominator
    step_denom^top = (D*mu)^top, top = len(flat) - 1: entry d, scaled by
    (D*mu)^d, gains the missing (D*mu)^(top - d)."""
    top = len(flat) - 1
    return [c * step_denom ** (top - d) for d, c in enumerate(flat)], step_denom ** top


def _unscaled(flat: list[int], denom: int, total: int, mu: int) -> GElement:
    return GElement._raw(mu, {((total - d) % mu, -d): c for d, c in enumerate(flat) if c}, denom)


def reduce_monomial(
    a: Sequence[int],
    w: WeightSystem,
    path: Sequence[int] | None = None,
) -> GElement:
    """Express the class of u^a * omega_0 in the basis.

    The exponent vector is first replaced by its canonical representative
    (valid since u^w = 1).  Starting from omega_0, each unit increment in
    coordinate j applies

        rep(u^(b+1_j)) = -(1/mu) * tau^(-1) * (tau_dtau + L_j(b)) rep(u^b),
        L_j(b) = sum_i b_i - mu * b_j / w_j,

    so a term c * tau^m * omega_k becomes
    -(c/mu) * (m - sigma(k) + L_j(b)) * tau^(m-1) * omega_k
    + c * tau^m * omega_{k+1 mod mu}.

    ``path`` is the sequence of coordinate increments to use (it must be a
    rearrangement of the canonical exponents); by default it is
    coordinate-major, all increments of coordinate 0 first.  The result is
    independent of the chosen path, which tests verify.  To reduce many
    classes along their default paths, ``reduce_monomials`` shares the
    work their paths have in common.
    """
    target = canonical_exponents(a, w)
    steps = [j for j, count in enumerate(target) for _ in range(count)]
    path = steps if path is None else list(path)
    if sorted(path) != steps:
        raise ValueError(f"path {path} does not lead to {target}")
    data = _step_data(w)
    flat = [1]
    current = [0] * (w.n + 1)
    for total, j in enumerate(path):
        flat = _step(flat, j, current[j], total, data)
        current[j] += 1
    return _unscaled(*_over_one_denominator(flat, data[2] * w.mu), len(path), w.mu)


def _reduce_walk(targets: Sequence[Sequence[int]], w: WeightSystem) -> list[_Reduced]:
    """The reduced class of each target as ``(flat, denom, total)``: the
    ``_step`` state over one denominator (``_over_one_denominator``), both
    divided by their gcd, with total the sum of the canonical exponents.

    Every class is still reduced from omega_0 along the coordinate-major
    path of its canonical exponents; the walk only skips the prefix that
    path shares with the previous target's.  The canonical targets are
    de-duplicated and sorted, and ``checkpoints[j]`` keeps the state at
    (p_0, ..., p_j, 0, ..., 0) for the previous target p; a state carries
    its own scale (entry d is scaled by (D*mu)^d), so a checkpoint holds no
    denominator.  A target that first differs from p in coordinate j
    exceeds p there, so its path passes through ``checkpoints[j]`` and
    steps on from there.
    """
    canonical = [canonical_exponents(a, w) for a in targets]
    data = _step_data(w)
    size = w.n + 1
    step_denom = data[2] * w.mu
    previous = (0,) * size
    checkpoints = [[1]] * size
    reduced: dict[tuple[int, ...], _Reduced] = {}
    for target in sorted(set(canonical)):
        # only the zero vector, sorted first, equals its previous: omega_0
        j = next((i for i in range(size) if target[i] != previous[i]), size - 1)
        flat = checkpoints[j]
        b_j = previous[j]
        total = sum(target[:j]) + b_j
        for i in range(j, size):
            for b_i in range(b_j, target[i]):
                flat = _step(flat, i, b_i, total, data)
                total += 1
            checkpoints[i] = flat
            b_j = 0
        flat, denom = _over_one_denominator(flat, step_denom)
        g = math.gcd(denom, *flat)
        reduced[target] = [c // g for c in flat], denom // g, total
        previous = target
    return [reduced[t] for t in canonical]


def reduce_monomials(targets: Sequence[Sequence[int]], w: WeightSystem) -> list[GElement]:
    """``[reduce_monomial(a, w) for a in targets]``, in one ``_reduce_walk``."""
    return [_unscaled(*state, w.mu) for state in _reduce_walk(targets, w)]


def f_action(x: GElement | Sequence[int], w: WeightSystem) -> GElement:
    """Multiply by the defining linear form f = sum_i w_i u_i, which acts as
    theta^2 d_theta = -tau^(-1) tau_dtau, Leibniz rule included.  A monomial
    class is reduced first, so it has the image of its reduced element.  On
    omega_k this is mu * omega_{k+1 mod mu} + sigma(k) * theta * omega_k,
    the Birkhoff normal form A0 + theta * A_inf."""
    if not isinstance(x, GElement):
        x = reduce_monomial(x, w)
    mu = _require_mu(x, w)
    image = _derive(x._nums, w)
    return GElement._raw(
        mu, {(k, m - 1): -c for (k, m), c in image.items()}, x._den * spectrum_direct(w).denominator
    )


def v_order(x: GElement, w: WeightSystem) -> Fraction | None:
    """max over stored terms tau^m * omega_k of sigma(k) + m; None for the
    zero element, which has no order."""
    from fractions import Fraction

    _require_mu(x, w)
    spec = spectrum_direct(w)
    order = max((spec.sigma_scaled[k] + m * spec.denominator for k, m in x._nums), default=None)
    return None if order is None else Fraction(order, spec.denominator)
