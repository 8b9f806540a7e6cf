"""Symbolic model of the rank-mu connection module in its canonical basis.

An element is a finite sum of terms c * tau^m * omega_k over the basis
omega_0, ..., omega_{mu-1}, stored sparsely as the map (k, m) -> nonzero
integer numerator over one positive denominator, in lowest terms, so every
operation costs time in the number of terms, not in mu.  ``Fraction`` is
only the API edge: the ``coeffs`` and ``terms`` views, ``v_order``, and a
coefficient handed to ``GElement`` or a factor handed to ``scale`` that is
not an int (it must then be a ``Fraction``), which import ``fractions``
when called, so the integer kernels and the CLI never load it.  The
logarithmic derivative acts on basis elements by

    tau_dtau(omega_k) = -sigma(k) * omega_k - mu * tau * omega_{k+1 mod mu}

(with omega_mu = omega_0) and extends by the Leibniz rule; the one integer
kernel ``_derive`` applies it with sigma(k) * D (D = lcm(w)) read from the
per-system record ``_step_data``, which the reduction step ``_step`` reads
too.  From this one operator everything else follows: reduction of
monomial classes u^a * omega_0 to the basis, the V-order, and
multiplication by f = sum_i w_i u_i as theta^2 d_theta = -tau^(-1) tau_dtau
(theta = 1/tau), on a monomial class and its reduced element alike, which
on basis vectors is the Birkhoff normal form A0 + theta * A_inf.  The
``bernstein`` and ``birkhoff`` suites of ``verify`` run ``_derive`` on a
pass's one record for the degree-mu Bernstein relation and that normal
form; a library user reads column k of A0 + theta * A_inf as
``f_action(GElement.basis(mu, k), w)``.

Reduction steps a flat integer list: a unit step sends tau^m * omega_k to
(k, m-1) and (k+1, m), so after ``total`` steps from omega_0 every term has
k = total + m (mod mu), and the list holds the coefficients by d = -m, entry
d scaled by (D*mu)^d; a state reached from omega_0 starts with 1.  A step
keeps the coefficient of a term that stays at d; only a term moved to d+1
gains a factor over D*mu, which the extra D*mu in the scale of entry d+1
absorbs.  So a step rescales nothing, and the integers grow with the depth
d, not with the number of steps.  A reduced class stays in this layout as
``(flat, total)``, and ``_unscaled`` is the one reader that turns such a
state into an element.  Along the step sequence, omega_k = [u^a(k)] is the
state [1] at total k, so every u^(a(k)+1_i) is one step from it, and
f * omega_k = mu * omega_{k+1} + sigma(k) * tau^(-1) * omega_k, the
Birkhoff normal form, is the state [mu, mu * sigma(k) * D] at total k + 1.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .spectrum import spectrum_direct
from .weights import WeightSystem

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction


class DimensionMismatch(ValueError):
    """An element's mu, a basis index or the exponents do not fit the
    weight system, an index, tau-power or exponent is not an int, or a
    coefficient or scale factor is not an int or a ``Fraction``."""


def _exact(c: Scalar) -> Scalar:
    """c, checked to be exactly an int (no ``fractions`` import) or a ``Fraction``."""
    if type(c) is not int:
        from fractions import Fraction

        if not isinstance(c, Fraction):
            raise DimensionMismatch(f"coefficient {c!r} must be an int or a Fraction")
    return c


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
            if _exact(c):  # an int has numerator and denominator too
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
        if not _exact(factor):
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
    minimal multiple of w.  Each exponent must be exactly an int."""
    if len(a) != w.n + 1 or any(type(ai) is not int for ai in a):
        raise DimensionMismatch(f"exponents {a!r} are not {w.n + 1} ints")
    shift = -min(map(operator.floordiv, a, w.weights))
    if not shift:
        return tuple(a)  # a tuple itself, not a copy
    return tuple(ai + shift * wi for ai, wi in zip(a, w.weights))


# what both integer kernels read: mu, the rungs mu*D/w_j, D = lcm(w), sigma(k)*D
_StepData = tuple[int, tuple[int, ...], int, tuple[int, ...]]


def _step_data(w: WeightSystem) -> _StepData:
    spec = spectrum_direct(w)
    scale = spec.denominator
    return w.mu, tuple(w.mu * (scale // wi) for wi in w.weights), scale, spec.sigma_scaled


def _derive(nums: Mapping[tuple[int, int], int], data: _StepData) -> dict[tuple[int, int], int]:
    """tau_dtau on an element's numerators over den: the numerators of the
    image over den * D.  Leibniz on the coefficient, then the basis action,
    adds (m*D - sigma(k)*D) * c at (k, m) and -mu*D * c at (k+1, m+1)."""
    mu, _, scale, sigma_scaled = data
    out = {}
    for (k, m), c in nums.items():
        _add_term(out, (k, m), (m * scale - sigma_scaled[k]) * c)
        _add_term(out, ((k + 1) % mu, m + 1), -mu * scale * c)
    return out


def tau_dtau(x: GElement, w: WeightSystem) -> GElement:
    """Apply the logarithmic derivative tau * d/dtau."""
    mu, data = _require_mu(x, w), _step_data(w)
    return GElement._raw(mu, _derive(x._nums, data), x._den * data[2])


def _step(flat: list[int], j: int, b_j: int, total: int, data: _StepData) -> list[int]:
    """One unit increment in coordinate j of the state at exponents b, with
    b_j and total = sum(b) given.  ``flat[d]`` is (D*mu)^d times the
    coefficient of tau^(-d) * omega_{(total - d) mod mu}, one entry per d
    because every term has k = total + m (mod mu); any list that ends in a
    nonzero entry is a state.  A term that stays at d keeps its coefficient
    and one that moves to d+1 gains -t/(D*mu), t = (L_j(b) - d - sigma(k)) * D,
    so in this layout the step is integer, gcd-free and rescales nothing,
    the new state again ends in a nonzero entry, and only ``_unscaled``
    reads a state back as an element."""
    mu, rungs, scale, sigma_scaled = data
    l_scaled = total * scale - b_j * rungs[j]
    nxt = flat + [0]
    for d, c in enumerate(flat):
        t = l_scaled - d * scale - sigma_scaled[(total - d) % mu]
        nxt[d + 1] -= c * t
    while not nxt[-1]:  # the first nonzero entry of flat is never changed
        nxt.pop()
    return nxt


def _unscaled(flat: list[int], total: int, data: _StepData) -> GElement:
    """The element of a ``_step`` state, or of a sum of states scaled alike,
    after ``total`` steps: over (D*mu)^top, top = len(flat) - 1, entry d,
    scaled by (D*mu)^d, gains the missing (D*mu)^(top - d)."""
    mu, _, scale, _ = data
    step_denom, top = scale * mu, len(flat) - 1
    nums = {((total - d) % mu, -d): c * step_denom ** (top - d) for d, c in enumerate(flat) if c}
    return GElement._raw(mu, nums, step_denom ** top)


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

    ``path`` is the sequence of coordinate increments to use (ints that
    rearrange the canonical exponents); by default it is
    coordinate-major, all increments of coordinate 0 first.  The result is
    independent of the chosen path, which tests verify: moving every
    tau^(-1) to the left, the class is
    (-1/mu)^N * tau^(-N) * prod_j prod_{r < a_j} (tau_dtau - mu * r / w_j) omega_0
    with N = sum(a), and these factors commute.
    """
    target = canonical_exponents(a, w)
    steps = [j for j, count in enumerate(target) for _ in range(count)]
    path = steps if path is None else list(path)
    if any(type(j) is not int for j in path) or sorted(path) != steps:
        raise ValueError(f"path {path} does not lead to {target}")
    data = _step_data(w)
    flat = [1]
    current = [0] * (w.n + 1)
    for total, j in enumerate(path):
        flat = _step(flat, j, current[j], total, data)
        current[j] += 1
    return _unscaled(flat, len(path), data)


def f_action(x: GElement | Sequence[int], w: WeightSystem) -> GElement:
    """Multiply by the defining linear form f = sum_i w_i u_i, which acts as
    theta^2 d_theta = -tau^(-1) tau_dtau, Leibniz rule included.  A monomial
    class is reduced first, so it has the image of its reduced element.  On
    omega_k this is mu * omega_{k+1 mod mu} + sigma(k) * theta * omega_k,
    the Birkhoff normal form A0 + theta * A_inf."""
    if not isinstance(x, GElement):
        x = reduce_monomial(x, w)
    mu, data = _require_mu(x, w), _step_data(w)
    image = _derive(x._nums, data)
    return GElement._raw(mu, {(k, m - 1): -c for (k, m), c in image.items()}, x._den * data[2])


def v_order(x: GElement, w: WeightSystem) -> Fraction | None:
    """max over stored terms tau^m * omega_k of sigma(k) + m; None for the
    zero element, which has no order."""
    from fractions import Fraction

    _require_mu(x, w)
    _, _, scale, sigma_scaled = _step_data(w)
    order = max((sigma_scaled[k] + m * scale for k, m in x._nums), default=None)
    return None if order is None else Fraction(order, scale)
