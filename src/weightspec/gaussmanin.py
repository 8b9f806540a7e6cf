"""Symbolic model of the rank-mu connection module in its canonical basis.

An element is a finite sum of terms c * tau^m * omega_k over the basis
omega_0, ..., omega_{mu-1}, stored sparsely as the map (k, m) -> c of its
nonzero exact rational coefficients, so every operation costs time in the
number of terms, not in mu.  The logarithmic derivative acts on basis
elements by

    tau_dtau(omega_k) = -sigma(k) * omega_k - mu * tau * omega_{k+1 mod mu}

(with omega_mu = omega_0) and extends by the Leibniz rule.  From this one
operator everything else follows: the degree-mu Bernstein relation, the
Birkhoff normal form theta^2 d_theta = A0 + theta * A_inf (theta = 1/tau),
reduction of monomial classes u^a * omega_0 to the basis, multiplication
by the defining linear form f = sum_i w_i u_i, and the V-order.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .spectrum import IdentityViolation, spectrum_direct
from .weights import WeightSystem

Scalar = Union[int, Fraction]


class DimensionMismatch(ValueError):
    """An element's mu or basis index does not fit the weight system."""


def _add_term(out: dict, key: tuple[int, int], c: Scalar) -> None:
    """out[key] += c, dropping the key when the sum vanishes."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class GElement:
    """An element of the rank-mu module: the sparse map (k, m) -> nonzero
    Fraction giving the coefficient of tau**m * omega_k, 0 <= k < mu.
    ``coeffs`` is a read-only view, so the hash cannot change."""

    __slots__ = ("mu", "coeffs")

    def __init__(
        self, mu: int, coeffs: Mapping[tuple[int, int], Scalar] | None = None
    ):
        clean: dict[tuple[int, int], Fraction] = {}
        for (k, m), c in (coeffs or {}).items():
            if not 0 <= k < mu:
                raise DimensionMismatch(f"basis index {k} outside 0..{mu - 1}")
            if c:
                clean[k, m] = Fraction(c)
        self.mu = mu
        self.coeffs = MappingProxyType(clean)

    @classmethod
    def _raw(cls, mu: int, coeffs: dict[tuple[int, int], Fraction]) -> "GElement":
        """Wrap in-range keys with nonzero Fraction values, unchecked."""
        out = cls.__new__(cls)
        out.mu = mu
        out.coeffs = MappingProxyType(coeffs)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GElement):
            return NotImplemented
        return self.mu == other.mu and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.mu, frozenset(self.coeffs.items())))

    def _plus(self, other: "GElement", sign: int) -> "GElement":
        if self.mu != other.mu:
            raise DimensionMismatch(f"{self.mu} != {other.mu}")
        out = self.coeffs.copy()
        for key, c in other.coeffs.items():
            _add_term(out, key, sign * c)
        return GElement._raw(self.mu, out)

    def __add__(self, other: "GElement") -> "GElement":
        return self._plus(other, 1)

    def __sub__(self, other: "GElement") -> "GElement":
        return self._plus(other, -1)

    def scale(self, factor: Scalar) -> "GElement":
        if not factor:
            return GElement.zero(self.mu)
        return GElement._raw(
            self.mu, {key: c * factor for key, c in self.coeffs.items()}
        )

    def shift(self, power: int) -> "GElement":
        """Multiply by tau**power."""
        return GElement._raw(
            self.mu, {(k, m + power): c for (k, m), c in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, int, Fraction]]:
        """All stored terms as (basis index k, tau power m, coefficient),
        sorted by (k, m)."""
        return [(k, m, c) for (k, m), c in sorted(self.coeffs.items())]

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
    shift = -min(ai // wi for ai, wi in zip(a, w.weights))
    return tuple(ai + shift * wi for ai, wi in zip(a, w.weights))


def tau_dtau(x: GElement, w: WeightSystem) -> GElement:
    """Apply the logarithmic derivative tau * d/dtau."""
    mu = _require_mu(x, w)
    sigma = spectrum_direct(w).spectral_numbers
    out: dict[tuple[int, int], Fraction] = {}
    for (k, m), c in x.coeffs.items():
        # Leibniz: tau d/dtau on the coefficient, then the basis action
        _add_term(out, (k, m), (m - sigma[k]) * c)
        _add_term(out, ((k + 1) % mu, m + 1), -mu * c)
    return GElement._raw(mu, out)


def bernstein_check(w: WeightSystem) -> GElement:
    """Apply prod_{k=0}^{mu-1} [ -(1/mu) (tau_dtau - s(k)) ] to omega_0,
    factor k = 0 first.  The result must equal tau**mu * omega_0; the
    caller asserts that equality."""
    mu = w.mu
    spec = spectrum_direct(w)
    acc = GElement.basis(mu, 0)
    minus_inv_mu = Fraction(-1, mu)
    for v in spec.scaled:
        acc = (tau_dtau(acc, w) + acc.scale(Fraction(-v, spec.denominator))).scale(minus_inv_mu)
    return acc


def birkhoff_matrices(
    w: WeightSystem,
) -> tuple[dict[tuple[int, int], Fraction], dict[tuple[int, int], Fraction]]:
    """Nonzero entries (row, column) -> coefficient of A0 and A_inf in
    theta^2 d_theta = -tau^(-1) tau_dtau: column k of A0 is the tau^0 part,
    of A_inf the theta part.  Other tau-powers raise IdentityViolation."""
    mu = w.mu
    a0, ainf = {}, {}
    for k in range(mu):
        image = tau_dtau(GElement.basis(mu, k), w).shift(-1).scale(-1)
        for (j, m), c in image.coeffs.items():
            if m == 0:
                a0[j, k] = c
            elif m == -1:
                ainf[j, k] = c
            else:
                raise IdentityViolation(
                    f"tau^{m} term in theta^2 d_theta omega_{k}"
                )
    return a0, ainf


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
    rearrangement of the canonical exponents); the result is independent
    of the chosen path, which tests verify.
    """
    target = canonical_exponents(a, w)
    steps = [j for j, count in enumerate(target) for _ in range(count)]
    path = steps if path is None else list(path)
    if sorted(path) != steps:
        raise ValueError(f"path {path} does not lead to {target}")

    mu = w.mu
    weights = w.weights
    # integer bookkeeping: coefficients are stored scaled by (lcm(w)*mu)^steps,
    # so the hot loop is gcd-free; the true rationals are restored at the end
    spec = spectrum_direct(w)
    scale = spec.denominator
    sigma_scaled = [k * scale - v for k, v in enumerate(spec.scaled)]
    step_denom = scale * mu
    flat: dict[tuple[int, int], int] = {(0, 0): 1}
    current = [0] * (w.n + 1)
    total = 0
    for j in path:
        l_scaled = total * scale - mu * current[j] * (scale // weights[j])
        nxt: dict[tuple[int, int], int] = {}
        for (k, m), c in flat.items():
            t = m * scale - sigma_scaled[k] + l_scaled
            if t:
                key = (k, m - 1)
                s = nxt.get(key, 0) - c * t
                if s:
                    nxt[key] = s
                else:
                    del nxt[key]
            key = ((k + 1) % mu, m)
            s = nxt.get(key, 0) + c * step_denom
            if s:
                nxt[key] = s
            else:
                del nxt[key]
        flat = nxt
        current[j] += 1
        total += 1
    denom = step_denom ** len(path)
    return GElement._raw(mu, {key: Fraction(c, denom) for key, c in flat.items()})


def f_action(x: GElement | Sequence[int], w: WeightSystem) -> GElement:
    """Multiply by the defining linear form f = sum_i w_i u_i.

    For a monomial class this is sum_i w_i * reduce_monomial(a + 1_i); on a
    basis vector it gives mu * omega_{k+1 mod mu} + sigma(k) * theta * omega_k,
    so the matrix of f modulo theta is exactly A0.
    """
    if isinstance(x, GElement):
        mu = _require_mu(x, w)
        sigma = spectrum_direct(w).spectral_numbers
        out: dict[tuple[int, int], Fraction] = {}
        for (k, m), c in x.coeffs.items():
            _add_term(out, ((k + 1) % mu, m), mu * c)
            _add_term(out, (k, m - 1), sigma[k] * c)
        return GElement._raw(mu, out)
    base = canonical_exponents(x, w)
    acc = GElement.zero(w.mu)
    for i, wi in enumerate(w.weights):
        bumped = list(base)
        bumped[i] += 1
        acc = acc + reduce_monomial(bumped, w).scale(wi)
    return acc


def v_order(x: GElement, w: WeightSystem) -> Fraction | None:
    """max over stored terms tau^m * omega_k of sigma(k) + m; None for the
    zero element, which has no order."""
    _require_mu(x, w)
    sigma = spectrum_direct(w).spectral_numbers
    return max((sigma[k] + m for k, m in x.coeffs), default=None)
