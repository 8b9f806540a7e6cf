"""Symbolic model of the rank-mu connection module in its canonical basis.

Elements are length-mu vectors of Laurent polynomials in tau with exact
rational coefficients, written in the basis omega_0, ..., omega_{mu-1}.
The logarithmic derivative acts on basis elements by

    tau_dtau(omega_k) = -sigma(k) * omega_k - mu * tau * omega_{k+1 mod mu}

(with omega_mu = omega_0) and extends by the Leibniz rule.  From this one
operator everything else follows: the degree-mu Bernstein relation, the
Birkhoff normal form theta^2 d_theta = A0 + theta * A_inf (theta = 1/tau),
reduction of monomial classes u^a * omega_0 to the basis, multiplication
by the defining linear form f = sum_i w_i u_i, and the V-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .spectrum import spectrum_direct
from .weights import WeightSystem

Scalar = Union[int, Fraction]


class DimensionMismatch(ValueError):
    """Element length does not match mu of the weight system."""


class DecompositionFailure(RuntimeError):
    """A tau-power outside {0, -1} appeared while extracting A0 / A_inf."""


class LaurentPoly:
    """A Laurent polynomial in tau: finite map exponent -> nonzero Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[m] = c
        self.coeffs = clean

    @classmethod
    def _raw(cls, coeffs: dict[int, Fraction]) -> "LaurentPoly":
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def term(cls, exponent: int, coefficient: Scalar = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly._raw(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, factor: Scalar) -> "LaurentPoly":
        if not factor:
            return LaurentPoly.zero()
        return LaurentPoly._raw({m: c * factor for m, c in self.coeffs.items()})

    def shift(self, power: int) -> "LaurentPoly":
        """Multiply by tau**power."""
        return LaurentPoly._raw({m + power: c for m, c in self.coeffs.items()})

    def tau_ddtau(self) -> "LaurentPoly":
        """tau * d/dtau: sends tau^m to m * tau^m."""
        return LaurentPoly({m: m * c for m, c in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            if m == 0:
                parts.append(f"{c}")
            elif m == 1:
                parts.append(f"{c}*tau")
            else:
                parts.append(f"{c}*tau^{m}")
        return " + ".join(parts)


class GElement:
    """A vector of mu Laurent polynomials: coordinates in omega_0..omega_{mu-1}."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[LaurentPoly]):
        self.entries = tuple(entries)

    @property
    def mu(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, mu: int) -> "GElement":
        return cls(LaurentPoly.zero() for _ in range(mu))

    @classmethod
    def basis(
        cls, mu: int, k: int, tau_power: int = 0, coefficient: Scalar = 1
    ) -> "GElement":
        """coefficient * tau**tau_power * omega_k."""
        entries = [LaurentPoly.zero()] * mu
        entries[k] = LaurentPoly.term(tau_power, coefficient)
        return cls(entries)

    @classmethod
    def from_terms(
        cls, mu: int, terms: Iterable[tuple[int, int, Scalar]]
    ) -> "GElement":
        """Build from (basis index k, tau power m, coefficient) triples."""
        entries: list[dict[int, Fraction]] = [{} for _ in range(mu)]
        for k, m, c in terms:
            c = Fraction(c)
            s = entries[k].get(m, 0) + c
            if s:
                entries[k][m] = s
            else:
                entries[k].pop(m, None)
        return cls(LaurentPoly._raw(d) for d in entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "GElement") -> "GElement":
        if self.mu != other.mu:
            raise DimensionMismatch(f"{self.mu} != {other.mu}")
        return GElement(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "GElement") -> "GElement":
        if self.mu != other.mu:
            raise DimensionMismatch(f"{self.mu} != {other.mu}")
        return GElement(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "GElement":
        return GElement(-p for p in self.entries)

    def scale(self, factor: Scalar) -> "GElement":
        return GElement(p.scale(factor) for p in self.entries)

    def shift(self, power: int) -> "GElement":
        """Multiply by tau**power."""
        return GElement(p.shift(power) for p in self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def terms(self) -> list[tuple[int, int, Fraction]]:
        """All stored terms as (basis index k, tau power m, coefficient)."""
        return [
            (k, m, c)
            for k, p in enumerate(self.entries)
            for m, c in p.coeffs.items()
        ]

    def __repr__(self) -> str:
        parts = [f"({p!r})*w{k}" for k, p in enumerate(self.entries) if p]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ExponentVector:
    """Integer exponents of the torus coordinates u_0..u_n, up to the
    relation u^w = 1 (adding any integer multiple of w)."""

    exponents: tuple[int, ...]

    def canonical(self, w: WeightSystem) -> "ExponentVector":
        """The representative with all entries >= 0 and some entry < w_i,
        obtained by adding the single minimal multiple of w."""
        if len(self.exponents) != w.n + 1:
            raise DimensionMismatch(
                f"{len(self.exponents)} exponents for {w.n + 1} weights"
            )
        shift = -min(a // wi for a, wi in zip(self.exponents, w.weights))
        return ExponentVector(
            tuple(a + shift * wi for a, wi in zip(self.exponents, w.weights))
        )

    def bump(self, j: int) -> "ExponentVector":
        lifted = list(self.exponents)
        lifted[j] += 1
        return ExponentVector(tuple(lifted))


def tau_dtau(x: GElement, w: WeightSystem) -> GElement:
    """Apply the logarithmic derivative tau * d/dtau."""
    mu = w.mu
    if x.mu != mu:
        raise DimensionMismatch(f"element has {x.mu} entries, mu = {mu}")
    sigma = spectrum_direct(w).spectral_numbers
    out = [LaurentPoly.zero()] * mu
    for k, p in enumerate(x.entries):
        if not p:
            continue
        # Leibniz: tau d/dtau on the coefficient, then the basis action
        out[k] = out[k] + p.tau_ddtau() + p.scale(-sigma[k])
        nxt = (k + 1) % mu
        out[nxt] = out[nxt] + p.shift(1).scale(-mu)
    return GElement(out)


def bernstein_check(w: WeightSystem) -> GElement:
    """Apply prod_{k=0}^{mu-1} [ -(1/mu) (tau_dtau - s(k)) ] to omega_0,
    factor k = 0 first.  The result must equal tau**mu * omega_0; the
    caller asserts that equality."""
    mu = w.mu
    s_values = spectrum_direct(w).values
    acc = GElement.basis(mu, 0)
    minus_inv_mu = Fraction(-1, mu)
    for k in range(mu):
        acc = (tau_dtau(acc, w) + acc.scale(-s_values[k])).scale(minus_inv_mu)
    return acc


def birkhoff_matrices(
    w: WeightSystem,
) -> tuple[dict[tuple[int, int], Fraction], dict[tuple[int, int], Fraction]]:
    """Nonzero entries (row, column) -> coefficient of A0 and A_inf in
    theta^2 d_theta = -tau^(-1) tau_dtau: column k of A0 is the tau^0 part,
    of A_inf the theta part.  Other tau-powers raise DecompositionFailure."""
    mu = w.mu
    a0, ainf = {}, {}
    for k in range(mu):
        image = tau_dtau(GElement.basis(mu, k), w).shift(-1).scale(-1)
        for j, m, c in image.terms():
            if m == 0:
                a0[j, k] = c
            elif m == -1:
                ainf[j, k] = c
            else:
                raise DecompositionFailure(
                    f"tau^{m} term in theta^2 d_theta omega_{k}"
                )
    return a0, ainf


def reduce_monomial(
    a: ExponentVector | Sequence[int],
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
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    target = a.canonical(w).exponents
    if path is None:
        path = [j for j, count in enumerate(target) for _ in range(count)]
    else:
        path = list(path)
        counts = [0] * (w.n + 1)
        for j in path:
            counts[j] += 1
        if tuple(counts) != target:
            raise ValueError(f"path {list(path)} does not lead to {target}")

    mu = w.mu
    weights = w.weights
    # integer bookkeeping: coefficients are stored scaled by (lcm(w)*mu)^steps,
    # so the hot loop is gcd-free; the true rationals are restored at the end
    scale = math.lcm(*weights)
    sigma_scaled = [int(s * scale) for s in spectrum_direct(w).spectral_numbers]
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
    return GElement.from_terms(
        mu, ((k, m, Fraction(c, denom)) for (k, m), c in flat.items())
    )


def f_action(
    x: GElement | ExponentVector | Sequence[int], w: WeightSystem
) -> GElement:
    """Multiply by the defining linear form f = sum_i w_i u_i.

    For a monomial class this is sum_i w_i * reduce_monomial(a + 1_i); on a
    basis vector it gives mu * omega_{k+1 mod mu} + sigma(k) * theta * omega_k,
    so the matrix of f modulo theta is exactly A0.
    """
    if isinstance(x, GElement):
        mu = w.mu
        if x.mu != mu:
            raise DimensionMismatch(f"element has {x.mu} entries, mu = {mu}")
        sigma = spectrum_direct(w).spectral_numbers
        out = [LaurentPoly.zero()] * mu
        for k, p in enumerate(x.entries):
            if not p:
                continue
            nxt = (k + 1) % mu
            out[nxt] = out[nxt] + p.scale(mu)
            out[k] = out[k] + p.shift(-1).scale(sigma[k])
        return GElement(out)
    if not isinstance(x, ExponentVector):
        x = ExponentVector(tuple(x))
    base = x.canonical(w)
    acc = GElement.zero(w.mu)
    for i, wi in enumerate(w.weights):
        acc = acc + reduce_monomial(base.bump(i), w).scale(wi)
    return acc


def v_order(x: GElement, w: WeightSystem) -> Fraction | float:
    """max over stored terms tau^m * omega_k of sigma(k) + m; the zero
    element returns +infinity (sentinel only, no float arithmetic)."""
    if x.mu != w.mu:
        raise DimensionMismatch(f"element has {x.mu} entries, mu = {w.mu}")
    if x.is_zero():
        return math.inf
    sigma = spectrum_direct(w).spectral_numbers
    return max(sigma[k] + m for k, m, _ in x.terms())
