"""Workload inputs, made from a seed, and the fixed machine reference kernel.

This module imports only the standard library at import time, so a fresh
interpreter can load it before the clock for ``setup_s`` starts; the
program is imported inside :func:`build`.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import NamedTuple

# (number of weights, mu) for each system of a pass.  The seed chooses the
# weights; fixing the shape keeps the work of a pass nearly the same for
# every seed, so the spread across seeds is the machine's, not the input's.
LADDER_SHAPES = ((7, 44), (8, 48), (10, 52))
WIDE_MUS = (64, 80, 96)
SESSION_SHAPE = (3, 4001)  # three prime weights: mu is odd
FROBENIUS_SHAPE = (4, 96)
REFLEXIVE_DIMENSIONS = (2, 3, 4, 5)
FORMATS = ("json", "csv", "table")

WORKLOADS = ("verify-ladder", "verify-wide", "report-session", "reflexive-tables")


class Op(NamedTuple):
    """One CLI call: its argv plus what the oracles need to check it."""

    command: str
    argv: tuple[str, ...]
    weights: tuple[int, ...] = ()  # sorted ascending, as the program reports them
    dimension: int = 0
    fmt: str = "json"


def composition(rng: random.Random, parts: int, mu: int) -> list[int]:
    """A random gcd-1 composition of mu into ``parts`` weights, each between
    half and one and a half times ``mu/parts``, shuffled into the order a
    user might type them.

    Cut j falls in ``mu * (j +- 1/4) / parts``.  Unrestricted compositions
    (say a weight of 1 beside two large ones) change the work of a pass by
    up to 1.6x at the same mu, which would swamp the spread across seeds.
    """
    while True:
        cuts = [
            rng.randint(math.ceil(mu * (j - 0.25) / parts), math.floor(mu * (j + 0.25) / parts))
            for j in range(1, parts)
        ]
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, mu])]
        if math.gcd(*weights) == 1:
            rng.shuffle(weights)
            return weights


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_composition(rng: random.Random, parts: int, mu: int) -> list[int]:
    """A composition of mu into ``parts`` distinct primes, each between half
    and one and a half times ``mu/parts``, shuffled.

    With prime weights every spectrum value ``l*mu/w_i`` (``0 < l < w_i``)
    is a fraction in lowest terms with denominator ``w_i`` and no two
    coincide, so the size of the reports, and the work of building and
    encoding them, is nearly the same for every seed.  Weights that share
    factors with each other or with mu reduce some fractions and merge
    some values: at mu = 4000 the JSON of one system varied by a quarter
    between seeds.
    """
    low, high = math.ceil(mu / (2 * parts)), math.floor(3 * mu / (2 * parts))
    while True:
        weights = []
        for _ in range(parts - 1):
            w = rng.randint(low, high)
            while not is_prime(w):
                w += 1
            weights.append(w)
        last = mu - sum(weights)
        if low <= last <= high and is_prime(last) and len({*weights, last}) == parts:
            weights.append(last)
            rng.shuffle(weights)
            return weights


def lopsided_pair(rng: random.Random, mu: int) -> list[int]:
    """Two coprime weights summing to mu, the smaller between mu/12 and mu/6.

    This is the shape where the dense mu x mu suites of ``verify`` weigh
    about as much as the Gauss-Manin reduction; balanced weights, or more
    of them, make the reduction dearer.
    """
    while True:
        small = rng.randint(math.ceil(mu / 12), mu // 6)
        if math.gcd(small, mu) == 1:
            pair = [small, mu - small]
            rng.shuffle(pair)
            return pair


def weight_op(command: str, raw: list[int], *extra: str) -> Op:
    from weightspec.weights import make_weight_system

    system = make_weight_system(raw)
    argv = (command, "-w", ",".join(map(str, raw)), *extra, "--format", "json")
    return Op(command, argv, system.weights)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``.

    Every generated system goes through ``make_weight_system`` (the
    program's own validation), which is part of what ``setup_s`` times.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-ladder":
        return [weight_op("verify", composition(rng, *shape), "--all") for shape in LADDER_SHAPES]
    if workload == "verify-wide":
        return [weight_op("verify", lopsided_pair(rng, mu), "--all") for mu in WIDE_MUS]
    if workload == "report-session":
        big = prime_composition(rng, *SESSION_SHAPE)
        ops = [weight_op(cmd, big) for cmd in ("spectrum", "jordan", "filtrations")]
        ops.append(weight_op("frobenius", composition(rng, *FROBENIUS_SHAPE)))
        return ops
    if workload == "reflexive-tables":
        # the inputs are fixed by the problem; the seed sets the call order
        ops = [
            Op("reflexive", ("reflexive", "-n", str(n), "--format", fmt), dimension=n, fmt=fmt)
            for n in REFLEXIVE_DIMENSIONS
            for fmt in FORMATS
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# The reference kernel runs between the calls of every timed pass.  A time
# metric is reported at the reference speed: the measured seconds times
# REF_NOMINAL_S over the mean of the kernel's times around it.  The kernel
# touches nothing of the program, so the scaling removes the machine's
# drift and keeps every change the program makes to its own time.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.010


def machine_ref() -> float:
    """Seconds taken by a fixed pure-Python kernel that touches nothing of
    the program, with the cyclic collector off.  Its drift between runs is
    the machine's, not the program's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        x = 1
        for i in range(REF_ITERATIONS):
            x = (x * 1103515245 + 12345) % 2147483648
            table[x & 1023] = table.get(x & 1023, 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_ref_speed(seconds: float, refs: list[float]) -> float:
    """``seconds`` scaled to a machine on which the reference kernel takes
    REF_NOMINAL_S, by the mean of the kernel's times ``refs`` taken around
    the measured work."""
    return seconds * REF_NOMINAL_S / (sum(refs) / len(refs))
