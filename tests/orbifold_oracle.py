"""sigma and the metric partner from the Chen-Ruan cohomology of P(w).

The Frobenius manifold of a weight system is the orbifold quantum
cohomology of the weighted projective space P(w_0, ..., w_n) (Mann,
arXiv math/0510331; Coates-Corti-Lee-Tseng, arXiv math/0608481).  Its
Chen-Ruan cohomology (arXiv math/0004129) has one sector for each
f = l / w_i in [0, 1).  The sector is P(w_i : f * w_i in Z), of dimension
d_f = #{i : f * w_i in Z} - 1, and its classes H^j, j = 0..d_f, sit in
degree a_f + j, shifted by the age a_f = sum_i ceil(f * w_i) - f * mu.
Orbifold Poincare duality pairs (f, j) with (1 - f, d_f - j), and the
untwisted sector f = 0 with itself, as (0, n - j).

Laid out by sector in increasing f, then by j, the classes are the basis
indices of the spectrum: the degree of index k is sigma(k), and its dual
class is the metric partner of k.  Everything is an integer over
D = lcm(w), and nothing is imported from ``weightspec``, so the tests
compare the library with a route from another theory.
"""

from __future__ import annotations

import math


def sectors(weights) -> list[tuple[int, int, int]]:
    """(f * D, d_f, a_f * D) for each sector f, in increasing f."""
    mu, d = sum(weights), math.lcm(*weights)
    out = []
    for f in sorted({l * (d // wi) for wi in weights for l in range(wi)}):
        dim = sum(f * wi % d == 0 for wi in weights) - 1
        age = sum(-(-f * wi // d) for wi in weights) * d - f * mu
        out.append((f, dim, age))
    return out


def sigma_and_partner(weights) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, sigma(k) * D, partner(k)) for k = 0..mu-1, read off the classes
    (f, j): the block of sector f starts where the blocks before it end."""
    d, table = math.lcm(*weights), sectors(weights)
    start, sigma = {}, []
    for f, dim, age in table:
        start[f] = len(sigma)
        sigma.extend(age + j * d for j in range(dim + 1))
    partner = []
    for f, dim, _ in table:
        dual = start[-f % d]  # the sector 1 - f, and 0 for f = 0
        partner.extend(dual + dim - j for j in range(dim + 1))
    return d, tuple(sigma), tuple(partner)
