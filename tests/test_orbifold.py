"""The orbifold route: sigma and the metric partner of every basis index
from the Chen-Ruan sectors of P(w), against the spectrum and the metric;
the sector dimensions against the Jordan blocks; and integral ages
against reflexivity and an integral spectrum."""

import math

import orbifold_oracle
import weightspec.frobenius as frobenius
from weightspec import (
    WeightSystem,
    enumerate_reflexive,
    is_reflexive,
    jordan_blocks,
    make_weight_system,
    spectrum_direct,
)
from weightspec.reflexive import has_integral_spectrum

from conftest import exhaustive_mu, random_systems, weight_systems_up_to


def _library(w):
    spec = spectrum_direct(w)
    return spec.denominator, spec.sigma_scaled, tuple(frobenius.metric_partner(k, w) for k in range(w.mu))


def _corpus():
    systems = [WeightSystem(tup) for tup in weight_systems_up_to(exhaustive_mu(12))]
    return systems + random_systems(seed=33, count=300, mu_max=300, max_parts=7)


def test_orbifold_route_on_corpus():
    for w in _corpus():
        assert _library(w) == orbifold_oracle.sigma_and_partner(w.weights), w.weights


def test_orbifold_sectors_on_corpus_and_reflexive_families():
    # one Jordan block per sector f, of size d_f + 1, in increasing f; every
    # age is an integer iff each w_i divides mu iff the spectrum is integral
    families = [record.weights for n in range(1, 5) for record in enumerate_reflexive(n)]
    integral = []
    for w in _corpus() + families:
        table = orbifold_oracle.sectors(w.weights)
        assert [dim + 1 for _, dim, _ in table] == [b.size for b in jordan_blocks(w).blocks], w.weights
        d = math.lcm(*w.weights)
        integral_ages = all(age % d == 0 for _, _, age in table)
        assert integral_ages == is_reflexive(w) == has_integral_spectrum(w), w.weights
        integral.append(integral_ages)
    assert all(integral[-len(families):])


def test_orbifold_route_sees_the_metric_swap(monkeypatch):
    # on (1, 1, 2) the partner (2, 3, 0, 1) keeps the involution and
    # sigma(k) + sigma(partner(k)) = n, but pairs (1/2, 0) with the
    # untwisted class (0, 1), not with itself
    w = make_weight_system([1, 1, 2])
    d, sigma, partner = orbifold_oracle.sigma_and_partner(w.weights)
    assert (sigma, partner) == ((0, 2, 4, 2), (2, 1, 0, 3))
    assert _library(w) == (d, sigma, partner)
    monkeypatch.setattr(frobenius, "metric_partner", lambda k, w: (2, 3, 0, 1)[k])
    assert _library(w) != (d, sigma, partner)
