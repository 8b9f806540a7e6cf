"""The orbifold route: sigma and the metric partner of every basis index
from the Chen-Ruan sectors of P(w), against the spectrum and the metric."""

import orbifold_oracle
import weightspec.frobenius as frobenius
from weightspec import WeightSystem, make_weight_system, spectrum_direct

from conftest import exhaustive_mu, random_systems, weight_systems_up_to


def _library(w):
    spec = spectrum_direct(w)
    return spec.denominator, spec.sigma_scaled, tuple(frobenius.metric_partner(k, w) for k in range(w.mu))


def test_orbifold_route_on_corpus():
    systems = [WeightSystem(tup) for tup in weight_systems_up_to(exhaustive_mu(12))]
    systems += random_systems(seed=33, count=300, mu_max=300, max_parts=7)
    for w in systems:
        assert _library(w) == orbifold_oracle.sigma_and_partner(w.weights), w.weights


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
