"""Acceptance gate: one test per criterion, every comparison exact.

Each criterion prints one PASS/FAIL line.  Exhaustive sweeps default to
bounds that keep the suite around a minute; WEIGHTSPEC_MU_FULL=60 widens
them to the full corpus (see README).  Seeded random systems extend
coverage to the stated mu ranges in every run.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from weightspec import (
    GElement,
    WeightSystem,
    bernstein_check,
    check_symmetry,
    enumerate_reflexive,
    eigenvalue_classes,
    is_reflexive,
    jordan_blocks,
    make_weight_system,
    reduce_monomial,
    spectral_polynomial,
    spectrum_direct,
    spectrum_from_steps,
    step_sequence,
    table_compare,
)
from weightspec.gaussmanin import canonical_exponents
from weightspec.reflexive import has_integral_spectrum
from weightspec.verify import (
    verify_bernstein,
    verify_birkhoff,
    verify_charpoly,
    verify_orthogonality,
    verify_pairing,
    verify_saito,
)

from conftest import (
    exhaustive_mu,
    random_systems,
    random_weight_tuple,
    weight_systems_up_to,
    weight_systems_with_parts,
)

from test_reflexive import TABLE_DIM3, TABLE_DIM4, TABLE_DIM4_ERRATUM
from test_spectrum import ladder_triples

F = Fraction

FIXTURES = [
    (1, 2, 12, 15, 30),
    (1, 1, 8, 20, 30),
    (2, 3, 10, 15),
    (1, 6, 14, 21),
    (5, 6, 7, 8, 9, 11),
]


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{name}]: PASS")


def test_criterion_01_all_ones_spectral_polynomial():
    with criterion(1, "all-ones spectral polynomial"):
        for n in range(2, 9):
            w = make_weight_system([1] * (n + 1))
            assert spectral_polynomial(w) == [(F(k), 1) for k in range(n + 1)]


def test_criterion_02_oracle_equality():
    with criterion(2, "step recursion == multiset merge"):
        for tup in weight_systems_up_to(exhaustive_mu(24)):
            w = WeightSystem(tup)
            seq = step_sequence(w)
            by_steps = spectrum_from_steps(seq, w)
            assert by_steps == spectrum_direct(w)
        rng = random.Random(202)
        for _ in range(1000):
            w = WeightSystem(random_weight_tuple(rng, mu_max=500, max_parts=6))
            seq = step_sequence(w)
            by_steps = spectrum_from_steps(seq, w)
            direct = spectrum_direct(w)
            assert by_steps == direct
            d = by_steps.denominator
            recursion = [
                (F(by_steps.scaled[k], d), seq.indices[k], seq.exponents[k][seq.indices[k]])
                for k in range(w.mu)
            ]
            assert recursion == ladder_triples(w)


def test_criterion_03_symmetry_suite():
    with criterion(3, "symmetry identities"):
        for tup in weight_systems_up_to(exhaustive_mu(24)):
            w = WeightSystem(tup)
            assert check_symmetry(spectrum_direct(w), w) == []
        for w in random_systems(seed=303, count=250, mu_max=500, max_parts=6):
            assert check_symmetry(spectrum_direct(w), w) == []


def test_criterion_04_bernstein_relation():
    with criterion(4, "Bernstein relation"):
        for tup in weight_systems_up_to(exhaustive_mu(20)):
            w = WeightSystem(tup)
            assert bernstein_check(w) == GElement.basis(w.mu, 0, tau_power=w.mu)
        for w in random_systems(seed=404, count=150, mu_max=60):
            assert verify_bernstein(w) == []
        for w in random_systems(seed=405, count=10, mu_max=100):
            assert verify_bernstein(w) == []


def test_criterion_05_birkhoff_fixture():
    with criterion(5, "Birkhoff matrices, f mod theta, charpoly"):
        for tup in weight_systems_up_to(exhaustive_mu(14)):
            assert verify_birkhoff(WeightSystem(tup)) == []
        for w in random_systems(seed=505, count=50, mu_max=60):
            assert verify_birkhoff(w) == []
        # A0 depends only on mu; cover every mu up to 40 exactly
        for mu in range(2, 41):
            assert verify_charpoly(WeightSystem(tuple([1] * mu))) == []
        for w in random_systems(seed=506, count=30, mu_max=40):
            assert verify_charpoly(w) == []


def test_criterion_06_pairing_metric_identities():
    with criterion(6, "pairing and metric identities"):
        for tup in weight_systems_up_to(exhaustive_mu(18)):
            assert verify_pairing(WeightSystem(tup)) == []
        for w in random_systems(seed=606, count=100, mu_max=60):
            assert verify_pairing(w) == []
        for tup in FIXTURES:
            assert verify_pairing(WeightSystem(tup)) == []


def test_criterion_07_mu60_jordan_fixture():
    with criterion(7, "mu = 60 Jordan fixture"):
        w = make_weight_system([1, 2, 12, 15, 30])
        assert set(eigenvalue_classes(w)) == {0}  # keyed by alpha*lcm(w)
        sizes = jordan_blocks(w).size_multiset()
        assert max(sizes) == 5 and sizes[5] == 1
        assert sizes[3] == 3
        assert sum(size * count for size, count in sizes.items()) == 60
        # size-2 / size-1 counts come from the direct multiset oracle
        multiplicities = Counter(Counter(spectrum_direct(w).scaled).values())
        assert sizes == dict(multiplicities)
        assert multiplicities[2] == 14
        assert multiplicities[1] == 18


def test_criterion_08_reflexive_tables():
    with criterion(8, "reflexive enumeration vs tables"):
        assert table_compare(3, TABLE_DIM3)[0] == []
        assert table_compare(4, TABLE_DIM4)[0] == []
        # the remaining tabulated dim-4 row fails the divisibility
        # definition itself (8 does not divide 60), so its absence from
        # the complete enumeration is the correct outcome
        erratum = make_weight_system(list(TABLE_DIM4_ERRATUM))
        assert not is_reflexive(erratum)
        assert table_compare(4, [TABLE_DIM4_ERRATUM])[0] == [TABLE_DIM4_ERRATUM]
        records = enumerate_reflexive(2)
        assert [r.weights.weights for r in records] == [(1, 1, 1), (1, 1, 2), (1, 2, 3)]
        brute = {
            tup
            for tup in weight_systems_with_parts(3, 100)
            if all(sum(tup) % wi == 0 for wi in tup)
        }
        assert brute == {r.weights.weights for r in records}
        for tup in weight_systems_up_to(exhaustive_mu(24)):
            w = WeightSystem(tup)
            assert is_reflexive(w) == has_integral_spectrum(w)
        for w in random_systems(seed=808, count=150, mu_max=60):
            assert is_reflexive(w) == has_integral_spectrum(w)


def test_criterion_09_saito_filtration_suite():
    with criterion(9, "opposite filtration and orthogonality"):
        for tup in weight_systems_up_to(exhaustive_mu(20)):
            w = WeightSystem(tup)
            assert verify_saito(w) == []
            assert verify_orthogonality(w) == []
        for w in random_systems(seed=909, count=100, mu_max=60):
            assert verify_saito(w) == []
            assert verify_orthogonality(w) == []
        for w in (WeightSystem(t) for t in FIXTURES):
            assert verify_saito(w) == []
            assert verify_orthogonality(w) == []


def test_criterion_10_reduction_path_independence():
    with criterion(10, "monomial reduction path independence"):
        rng = random.Random(1010)
        systems = [
            WeightSystem(random_weight_tuple(rng, mu_max=30, max_parts=5))
            for _ in range(20)
        ]
        for w in systems:
            seq = step_sequence(w)
            for k in range(w.mu):
                assert reduce_monomial(seq.exponents[k], w) == GElement.basis(w.mu, k)
            for _ in range(500):
                a = tuple(rng.randint(-4, 4) for _ in range(w.n + 1))
                target = canonical_exponents(a, w)
                path = [j for j, c in enumerate(target) for _ in range(c)]
                rng.shuffle(path)
                assert reduce_monomial(a, w, path=path) == reduce_monomial(a, w)
