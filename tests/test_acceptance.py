"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
The heavy H4 objects are built once per session and shared.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from dedarr import charquasi as cq
from dedarr import layers as ly
from dedarr import oracle
from dedarr import ring as rg
from dedarr import rootsys
from dedarr.quasipoly import poly_eval

from conftest import (flats_above, invariant_factors, m_value,
                      rand_small_arrangement)

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)

RINGS = [Z, ZI, Z5, ZT]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d}: FAIL - {desc}", flush=True)
        raise
    print(f"criterion {num:2d}: PASS - {desc}", flush=True)


def ideal(ring, *gens):
    return rg.Ideal.from_generators(ring, list(gens))


@pytest.fixture(scope="module")
def gaussian_qp(gaussian_arrangement):
    return cq.constituents(gaussian_arrangement, path="subset")


@pytest.fixture(scope="module")
def nonprincipal_qp(nonprincipal_arrangement):
    return cq.constituents(nonprincipal_arrangement, path="subset")


@pytest.fixture(scope="session")
def h2():
    return rootsys.builtin("H2")


@pytest.fixture(scope="session")
def h3():
    return rootsys.builtin("H3")


@pytest.fixture(scope="session")
def h4():
    return rootsys.builtin("H4")


@pytest.fixture(scope="session")
def h2_qp(h2):
    return cq.constituents(h2.arrangement, path="subset")


@pytest.fixture(scope="session")
def h3_qp(h3):
    return cq.constituents(h3.arrangement, path="subset")


@pytest.fixture(scope="session")
def h3_poset(h3):
    return ly.layer_poset(h3.arrangement)


@pytest.fixture(scope="session")
def h4_built(h4):
    """(poset, quasi-polynomial, elapsed seconds) for H4, built once."""
    start = time.monotonic()
    rho = cq.lcm_period(h4.arrangement)
    poset = ly.layer_poset(h4.arrangement, period=rho)
    qp = poset.quasi_polynomial()
    elapsed = time.monotonic() - start
    return poset, qp, elapsed


def test_criterion_1_gaussian_example(gaussian_arrangement):
    with criterion(1, "Gaussian four-line arrangement: period <2> and "
                      "three exact constituents in under a second"):
        start = time.monotonic()
        q = cq.constituents(gaussian_arrangement, path="subset")
        elapsed = time.monotonic() - start
        p = ideal(ZI, (1, 1))
        two = ideal(ZI, (2, 0))
        assert q.period == two
        assert q.constituents[rg.Ideal.unit(ZI)] == (3, -4, 1)
        assert q.constituents[p] == (6, -4, 1)
        assert q.constituents[two] == (10, -4, 1)
        assert elapsed < 1.0


def test_criterion_2_nonprincipal_example(nonprincipal_arrangement):
    with criterion(2, "Z[sqrt(-5)] two-column arrangement: period "
                      "<1+sqrt(-5)> and four exact constituents in under "
                      "a second"):
        start = time.monotonic()
        q = cq.constituents(nonprincipal_arrangement, path="subset")
        elapsed = time.monotonic() - start
        p = ideal(Z5, (2, 0), (1, -1))
        qq = ideal(Z5, (3, 0), (1, 1))
        pq = ideal(Z5, (1, 1))
        assert q.period == pq
        assert q.constituents[rg.Ideal.unit(Z5)] == (0, -1, 1)
        assert q.constituents[p] == (0, -2, 1)
        assert q.constituents[qq] == (0, -3, 1)
        assert q.constituents[pq] == (0, -4, 1)
        assert elapsed < 1.0


def test_criterion_3_h2_h3(h2, h3):
    with criterion(3, "H2 and H3 periods and constituents exact, "
                      "under ten seconds"):
        start = time.monotonic()
        q2 = cq.constituents(h2.arrangement)
        q3 = cq.constituents(h3.arrangement)
        elapsed = time.monotonic() - start
        assert q2.period.is_unit_ideal()
        assert q2.constituents[rg.Ideal.unit(ZT)] == (4, -5, 1)
        two = ideal(ZT, (2, 0))
        assert q3.period == two
        assert q3.constituents[rg.Ideal.unit(ZT)] == (-45, 59, -15, 1)
        assert q3.constituents[two] == (-60, 59, -15, 1)
        assert elapsed < 10.0


def test_criterion_4_h4(h4_built):
    with criterion(4, "H4: period <6 sqrt 5> and all eight constituents "
                      "via the layer-poset path, within thirty minutes"):
        poset, q, elapsed = h4_built
        assert elapsed <= 1800.0
        six_sqrt5 = ideal(ZT, (-6, 12))
        assert q.period == six_sqrt5
        expected = {
            (1, 0): (6061, -7140, 1138, -60, 1),      # <1>
            (3, 0): (9261, -7140, 1138, -60, 1),      # <3>
            (-1, 2): (14125, -7140, 1138, -60, 1),    # <sqrt 5>
            (-3, 6): (17325, -7140, 1138, -60, 1),    # <3 sqrt 5>
            (2, 0): (17536, -8040, 1138, -60, 1),     # <2>
            (6, 0): (20736, -8040, 1138, -60, 1),     # <6>
            (-2, 4): (25600, -8040, 1138, -60, 1),    # <2 sqrt 5>
            (-6, 12): (28800, -8040, 1138, -60, 1),   # <6 sqrt 5>
        }
        assert len(q.divisors()) == 8
        for gen, coeffs in expected.items():
            assert q.constituents[ideal(ZT, gen)] == coeffs


def test_criterion_5_oracle_equivalence(gaussian_arrangement, gaussian_qp,
                                        nonprincipal_arrangement,
                                        nonprincipal_qp, h2, h2_qp,
                                        h3, h3_qp):
    with criterion(5, "evaluate equals the brute-force complement count "
                      "for every ideal with N^ell <= 10^6 on both "
                      "worked examples, H2 and H3"):
        cases = [
            (gaussian_arrangement, gaussian_qp, ZI),
            (nonprincipal_arrangement, nonprincipal_qp, Z5),
            (h2.arrangement, h2_qp, ZT),
            (h3.arrangement, h3_qp, ZT),
        ]
        checked = 0
        for A, q, ring in cases:
            bound = 1
            while (bound + 1) ** A.ell <= 10 ** 6:
                bound += 1
            for a in rg.ideals_of_norm_up_to(ring, bound):
                if a.norm ** A.ell > 10 ** 6:
                    continue
                assert q.evaluate(a) == \
                    oracle.brute_count_complement(A, a), (A.name, a)
                checked += 1
        assert checked > 1000


def test_criterion_6_path_equivalence(gaussian_arrangement, gaussian_qp,
                                      nonprincipal_arrangement,
                                      nonprincipal_qp, h2, h2_qp,
                                      h3, h3_qp, h3_poset):
    with criterion(6, "subset-sum constituents equal the layer-poset "
                      "characteristic polynomials for every divisor"):
        cases = [
            (gaussian_arrangement, gaussian_qp, None),
            (nonprincipal_arrangement, nonprincipal_qp, None),
            (h2.arrangement, h2_qp, None),
            (h3.arrangement, h3_qp, h3_poset),
        ]
        for A, q_subset, poset in cases:
            if poset is None:
                poset = ly.layer_poset(A, period=q_subset.period)
            for kappa in q_subset.divisors():
                assert poset.kappa_characteristic_polynomial(kappa) == \
                    q_subset.constituents[kappa], (A.name, kappa)


def test_criterion_7_first_constituent_is_whitney(gaussian_arrangement,
                                                  gaussian_qp,
                                                  nonprincipal_arrangement,
                                                  nonprincipal_qp,
                                                  h2, h2_qp, h3, h3_qp,
                                                  h4_built):
    with criterion(7, "the unit-ideal constituent equals the Whitney "
                      "characteristic polynomial on all built-ins and "
                      "fifty random arrangements"):
        _, h4_qp, _ = h4_built
        fixed = [
            (gaussian_arrangement, gaussian_qp),
            (nonprincipal_arrangement, nonprincipal_qp),
            (h2.arrangement, h2_qp),
            (h3.arrangement, h3_qp),
            (rootsys.builtin("H4").arrangement, h4_qp),
        ]
        for A, q in fixed:
            assert q.constituents[rg.Ideal.unit(A.ring)] == \
                ly.whitney_characteristic_polynomial(A)
        rng = random.Random(71)
        done = 0
        while done < 50:
            ring = rng.choice(RINGS)
            A = rand_small_arrangement(rng, ring, ell_max=3, n_max=4)
            q = cq.constituents(A, path="subset")
            assert q.constituents[rg.Ideal.unit(ring)] == \
                ly.whitney_characteristic_polynomial(A), A.columns
            done += 1


def test_criterion_8_minimality(gaussian_arrangement, gaussian_qp,
                                nonprincipal_arrangement, nonprincipal_qp,
                                h3, h3_qp, h3_poset, h4_built):
    with criterion(8, "the period is certified minimal with an explicit "
                      "witness pair for every prime factor"):
        h4_poset, h4_qp, _ = h4_built
        cases = [
            (gaussian_arrangement, gaussian_qp, None),
            (nonprincipal_arrangement, nonprincipal_qp, None),
            (h3.arrangement, h3_qp, h3_poset),
            (rootsys.builtin("H4").arrangement, h4_qp, h4_poset),
        ]
        for A, q, poset in cases:
            minimum, _ = q.minimum_period()
            assert minimum == q.period, A.name
            cert = cq.minimality_certificate(A, qp=q, poset=poset)
            assert cert.period == q.period
            assert cert.minimum == q.period
            primes = [p for p, _ in q.period.factor()]
            assert set(cert.witnesses) == set(primes)
            for p, (k1, k2) in cert.witnesses.items():
                reduced = q.period / p
                assert (k1 + reduced) == (k2 + reduced)
                assert q.constituents[k1] != q.constituents[k2]


def test_criterion_9_localization(h3, h3_qp, h3_poset, h4_built):
    with criterion(9, "inverting 2 strips the right primes, keeps the "
                      "matching constituents, and the localized H3 poset "
                      "is the predicted torsion subposet"):
        _, h4_qp, _ = h4_built
        view3, local3 = cq.localize(h3.arrangement, [(2, 0)], qp=h3_qp)
        assert local3.period.is_unit_ideal()
        assert list(local3.constituents) == [rg.Ideal.unit(ZT)]
        assert local3.constituents[rg.Ideal.unit(ZT)] == \
            h3_qp.constituents[rg.Ideal.unit(ZT)]

        view4, local4 = cq.localize(
            rootsys.builtin("H4").arrangement, [(2, 0)], qp=h4_qp)
        three_sqrt5 = ideal(ZT, (-3, 6))
        assert local4.period == three_sqrt5
        survivors = {rg.Ideal.unit(ZT), ideal(ZT, (3, 0)),
                     ideal(ZT, (-1, 2)), three_sqrt5}
        assert set(local4.constituents) == survivors
        for kappa in survivors:
            assert local4.constituents[kappa] == h4_qp.constituents[kappa]

        local_poset = ly.layer_poset(h3.arrangement,
                                     period=view3.period)
        chosen = h3_poset.kappa_subposet(rg.Ideal.unit(ZT))
        expect = sorted((h3_poset.layers[i].dim, h3_poset.layers[i].mu,
                         h3_poset.layers[i].tau.hnf) for i in chosen)
        got = sorted((z.dim, z.mu, z.tau.hnf) for z in local_poset.layers)
        assert expect == got


def test_criterion_10_positivity(h2, h2_qp, h3, h3_qp, h4, h4_built):
    with criterion(10, "the count is positive exactly when the norm "
                       "reaches the Coxeter number (all norms <= 40)"):
        _, h4_qp, _ = h4_built
        ideals = rg.ideals_of_norm_up_to(ZT, 40)
        for data, q in [(h2, h2_qp), (h3, h3_qp), (h4, h4_qp)]:
            for a in ideals:
                value = q.evaluate(a)
                assert value >= 0
                assert (value > 0) == (a.norm >= data.coxeter_number), \
                    (data.name, a)


def _dual_coeffs(coeffs, h, ell):
    """Coefficients of (-1)^ell * f(h - t)."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        # c * (h - t)^i
        for k in range(i + 1):
            binom = 1
            for t in range(k):
                binom = binom * (i - t) // (t + 1)
            out[k] += c * binom * (-1) ** k * h ** (i - k)
    if ell % 2:
        out = [-v for v in out]
    return tuple(out)


def test_criterion_11_duality(h2, h2_qp, h3, h3_qp, h4, h4_built):
    with criterion(11, "constituents prime to <2> satisfy the Coxeter "
                       "duality; an even divisor of H3 and of H4 breaks "
                       "it"):
        _, h4_qp, _ = h4_built
        two = ideal(ZT, (2, 0))
        for data, q in [(h2, h2_qp), (h3, h3_qp), (h4, h4_qp)]:
            failures = []
            for kappa in q.divisors():
                coeffs = q.constituents[kappa]
                dual = _dual_coeffs(coeffs, data.coxeter_number, data.rank)
                if two.contains_ideal(kappa):  # <2> divides kappa
                    if dual != coeffs:
                        failures.append(kappa)
                else:
                    assert dual == coeffs, (data.name, kappa)
            if data.name in ("H3", "H4"):
                assert failures, f"{data.name}: every even divisor dual"


def test_h4_degree_bound_for_agreeing_divisors(h4, h4_built):
    # every single column is primitive, so all constituents agree above
    # degree ell - 2
    _, h4_qp, _ = h4_built
    A = h4.arrangement
    for j in range(A.n):
        inv = invariant_factors(A.coeff_matrix((j,)))
        assert inv.factors[-1].is_unit_ideal()
    divs = h4_qp.divisors()
    for k1, k2 in combinations(divs, 2):
        diff = [a - b for a, b in zip(h4_qp.constituents[k1],
                                      h4_qp.constituents[k2])]
        assert diff[A.ell] == 0 and diff[A.ell - 1] == 0


def test_h4_exponents_factor_the_unit_constituent(h4_built):
    _, h4_qp, _ = h4_built
    f = h4_qp.constituents[rg.Ideal.unit(ZT)]
    for e in (1, 11, 19, 29):
        assert poly_eval(f, e) == 0


def test_criterion_12_property_suites(h4_built):
    with criterion(12, "randomized property suites (>= 200 cases each): "
                       "ideal laws, residue torsion counts, kernel "
                       "counts, H4 additivity, sign alternation, order "
                       "ideals"):
        rng = random.Random(72)

        def rand_ideal(ring, bound=4):
            while True:
                g1 = tuple(rng.randint(-bound, bound)
                           for _ in range(ring.degree))
                if any(g1):
                    break
            gens = [g1]
            if rng.random() < 0.5:
                gens.append(ring.from_int(rng.randint(1, 6)))
            return rg.Ideal.from_generators(ring, gens)

        # ideal arithmetic laws
        cases = 0
        while cases < 200:
            ring = rng.choice(RINGS)
            a, b = rand_ideal(ring), rand_ideal(ring)
            s, i = a + b, a.intersect(b)
            assert s * i == a * b
            assert s.divides(a) and s.divides(b)
            assert a.divides(i) and b.divides(i)
            assert (a * b).norm == a.norm * b.norm
            cases += 1

        # torsion counts in residue rings: |(O/a)[k]| = N(k + a)
        cases = 0
        while cases < 200:
            ring = rng.choice(RINGS)
            a, k = rand_ideal(ring), rand_ideal(ring, bound=3)
            if a.norm > 30:
                continue
            kgens = k.basis()
            torsion = sum(
                1 for x in a.residues()
                if all(a.contains(ring.mul(g, x)) for g in kgens))
            assert torsion == (k + a).norm
            cases += 1

        # kernel counts against the invariant-factor formula
        cases = 0
        while cases < 200:
            ring = rng.choice(RINGS)
            ell, ncols = rng.randint(1, 2), rng.randint(1, 2)
            C = cq.CoeffMatrix(ring, [
                [tuple(rng.randint(-2, 2) for _ in range(ring.degree))
                 for _ in range(ncols)] for _ in range(ell)])
            a = rand_ideal(ring)
            if a.norm > 16 or a.norm ** ell > 300:
                continue
            inv = invariant_factors(C)
            predicted = a.norm ** (ell - inv.rank) * m_value(inv, a)
            assert predicted == oracle.brute_count_kernel(C, a)
            cases += 1

        # additivity of H4 constituents over coprime divisor pairs
        _, h4_qp, _ = h4_built
        unit = rg.Ideal.unit(ZT)
        identities = 0
        nontrivial = 0
        for k1 in h4_qp.divisors():
            for k2 in h4_qp.divisors():
                if not (k1 + k2).is_unit_ideal():
                    continue
                lhs = h4_qp.constituents[k1 * k2]
                rhs = tuple(
                    x + y - z for x, y, z in zip(
                        h4_qp.constituents[k1], h4_qp.constituents[k2],
                        h4_qp.constituents[unit]))
                assert lhs == rhs, (k1, k2)
                identities += 1
                if not (k1.is_unit_ideal() or k2.is_unit_ideal()):
                    nontrivial += 1
        assert identities >= 16 and nontrivial >= 12

        # sign alternation and order-ideal closure on random posets
        sign_checked = 0
        closure_checked = 0
        while sign_checked < 200 or closure_checked < 200:
            ring = rng.choice([ZI, Z5, ZT])
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            rho = cq.lcm_period(A)
            if rho.norm > 150:
                continue
            P = ly.layer_poset(A)
            for z in P.layers:
                assert (-1) ** (A.ell - z.dim) * z.mu > 0
                sign_checked += 1
            for kappa in rho.divisors():
                chosen = set(P.kappa_subposet(kappa))
                for i in chosen:
                    z = P.layers[i]
                    flat = P.lattice.flats[z.flat_id]
                    for g in flats_above(P.lattice, flat):
                        w = P.project(z, g.id)
                        if w is not None:
                            assert w.index in chosen
                    closure_checked += 1
