"""Differential fuzzing: the layer path, the subset path and the oracle.

The three routes share no code past the ring arithmetic, so on any
arrangement small enough for all three they must agree.  So must the two
routes to the lcm period: ``lcm_period``, which reads it off the flat
lattice's coatom images, and the minor walk over the bases in
``conftest.minor_walk_lcm_period``.  The strategy
draws arrangements with ell <= 3 and n <= 6 over Z, Z[i], Z[sqrt(-5)] and
Z[tau], with the shapes that stress the rank and torsion bookkeeping:
proportional columns, a column that is the sum of two others, and a zero
first row (rank-deficient inputs).
"""

import collections
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dedarr import charquasi as cq
from dedarr import layers as ly
from dedarr import oracle
from dedarr import ring as rg
from dedarr import rootsys

from conftest import (cartan_arrangement, check_layer_algebra,
                      minor_walk_lcm_period, seed7_probe)

RINGS = [rg.rational_integers(), rg.quadratic(-1), rg.quadratic(-5),
         rg.quadratic(5)]
MAX_M = 60                 # least integer of the period
MAX_ORACLE_POINTS = 10 ** 6  # N(rho)^ell at the period


def elements(ring):
    return st.tuples(*[st.integers(-3, 3)] * ring.degree)


@st.composite
def arrangements(draw):
    ring = draw(st.sampled_from(RINGS))
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(elements(ring), min_size=ell,
                                  max_size=ell), min_size=k, max_size=k))
    if draw(st.booleans()):
        c = draw(elements(ring).filter(any))
        i = draw(st.integers(0, len(cols) - 1))
        cols.append([ring.mul(c, x) for x in cols[i]])
    if len(cols) >= 2 and draw(st.booleans()):
        i, k = draw(st.lists(st.integers(0, len(cols) - 1), min_size=2,
                             max_size=2, unique=True))
        cols.append([ring.add(x, y) for x, y in zip(cols[i], cols[k])])
    if ell >= 2 and draw(st.booleans()):
        cols = [[ring.zero] + col[1:] for col in cols]
    cols = cols[:6]
    assume(all(any(any(x) for x in col) for col in cols))
    return cq.Arrangement(ring, cols)


EXAMPLES = 300
MIN_PER_RING = 40  # kept examples per ring; 50-89 with this strategy


def test_layer_path_subset_path_and_oracle_agree():
    """The three routes agree on every kept example, and enough are kept.

    The filters below discard inputs, and hypothesis stops early without
    failing when too few pass them, so the test counts the kept examples
    per ring and fails if a ring falls below MIN_PER_RING.
    """
    kept = collections.Counter()

    @settings(derandomize=True, deadline=None, max_examples=EXAMPLES,
              database=None)
    @given(arrangements())
    def agree(A):
        rho = cq.lcm_period(A)
        assert minor_walk_lcm_period(A) == rho
        assume(rho.least_integer() <= MAX_M)
        assume(rho.norm ** A.ell <= MAX_ORACLE_POINTS)
        q = cq.constituents(A, path="layers")
        assert q == cq.constituents(A, path="subset")
        for a in (rg.Ideal.unit(A.ring), rho):
            assert cq.evaluate(A, a, q) == oracle.brute_count_complement(A, a)
        kept[A.ring] += 1

    agree()
    assert all(kept[ring] >= MIN_PER_RING for ring in RINGS), kept


def test_layer_algebra_matches_elimination():
    """``lam``, ``canon`` and ``tau`` agree with elimination on the drawn
    arrangements of every ring, flats with a pivot above 1 included, and
    ``sub_top`` of every layer's J agrees with the reference walk
    (``check_layer_algebra``)."""
    kept = collections.Counter()
    odd = collections.Counter()
    rng = random.Random(22)

    @settings(derandomize=True, deadline=None, max_examples=EXAMPLES,
              database=None)
    @given(arrangements())
    def agree(A):
        rho = cq.lcm_period(A)
        assume(rho.least_integer() <= MAX_M)
        _, flats, _, layers = check_layer_algebra(ly.layer_poset(A, rho), rng)
        kept[A.ring] += 1
        odd["flats"] += flats
        odd["layers"] += layers

    agree()
    assert all(kept[ring] >= MIN_PER_RING for ring in RINGS), kept
    # 235 flats with a pivot above 1, holding 238 nonzero layers
    assert odd["flats"] >= 100 and odd["layers"] >= 100, odd


def named_arrangements(gaussian, nonprincipal):
    """The fixtures, H2-H4, the Cartan systems up to E6, the seed-7 probes
    of 3 x 8, 4 x 10 and 4 x 14, a rank-deficient arrangement over
    Z[sqrt(-5)], whose coatoms are planes, and entries past int64 over Z
    and Z[i], a negative one on a line among them."""
    Z, ZI, Z5 = rg.rational_integers(), rg.quadratic(-1), rg.quadratic(-5)
    yield gaussian
    yield nonprincipal
    M = 2 ** 40
    yield cq.Arrangement(Z, [[(-5 * M * M,)]])
    yield cq.Arrangement(Z, [[(M + 3,), (5 * M,)], [(-7 * M,), (M - 1,)],
                             [(M,), (2 * M + 9,)]])
    yield cq.Arrangement(ZI, [[(M, 3), (1, 0)], [(2, -M), (M + 1, 5)],
                              [(0, 1), (7 * M, M)]])
    yield cq.Arrangement(Z5, [[(0, 0), (2, 0), (1, -1)],
                              [(0, 0), (1, 1), (3, 0)],
                              [(0, 0), (1, 0), (1, 0)]])
    for name in ("H2", "H3", "H4"):
        yield rootsys.builtin(name).arrangement
    for name in ("A3", "B3", "C3", "G2", "D4", "B4", "C4", "F4", "A5",
                 "D5", "E6"):
        yield cartan_arrangement(name)
    for ell, n in ((3, 8), (4, 10), (4, 14)):
        yield cq.Arrangement(Z, [[(c,) for c in col]
                                 for col in seed7_probe(ell, n)])


def check_flat_route_periods(arrangements):
    for A in arrangements:
        assert cq.lcm_period(A) == minor_walk_lcm_period(A), A


def test_flat_route_period_matches_lcm_period(gaussian_arrangement,
                                              nonprincipal_arrangement):
    check_flat_route_periods(named_arrangements(gaussian_arrangement,
                                                nonprincipal_arrangement))


def test_dropped_coatom_fails_the_period_check(gaussian_arrangement,
                                               nonprincipal_arrangement,
                                               monkeypatch):
    # a planted fault: the flat route forgets the first coatom's ideals
    right = ly.FlatLattice.lcm_period

    def dropped(self):
        self.covers[-1] = self.covers[-1][1:]
        return right(self)

    monkeypatch.setattr(ly.FlatLattice, "lcm_period", dropped)
    with pytest.raises(AssertionError):
        check_flat_route_periods(named_arrangements(
            gaussian_arrangement, nonprincipal_arrangement))
