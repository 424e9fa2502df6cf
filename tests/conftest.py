import pytest

from dedarr import charquasi as cq
from dedarr import ring as rg


@pytest.fixture(scope="session")
def gaussian_arrangement():
    """Four lines over the Gaussian integers; period <2>."""
    ZI = rg.quadratic(-1)
    return cq.Arrangement(
        ZI,
        [[(1, 0), (1, 0)], [(1, 0), (-1, 0)],
         [(1, 0), (0, 1)], [(1, 0), (0, -1)]],
        name="gauss4")


@pytest.fixture(scope="session")
def nonprincipal_arrangement():
    """Two proportional columns over Z[sqrt(-5)]; period <1+sqrt(-5)>."""
    Z5 = rg.quadratic(-5)
    return cq.Arrangement(
        Z5, [[(2, 0), (1, -1)], [(1, 1), (3, 0)]], name="nonprincipal")


def rand_small_arrangement(rng, ring, ell_max=3, n_max=4, bound=3):
    while True:
        ell = rng.randint(1, ell_max)
        n = rng.randint(1, n_max)
        cols = []
        ok = True
        for _ in range(n):
            col = tuple(
                tuple(rng.randint(-bound, bound) for _ in range(ring.degree))
                for _ in range(ell))
            if all(not any(x) for x in col):
                ok = False
                break
            cols.append(col)
        if ok:
            return cq.Arrangement(ring, cols)


def flats_above(lattice, flat):
    """Flats whose subspace strictly contains the given flat's."""
    return [g for g in lattice.flats
            if g.id != flat.id and g.Jbits & flat.Jbits == g.Jbits]


def mobius_by_recursion(P):
    """{layer index: mu} by mu(L) = -sum of mu over the layers above L.

    The definition read off the poset itself: the layers above L are its
    projections to the flats above its flat.  The reference that the
    localized values of ``LayerPoset.fill_mobius`` are checked against.
    """
    mu = {}
    for z in sorted(P.layers, key=lambda z: P.flat(z).codim):
        flat = P.flat(z)
        if flat.codim == 0:
            mu[z.index] = 1
            continue
        s = 0
        for g in flats_above(P.lattice, flat):
            w = P.project(z, g.id)
            if w is not None:
                s += mu[w.index]
        mu[z.index] = -s
    return mu
