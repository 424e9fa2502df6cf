import math

import pytest

from dedarr import charquasi as cq
from dedarr import layers as ly
from dedarr import ring as rg
from dedarr import zlinalg as zl


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


def determinant_coset_count(P, flat_id, j):
    """Components of P cap H_j for a layer P of the flat, by determinants.

    They are the cosets of the child lattice in the homogeneous solutions,
    det(Lambda_child) / (det(Lambda_X) * steps), with steps read off the
    gcd diagonal of M = lam_basis * colmat_j.  ``LayerPoset.coset_counts``
    reads every j's count off one image per flat; this is its reference.
    """
    D, m = P.lattice.D, P.m
    lam_basis, _ = P.lam(flat_id)
    lam_child, _ = P.lam(P.lattice.child[(flat_id, j)])
    M = zl.mat_mul(lam_basis, P.lattice.colmats[j])
    steps = math.prod(m // math.gcd(d, m) for d in zl.small_snf_diagonal(M))
    return (math.prod(lam_child[i][i] for i in range(D))
            // (math.prod(lam_basis[i][i] for i in range(D)) * steps))


def exhaustive_layer_poset(A, period=None, finds=None):
    """The layer poset by solving every (flat, j) pair at every parent.

    The loop ``layers.layer_poset`` ran before it skipped the refinements
    that can find nothing new; the skipping must keep its discovery order,
    so the layer ids and digests agree.  With a set ``finds``, every
    (flat id X, j, parent index, layer index) whose solve yields a layer
    is added to it.
    """
    if period is None:
        period = cq.lcm_period(A)
    m = period.least_integer()
    lattice = ly.FlatLattice(A)
    P = ly.LayerPoset(A, period, lattice, m, [], {})

    zero = (0,) * lattice.D
    P.add_layer(0, zero)
    by_flat = {0: [zero]}
    for codim in range(A.ell):
        next_by_flat = {}
        for flat in [f for f in lattice.flats if f.codim == codim]:
            ys = by_flat.get(flat.id)
            if not ys:
                continue
            lam_basis, _ = P.lam(flat.id)
            for j in range(A.n):
                if j in flat.J:
                    continue
                child = lattice.child[(flat.id, j)]
                lam_child, pivots_child = P.lam(child)
                colmat = lattice.colmats[j]
                refine = ly._Refinement(lam_basis, lam_child, pivots_child,
                                        colmat, zl.mat_mul(lam_basis, colmat),
                                        m, determinant_coset_count(
                                            P, flat.id, j))
                for y in ys:
                    for y_new in refine.solve(list(y)):
                        if P.add_layer(child, y_new) is not None:
                            next_by_flat.setdefault(child, []).append(y_new)
                        if finds is not None and (child, y_new) in P.index:
                            finds.add((flat.id, j, P.index[(flat.id, y)],
                                       P.index[(child, y_new)]))
        by_flat = next_by_flat
    P.fill_mobius()
    return P


def layer_digest(P):
    """(index, flat, y, J, tau, mu) of every layer, in order."""
    return [(z.index, z.flat_id, z.y, z.J, z.tau.hnf, z.mu)
            for z in P.layers]


def hasse_covers_by_triples(P, chosen):
    """Cover pairs (i, k) among the chosen layers, by the definition.

    zi covers zk when zi contains zk and no chosen layer lies strictly
    between them.  The triple loop ``LayerPoset.hasse_dot`` ran before it
    read covers off dimensions; its pair test is checked against this.
    """
    covers = set()
    for i in chosen:
        zi = P.layers[i]
        for k in chosen:
            zk = P.layers[k]
            if zi.dim <= zk.dim or not P.leq(zi, zk):
                continue
            if not any(zk.dim < P.layers[t].dim < zi.dim
                       and P.leq(zi, P.layers[t]) and P.leq(P.layers[t], zk)
                       for t in chosen):
                covers.add((i, k))
    return covers
