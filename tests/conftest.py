import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dedarr import charquasi as cq
from dedarr import layers as ly
from dedarr import ring as rg
from dedarr import zlinalg as zl
from dedarr.errors import NonIntegralQuotient
from dedarr.quasipoly import QuasiPolynomial, ring_to_json
from dedarr.ring import Ideal


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


def rand_table_arrangement(rng, ring):
    """ell <= 4 and n <= 7, entries in [-2, 2]; in about half the draws
    with ell > 1, every column an integer combination of the first k < ell
    columns, so that the rank falls below min(ell, n)."""
    ell, n = rng.randint(1, 4), rng.randint(1, 7)
    cols = []
    while len(cols) < n:
        col = tuple(tuple(rng.randint(-2, 2) for _ in range(ring.degree))
                    for _ in range(ell))
        if any(any(x) for x in col):
            cols.append(col)
    if ell > 1 and rng.random() < 0.5:
        k = rng.randint(1, ell - 1)
        base = cols = cols[:k]
        while len(cols) < n:
            f = [rng.randint(-2, 2) for _ in base]
            col = tuple(tuple(sum(c * b[i][t] for c, b in zip(f, base))
                              for t in range(ring.degree))
                        for i in range(ell))
            if any(any(x) for x in col):
                cols = cols + [col]
    return cq.Arrangement(ring, cols)


def seed7_probe(ell, n):
    """One Z probe of the seed-7 set: 3 x 8, 4 x 10, 4 x 14 and 6 x 16.

    The four are drawn in that order from one generator, entries in
    [-5, 5] and no zero column, so each depends on the ones before it.
    """
    rng = random.Random(7)
    for shape in [(3, 8), (4, 10), (4, 14), (6, 16)]:
        cols = []
        while len(cols) < shape[1]:
            c = [rng.randint(-5, 5) for _ in range(shape[0])]
            if any(c):
                cols.append(c)
        if shape == (ell, n):
            return cols
    raise ValueError((ell, n))


def inflate(q, period):
    """q restated with the multiple ``period`` of its period."""
    consts = {k: q.constituent(k) for k in period.divisors()}
    return QuasiPolynomial(q.ring, period, consts)


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


def mobius_on(lattice, col_bits):
    """Moebius values on the flats of the sub-arrangement on col_bits.

    Its flats are the flats reached from the ambient one by steps from
    X to the children of X whose J meets col_bits - J(X), and its
    covers are those steps.  Each level is reached from the one before,
    so the flats above a flat (its covers and the flats above those,
    kept as bits of flat ids) are complete before its value is summed.
    The last level is the top alone, and the level before it holds the
    coatoms.  Returns ({flat id: mu}, coatom ids); the top is the
    deepest flat reached, which has the largest id.  It sums over every
    flat above, with no Weisner rule: the reference ``FlatLattice.mobius``
    and ``sub_top`` are checked against.
    """
    flats, children = lattice.flats, lattice.children
    above = {0: 0}
    mob = {}
    coatoms, level = (), [0]
    while True:
        nxt = []
        for fid in level:
            bits = above[fid]
            up = bits | 1 << fid
            s = 0
            while bits:
                low = bits & -bits
                bits ^= low
                s += mob[low.bit_length() - 1]
            mob[fid] = -s if fid else 1
            cols = col_bits & ~flats[fid].Jbits
            for yid in children[fid]:
                if not flats[yid].Jbits & cols:
                    continue
                if yid in above:
                    above[yid] |= up
                else:
                    above[yid] = up
                    nxt.append(yid)
        if not nxt:
            return mob, tuple(coatoms)
        coatoms, level = level, nxt


def bit_set(bits):
    """The indices of the set bits of an int, as a frozenset."""
    return frozenset(j for j in range(bits.bit_length()) if bits >> j & 1)


def determinant_coset_count(P, flat_id, j):
    """Components of P cap H_j for a layer P of the flat, by determinants.

    They are the cosets of the child lattice in the homogeneous solutions,
    det(Lambda_child) / (det(Lambda_X) * steps), with steps read off the
    gcd diagonal of M = lam_basis * colmat_j.  ``LayerPoset.coset_counts``
    reads every j's count off one stack of images per level; this is its
    reference.
    """
    D, m = P.lattice.D, P.m
    lam_basis, _ = P.lam(flat_id)
    lam_child, _ = P.lam(P.lattice.child(flat_id, j))
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
    lattice = ly.FlatLattice(A)
    P = ly.LayerPoset(A, period, lattice)

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
                if flat.Jbits >> j & 1:
                    continue
                child = lattice.child(flat.id, j)
                lam_child, pivots_child = P.lam(child)
                colmat = lattice.colmats[j]
                refine = ly._Refinement(lam_basis, lam_child, pivots_child,
                                        colmat, P.m, determinant_coset_count(
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


def lam_by_hnf(P, flat_id):
    """(HNF, pivots) of the flat's lattice plus m Z^D, by elimination.

    ``LayerPoset.lam`` leaves out m*e_p at the flat's unit pivots; this is
    the HNF of the basis with every m*e_r.
    """
    D, m = P.lattice.D, P.m
    rows = [list(r) for r in P.lattice.flats[flat_id].lat] + [
        [m if c == r else 0 for c in range(D)] for r in range(D)]
    return zl.hnf(rows)


def tau_by_kernel(ring, lam, y):
    """The annihilator of y modulo the lattice with HNF ``lam``, off the
    kernel of [lam; y; w*y], the reference for ``LayerPoset.tau``."""
    deg = ring.degree
    rows = [list(y)]
    if deg == 2:
        rows.append([c for i in range(0, len(y), 2)
                     for c in ring.omega_mul((y[i], y[i + 1]))])
    ker = zl.left_kernel(lam[0] + rows)
    return Ideal(ring, zl.hnf([k[-deg:] for k in ker])[0])


def check_layer_algebra(P, rng):
    """Check ``lam``, ``canon`` and ``tau`` against ``lam_by_hnf``, and
    ``sub_top`` against ``mobius_on``.

    Every flat's lam, and its canon and tau at two random points of the
    1/m grid, torsion or not; at every nonzero layer tau, and canon to its
    own flat and every coarser one, on its own flat also of the layer's
    point moved by a random vector of the flat's lattice plus m Z^D.  At
    every layer, mu and the set of coatoms of the sub-arrangement J(L).
    Returns (flats, flats with a pivot above 1, nonzero layers, those of
    them on such flats).
    """
    lattice, m = P.lattice, P.m
    ring = P.arrangement.ring
    for z in P.layers:
        mu, coatoms = lattice.sub_top(z.Jbits)
        walked, ref = mobius_on(lattice, z.Jbits)
        assert mu == walked[max(walked)] == z.mu, z
        assert set(coatoms) == set(ref), z
    lams = {}
    for flat in lattice.flats:
        lam = lams[flat.id] = lam_by_hnf(P, flat.id)
        assert P.lam(flat.id) == lam, flat
        for _ in range(2):
            y = [rng.randrange(m) for _ in range(lattice.D)]
            assert P.canon(flat.id, y) == tuple(zl.reduce_mod(y, *lam)), y
            assert P.tau(flat.id, y) == tau_by_kernel(ring, lam, y), y
    layers = odd_layers = 0
    for z in P.layers:
        if not any(z.y):
            continue
        flat = P.flat(z)
        layers += 1
        odd_layers += not flat.unit_pivots
        assert (P.tau(z.flat_id, z.y)
                == tau_by_kernel(ring, lams[z.flat_id], z.y)), z
        moved = [a + m * rng.randint(-3, 3) for a in z.y]
        for row in flat.lat:
            f = rng.randint(-3, 3)
            moved = [a + f * b for a, b in zip(moved, row)]
        assert P.canon(z.flat_id, moved) == z.y, z
        for x in flats_above(lattice, flat):
            assert (P.canon(x.id, z.y)
                    == tuple(zl.reduce_mod(z.y, *lams[x.id]))), (x, z)
    odd = sum(not f.unit_pivots for f in lattice.flats)
    return len(lattice.flats), odd, layers, odd_layers


def annihilator_and_J(P, z):
    """(tau, J) of a layer by linear algebra alone, zero layers included.

    tau is read off the kernel of [y; omega*y; the flat's lattice + m Z^D]
    and J is the set of hyperplanes j of the flat with y*C_j = 0 mod m;
    ``LayerPoset`` gives the zero layers theirs by rule, and this is the
    reference that rule is checked against.
    """
    ring = P.arrangement.ring
    deg = ring.degree
    y = list(z.y)
    rows = [y]
    if deg == 2:
        rows.append([c for i in range(0, len(y), 2)
                     for c in ring.omega_mul((y[i], y[i + 1]))])
    basis, _ = lam_by_hnf(P, z.flat_id)
    ker = left_kernel_hnf(rows + [list(r) for r in basis])
    tau = Ideal(ring, zl.hnf([k[:deg] for k in ker])[0])
    yc = vec_mat(y, P.lattice.C)
    J = frozenset(j for j in bit_set(P.flat(z).Jbits)
                  if all(x % P.m == 0 for x in yc[deg * j: deg * (j + 1)]))
    return tau, J


def finders_by_sub_arrangement(P, z):
    """``LayerPoset.finders`` read off the sub-arrangement J(z).

    (X, j) finds z from P = project(z, X) when z's flat covers X, j is in
    J(z) - J(X) and J(z) cap J(X) spans X.  Those X are exactly the flats
    of the sub-arrangement J(z) one codim above z's flat, walked here from
    the ambient flat through the hyperplanes of J(z) alone, one codim at a
    time; ``finders`` reads them off ``FlatLattice.sub_top``, the memoised
    walk that also gives mu(z), instead.
    """
    lattice = P.lattice
    level = [0]
    for _ in range(P.flat(z).codim - 1):
        nxt = {}
        for fid in level:
            cols = z.Jbits & ~lattice.flats[fid].Jbits
            while cols:
                low = cols & -cols
                cols ^= low
                nxt[lattice.child(fid, low.bit_length() - 1)] = None
        level = list(nxt)
    for xid in level:
        yield P.project(z, xid), z.Jbits & ~lattice.flats[xid].Jbits


def layer_digest(P):
    """(index, flat, y, J, tau, mu) of every layer, in order."""
    return [(z.index, z.flat_id, z.y, bit_set(z.Jbits), z.tau.hnf, z.mu)
            for z in P.layers]


def hasse_covers_by_triples(P, chosen):
    """Cover pairs (i, k) among the chosen layers, by the definition.

    zi covers zk when zi contains zk and no chosen layer lies strictly
    between them.  ``LayerPoset.hasse_dot`` reads its edges off
    ``finders``; they are checked against this triple loop.
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


# ---------------------------------------------------------------------------
# Crystallographic root systems from their Cartan matrices.


def cartan_matrix(name):
    """The Cartan matrix A[i][j] = <alpha_i, alpha_j^vee>, Bourbaki's
    numbering.

    Every type but D_n and E_n is the chain 1-...-n; D_n joins n-2 to n in
    place of n-1 to n, and E_n is 1-3-4-...-n with 2 on 4.  The multiple
    bond, A[i][j] = -2 or -3 with alpha_j the short root, is n-1 => n in
    B_n, n-1 <= n in C_n, 2 => 3 in F4 and 1 <= 2 in G2.
    """
    kind, rank = name[0].upper(), int(name[1:])
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        chain[-1] = (rank - 3, rank - 1)
    elif kind == "E":
        chain[:2] = [(0, 2), (1, 3)]
    for i, j in chain:
        A[i][j] = A[j][i] = -1
    bond = {"B": (rank - 2, rank - 1, -2), "C": (rank - 1, rank - 2, -2),
            "F": (1, 2, -2), "G": (1, 0, -3)}
    if kind in bond:
        i, j, a = bond[kind]
        A[i][j] = a
    return A


def cartan_positive_roots(name):
    """The positive roots of the Cartan matrix, in simple-root coordinates.

    The closure of the simple roots under the simple reflections
    s_j(v) = v - (sum_i v_i A[i][j]) alpha_j, over Z, keeping the roots
    whose coordinates are all nonnegative, sorted.
    """
    A = cartan_matrix(name)
    rank = len(A)
    simple = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    roots, frontier = set(simple), simple
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(rank):
                w = list(v)
                w[j] -= sum(v[i] * A[i][j] for i in range(rank))
                w = tuple(w)
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(v for v in roots if min(v) >= 0)


def cartan_arrangement(name):
    """The Weyl arrangement of the positive roots over Z, one column each."""
    return cq.Arrangement(rg.rational_integers(),
                          [[(c,) for c in v] for v in
                           cartan_positive_roots(name)], name=name)


def exponent_polynomial(exponents):
    """Coefficients, constant first, of prod (t - e) over the exponents."""
    coeffs = [1]
    for e in exponents:
        coeffs = [a - e * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Module structure of cokernels, the paper's per-subset route.
#
# For a coefficient matrix C over the ring, the cokernel of x -> x*C
# decomposes as a direct sum of cyclic torsion pieces O/d_1 + ... + O/d_r
# (d_i dividing d_{i+1}) plus a projective part that never enters any
# counting formula.  The d_i are recovered from the determinantal ideals
#
#     E_i = ideal generated by all i x i minors of C,  d_i = E_i * E_{i-1}^{-1}
#
# which is valid because both sides localize to the Smith normal form
# identity over every discrete valuation ring.  The library reads the same
# E_i off the numpy tables of ``charquasi._minor_tables``; this route forms
# them per subset and is the reference the subset walk, the lcm period and
# the layer path are checked against.  ``test_modstruct`` checks it in
# turn against the explicit torsion module, computed independently by
# restricting scalars to Z and taking Smith normal form.


def restriction_rows(C):
    """Integer matrix of x -> x*C after restricting scalars to Z.

    Rows are indexed by (basis element of O^ell), columns by the Z-basis
    of O^k; the row lattice is the image of the map.
    """
    ring = C.ring
    deg = ring.degree
    out = []
    for i in range(C.nrows):
        basis_elts = [ring.one]
        if deg == 2:
            basis_elts.append((0, 1))
        for b in basis_elts:
            row = []
            for j in range(C.ncols):
                prod = ring.mul(b, C.rows[i][j])
                row.extend(prod)
            out.append(row)
    return out


class SubsetInvariants:
    """Rank over the fraction field plus the torsion invariant factors."""

    __slots__ = ("rank", "factors")

    def __init__(self, rank, factors):
        self.rank = rank
        self.factors = tuple(factors)

    def __repr__(self):
        return f"SubsetInvariants(rank={self.rank}, factors={self.factors!r})"

    def __eq__(self, other):
        return (isinstance(other, SubsetInvariants)
                and self.rank == other.rank and self.factors == other.factors)

    def __hash__(self):
        return hash((self.rank, self.factors))

    def last_factor(self):
        return self.factors[-1] if self.factors else None

    def torsion_size(self):
        size = 1
        for d in self.factors:
            size *= d.norm
        return size


def rank_over_K(C):
    """Rank of C over the fraction field."""
    deg = C.ring.degree
    r = zl.rank(restriction_rows(C))
    assert r % deg == 0
    return r // deg


def _minor_table(C, max_size):
    """All minors of sizes 1..max_size as {(rows, cols): value}."""
    ring = C.ring
    table = {}
    for i in range(C.nrows):
        for j in range(C.ncols):
            table[((i,), (j,))] = C.rows[i][j]
    for size in range(2, max_size + 1):
        for rows in combinations(range(C.nrows), size):
            for cols in combinations(range(C.ncols), size):
                acc = ring.zero
                last = cols[-1]
                subcols = cols[:-1]
                for t, r in enumerate(rows):
                    sub = table[(rows[:t] + rows[t + 1:], subcols)]
                    term = ring.mul(C.rows[r][last], sub)
                    acc = ring.add(acc, term) if (t + size) % 2 else \
                        ring.sub(acc, term)
                table[(rows, cols)] = acc
    return table


def determinantal_ideals(C):
    """E_1, ..., E_r with E_i generated by the i x i minors."""
    ring = C.ring
    r = rank_over_K(C)
    if r == 0:
        return []
    table = _minor_table(C, r)
    ideals = []
    for size in range(1, r + 1):
        gens = [v for (rows, cols), v in table.items()
                if len(rows) == size and not ring.is_zero(v)]
        ideals.append(Ideal.from_generators(ring, gens))
    return ideals


def invariant_factors(C):
    """The torsion invariant factors of coker(x -> x*C)."""
    ring = C.ring
    ideals = determinantal_ideals(C)
    factors = []
    prev = Ideal.unit(ring)
    for e in ideals:
        d = e / prev
        if factors and not factors[-1].divides(d):
            raise NonIntegralQuotient("invariant factors fail to chain")
        factors.append(d)
        prev = e
    return SubsetInvariants(len(ideals), factors)


def subset_data(A):
    """Invariant factors for every J with 1 <= |J| <= min(ell, n)."""
    out = {}
    bound = min(A.ell, A.n)
    for size in range(1, bound + 1):
        for J in combinations(range(A.n), size):
            out[frozenset(J)] = invariant_factors(A.coeff_matrix(J))
    return out


def m_value(inv, kappa):
    """|torsion of the kappa-reduced cokernel| = prod N(kappa + d_i)."""
    m = 1
    for d in inv.factors:
        m *= (kappa + d).norm
    return m


def full_range_lcm(A):
    """The lcm period by its definition: the lcm of the last invariant
    factors over every J with 1 <= |J| <= min(ell, n)."""
    full = Ideal.unit(A.ring)
    for inv in subset_data(A).values():
        last = inv.last_factor()
        if last is not None and not last.contains_ideal(full):
            full = full.intersect(last)
    return full


def divides(ring, g, *xs):
    """Whether the nonzero element g divides every x in the ring."""
    if ring.degree == 1:
        return all(x[0] % g[0] == 0 for x in xs)
    # x/g = x*conj(g)/N(g), and N(g) may be negative over a real order
    ng = ring.norm(g)
    cg = ring.conj(g)
    return all(c % ng == 0 for x in xs for c in ring.mul(x, cg))


def subset_rows(parents, lasts, offsets, s, p, j):
    """Rows in tables[s] of the s-subsets of P + (j,), P at row p of tables[s].

    Those are P itself and, for each (s-1)-subset F of P, F + (j,).
    """
    if s == 0:
        return [p]
    faces = subset_rows(parents, lasts, offsets, s - 1,
                        int(parents[s][p]), int(lasts[s][p]))
    return [p] + [int(offsets[s][f]) + j for f in faces]


def minor_walk_lcm_period(A):
    """The lcm period by its definition over the bases, off the minor tables.

    The reference for ``FlatLattice.lcm_period`` on inputs far past
    ``subset_data``: the lcm over every subset is the lcm over the bases
    (``charquasi.lcm_period``), and a basis P + (j,) of size r = rank A
    has the last invariant factor d = E_r * E_(r-1)^(-1) of its
    determinantal ideals, read off ``charquasi._minor_tables`` up to r.
    When r = ell, E_ell = (g) for the one maximal minor g, and d contains
    (g): a basis whose g is a unit or divides the lcm found so far forms
    no ideal.
    """
    ring = A.ring
    unit = Ideal.unit(ring)
    if A.n == 0:
        return unit
    r = cq._rank(A)
    tables, parents, lasts, offsets = cq._minor_tables(A, r)
    top = tables[r]
    if r == A.ell:
        # g = 0: dependent; a unit g makes d the unit ideal
        keep = abs(ring.norm(top[:, 0].T)) > 1
    else:
        keep = (top != 0).any(axis=(1, 2))
    acc = unit
    for i in keep.nonzero()[0].tolist():
        gens = [tuple(v) for v in top[i].tolist()]
        if r == A.ell:
            if divides(ring, gens[0], *acc.hnf):
                continue  # d contains (g), which contains the lcm
            e_top = Ideal.principal(ring, gens[0])
        else:
            e_top = Ideal.from_generators(ring, gens)
        if r == 1:
            e_prev = unit
        else:
            # E_(r-1): the (r-1)-minors of P and of each P - {k} + {j}
            subs = subset_rows(parents, lasts, offsets, r - 1,
                               int(parents[r][i]), int(lasts[r][i]))
            smaller = [tuple(v) for v in
                       tables[r - 1][subs].reshape(-1, ring.degree).tolist()]
            e_prev = Ideal.from_generators(ring, smaller)
        if e_top.is_unit_ideal() or e_top.contains_ideal(acc * e_prev):
            continue  # d already divides the accumulated lcm
        acc = acc.intersect(e_top / e_prev)
    return acc


def arrangement_to_json(A):
    data = {"ring": ring_to_json(A.ring), "columns": []}
    if A.name:
        data["name"] = A.name
    for col in A.columns:
        if A.ring.degree == 1:
            data["columns"].append([x[0] for x in col])
        else:
            data["columns"].append([list(x) for x in col])
    if not A.columns:
        data["ell"] = A.ell
    return data


# ---------------------------------------------------------------------------
# Integer linear algebra references: Smith diagonals, saturation and
# rational solutions, the checks of the HNF and SNF routines in zlinalg.


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def vec_mat(v, b):
    acc = [0] * len(b[0])
    for x, row in zip(v, b):
        if x:
            for j in range(len(acc)):
                acc[j] += x * row[j]
    return acc


def left_kernel_hnf(rows):
    """HNF basis of {x : x * A = 0}, read off the full HNF of [A | I].

    ``zlinalg.left_kernel`` stops once A's own columns are eliminated and
    returns a basis that is not in HNF; this is its reference.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)]
           for i in range(m)]
    basis, pivots = zl.hnf(aug)
    # rows of the HNF whose A-part is zero form a basis of the kernel
    return [row[n:] for row, p in zip(basis, pivots) if p >= n]


def right_kernel(rows):
    """Basis (as rows) of {x : A * x^T = 0}."""
    return zl.left_kernel(transpose(rows))


def saturate(rows):
    """Saturation of the row lattice: (Q-span of rows) intersect Z^n."""
    if not rows or not any(any(r) for r in rows):
        return []
    rk = right_kernel(rows)
    if not rk:
        n = len(rows[0])
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    sat = zl.left_kernel(transpose(rk))
    return zl.hnf(sat)[0]


def snf_diagonal(rows):
    """Invariant factors d_1 | d_2 | ... of the matrix (nonzero only)."""
    if not rows:
        return []
    return zl.snf_transforms(rows)[0]


def quotient_invariants(rel_rows, n):
    """Abelian invariants (>1 entries) of Z^n modulo the row lattice."""
    if not rel_rows:
        return []
    diag = snf_diagonal(rel_rows)
    return [d for d in diag if d > 1]


def rational_solve(rows, target):
    """One rational solution x of x * A = target, or None.

    ``rows`` is A given by rows; x has one entry per row.
    """
    m = len(rows)
    if m == 0:
        return None if any(target) else []
    n = len(rows[0])
    # Gaussian elimination over Q on the transposed system
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])]
           for j in range(n)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][m]
    return x
