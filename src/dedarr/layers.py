"""The torsion-translate arrangement and its poset of layers.

Working inside (K/O)^ell, each hyperplane contributes the subgroup of
points x with x*c_j integral.  A layer is a translate of the image of a
flat subspace; the poset of all layers (ordered by reverse inclusion)
refines the intersection lattice of the hyperplane arrangement and its
Moebius values assemble the constituents of the characteristic
quasi-polynomial.

Every layer is rho-torsion for the lcm period rho, so every layer has a
representative in the 1/m grid, m being the least positive rational
integer in rho.  All computations below are therefore finite integer
linear algebra modulo the full-rank lattices  L_X + m Z^D  attached to
the flats X (restriction of scalars, D = degree * ell).
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import zlinalg as zl
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    ExponentTooLarge,
    format_int,
)
from .quasipoly import QuasiPolynomial
from .ring import Ideal, format_factored

LAYER_BUDGET = 5 * 10 ** 6
# the memory a flat lattice may take: E7's 90,408 flats peak near 262 MB,
# and E8 (120 columns) passes the budget at codim 4 after about 1.6 GB
FLAT_BUDGET = 3 * 10 ** 5
HASSE_BUDGET = 10 ** 6  # the square of the most layers a Hasse diagram draws


class Flat:
    """An intersection subspace of the hyperplane arrangement."""

    __slots__ = ("id", "lat", "pivots", "unit_pivots", "image", "Jbits",
                 "dim", "codim")

    def __init__(self, fid, lat, pivots, image, Jbits, dim, codim):
        self.id = fid
        self.lat = lat          # saturated lattice H_X int Z^D, HNF rows
        self.pivots = pivots
        # every pivot of lat is 1: the quotient by lat + m Z^D is read off
        # lat itself (LayerPoset.canon)
        self.unit_pivots = all(row[p] == 1 for row, p in zip(lat, pivots))
        self.image = image      # lat * C, exact numpy array
        self.Jbits = Jbits      # bit j set for each hyperplane containing X
        self.dim = dim          # dimension over the fraction field
        self.codim = codim

    def __repr__(self):
        return f"Flat(id={self.id}, dim={self.dim}, Jbits={self.Jbits:#b})"


def _mask_bits(mask):
    """The int whose bit j is set where the boolean array mask is."""
    return int.from_bytes(
        np.packbits(mask, bitorder="little").tobytes(), "little")


class FlatLattice:
    """The intersection lattice of the arrangement over the fraction field.

    Flats are found level by level, each level's flats in the order of
    their lattice keys.  A new flat Y = X cap H_j also equals X' cap H_i
    for every flat X' of the same level with J(X') in J(Y) and every i in
    J(Y) - J(X'): Y lies in X' cap H_i, and both have dimension
    dim X' - 1, since every flat is the intersection of its own
    hyperplanes.  Those X' are the flats Y covers, kept in ``covers``, and
    Y joins the ``children`` of each at once, the inverse relation.  The j
    whose cut of X is known are then J(X) and the J of X's children, so a
    cut is made only for the pair that finds a flat.  A cut is one
    elimination of the block [B*C_j | B] on its first columns: the rows
    left carry the kernel of B*C_j already multiplied by the basis B,
    whose HNF is the new flat's basis.

    Each flat keeps one exact numpy image B*C of its basis B under every
    column block, int64 while D*max|B|*max|C| fits and Python ints past
    it.  The zero blocks of the image give J, block j is the matrix whose
    kernel cuts the flat by hyperplane j, and ``LayerPoset.coset_counts``
    reduces a level's images mod m.  Every flat carries a zero layer, so
    the flat count is held to LAYER_BUDGET, which the layer path could
    never pass, and to FLAT_BUDGET, the memory a lattice may take.

    The images also give the lcm period rho (``lcm_period``): it is the
    intersection of the ideals c_j(Lambda_X), over the coatoms X (the
    flats one codim above the centre) and j outside J(X), Lambda_X the
    flat's saturated lattice.  For a basis B and j in B, the flat X of
    B - j is a coatom, and the components of X's zero layer cut by H_j
    form a torsor under O / c_j(Lambda_X): x -> x*c_j maps them onto it.
    In the image M of x -> x*C_B in O^B, s*e_j lies in M exactly when s is
    in c_j(Lambda_X), so the annihilator d(B) of O^B / M, the last
    invariant factor, is the intersection of c_j(Lambda_X) over j in B.
    The pairs (B - j, j) are the pairs (X, j), so the lcm of d(B) over
    the bases is that intersection.

    The Moebius values follow Weisner's theorem on the geometric lattice
    below each flat X (Weisner 1935; Stanley, EC1, Cor. 3.9.3): for a
    hyperplane a of X, mu(X) = -sum of mu(Y) over the covers Y of X that
    a does not hold.  Any hyperplane of X may be a, but one a must serve
    the whole sum, since it picks the covers summed; a is fixed as the
    lowest bit of J(X).  Flat ids go level by level, so one pass in id
    order has the values of a flat's covers before the flat.

    The layer path reaches the flats of a sub-arrangement through
    ``sub_top``, which gives, per set of columns, the Moebius value at the
    top and the coatoms.  The interval below a flat Y is the
    sub-arrangement J(Y), so the main walk's value at Y and Y's covers
    answer J(Y) at once.
    """

    def __init__(self, arrangement):
        A = arrangement
        D = A.ring.degree * A.ell
        self.arrangement = A
        self.D = D
        self.colmats = [A.column_restriction(j) for j in range(A.n)]
        self.C = A.restriction_matrix()
        self._cmax = max((abs(x) for row in self.C for x in row), default=0)
        self._arrays = {}  # numpy dtype -> C as an array of that dtype
        self.flats = []
        self._by_key = {}
        self.covers = []  # flat id -> ids of the flats one codim up holding it
        self.children = []  # flat id -> ids of the flats one codim down in it

        self._add_flat(tuple(map(tuple, zl.identity(D))), list(range(D)))
        level = [0]
        while level:
            # bit p of masks[j] is set when hyperplane j holds level[p]
            masks = [0] * A.n
            for p, fid in enumerate(level):
                bits = self.flats[fid].Jbits
                while bits:
                    low = bits & -bits
                    bits ^= low
                    masks[low.bit_length() - 1] |= 1 << p
            new_ids = []
            for fid in sorted(level, key=lambda i: self.flats[i].lat):
                flat = self.flats[fid]
                if flat.dim == 0:
                    continue
                # the j whose cut is known: each j in J(Y) - J(X) cuts X
                # to its child Y
                known = flat.Jbits
                for yid in self.children[fid]:
                    known |= self.flats[yid].Jbits
                for j in range(A.n):
                    if known >> j & 1:
                        continue
                    basis, pivots = self._cut(flat, j)
                    key = tuple(tuple(r) for r in basis)
                    if key in self._by_key:
                        raise CertificateFailure(
                            f"flat {fid} cut by hyperplane {j} is a known "
                            "flat that no earlier cut registered")
                    got = self._add_flat(key, pivots)
                    new_ids.append(got)
                    self._register((level, masks), self.flats[got])
                    known |= self.flats[got].Jbits
            level = new_ids
        flats, covers = self.flats, self.covers
        self.mobius = mobius = [1]
        for f in flats[1:]:
            a = f.Jbits & -f.Jbits
            mobius.append(-sum(mobius[y] for y in covers[f.id]
                               if not flats[y].Jbits & a))
        self._sub_top = {f.Jbits: (mobius[f.id], covers[f.id])
                         for f in flats}

    def _cut(self, flat, j):
        """(HNF basis, pivots) of the saturated lattice of flat cap H_j.

        Row operations on [B*C_j | B] that clear the block's deg columns
        leave rows whose B-part spans (kernel of B*C_j) * B, as
        ``zl.left_kernel`` does with an identity in B's place.  That is the
        cut taken inside the flat's own coordinates: the saturation carries
        over because B is itself saturated.
        """
        deg = self.arrangement.ring.degree
        block = flat.image[:, deg * j: deg * (j + 1)].tolist()
        work = [b + list(r) for b, r in zip(block, flat.lat)]
        return zl.hnf([r[deg:] for r in zl._echelon(work, deg)[2]])

    def _register(self, level, flat):
        """Record flat among the children of every X of the level it lies in.

        Those X are the flats it covers, and flat is X cap H_i for each i
        in J(flat) - J(X).  ``level`` is the level's flat ids and one mask
        per column over their positions; X lies outside every mask of a
        column not in J(flat), the ambient flat (J empty) in none.
        """
        ids, masks = level
        bits = flat.Jbits
        out = 0
        for j, mask in enumerate(masks):
            if not bits >> j & 1:
                out |= mask
        covers = []
        free = ~out & ((1 << len(ids)) - 1)
        while free:
            low = free & -free
            free ^= low
            xid = ids[low.bit_length() - 1]
            covers.append(xid)
            self.children[xid].append(flat.id)
        self.covers[flat.id] = tuple(covers)

    def _add_flat(self, key, pivots):
        A = self.arrangement
        deg = A.ring.degree
        # key*C is below D*max|key|*max|C|; an empty basis still needs a
        # dtype that holds C
        bmax = max(max(map(max, key)), -min(map(min, key))) if key else 1
        dtype = zl.exact_dtype(self.D * bmax * self._cmax)
        C = self._arrays.get(dtype)
        if C is None:
            C = self._arrays[dtype] = np.array(
                self.C, dtype=dtype).reshape(self.D, deg * A.n)
        image = np.array(key, dtype=dtype).reshape(len(key), self.D) @ C
        # j is in J when the image's block for column j vanishes
        nonzero = (image != 0).reshape(len(key), A.n, deg).any(axis=(0, 2))
        dim = len(key) // deg
        fid = len(self.flats)
        flat = Flat(fid, key, list(pivots), image, _mask_bits(~nonzero), dim,
                    A.ell - dim)
        self.flats.append(flat)
        self._by_key[key] = fid
        self.covers.append(())
        self.children.append([])
        if len(self.flats) > FLAT_BUDGET:
            raise BudgetExceeded(
                f"the intersection lattice reached {len(self.flats)} flats "
                f"at codim {flat.codim}, over the flat budget of "
                f"{FLAT_BUDGET}")
        if len(self.flats) > LAYER_BUDGET:
            raise BudgetExceeded(
                f"the intersection lattice reached {len(self.flats)} flats "
                f"at codim {flat.codim}, over the layer budget of "
                f"{LAYER_BUDGET} (every flat carries a zero layer)")
        return fid

    def child(self, fid, j):
        """The id of the flat X cap H_j for j outside J(X), X = flats[fid]."""
        for yid in self.children[fid]:
            if self.flats[yid].Jbits >> j & 1:
                return yid

    def lcm_period(self):
        """The lcm period: c_j(Lambda_X) intersected over the coatoms X and
        the j outside J(X), by the class docstring.

        The coatoms are the covers of the centre, the last flat.  Block j
        of a coatom's image spans c_j(Lambda_X), an ideal since Lambda_X is
        an O-module: its index is the gcd of the block's deg x deg minors,
        0 for j in J(X) and 1 for the unit ideal.  Over Z the ideal is
        that gcd.  Over a quadratic order a vector v lies in the block's
        lattice I exactly when the 2 x 2 minors of v with the block's rows
        are multiples of I's index, since I + Zv has the gcd of all the
        minors as its index; so the blocks whose ideal holds the running
        intersection are screened out in numpy, whatever a block's row
        count, and only a block that moves the result takes an ``hnf``
        and ``Ideal.intersect``.  Products stay int64 under
        ``zl.exact_dtype``'s bound and become Python ints past it.
        """
        ring = self.arrangement.ring
        deg = ring.degree
        acc = Ideal.unit(ring)
        coatoms = self.covers[-1]
        if not coatoms:
            return acc
        image = np.stack([self.flats[x].image for x in coatoms])
        if deg == 1:
            # one gcd per (coatom, j); a gcd over one entry keeps its sign
            gcds = np.gcd.reduce(np.abs(image), axis=1)
            gcds = np.unique(gcds[gcds > 1]).tolist()
            return Ideal(ring, [[math.lcm(*gcds)]])
        big = int(np.abs(image).max())
        if zl.exact_dtype(2 * big * big) is object:
            image = image.astype(object)
        # block j of coatom f has the rows (a[f, :, j], b[f, :, j])
        a, b = image[:, :, 0::2], image[:, :, 1::2]
        index = np.zeros_like(a[:, 0])
        for i, t in combinations(range(image.shape[1]), 2):
            index = np.gcd(index, a[:, i] * b[:, t] - b[:, i] * a[:, t])
        f, j = np.nonzero(index > 1)
        a, b, index = a[f, :, j], b[f, :, j], index[f, j]
        while len(index):
            rows = list(zip(a[0].tolist(), b[0].tolist()))
            acc = acc.intersect(Ideal(ring, zl.hnf(rows)[0]))
            a, b, index = a[1:], b[1:], index[1:]
            top = max(abs(x) for row in acc.hnf for x in row)
            if zl.exact_dtype(2 * big * top) is object:
                a, b = a.astype(object), b.astype(object)
            # the blocks whose lattice misses a row of acc
            moves = np.zeros(len(index), dtype=bool)
            for v0, v1 in acc.hnf:
                moves |= ((a * v1 - b * v0) % index[:, None] != 0).any(axis=1)
            a, b, index = a[moves], b[moves], index[moves]
        return acc

    def characteristic_polynomial(self):
        """Whitney-sum characteristic polynomial of the hyperplane poset."""
        coeffs = [0] * (self.arrangement.ell + 1)
        for f in self.flats:
            coeffs[f.dim] += self.mobius[f.id]
        return tuple(coeffs)

    def sub_top(self, col_bits):
        """(mu, coatom ids) at the top of the sub-arrangement on col_bits.

        No linear algebra happens here.  Every flat's own J is answered
        from the main walk and the flat's covers.  For any other set S of
        columns, the top T is reached from the ambient flat through
        ``child``.  The coatoms are the covers Y of T that S cap J(Y)
        spans: those sets lie in no other cover's J, and every other
        cover's set lies in a coatom's, so they are the largest.  Weisner's
        rule, a fixed as the lowest column of S, sums the value at the top
        of S cap J(Y) over the coatoms Y that a misses; each value is kept.
        ``LayerPoset.finders`` and ``fill_mobius`` read J(L) here.
        """
        got = self._sub_top.get(col_bits)
        if got is None:
            flats = self.flats
            top, rest = 0, col_bits
            while rest:
                top = self.child(top, (rest & -rest).bit_length() - 1)
                rest = col_bits & ~flats[top].Jbits
            # a set that spans Y holds at least codim Y columns
            need = flats[top].codim - 1
            cuts = []
            for yid in self.covers[top]:
                cols = col_bits & flats[yid].Jbits
                if cols.bit_count() >= need:
                    cuts.append((cols, yid))
            coatoms = []
            for cols, yid in sorted(cuts, key=lambda c: -c[0].bit_count()):
                if all(cols & ~c for c, _ in coatoms):
                    coatoms.append((cols, yid))
            a = col_bits & -col_bits
            mu = -sum(self.sub_top(cols)[0] for cols, yid in coatoms
                      if not flats[yid].Jbits & a)
            got = self._sub_top[col_bits] = (
                mu, tuple(yid for _, yid in coatoms))
        return got


def whitney_characteristic_polynomial(A):
    return FlatLattice(A).characteristic_polynomial()


class Layer:
    """A translate of a flat inside the torsion space (K/O)^ell."""

    __slots__ = ("index", "flat_id", "y", "Jbits", "tau", "dim", "mu")

    def __init__(self, index, flat_id, y, Jbits, tau, dim):
        self.index = index
        self.flat_id = flat_id
        self.y = y          # canonical representative of m*x in Z^D
        self.Jbits = Jbits  # bit j set for each subgroup holding the layer
        self.tau = tau      # annihilator ideal relative to the identity layer
        self.dim = dim
        self.mu = None

    def __repr__(self):
        return (f"Layer(flat={self.flat_id}, y={self.y}, "
                f"tau={self.tau!r}, mu={self.mu})")


class _Refinement:
    """Solver data for intersecting layers of one flat with one subgroup.

    The caller passes the number of cosets of the child lattice in the
    homogeneous solutions.  ``__init__`` forms M = lam_basis * colmat and
    its Smith transforms U, V, and checks their diagonal against the
    invariant factors from gcds of M's entries and 2x2 minors: a
    refinement is built only for a nonzero parent or a many-component cut,
    and both need U.

    ``solve`` works in Smith coordinates: a point y + s*U*lam_basis meets
    the subgroup when s*U*M = -y*colmat mod m, that is when
    s_i*d_i = r_i mod m for r = (-y*colmat mod m)*V and the diagonal d.
    """

    __slots__ = ("lam_child", "pivots_child", "basis", "colmat",
                 "V", "U", "diag", "steps", "reps", "m")

    def __init__(self, lam_basis, lam_child, pivots_child, colmat, m,
                 cosets):
        D = len(lam_basis)
        deg = len(colmat[0])
        self.lam_child = lam_child
        self.pivots_child = pivots_child
        self.basis = lam_basis
        self.colmat = colmat
        self.m = m
        M = zl.mat_mul(lam_basis, colmat)
        self.diag = zl.small_snf_diagonal(M)
        diag, U, V, _ = zl.snf_transforms(M)
        if diag + [0] * (len(self.diag) - len(diag)) != self.diag:
            raise CertificateFailure(
                "Smith form disagrees with the gcd invariant factors")
        self.U, self.V = U, V
        self.steps = [m // math.gcd(d, m) for d in self.diag]
        if cosets == 1:
            self.reps = [[0] * D]
        else:
            hom = [[self.steps[i] * u for u in row] if i < deg else row
                   for i, row in enumerate(U)]
            sol_basis, _ = zl.hnf(zl.mat_mul(hom, lam_basis))
            self.reps = zl.coset_reps([list(r) for r in lam_child],
                                      sol_basis)
            if len(self.reps) != cosets:
                raise CertificateFailure(
                    "coset representatives disagree with the coset count")

    def solve(self, y):
        """Components of (layer y + parent lattice) meeting the subgroup.

        Returns canonical child representatives, or an empty list.
        """
        m = self.m
        t = zl.mat_mul([y], self.colmat)[0]
        rhs = zl.mat_mul([[-x % m for x in t]], self.V)[0]
        s = []
        for d, r in zip(self.diag, rhs):
            g = math.gcd(d, m)
            r %= m
            if r % g:
                return []
            mm = m // g
            s.append((r // g) * pow((d // g) % mm, -1, mm) % mm
                     if mm > 1 else 0)
        # s has deg entries, so only U's first deg rows enter
        shift = zl.mat_mul(zl.mat_mul([s], self.U), self.basis)[0]
        base = [a + b for a, b in zip(y, shift)]
        return [tuple(zl.reduce_mod([a + b for a, b in zip(base, rep)],
                                    self.lam_child, self.pivots_child))
                for rep in self.reps]


class LayerPoset:
    """All layers, grouped by flat, with annihilators and Moebius values.

    The Moebius value of a layer L is local: the layers above L match the
    flats above the flat of L in the central sub-arrangement J(L) of the
    hyperplanes whose subgroups contain L, so mu(L) is the Moebius value
    at the top of the intersection lattice of J(L).  When J(L) is the
    whole J of its flat, that is the flat's own value and the coatoms are
    the flat's covers, both kept from the main walk of ``FlatLattice``.
    The same match gives the covers of L: the layers one dimension up that
    contain L are its projections to the coatoms of J(L), the parents
    ``finders`` yields.

    The zero layer (y = 0) of a flat is the flat's own image: its
    annihilator is the unit ideal and J(L) = J(flat), given by rule with no
    linear algebra, and it projects to the zero layer of every coarser
    flat.  Equal annihilators share one ``Ideal``, so each distinct one is
    factored once.  ``coset_counts`` gives the component counts of every
    cut of a whole level at once.  ``fill_mobius`` also sums mu per
    (dim, tau) into ``mobius_sums``; each constituent is read off that
    table.
    """

    def __init__(self, arrangement, period, lattice):
        self.arrangement = arrangement
        self.period = period
        self.lattice = lattice
        self.m = m = period.least_integer()
        self.layers = []
        self.index = {}  # (flat id, y tuple) -> layer index
        self.mobius_sums = None  # (dim, tau) -> sum of mu, by fill_mobius
        self._lam = {}
        self._unit = Ideal.unit(arrangement.ring)
        # one Ideal per annihilator, by HNF
        self._taus = {self._unit.hnf: self._unit}
        # a layer's y*(C mod m), y reduced mod m, is below D*m^2, and so
        # are coset_counts' minors of the image mod m
        self._C = np.array([[x % m for x in row] for row in lattice.C],
                           dtype=zl.exact_dtype(lattice.D * m * m))

    # -- plumbing --

    def flat(self, layer):
        return self.lattice.flats[layer.flat_id]

    def lam(self, flat_id):
        """(HNF basis, pivots) of the flat's lattice plus m Z^D."""
        if flat_id not in self._lam:
            flat = self.lattice.flats[flat_id]
            D, m = self.lattice.D, self.m
            # m*e_p for a unit pivot p is m times the flat's row there,
            # less the m*e_c with c > p
            unit = {p for row, p in zip(flat.lat, flat.pivots)
                    if row[p] == 1}
            rows = [list(r) for r in flat.lat] + \
                [[m if c == r else 0 for c in range(D)]
                 for r in range(D) if r not in unit]
            self._lam[flat_id] = zl.hnf(rows)
        return self._lam[flat_id]

    def coset_counts(self, flat_ids):
        """Components of P cap H_j for each flat of one level and column j.

        P is a layer of the flat.  They are the cosets of the child lattice
        in the solutions, one per element of Z^deg / (I_j + m Z^deg), I_j
        the image of the flat's lattice under column j: prod gcd(e, m)
        over the gcd diagonal e of I_j, which the image mod m gives.  The
        flats of a level have images ``Flat.image`` of one shape, so the
        whole level is one stack mod m.  Returns an array with one row of
        counts per flat id, in the given order.
        """
        m = self.m
        flats = self.lattice.flats
        image = np.stack([flats[f].image for f in flat_ids])
        if image.dtype == self._C.dtype:
            image %= m
        else:  # one side is past int64: reduce with Python ints
            image = (image.astype(object) % m).astype(self._C.dtype)
        if self.arrangement.ring.degree == 1:
            return np.gcd(np.gcd.reduce(image, axis=1), m)
        # per column block (a, b): d1 = gcd of the entries, d1*d2 = gcd of
        # the 2x2 minors of row pairs, whose entries stay below m^2; one
        # pair at a time keeps the temporaries at one row of the stack
        a, b = image[:, :, 0::2], image[:, :, 1::2]
        d1 = np.gcd.reduce(np.gcd(a, b), axis=1)
        d12 = np.zeros_like(d1)
        for i, k in combinations(range(image.shape[1]), 2):
            d12 = np.gcd(d12, a[:, i] * b[:, k] - b[:, i] * a[:, k])
        d2 = d12 // np.where(d1 == 0, 1, d1)
        return np.gcd(d1, m) * np.gcd(d2, m)

    def canon(self, flat_id, y):
        """The canonical representative of y modulo the flat's lattice plus
        m Z^D, the one ``zl.reduce_mod`` against ``lam`` gives.

        With every pivot of the flat's basis 1 that is y less y_p times the
        basis row at each pivot p, which clears the pivots and leaves the
        other columns to take mod m: no ``lam`` is formed.
        """
        flat = self.lattice.flats[flat_id]
        if flat.unit_pivots:
            m = self.m
            return tuple(x % m for x in zl.reduce_mod(y, flat.lat,
                                                      flat.pivots))
        basis, pivots = self.lam(flat_id)
        return tuple(zl.reduce_mod(y, basis, pivots))

    def project(self, layer, flat_id):
        """The layer of the coarser flat containing this one, if any."""
        y = layer.y
        if any(y):
            y = self.canon(flat_id, y)
        idx = self.index.get((flat_id, y))
        return None if idx is None else self.layers[idx]

    def finders(self, z):
        """(P, bits of j) for each refinement (X, j) that finds z from P.

        (X, j) finds z from P = project(z, X) exactly when z's flat covers
        X, j is in J(z) - J(X) and J(z) cap J(X) spans X: X is a coatom of
        the sub-arrangement J(z), whose top is z's flat since every layer's
        J spans its flat.  Then J(P) is J(z) cap J(X), since the column of
        any i in J(X) is constant on P.  P is None only if a layer that
        must exist is missing.
        """
        flats = self.lattice.flats
        for xid in self.lattice.sub_top(z.Jbits)[1]:
            yield self.project(z, xid), z.Jbits & ~flats[xid].Jbits

    def leq(self, a, b):
        """a <= b in the poset, i.e. the layer a contains the layer b."""
        fa, fb = self.flat(a), self.flat(b)
        if fa.Jbits & fb.Jbits != fa.Jbits:
            return False
        return self.canon(a.flat_id, b.y) == a.y

    # -- construction --

    def tau(self, flat_id, y):
        """Annihilator ideal of the coset of y modulo the flat's lattice.

        That is {a : a*y in lam}.  With every pivot of the flat's basis 1,
        the quotient by lam is (Z/m)^k on the columns that are no pivot,
        where ``canon`` leaves its coordinates, so the annihilator is the
        pair lattice of canon(y) and canon(w*y) mod m
        (``zl.annihilator_mod``); over Z it is <m / gcd(m, canon(y))>.
        Any other flat takes it off the kernel of [lam; y; w*y].  One
        ``Ideal`` is kept per HNF.
        """
        ring = self.arrangement.ring
        deg = ring.degree
        m = self.m
        rows = [list(y)]
        if deg == 2:
            rows.append([c for i in range(0, len(y), 2)
                         for c in ring.omega_mul((y[i], y[i + 1]))])
        flat = self.lattice.flats[flat_id]
        if flat.unit_pivots:
            # canon before its mod m, which the annihilator ignores
            red = [zl.reduce_mod(r, flat.lat, flat.pivots) for r in rows]
            key = (((m // math.gcd(m, *red[0]),),) if deg == 1
                   else zl.annihilator_mod(*red, m))
        else:
            # the lattice rows first: they are already echelon
            basis, _ = self.lam(flat_id)
            ker = zl.left_kernel(basis + rows)
            hb, _ = zl.hnf([k[-deg:] for k in ker])
            if len(hb) < deg:
                raise CertificateFailure(
                    "annihilator lattice is rank deficient")
            key = tuple(tuple(r) for r in hb)
        tau = self._taus.get(key)
        if tau is None:
            tau = self._taus[key] = Ideal(ring, key)
        return tau

    def add_layer(self, flat_id, y):
        """Append the layer y of the flat; None if known or not torsion."""
        key = (flat_id, y)
        if key in self.index:
            return None
        lattice, m = self.lattice, self.m
        flat = lattice.flats[flat_id]
        if not any(y):
            tau, bits = self._unit, flat.Jbits
        else:
            tau = self.tau(flat_id, y)
            if not tau.contains_ideal(self.period):
                return None  # not period-torsion: outside this poset
            # the hyperplanes j of the flat with y*C_j = 0 mod m
            A = self.arrangement
            yc = np.array(y, dtype=self._C.dtype) @ self._C % m
            on = (yc == 0).reshape(A.n, A.ring.degree).all(axis=1)
            bits = flat.Jbits & _mask_bits(on)
        z = Layer(len(self.layers), flat_id, y, bits, tau, flat.dim)
        self.layers.append(z)
        self.index[key] = z.index
        if len(self.layers) > LAYER_BUDGET:
            raise ExponentTooLarge(
                f"layer count exceeded the budget of {LAYER_BUDGET}"
                + self._progress(flat.codim))
        return z

    def _progress(self, codim):
        """How far the build got, for a budget message."""
        return (f" (reached codim {codim}; layers so far: "
                f"{len(self.layers)}; flats: {len(self.lattice.flats)})")

    # -- Moebius values --

    def fill_mobius(self):
        """Set each layer's mu by the localization in the class docstring.

        mu(L) is read off ``FlatLattice.sub_top`` of the sub-arrangement
        J(L), where ``finders`` reads its coatoms.  Then sum mu per
        (dim, tau) into ``mobius_sums``.  Keys whose sum is 0 stay: the
        minimality certificate takes the lcm over every tau.
        """
        sub_top = self.lattice.sub_top
        sums = {}
        for z in self.layers:
            z.mu = sub_top(z.Jbits)[0]
            key = (z.dim, z.tau)
            sums[key] = sums.get(key, 0) + z.mu
        self.mobius_sums = sums
        return self

    # -- torsion subposets and constituents --

    def kappa_subposet(self, kappa):
        """Indices of the layers annihilated by kappa (an order ideal)."""
        kappa = kappa + self.period
        return [i for i, z in enumerate(self.layers)
                if z.tau.contains_ideal(kappa)]

    def kappa_characteristic_polynomial(self, kappa):
        """Sum of mu(L) t^dim L over the layers annihilated by kappa."""
        kappa = kappa + self.period
        coeffs = [0] * (self.arrangement.ell + 1)
        for (dim, tau), mu in self.mobius_sums.items():
            if tau.contains_ideal(kappa):
                coeffs[dim] += mu
        return tuple(coeffs)

    def quasi_polynomial(self):
        consts = {k: self.kappa_characteristic_polynomial(k)
                  for k in self.period.divisors()}
        return QuasiPolynomial(self.arrangement.ring, self.period, consts)

    # -- presentation --

    def representative_string(self, z):
        ring = self.arrangement.ring
        deg = ring.degree
        coords = []
        for i in range(self.arrangement.ell):
            block = z.y[deg * i: deg * (i + 1)]
            fracs = [Fraction(c, self.m) for c in block]
            den = 1
            for f in fracs:
                den = den * f.denominator // math.gcd(den, f.denominator)
            nums = [f.numerator * (den // f.denominator) for f in fracs]
            elem = ring.format_element(tuple(nums))
            if den == 1:
                coords.append(elem)
            else:
                compound = "+" in elem or "-" in elem.lstrip("-")
                core = f"({elem})" if compound else elem
                coords.append(f"{core}/{den}")
        return "(" + ", ".join(coords) + ")"

    def hasse_dot(self, kappa=None):
        """Deterministic DOT digraph of the (restricted) poset.

        The layers covering a layer z, one dimension up and containing it,
        are its projections to the coatoms of the sub-arrangement J(z):
        the parents ``finders`` yields.  A kappa-subposet holds every
        parent of its layers, since a parent's annihilator contains its
        child's, so the edges are the (parent, z) pairs of the chosen
        layers, in node order.  The drawing is held to layers whose count
        squared is at most HASSE_BUDGET: a larger one raises before any
        work.
        """
        if kappa is None:
            chosen = list(range(len(self.layers)))
        else:
            chosen = self.kappa_subposet(kappa)
        if len(chosen) ** 2 > HASSE_BUDGET:
            raise BudgetExceeded(
                f"a Hasse diagram of {len(chosen)} layers is too large to "
                f"draw: their count squared is over the budget of "
                f"{HASSE_BUDGET}")
        nodes = sorted(
            chosen,
            key=lambda i: (-self.layers[i].dim,
                           self.representative_string(self.layers[i])))
        lines = ["digraph layers {"]
        for order, i in enumerate(nodes):
            z = self.layers[i]
            rep = self.representative_string(z)
            tau = format_factored(z.tau)
            lines.append(f'  n{order} [label="{rep} | {tau} | {z.mu}"];')
        pos = {i: order for order, i in enumerate(nodes)}
        edges = sorted((pos[parent.index], pos[i]) for i in nodes
                       for parent, _ in self.finders(self.layers[i]))
        lines += [f"  n{a} -> n{b};" for a, b in edges]
        lines.append("}")
        return "\n".join(lines) + "\n"


def layer_poset(A, period=None):
    """Build the poset of layers, keeping the period-torsion layers.

    When ``period`` is the lcm period (the default, read off the flat
    lattice by ``FlatLattice.lcm_period``) this is the full poset; a
    proper divisor of it builds the corresponding torsion subposet, which
    is the poset of the arrangement over the localized ring whose dead
    primes were stripped from the period.  The period is factored before
    any layer, since every reader of the poset needs its primes: a period
    past the factoring budget fails once the flats are built.

    The layers of each level are the components of P cap H_j, for P a
    layer of a flat X of the level above and j outside J(X).  The pair
    (X, j) finds the layer L from P = project(L, X) exactly when j is in
    J(L) and J(L) cap J(X) spans X (``LayerPoset.finders``), so each new
    layer is recorded at those (X, P) under the bits J(L) - J(X); the X
    are the coatoms of the sub-arrangement J(L).  For one (X, j), every
    P cap H_j has the same number of components, read off the image of X
    under column j; the whole level's counts come from one
    ``LayerPoset.coset_counts`` call.  Each parent layer keeps the bits of
    the j whose components are not all recorded yet: recording clears
    bit j when the count for j reaches the coset count (at once, for a
    one-component cut) and fails the certificate when it passes it.  A
    flat's parents are solved only for their pending bits, in ascending
    j; a parent with j cleared can find nothing new.  A zero parent of a
    one-component cut is not solved either: its only component is the
    child's zero layer, taken in place so the discovery order stays.  The
    refinement is built only when a nonzero parent or a many-component cut
    is left.  Zero layers get tau = <1> and J = J(flat) by rule, and the
    constituents are read off one table of mu summed per (dim, tau), built
    by ``fill_mobius``.
    """
    lattice = FlatLattice(A)
    if period is None:
        period = lattice.lcm_period()
    period.factor()  # an unfactorable period fails before any layer
    flats = lattice.flats
    poset = LayerPoset(A, period, lattice)
    full = (1 << A.n) - 1
    # flat id of the level refined -> coset count per j
    cosets = {}
    # parent index -> [bits of the j still pending, how many recorded
    # layers (its flat, j) finds from it per j, the recorded (bits of j,
    # layer) pairs], for the parents of the level refined
    found = {}

    def add_layer(flat_id, y):
        z = poset.add_layer(flat_id, y)
        if z is not None:
            for parent, rest in poset.finders(z):
                if parent is None:
                    raise CertificateFailure(
                        f"a projection of layer {z.index} is no layer")
                entry = found[parent.index]
                entry[2].append((rest, z))
                cut = cosets[parent.flat_id]
                counts = entry[1]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j = low.bit_length() - 1
                    counts[j] += 1
                    if counts[j] == cut[j]:
                        entry[0] &= ~low
                    elif counts[j] > cut[j]:
                        raise CertificateFailure(
                            f"more layers are recorded as found by flat "
                            f"{parent.flat_id} and hyperplane {j} from layer "
                            f"{parent.index} than the {cut[j]} it cuts")
        return z

    zero = (0,) * lattice.D
    add_layer(0, zero)
    by_flat = {0: [zero]}
    for codim in range(A.ell):
        level = sorted(by_flat)
        if not level:
            break
        # layers are recorded only at parents of the level being refined
        found = {}
        for fid in level:
            pending = full & ~flats[fid].Jbits
            for y in by_flat[fid]:
                found[poset.index[(fid, y)]] = [pending, [0] * A.n, []]
        cosets = dict(zip(level, poset.coset_counts(level).tolist()))
        next_by_flat = {}
        for fid in level:
            ys = by_flat[fid]
            entries = [found[poset.index[(fid, y)]] for y in ys]
            todo_bits = 0
            for entry in entries:
                todo_bits |= entry[0]
            while todo_bits:
                low = todo_bits & -todo_bits
                todo_bits ^= low
                j = low.bit_length() - 1
                # P cap H_j has one component per coset, the same number
                # for every parent layer P
                todo = [(y, entry[2]) for y, entry in zip(ys, entries)
                        if entry[0] & low]
                if not todo:
                    continue
                count = cosets[fid][j]
                if count > LAYER_BUDGET:
                    # checked before the refinement lists its cosets
                    raise ExponentTooLarge(
                        f"flat {fid} and hyperplane {j} cut "
                        f"{format_int(count)} layers, over the budget of "
                        f"{LAYER_BUDGET}" + poset._progress(codim + 1))
                child = lattice.child(fid, j)
                refine = None
                for y, recorded in todo:
                    if count == 1 and not any(y):
                        outs = [y]  # the zero layer of the child
                    else:
                        if refine is None:
                            lam_basis, _ = poset.lam(fid)
                            lam_child, pivots_child = poset.lam(child)
                            colmat = lattice.colmats[j]
                            refine = _Refinement(
                                lam_basis, lam_child, pivots_child, colmat,
                                poset.m, count)
                        outs = refine.solve(y)
                    for bits, z in recorded:
                        if bits & low and (z.flat_id != child
                                           or z.y not in outs):
                            raise CertificateFailure(
                                f"layer {z.index} is recorded as found by "
                                f"flat {fid} and hyperplane {j}, but "
                                "is not among the components they cut")
                    for y_new in outs:
                        if add_layer(child, y_new) is not None:
                            next_by_flat.setdefault(child, []).append(y_new)
        by_flat = next_by_flat
    poset.fill_mobius()
    return poset
