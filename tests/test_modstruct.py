import random
from itertools import combinations, product

import pytest

from dedarr import charquasi as cq
from dedarr import ring as rg
from dedarr import zlinalg as zl
from dedarr.errors import ElementNotInModule

import conftest
from conftest import (determinantal_ideals, full_range_lcm, invariant_factors,
                      minor_walk_lcm_period, quotient_invariants,
                      rand_table_arrangement, rank_over_K, restriction_rows,
                      vec_mat)

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)
RINGS = [Z, ZI, Z5, ZT]

P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])


def mat(ring, rows):
    return cq.CoeffMatrix(ring, rows)


def rand_matrix(rng, ring, ell, k, bound=3):
    return cq.CoeffMatrix(
        ring,
        [[tuple(rng.randint(-bound, bound) for _ in range(ring.degree))
          for _ in range(k)] for _ in range(ell)])


# The explicit torsion module: the independent cross-check of
# ``invariant_factors``, by restricting scalars to Z and Smith normal form.


class TorsionModule:
    """The torsion part of coker(x -> x*C) as an explicit finite group.

    Elements are tuples of coordinates, one per cyclic factor; the
    multiplication-by-w action is stored as an integer matrix on the
    Smith coordinates.
    """

    __slots__ = ("ring", "invariants", "rel_basis", "rel_pivots",
                 "omega_action")

    def __init__(self, ring, invariants, rel_rows, omega_action):
        self.ring = ring
        self.invariants = tuple(invariants)
        basis, pivots = zl.hnf(rel_rows) if rel_rows else ([], [])
        self.rel_basis = basis
        self.rel_pivots = pivots
        self.omega_action = omega_action

    def __len__(self):
        size = 1
        for d in self.invariants:
            size *= d
        return size

    def elements(self):
        elts = [()]
        for d in self.invariants:
            elts = [e + (t,) for e in elts for t in range(d)]
        return [tuple(e) for e in elts]

    def canonical(self, coords):
        if len(coords) != len(self.invariants):
            raise ElementNotInModule("wrong coordinate length")
        return tuple(c % d for c, d in zip(coords, self.invariants))

    def act_omega(self, coords):
        out = vec_mat(list(coords), self.omega_action) \
            if self.omega_action else list(coords)
        return self.canonical(out)

    def act(self, x, coords):
        """Multiply the element by the ring element x."""
        a = list(self.canonical(coords))
        result = [c * x[0] for c in a]
        if self.ring.degree == 2 and x[1]:
            wpart = self.act_omega(a)
            result = [r + x[1] * w for r, w in zip(result, wpart)]
        return self.canonical(result)

    def annihilator(self, coords):
        """The ideal {a in O : a * element = 0}."""
        ring = self.ring
        coords = self.canonical(coords)
        deg = ring.degree
        if not self.invariants:
            return rg.Ideal.unit(ring)
        rows = [list(coords)]
        if deg == 2:
            rows.append(list(self.act_omega(coords)))
        # a = (a0, a1) kills the element iff a0*v + a1*(w v) = 0 modulo the
        # cyclic orders
        rel = [[self.invariants[i] if j == i else 0
                for j in range(len(self.invariants))]
               for i in range(len(self.invariants))]
        stacked = rows + rel
        ker = zl.left_kernel(stacked)
        proj = [k[:deg] for k in ker]
        basis, _ = zl.hnf(proj)
        if len(basis) < deg:
            raise AssertionError("annihilator lattice is rank deficient")
        return rg.Ideal(ring, basis)

    def abelian_invariants(self):
        return self.invariants


def torsion_cokernel(C):
    """Explicit torsion part of the cokernel, via Smith normal form over Z."""
    ring = C.ring
    deg = ring.degree
    n = deg * C.ncols
    rel = restriction_rows(C)
    basis, _ = zl.hnf(rel)
    if not basis:
        return TorsionModule(ring, (), [], [])
    diag, U, V, Vinv = zl.snf_transforms(basis)
    # Z^n / L in coordinates z = y * V: z_i taken mod diag_i (i < rank),
    # free otherwise.  The torsion part keeps the coordinates with d > 1.
    tors_idx = [i for i, d in enumerate(diag) if d > 1]
    invariants = [diag[i] for i in tors_idx]
    # multiplication by w on ambient coordinates
    if deg == 2:
        w_amb = [[0] * n for _ in range(n)]
        for j in range(C.ncols):
            t, nn = ring.omega_trace, ring.omega_norm
            # (a + b w) * w = -nn*b + (a + t*b) w
            w_amb[2 * j][2 * j + 1] = 1
            w_amb[2 * j + 1][2 * j] = -nn
            w_amb[2 * j + 1][2 * j + 1] = t
    else:
        w_amb = zl.identity(n)
    # action on z-coordinates: z -> z V^{-1} W V, restricted to torsion coords
    conj = zl.mat_mul(zl.mat_mul(Vinv, w_amb), V)
    action = [[conj[i][j] for j in tors_idx] for i in tors_idx]
    return TorsionModule(ring, invariants, basis, action)


def test_rank_examples():
    c = mat(Z5, [[(2, 0), (1, 1)], [(1, -1), (3, 0)]])
    assert rank_over_K(c) == 1
    zero_col = mat(ZI, [[(0, 0)], [(0, 0)]])
    assert rank_over_K(zero_col) == 0
    c2 = mat(ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    assert rank_over_K(c2) == 2


def test_determinantal_ideal_examples():
    col = mat(Z5, [[(2, 0)], [(1, -1)]])
    assert determinantal_ideals(col) == [P5]

    c = mat(Z5, [[(2, 0), (1, 1)], [(1, -1), (3, 0)]])
    ideals = determinantal_ideals(c)
    assert len(ideals) == 1 and ideals[0].is_unit_ideal()

    c2 = mat(ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    e1, e2 = determinantal_ideals(c2)
    assert e1.is_unit_ideal()
    assert e2 == rg.Ideal.principal(ZI, (2, 0))


def test_invariant_factors_examples():
    col = mat(Z5, [[(2, 0)], [(1, -1)]])
    inv = invariant_factors(col)
    assert inv.rank == 1 and inv.factors == (P5,)

    c2 = mat(ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    inv = invariant_factors(c2)
    assert inv.rank == 2
    assert inv.factors[0].is_unit_ideal()
    assert inv.factors[1] == rg.Ideal.principal(ZI, (2, 0))

    for ring in RINGS:
        eye = mat(ring, [[ring.one, ring.zero], [ring.zero, ring.one]])
        inv = invariant_factors(eye)
        assert inv.rank == 2
        assert all(d.is_unit_ideal() for d in inv.factors)


def test_torsion_cokernel_examples():
    col = mat(Z5, [[(2, 0)], [(1, -1)]])
    m = torsion_cokernel(col)
    assert len(m) == 2

    for ring in RINGS:
        eye = mat(ring, [[ring.one, ring.zero], [ring.zero, ring.one]])
        assert len(torsion_cokernel(eye)) == 1

    c2 = mat(ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    m = torsion_cokernel(c2)
    assert len(m) == 4
    assert tuple(m.abelian_invariants()) == (2, 2)
    # isomorphic to O/<2> as an O-module: some element has annihilator <2>
    two = rg.Ideal.principal(ZI, (2, 0))
    anns = {m.annihilator(e) for e in m.elements()}
    assert two in anns


def test_annihilator_examples():
    col = mat(Z5, [[(2, 0)], [(1, -1)]])
    m = torsion_cokernel(col)
    elements = m.elements()
    zero = elements[0]
    assert m.annihilator(zero).is_unit_ideal()
    nonzero = [e for e in elements if any(e)][0]
    assert m.annihilator(nonzero) == P5
    with pytest.raises(ElementNotInModule):
        m.annihilator((0, 0, 0, 0, 0))


def abelian_invariants_of_sum(factors):
    """Abelian invariants of the direct sum of O/d_i, via each HNF."""
    parts = []
    for d in factors:
        parts.extend(quotient_invariants(
            [list(r) for r in d.hnf], d.ring.degree))
    if not parts:
        return ()
    # decompose each cyclic order into prime powers
    by_prime = {}
    for n in parts:
        m = n
        f = 2
        while f * f <= m:
            e = 0
            while m % f == 0:
                e += 1
                m //= f
            if e:
                by_prime.setdefault(f, []).append(f ** e)
            f += 1
        if m > 1:
            by_prime.setdefault(m, []).append(m)
    # align the k-th largest power of each prime to form the divisor chain
    depth = max(len(v) for v in by_prime.values())
    aligned = []
    for occ in by_prime.values():
        occ.sort()
        aligned.append([1] * (depth - len(occ)) + occ)
    result = []
    for i in range(depth):
        val = 1
        for padded in aligned:
            val *= padded[i]
        if val > 1:
            result.append(val)
    return tuple(result)


def test_structure_cross_check_random():
    rng = random.Random(21)
    checked = 0
    for ring in RINGS:
        for _ in range(60):
            ell = rng.randint(1, 3)
            k = rng.randint(1, 3)
            c = rand_matrix(rng, ring, ell, k)
            if rank_over_K(c) == 0:
                continue
            inv = invariant_factors(c)
            m = torsion_cokernel(c)
            expect = abelian_invariants_of_sum(inv.factors)
            assert tuple(m.abelian_invariants()) == expect, (c.rows,)
            assert len(m) == inv.torsion_size()
            checked += 1
    assert checked >= 150


def brute_kernel_count(C, a):
    """|{x in (O/a)^ell : x*C = 0 mod a}| by direct enumeration."""
    ring = C.ring
    reps = a.residues()
    count = 0
    for x in product(reps, repeat=C.nrows):
        ok = True
        for j in range(C.ncols):
            acc = ring.zero
            for i in range(C.nrows):
                acc = ring.add(acc, ring.mul(x[i], C.rows[i][j]))
            if not a.contains(acc):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_kernel_count_formula_random():
    # |ker phi_{J,a}| = prod N(a + d_i) * N(a)^(ell - r)
    rng = random.Random(22)
    checked = 0
    for ring in RINGS:
        for _ in range(40):
            ell = rng.randint(1, 2)
            k = rng.randint(1, 2)
            c = rand_matrix(rng, ring, ell, k, bound=2)
            a = rg.Ideal.from_generators(
                ring, [tuple(rng.randint(-3, 3) for _ in range(ring.degree)),
                       ring.from_int(rng.randint(1, 6))])
            if a.norm > 16 or a.norm ** ell > 600:
                continue
            inv = invariant_factors(c)
            predicted = a.norm ** (ell - inv.rank)
            for d in inv.factors:
                predicted *= (a + d).norm
            assert predicted == brute_kernel_count(c, a), (c.rows, a)
            checked += 1
    assert checked >= 60


def test_torsion_module_action_axioms():
    rng = random.Random(24)
    for ring in RINGS:
        for _ in range(25):
            c = rand_matrix(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            m = torsion_cokernel(c)
            if len(m) == 1 or len(m) > 60:
                continue
            elements = m.elements()
            for _ in range(10):
                x = rng.choice(elements)
                a = tuple(rng.randint(-3, 3) for _ in range(ring.degree))
                b = tuple(rng.randint(-3, 3) for _ in range(ring.degree))
                # associativity with ring multiplication
                assert m.act(a, m.act(b, x)) == m.act(ring.mul(a, b), x)
                # additivity in the scalar
                lhs = m.act(ring.add(a, b), x)
                rhs = m.canonical(tuple(
                    u + v for u, v in zip(m.act(a, x), m.act(b, x))))
                assert lhs == rhs
            # annihilator generators really kill their element
            for x in elements:
                ann = m.annihilator(x)
                for g in ann.basis():
                    assert not any(m.act(g, x))


def test_last_factor_monotone_under_extension():
    # J2 within J1 of equal rank: last factor of J1 divides that of J2
    rng = random.Random(23)
    checked = 0
    for ring in RINGS:
        for _ in range(80):
            ell = rng.randint(1, 3)
            k = rng.randint(2, 4)
            cols = [tuple(
                tuple(rng.randint(-2, 2) for _ in range(ring.degree))
                for _ in range(ell)) for _ in range(k)]
            if any(all(not any(x) for x in col) for col in cols):
                continue
            full = cq.CoeffMatrix.from_columns(ring, cols)
            size = rng.randint(1, k - 1)
            subset = sorted(rng.sample(range(k), size))
            sub = cq.CoeffMatrix.from_columns(
                ring, [cols[j] for j in subset])
            inv_full = invariant_factors(full)
            inv_sub = invariant_factors(sub)
            if inv_full.rank != inv_sub.rank or inv_sub.rank == 0:
                continue
            assert inv_full.last_factor().divides(inv_sub.last_factor())
            checked += 1
    assert checked >= 60


def test_last_factor_divides_along_independent_extension():
    # J independent and J + {j} independent: dropping coordinate j maps
    # coker(J + {j}) onto coker(J), so d(J) | d(J + {j}); the lcm period's
    # reduction to the bases rests on this
    rng = random.Random(29)
    for ring in RINGS:
        checked = 0
        while checked < 40:
            ell = rng.randint(1, 4)
            k = rng.randint(0, ell - 1)
            cols = [tuple(
                tuple(rng.randint(-3, 3) for _ in range(ring.degree))
                for _ in range(ell)) for _ in range(k + 1)]
            small = invariant_factors(
                cq.CoeffMatrix.from_columns(ring, cols[:k])) if k else None
            big = invariant_factors(
                cq.CoeffMatrix.from_columns(ring, cols))
            if big.rank != k + 1:
                continue
            if small is None:
                d_small = rg.Ideal.unit(ring)
            else:
                assert small.rank == k
                d_small = small.last_factor()
            assert d_small.divides(big.last_factor()), (ring, cols)
            checked += 1


def test_minor_walk_reads_each_basis_faces(monkeypatch):
    # subset_rows gives the table rows of the s-subsets of P + (j,), the
    # E_(r-1) rows minor_walk_lcm_period reads for a basis are exactly that
    # basis's (r-1)-subsets, and the walk gives the lcm period of its
    # definition
    calls = []
    subset_rows = conftest.subset_rows

    def recorded(parents, lasts, offsets, s, p, j):
        out = subset_rows(parents, lasts, offsets, s, p, j)
        calls.append((s, p, j, out))
        return out

    monkeypatch.setattr(conftest, "subset_rows", recorded)
    rng = random.Random(59)
    faces = bases = 0
    for ring in RINGS:
        for _ in range(12):
            A = rand_table_arrangement(rng, ring)
            top = min(A.ell, A.n)
            _, parents, lasts, offsets = cq._minor_tables(A, top)
            row = {(): 0}
            for s in range(1, top + 1):
                for S in combinations(range(A.n), s):
                    row[S] = int(offsets[s][row[S[:-1]]]) + S[-1]
            for S in combinations(range(A.n), top):
                for s in range(top):
                    got = subset_rows(parents, lasts, offsets, s,
                                      row[S[:s]], S[s])
                    assert sorted(got) == sorted(
                        row[F] for F in combinations(S[:s + 1], s))
                    faces += 1
            r = cq._rank(A)
            del calls[:]
            assert minor_walk_lcm_period(A) == full_range_lcm(A), A.columns
            lookup = {i: S for S, i in row.items() if len(S) == r - 1}
            # the recursion's own calls are for smaller s
            for s, p, j, got in calls:
                if s < r - 1:
                    continue
                basis = lookup[p] + (j,)
                assert s == r - 1 and j > max(lookup[p], default=-1)
                assert sorted(got) == sorted(
                    row[F] for F in combinations(basis, r - 1)), A.columns
                bases += 1
    assert faces >= 300 and bases >= 100, (faces, bases)
