import hashlib
import io
import random
from itertools import combinations

import numpy as np
import pytest

from dedarr import charquasi as cq
from dedarr import cli
from dedarr import layers as ly
from dedarr import ring as rg
from dedarr import rootsys

from conftest import (annihilator_and_J, bit_set, cartan_arrangement,
                      check_layer_algebra, determinant_coset_count,
                      exhaustive_layer_poset, exponent_polynomial,
                      finders_by_sub_arrangement, flats_above,
                      hasse_covers_by_triples, invariant_factors,
                      lam_by_hnf, layer_digest, m_value, mobius_by_recursion,
                      mobius_on, rand_small_arrangement, rank_over_K)

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)

P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])
PQ = rg.Ideal.principal(Z5, (1, 1))


def test_intersection_lattice_examples(gaussian_arrangement,
                                       nonprincipal_arrangement):
    lat = ly.FlatLattice(nonprincipal_arrangement)
    assert len(lat.flats) == 2  # ambient plus one line: equal hyperplanes

    lat = ly.FlatLattice(gaussian_arrangement)
    assert len(lat.flats) == 6  # ambient, four lines, origin
    dims = sorted(f.dim for f in lat.flats)
    assert dims == [0, 1, 1, 1, 1, 2]
    origin = [f for f in lat.flats if f.dim == 0][0]
    assert bit_set(origin.Jbits) == frozenset({0, 1, 2, 3})

    generic = cq.Arrangement(Z, [[(1,), (0,)], [(0,), (1,)]])
    assert len(ly.FlatLattice(generic).flats) == 4


def direct_cut(lattice, flat, j):
    """The HNF rows of flat cap H_j, by kernel and HNF as in the definition."""
    base = [list(r) for r in flat.lat]
    small = ly.zl.left_kernel(ly.zl.mat_mul(base, lattice.colmats[j]))
    inter = ly.zl.mat_mul(small, base) if small else []
    return tuple(tuple(r) for r in ly.zl.hnf(inter)[0])


def check_children(A):
    lat = ly.FlatLattice(A)
    # children is exactly the inverse of covers, each pair once
    assert sorted((x, y) for x, ys in enumerate(lat.children) for y in ys) \
        == sorted((x, y) for y, xs in enumerate(lat.covers) for x in xs)
    for flat in lat.flats:
        if flat.dim == 0:
            continue
        for j in range(A.n):
            if flat.Jbits >> j & 1:
                continue
            got = lat.flats[lat.child(flat.id, j)]
            assert got.lat == direct_cut(lat, flat, j), (flat, j)
            assert got.codim == flat.codim + 1
            want = flat.Jbits | 1 << j
            assert got.Jbits & want == want
    # a flat covers the flats one codim up whose J lies in its own
    for flat in lat.flats:
        assert sorted(lat.covers[flat.id]) == [
            x.id for x in lat.flats if x.codim == flat.codim - 1
            and x.Jbits & flat.Jbits == x.Jbits], flat
    # J is exactly the set of hyperplanes whose column the flat kills
    for flat in lat.flats:
        J = {j for j in range(A.n)
             if not any(ly.zl.mat_mul([list(r) for r in flat.lat],
                                      lat.colmats[j])[i][s]
                        for i in range(len(flat.lat))
                        for s in range(A.ring.degree))}
        assert bit_set(flat.Jbits) == J
    return lat


def test_children_are_direct_intersections():
    # most children are registered from the J-bits of a flat found
    # elsewhere; each must be the intersection computed directly
    h3 = rootsys.builtin("H3").arrangement
    assert len(check_children(h3).flats) == 48
    h4 = rootsys.builtin("H4").arrangement
    prefix = cq.Arrangement(h4.ring, h4.columns[:24])
    assert len(check_children(prefix).flats) == 310
    rng = random.Random(66)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(10):
            check_children(rand_small_arrangement(rng, ring, ell_max=4,
                                                  n_max=6, bound=2))


def test_every_cut_finds_a_new_flat(monkeypatch):
    # a cut registers every pair that reaches its flat, and registered
    # pairs are never cut, so the lattice makes one cut per flat but the
    # ambient one
    cuts = []
    cut = ly.FlatLattice._cut

    def spy(self, flat, j):
        cuts.append((flat.id, j))
        return cut(self, flat, j)

    monkeypatch.setattr(ly.FlatLattice, "_cut", spy)
    h4 = rootsys.builtin("H4").arrangement
    cases = [rootsys.builtin("H3").arrangement,
             cq.Arrangement(h4.ring, h4.columns[:24])]
    rng = random.Random(67)
    cases += [rand_small_arrangement(rng, ring, ell_max=4, n_max=6, bound=2)
              for ring in (Z, ZI, Z5, ZT) for _ in range(5)]
    for A in cases:
        cuts.clear()
        lat = ly.FlatLattice(A)
        assert len(cuts) == len(lat.flats) - 1, A.columns
        assert len(set(cuts)) == len(cuts)


def small_period_arrangements(rng, per_ring):
    """Random arrangements with ell <= 4 whose period has norm <= 1000."""
    cases = []
    for ring in (Z, ZI, Z5, ZT):
        found = 0
        while found < per_ring:
            A = rand_small_arrangement(rng, ring, ell_max=4, n_max=6,
                                       bound=2)
            if cq.lcm_period(A).norm <= 1000:
                cases.append(A)
                found += 1
    return cases


def check_finding_rule(A):
    # solve every (X, j, P) the old way: (X, j) finds L iff j is in J(L)
    # and J(L) cap J(X) spans X, and finders names exactly those triples
    finds = set()
    P = exhaustive_layer_poset(A, finds=finds)
    rule = set()
    refused = 0
    for z in P.layers:
        flat = P.flat(z)
        for x in P.lattice.flats:
            if x.codim != flat.codim - 1 or x.Jbits & flat.Jbits != x.Jbits:
                continue
            common = sorted(bit_set(z.Jbits & x.Jbits))
            rank = rank_over_K(A.coeff_matrix(common)) if common else 0
            parent = P.project(z, x.id)
            if rank != x.codim:
                assert parent is None  # J(parent) would not span X
                refused += 1
                continue
            rule |= {(x.id, j, parent.index, z.index)
                     for j in bit_set(z.Jbits & ~x.Jbits)}
    assert finds == rule
    named = {(w.flat_id, j, w.index, z.index)
             for z in P.layers for w, bits in P.finders(z)
             for j in range(A.n) if bits >> j & 1}
    assert named == rule
    return P, finds, refused


def test_layers_found_by_the_rule():
    # the layer (1/3, 1/3) has J = {1, 2}; its projection to ker c_0 is
    # no layer, so only the pairs from ker c_1 and ker c_2 find it
    A = cq.Arrangement(Z, [[(1,), (1,)], [(1,), (2,)], [(2,), (1,)]])
    P, finds, refused = check_finding_rule(A)
    third = [z for z in P.layers
             if P.representative_string(z) == "(1/3, 1/3)"]
    assert len(third) == 1 and bit_set(third[0].Jbits) == frozenset({1, 2})
    from_flats = {bit_set(P.lattice.flats[x].Jbits)
                  for x, _, _, i in finds if i == third[0].index}
    assert from_flats == {frozenset({1}), frozenset({2})}
    h4 = rootsys.builtin("H4").arrangement
    for A in (rootsys.builtin("H3").arrangement,
              cq.Arrangement(h4.ring, h4.columns[:24])):
        refused += check_finding_rule(A)[2]
    for A in small_period_arrangements(random.Random(69), 8):
        refused += check_finding_rule(A)[2]
    assert refused >= 1000


def test_layer_poset_matches_exhaustive_loop():
    # skipping refinements keeps the discovery order: the same layer ids,
    # also for torsion subposets, where fewer skips fire
    h4 = rootsys.builtin("H4").arrangement
    cases = [rootsys.builtin("H2").arrangement,
             rootsys.builtin("H3").arrangement,
             cq.Arrangement(h4.ring, h4.columns[:24])]
    cases += small_period_arrangements(random.Random(70), 6)
    for A in cases:
        P = ly.layer_poset(A)
        assert layer_digest(P) == layer_digest(exhaustive_layer_poset(A))
        for kappa in P.period.divisors()[:-1]:
            assert (layer_digest(ly.layer_poset(A, period=kappa))
                    == layer_digest(exhaustive_layer_poset(A, kappa)))
        gens = [A.ring.from_int(2), A.ring.from_int(3)]
        stripped, _ = cq.strip_primes(cq.lcm_period(A), gens)
        assert (layer_digest(ly.layer_poset(A, period=stripped))
                == layer_digest(exhaustive_layer_poset(A, stripped)))


def rule_cases(gaussian_arrangement, nonprincipal_arrangement):
    """The fixtures, H3, H4[:24] and 24 random small-period arrangements."""
    h4 = rootsys.builtin("H4").arrangement
    cases = [gaussian_arrangement, nonprincipal_arrangement,
             rootsys.builtin("H3").arrangement,
             cq.Arrangement(h4.ring, h4.columns[:24])]
    return cases + small_period_arrangements(random.Random(73), 6)


def test_layer_tau_and_J_match_linear_algebra(gaussian_arrangement,
                                              nonprincipal_arrangement):
    # the zero layers get tau = <1> and J = J(flat) by rule; every layer's
    # tau and J must be what the kernel and y*C mod m give
    zero = 0
    for A in rule_cases(gaussian_arrangement, nonprincipal_arrangement):
        P = ly.layer_poset(A)
        for z in P.layers:
            assert (z.tau, bit_set(z.Jbits)) == annihilator_and_J(P, z), \
                (A.columns, z)
            zero += not any(z.y)
        # one Ideal per distinct annihilator, so each is factored once
        assert (len({id(z.tau) for z in P.layers})
                == len({z.tau for z in P.layers}))
    assert zero >= 450


def test_finders_are_the_sub_arrangement_coatoms(gaussian_arrangement,
                                                 nonprincipal_arrangement):
    # the coatoms FlatLattice.sub_top keeps must be exactly the flats of
    # the sub-arrangement J(L) one codim above L's flat, each once, as
    # conftest's independent level walk names them
    split = 0
    for A in rule_cases(gaussian_arrangement, nonprincipal_arrangement):
        P = ly.layer_poset(A)
        for z in P.layers:
            if P.flat(z).codim == 0:
                continue
            got = sorted((w.index, bits) for w, bits in P.finders(z))
            ref = sorted((w.index, bits)
                         for w, bits in finders_by_sub_arrangement(P, z))
            assert got == ref, (A.columns, z)
            split += z.Jbits != P.flat(z).Jbits
    assert split >= 100


def test_layer_digests_match_recorded_hashes():
    # the exhaustive loop shares FlatLattice, finders and tau with
    # layer_poset; literal hashes of the digests pin the layer order and
    # every (flat, y, J, tau, mu) against a change both would share
    h4 = rootsys.builtin("H4").arrangement
    cases = [
        (rootsys.builtin("H3").arrangement, 63,
         "dda20a24fb181e780d36f01e8cdb6e2b23b4913a672caa25fb50cba20ecb774c"),
        (cq.Arrangement(h4.ring, h4.columns[:24]), 382,
         "f2400e3c31be0dfea21d93af095cb31fda2c2b42b3f9d9a50918df85b3ef7623"),
        # 7 of its 552 flats carry more than the zero layer, so parents
        # of one flat share the level loop's pending bits
        (cq.Arrangement(h4.ring, h4.columns[:30]), 847,
         "c6e3c82c75b0c650e09b437ad3d5f095a98f4993eb2f29855c8a503aeb38f0b1"),
    ]
    for A, count, expected in cases:
        rows = [(i, f, y, tuple(sorted(J)), tau, mu)
                for i, f, y, J, tau, mu in layer_digest(ly.layer_poset(A))]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected


def test_planted_tau_fault_fails_the_layer_digests(monkeypatch):
    # the digests pin tau: an annihilator that is always the period must
    # fail them
    monkeypatch.setattr(ly.LayerPoset, "tau",
                        lambda self, flat_id, y: self.period)
    with pytest.raises(AssertionError):
        test_layer_digests_match_recorded_hashes()


def test_layer_algebra_matches_elimination(nonprincipal_arrangement):
    # lam, canon and tau are read off a flat's own HNF when its pivots are
    # all 1, and eliminated otherwise; both must give what elimination
    # gives, and the cases reach flats with a pivot above 1: 34 of
    # H4[:30]'s, and the nonprincipal line, which holds nonzero layers
    h4 = rootsys.builtin("H4").arrangement
    rng = random.Random(21)
    got = [check_layer_algebra(ly.layer_poset(A), rng)
           for A in (rootsys.builtin("H3").arrangement,
                     cq.Arrangement(h4.ring, h4.columns[:30]),
                     nonprincipal_arrangement)]
    assert got == [(48, 1, 15, 0), (552, 34, 295, 0), (2, 1, 3, 3)]


def test_lam_matches_the_full_stack(gaussian_arrangement,
                                    nonprincipal_arrangement):
    # lam leaves out m*e_p at the flat's unit pivots; the HNF must be the
    # one of the flat's rows with every m*e_r
    for A in rule_cases(gaussian_arrangement, nonprincipal_arrangement):
        P = ly.layer_poset(A)
        for flat in P.lattice.flats:
            assert P.lam(flat.id) == lam_by_hnf(P, flat.id)


def test_refinements_built_only_where_needed(gaussian_arrangement,
                                             nonprincipal_arrangement,
                                             monkeypatch):
    # the zero parent of a single-coset cut is the child's zero layer, so
    # a refinement is built only for a multi-coset cut or a nonzero parent,
    # and every one built is solved
    built = []

    class Recorded(ly._Refinement):
        __slots__ = ("cosets", "solved")

        def __init__(self, *args):
            super().__init__(*args)
            self.cosets = args[-1]
            self.solved = []
            built.append(self)

        def solve(self, y):
            self.solved.append(tuple(y))
            return super().solve(y)

    monkeypatch.setattr(ly, "_Refinement", Recorded)
    for A in rule_cases(gaussian_arrangement, nonprincipal_arrangement):
        built.clear()
        ly.layer_poset(A)
        for r in built:
            assert r.solved, A.columns
            assert r.cosets > 1 or any(any(y) for y in r.solved), A.columns
    # H3 has 52 cuts with a parent left to solve; 47 are single-coset
    # cuts whose only such parents are zero layers
    built.clear()
    ly.layer_poset(rootsys.builtin("H3").arrangement)
    assert len(built) == 5
    # a parent whose components for j are all recorded is not solved:
    # H4[:30] solves 157 parents, 538 if every parent of a cut were
    built.clear()
    h4 = rootsys.builtin("H4").arrangement
    ly.layer_poset(cq.Arrangement(h4.ring, h4.columns[:30]))
    assert sum(len(r.solved) for r in built) == 157


def test_constituents_from_the_table_match_layer_sums(
        gaussian_arrangement, nonprincipal_arrangement):
    # the (dim, tau) table against the sum over the kappa-subposet itself
    for A in rule_cases(gaussian_arrangement, nonprincipal_arrangement):
        P = ly.layer_poset(A)
        assert sum(P.mobius_sums.values()) == sum(z.mu for z in P.layers)
        for kappa in P.period.divisors():
            coeffs = [0] * (A.ell + 1)
            for i in P.kappa_subposet(kappa):
                coeffs[P.layers[i].dim] += P.layers[i].mu
            assert P.kappa_characteristic_polynomial(kappa) == tuple(coeffs)


def check_coset_counts(A, kappa, lattice):
    # one coset_counts call per level, as layer_poset makes them
    P = ly.LayerPoset(A, kappa, lattice)
    for codim in range(A.ell):
        level = [f.id for f in lattice.flats if f.codim == codim]
        if not level:
            continue
        got = P.coset_counts(level)
        assert len(got) == len(level)
        for fid, counts in zip(level, got):
            for j in range(A.n):
                if not lattice.flats[fid].Jbits >> j & 1:
                    assert counts[j] == determinant_coset_count(P, fid, j), \
                        (A.columns, kappa, fid, j)
    return P


def test_coset_counts_match_determinants():
    # the count of every (flat, j), read off one stack of images per
    # level, against the determinant formula, at every divisor of the
    # period
    h4 = rootsys.builtin("H4").arrangement
    cases = [rootsys.builtin("H3").arrangement,
             cq.Arrangement(h4.ring, h4.columns[:24])]
    cases += small_period_arrangements(random.Random(71), 6)
    for A in cases:
        lattice = ly.FlatLattice(A)
        for kappa in cq.lcm_period(A).divisors():
            check_coset_counts(A, kappa, lattice)


def test_layer_path_past_the_int64_image_bound():
    # Gaussian primes of norms 73, 89, 97, 101 and 109: m = 6,937,970,881
    # and D*m^2 >= 2^63, so the image is formed with Python ints
    A = cq.Arrangement(ZI, [[(3, 8)], [(5, 8)], [(4, 9)], [(1, 10)],
                            [(3, 10)]])
    rho = cq.lcm_period(A)
    assert rho.least_integer() == 73 * 89 * 97 * 101 * 109
    P = check_coset_counts(A, rho, ly.FlatLattice(A))
    assert P.lattice.D * P.m ** 2 >= 2 ** 63 and P._C.dtype == object
    assert (cq.constituents(A, path="layers")
            == cq.constituents(A, path="subset"))


def test_flat_images_at_the_int64_boundary():
    # a flat's image is int64 while D*max|B|*max|C| < 2^63 and Python ints
    # past it; the flats, their J and every coset count must match the
    # pure-Python products, with m on both sides of 2^63
    M = 2 ** 62 + 1
    cases = [cq.Arrangement(Z, [[(M,), (M + 1,)], [(M + 1,), (M + 2,)],
                                [(1,), (1,)], [(3,), (3,)]]),
             cq.Arrangement(Z, [[(M,)], [(3,)]]),
             # the line x1 = x2 has basis (1, 1), whose image 2M needs the
             # factor D in the bound
             cq.Arrangement(Z, [[(1,), (-1,)], [(M,), (M,)]]),
             cq.Arrangement(ZI, [[(10 ** 2200, 0)]])]
    dtypes = set()
    for A in cases:
        lattice = check_children(A)
        for flat in lattice.flats:
            assert flat.image.tolist() == ly.zl.mat_mul(
                [list(r) for r in flat.lat], lattice.C)
            dtypes.add(flat.image.dtype)
        for m in (6, 2 ** 64 + 13):
            kappa = rg.Ideal.principal(A.ring, A.ring.from_int(m))
            check_coset_counts(A, kappa, lattice)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_flat_lattice_budget(monkeypatch, capsys):
    # every flat carries a zero layer, so the flat count is held to the
    # layer budget; H3 has 48 flats, the last of them the origin
    from dedarr.errors import BudgetExceeded
    h3 = rootsys.builtin("H3").arrangement
    monkeypatch.setattr(ly, "LAYER_BUDGET", 48)
    assert len(ly.FlatLattice(h3).flats) == 48
    monkeypatch.setattr(ly, "LAYER_BUDGET", 47)
    with pytest.raises(BudgetExceeded, match="reached 48 flats at codim 3"):
        ly.FlatLattice(h3)
    monkeypatch.setattr(ly, "LAYER_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="reached 11 flats at codim 1"):
        ly.FlatLattice(h3)
    capsys.readouterr()
    out = io.StringIO()
    assert cli.main(["rootsystem", "H3", "--constituents"], out=out) == 3
    assert out.getvalue() == ""
    assert "reached 11 flats at codim 1" in capsys.readouterr().err


def test_flat_budget(monkeypatch, capsys):
    # the flat budget bounds the lattice's memory whatever the layer
    # budget; it trips at the first flat past it, and the layer path then
    # exits 3 before any layer
    from dedarr.errors import BudgetExceeded
    h3 = rootsys.builtin("H3").arrangement
    monkeypatch.setattr(ly, "FLAT_BUDGET", 48)
    assert len(ly.FlatLattice(h3).flats) == 48
    monkeypatch.setattr(ly, "FLAT_BUDGET", 20)
    with pytest.raises(BudgetExceeded, match="reached 21 flats at codim 2, "
                       "over the flat budget of 20"):
        ly.FlatLattice(h3)
    capsys.readouterr()
    out = io.StringIO()
    assert cli.main(["rootsystem", "H3", "--constituents"], out=out) == 3
    assert out.getvalue() == ""
    assert "over the flat budget of 20" in capsys.readouterr().err


def test_wrong_layer_registration_is_caught(monkeypatch):
    # recording a layer under the flat's J instead of its own claims that
    # pairs find it which do not; a solved parent must refuse the claim
    from dedarr.errors import CertificateFailure
    right = ly.LayerPoset.finders

    def wrong(self, z):
        for w, _ in right(self, z):
            yield w, self.flat(z).Jbits & ~self.flat(w).Jbits

    A = cq.Arrangement(Z, [[(1,), (0,)], [(0,), (3,)], [(1,), (1,)],
                           [(2,), (-1,)]])
    assert len(ly.layer_poset(A).layers) == 15
    monkeypatch.setattr(ly.LayerPoset, "finders", wrong)
    with pytest.raises(CertificateFailure):
        ly.layer_poset(A)


def test_overcounted_registration_is_caught(monkeypatch):
    # recording every layer also at the zero layer of each flat it covers
    # raises that parent's count past its component count; the skip must
    # not fire on it unchecked
    from dedarr.errors import CertificateFailure
    right = ly.LayerPoset.finders

    def extra(self, z):
        yield from right(self, z)
        zero = (0,) * self.lattice.D
        for xid in self.lattice.covers[z.flat_id]:
            x_bits = self.lattice.flats[xid].Jbits
            yield self.layers[self.index[(xid, zero)]], z.Jbits & ~x_bits

    A = cq.Arrangement(Z, [[(1,), (0,)], [(0,), (3,)], [(1,), (1,)],
                           [(2,), (-1,)]])
    monkeypatch.setattr(ly.LayerPoset, "finders", extra)
    for B in (A, rootsys.builtin("H3").arrangement):
        with pytest.raises(CertificateFailure):
            ly.layer_poset(B)


def test_unregistered_known_flat_is_caught(monkeypatch):
    # without the J-bit registration, a second cut reaching a known flat
    # would be computed; the lattice must refuse it, not merge it
    from dedarr.errors import CertificateFailure
    monkeypatch.setattr(ly.FlatLattice, "_register",
                        lambda self, level, flat: None)
    with pytest.raises(CertificateFailure):
        ly.FlatLattice(rootsys.builtin("H3").arrangement)


@pytest.mark.parametrize("name, flats, exponents", [
    ("F4", 268, (1, 5, 7, 11)), ("E6", 4598, (1, 4, 5, 7, 8, 11))])
def test_weyl_lattices_from_cartan_matrices(name, flats, exponents):
    # the Whitney polynomial of a Weyl arrangement is prod (t - e) over
    # its exponents (Orlik-Solomon); E6's 36 columns, 4,598 flats and the
    # Weisner sums at each flat run here, E7's in CI
    lat = ly.FlatLattice(cartan_arrangement(name))
    assert len(lat.flats) == flats
    assert lat.characteristic_polynomial() == exponent_polynomial(exponents)


def test_whitney_polynomial_matches_first_constituent():
    rng = random.Random(61)
    checked = 0
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(15):
            A = rand_small_arrangement(rng, ring, ell_max=3, n_max=4)
            q = cq.constituents(A, path="subset")
            whitney = ly.whitney_characteristic_polynomial(A)
            assert q.constituents[rg.Ideal.unit(ring)] == whitney, A.columns
            checked += 1
    assert checked >= 50


def test_layer_poset_nonprincipal(nonprincipal_arrangement):
    P = ly.layer_poset(nonprincipal_arrangement)
    assert P.m == 6
    assert len(P.layers) == 5
    line_layers = [z for z in P.layers if z.dim == 1]
    assert len(line_layers) == 4
    taus = sorted(z.tau.norm for z in line_layers)
    assert taus == [1, 2, 3, 3]
    assert all(z.mu == -1 for z in line_layers)
    top = [z for z in P.layers if z.dim == 2][0]
    assert top.mu == 1 and top.tau.is_unit_ideal()


def test_layer_poset_gaussian(gaussian_arrangement):
    P = ly.layer_poset(gaussian_arrangement)
    dims = {}
    for z in P.layers:
        dims[z.dim] = dims.get(z.dim, 0) + 1
    assert dims == {2: 1, 1: 4, 0: 6}
    # the identity point lies on all four subgroups and has mu = 3
    zero_layers = [z for z in P.layers if z.dim == 0 and not any(z.y)]
    assert len(zero_layers) == 1 and zero_layers[0].mu == 3
    assert bit_set(zero_layers[0].Jbits) == frozenset({0, 1, 2, 3})
    mus = sorted(z.mu for z in P.layers if z.dim == 0)
    assert mus == [1, 1, 1, 1, 3, 3]


def test_layer_poset_empty():
    A = cq.Arrangement.empty(Z5, 2)
    P = ly.layer_poset(A)
    assert len(P.layers) == 1
    assert P.layers[0].mu == 1 and P.layers[0].dim == 2


def test_layer_counts_match_torsion_sizes(gaussian_arrangement,
                                          nonprincipal_arrangement):
    # per flat, layers lying inside every subgroup of the flat's full
    # index set form the torsion group of that subset's cokernel
    for A in (gaussian_arrangement, nonprincipal_arrangement):
        P = ly.layer_poset(A)
        rho = P.period
        for flat in P.lattice.flats:
            if flat.codim == 0:
                continue
            inv = invariant_factors(A.coeff_matrix(sorted(bit_set(
                flat.Jbits))))
            at_flat = [z for z in P.layers
                       if z.flat_id == flat.id and z.Jbits == flat.Jbits]
            for kappa in rho.divisors():
                expected = m_value(inv, kappa)
                got = sum(1 for z in at_flat
                          if z.tau.contains_ideal(kappa + rho))
                assert got == expected, (flat, kappa)


def test_layer_counts_random():
    rng = random.Random(62)
    for ring in (ZI, Z5, ZT):
        for _ in range(6):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            rho = cq.lcm_period(A)
            if rho.norm > 200:
                continue
            P = ly.layer_poset(A)
            for size in range(1, A.n + 1):
                for J in combinations(range(A.n), size):
                    inv = invariant_factors(A.coeff_matrix(J))
                    members = [z for z in P.layers
                               if set(J) <= bit_set(z.Jbits)
                               and P.lattice.flats[z.flat_id].codim
                               == inv.rank]
                    for kappa in rho.divisors():
                        expected = m_value(inv, kappa)
                        got = sum(1 for z in members
                                  if z.tau.contains_ideal(kappa + rho))
                        assert got == expected, (A.columns, J, kappa)


def test_mobius_methods_agree(gaussian_arrangement,
                              nonprincipal_arrangement):
    # the localized values against the recursion over the poset itself,
    # also on random arrangements with layers where J(L) != J(flat)
    def split_layers(A):
        P = ly.layer_poset(A)
        assert {z.index: z.mu for z in P.layers} == mobius_by_recursion(P)
        return sum(1 for z in P.layers if z.Jbits != P.flat(z).Jbits)

    h4 = rootsys.builtin("H4").arrangement
    split = sum(split_layers(A) for A in (
        gaussian_arrangement, nonprincipal_arrangement,
        rootsys.builtin("H3").arrangement,
        cq.Arrangement(h4.ring, h4.columns[:24])))
    rng = random.Random(67)
    for ring in (Z, ZI, Z5, ZT):
        found = 0
        while found < 10:
            A = rand_small_arrangement(rng, ring, ell_max=3, n_max=4)
            if cq.lcm_period(A).norm <= 2000:
                got = split_layers(A)
                split += got
                found += got > 0
    assert split >= 100


def test_sub_top_mobius_of_all_columns_is_bottom_flat():
    h4 = rootsys.builtin("H4").arrangement
    rng = random.Random(68)
    cases = [rootsys.builtin("H3").arrangement,
             cq.Arrangement(h4.ring, h4.columns[:24])]
    cases += [rand_small_arrangement(rng, ring, ell_max=4, n_max=6)
              for ring in (Z, ZI, Z5, ZT) for _ in range(5)]
    for A in cases:
        lat = ly.FlatLattice(A)
        bottom = lat.flats[-1]
        assert bottom.codim == max(f.codim for f in lat.flats)
        mu, coatoms = lat.sub_top((1 << A.n) - 1)
        # the bottom flat covers every flat one codim above it
        assert sorted(coatoms) == [f.id for f in lat.flats
                                   if f.codim == bottom.codim - 1]
        # mu(Y) = -sum of mu over the flats above Y, by the definition
        mob = {}
        for flat in lat.flats:
            mob[flat.id] = -sum(mob[g.id] for g in flats_above(lat, flat)) \
                if flat.id else 1
        assert mu == mob[bottom.id]
        # each flat's own columns are answered from the main walk and its
        # covers; conftest's reference walk of those columns must agree
        for flat in lat.flats:
            walked, top_coatoms = mobius_on(lat, flat.Jbits)
            assert max(walked) == flat.id
            mu, coatoms = lat.sub_top(flat.Jbits)
            assert mu == walked[flat.id] == mob[flat.id]
            assert sorted(coatoms) == sorted(top_coatoms)
        # any other set of columns recurses on Weisner's rule; the walk
        # must agree on random subsets of each flat's J too
        for flat in lat.flats:
            cols = flat.Jbits & rng.getrandbits(A.n)
            walked, top_coatoms = mobius_on(lat, cols)
            mu, coatoms = lat.sub_top(cols)
            assert mu == walked[max(walked)], (A.columns, cols)
            assert sorted(coatoms) == sorted(top_coatoms), (A.columns, cols)


def test_mobius_sign_alternation():
    rng = random.Random(63)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(8):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            if cq.lcm_period(A).norm > 200:
                continue
            P = ly.layer_poset(A)
            for z in P.layers:
                codim = A.ell - z.dim
                assert (-1) ** codim * z.mu > 0


def test_kappa_subposet_examples(nonprincipal_arrangement):
    P = ly.layer_poset(nonprincipal_arrangement)
    sub = P.kappa_subposet(P5)
    assert len(sub) == 3
    taus = sorted(P.layers[i].tau.norm for i in sub)
    assert taus == [1, 1, 2]

    unit_sub = P.kappa_subposet(rg.Ideal.unit(Z5))
    assert len(unit_sub) == len(P.lattice.flats)

    assert len(P.kappa_subposet(PQ)) == len(P.layers)
    # reduction modulo the period: any ideal with the same gcd works
    seven = rg.Ideal.principal(Z5, (7, 0))
    assert P.kappa_subposet(P5 * seven) == P.kappa_subposet(P5)


def test_kappa_subposet_is_order_ideal():
    rng = random.Random(64)
    for ring in (ZI, Z5):
        for _ in range(6):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            rho = cq.lcm_period(A)
            if rho.norm > 200:
                continue
            P = ly.layer_poset(A)
            for kappa in rho.divisors():
                chosen = set(P.kappa_subposet(kappa))
                for i in chosen:
                    z = P.layers[i]
                    for g in flats_above(P.lattice, P.flat(z)):
                        w = P.project(z, g.id)
                        if w is not None:
                            assert w.index in chosen


def test_kappa_characteristic_polynomials(gaussian_arrangement,
                                          nonprincipal_arrangement):
    P = ly.layer_poset(gaussian_arrangement)
    p = rg.Ideal.from_generators(ZI, [(1, 1)])
    assert P.kappa_characteristic_polynomial(p) == (6, -4, 1)

    P2 = ly.layer_poset(nonprincipal_arrangement)
    assert P2.kappa_characteristic_polynomial(Q5) == (0, -3, 1)
    unit = rg.Ideal.unit(Z5)
    assert P2.kappa_characteristic_polynomial(unit) == \
        P2.lattice.characteristic_polynomial()


def test_localization_recursion_consistency():
    # recursion-free check of the Moebius values: mu equals the signed
    # count of spanning subsets of the layer's own index set
    rng = random.Random(65)
    for ring in (ZI, Z5):
        for _ in range(4):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            if cq.lcm_period(A).norm > 100:
                continue
            P = ly.layer_poset(A)
            for z in P.layers:
                flat = P.lattice.flats[z.flat_id]
                if flat.codim == 0:
                    continue
                total = 0
                Jz = sorted(bit_set(z.Jbits))
                for size in range(0, len(Jz) + 1):
                    for J in combinations(Jz, size):
                        if not J:
                            continue
                        C = A.coeff_matrix(J)
                        if rank_over_K(C) == flat.codim:
                            total += (-1) ** len(J)
                assert z.mu == total, (A.columns, z)


def test_hasse_dot(gaussian_arrangement, nonprincipal_arrangement):
    P = ly.layer_poset(nonprincipal_arrangement)
    dot = P.hasse_dot()
    nodes = [ln for ln in dot.splitlines() if "label=" in ln]
    edges = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(nodes) == 5 and len(edges) == 4

    P2 = ly.layer_poset(gaussian_arrangement)
    dot2 = P2.hasse_dot()
    nodes2 = [ln for ln in dot2.splitlines() if "label=" in ln]
    edges2 = [ln for ln in dot2.splitlines() if "->" in ln]
    assert len(nodes2) == 11 and len(edges2) == 20

    A = cq.Arrangement.empty(Z5, 2)
    dot3 = ly.layer_poset(A).hasse_dot()
    nodes3 = [ln for ln in dot3.splitlines() if "label=" in ln]
    edges3 = [ln for ln in dot3.splitlines() if "->" in ln]
    assert len(nodes3) == 1 and not edges3

    assert dot == P.hasse_dot()  # deterministic


def test_hasse_dot_matches_recorded_hashes(gaussian_arrangement,
                                           nonprincipal_arrangement):
    # literal hashes of the DOT text, whole poset first and then each
    # divisor's torsion subposet in divisor order, pin the node order,
    # the labels and the edge order
    cases = [
        (gaussian_arrangement, [
            "2d09ebf08462de3d047c92a5074296053b1b2d6fd4db0c4b1c634526a8653964",
            "c82db31a728a6bea1898d2517ceefe105473d2d031654abda6d4007c3c15611f",
            "6b3d61f148026ab46081604ab0b946ee5b5e0e386a8a759183381fc0b7a1a2b7",
            "2d09ebf08462de3d047c92a5074296053b1b2d6fd4db0c4b1c634526a8653964",
        ]),
        (nonprincipal_arrangement, [
            "912371c3938972bbf23afcfd31e8dba3f65168d3ed2d901809226290f99f03c4",
            "57d9e07e6273b62609792c57a945eb92e97f24894c822f35b551f1664bab1ca2",
            "8b54d1cd5e6b2c7a84764ef853b5152763111f4ff184d01af17a5acb515ed44d",
            "0c78bbbd20d3b18d0451e3548277892db777f3e461ee8aecda1565036c513c2a",
            "912371c3938972bbf23afcfd31e8dba3f65168d3ed2d901809226290f99f03c4",
        ]),
        (rootsys.builtin("H3").arrangement, [
            "4cd139a22739c415cd9d20a71100c05115cf92d239ca0bce5faeb2a576bbd8f0",
            "f0483ddb53cace6e3a552278c4a3a8f5c50778411235109934fb374fd51eec0a",
            "4cd139a22739c415cd9d20a71100c05115cf92d239ca0bce5faeb2a576bbd8f0",
        ]),
    ]
    for A, expected in cases:
        P = ly.layer_poset(A)
        got = [hashlib.sha256(P.hasse_dot(kappa).encode()).hexdigest()
               for kappa in [None] + P.period.divisors()]
        assert got == expected, A.columns


def test_hasse_dot_budget(nonprincipal_arrangement, monkeypatch):
    # the cover test is quadratic in the chosen layers: the budget bounds
    # the square before any work, also for a torsion subposet
    from dedarr.errors import BudgetExceeded
    P = ly.layer_poset(nonprincipal_arrangement)
    full = P.hasse_dot()
    monkeypatch.setattr(ly, "HASSE_BUDGET", 5 ** 2)
    assert P.hasse_dot() == full
    monkeypatch.setattr(ly, "HASSE_BUDGET", 5 ** 2 - 1)
    with pytest.raises(BudgetExceeded):
        P.hasse_dot()
    monkeypatch.setattr(ly, "HASSE_BUDGET", 3 ** 2)
    assert "->" in P.hasse_dot(P5)
    monkeypatch.setattr(ly, "HASSE_BUDGET", 3 ** 2 - 1)
    with pytest.raises(BudgetExceeded):
        P.hasse_dot(P5)
    monkeypatch.undo()
    # 1,000 layers fit the budget, one more does not
    edge = ly.layer_poset(cq.Arrangement(Z, [[(999,)]]))
    assert len(edge.layers) == 1000
    assert edge.hasse_dot().count("->") == 999
    big = ly.layer_poset(cq.Arrangement(Z, [[(1001,)]]))
    assert len(big.layers) ** 2 > ly.HASSE_BUDGET
    with pytest.raises(BudgetExceeded):
        big.hasse_dot()


def dot_covers(P, kappa):
    """The chosen layers and the (i, k) layer pairs of the DOT edges."""
    chosen = (range(len(P.layers)) if kappa is None
              else P.kappa_subposet(kappa))
    nodes = sorted(chosen, key=lambda i: (
        -P.layers[i].dim, P.representative_string(P.layers[i])))
    pairs = set()
    for line in P.hasse_dot(kappa).splitlines():
        if "->" in line:
            a, b = line.strip(" ;").split(" -> ")
            pairs.add((nodes[int(a[1:])], nodes[int(b[1:])]))
    return chosen, pairs


def test_hasse_covers_match_triple_loop(gaussian_arrangement,
                                        nonprincipal_arrangement):
    # the pair test on dimensions draws exactly the covers of the
    # definition, for the whole poset and every torsion subposet
    cases = [gaussian_arrangement, nonprincipal_arrangement,
             rootsys.builtin("H2").arrangement,
             rootsys.builtin("H3").arrangement]
    cases += small_period_arrangements(random.Random(72), 3)
    covers = 0
    for A in cases:
        P = ly.layer_poset(A)
        for kappa in [None] + P.period.divisors():
            chosen, pairs = dot_covers(P, kappa)
            assert pairs == hasse_covers_by_triples(P, chosen), A.columns
            covers += len(pairs)
    assert covers >= 500


def test_localized_poset_matches_torsion_subposet():
    h3 = rootsys.builtin("H3").arrangement
    P = ly.layer_poset(h3)
    local = ly.layer_poset(
        h3, period=cq.strip_primes(cq.lcm_period(h3), [(2, 0)])[0])
    # inverting 2 strips the whole period of H3: the poset collapses to
    # the identity layers, i.e. the unit-ideal torsion subposet
    chosen = P.kappa_subposet(rg.Ideal.unit(ZT))
    expect = sorted((P.layers[i].dim, P.layers[i].mu,
                     P.layers[i].tau.hnf) for i in chosen)
    got = sorted((z.dim, z.mu, z.tau.hnf) for z in local.layers)
    assert expect == got
    # covering relations agree with the flat lattice
    pairs_local = set()
    for a in local.layers:
        for b in local.layers:
            if a is not b and local.leq(a, b):
                pairs_local.add((a.flat_id, b.flat_id))
    pairs_flat = set()
    for f in local.lattice.flats:
        for g in local.lattice.flats:
            if f.id != g.id and f.Jbits & g.Jbits == f.Jbits:
                pairs_flat.add((f.id, g.id))
    assert pairs_local == pairs_flat


def test_layer_budget(gaussian_arrangement, monkeypatch):
    # the Gaussian four lines have 6 flats and 11 layers: at 6 the layer
    # count trips the budget, below 6 the flat count does first
    from dedarr.errors import BudgetExceeded, ExponentTooLarge
    monkeypatch.setattr(ly, "LAYER_BUDGET", 6)
    with pytest.raises(ExponentTooLarge, match="layer count exceeded"):
        ly.layer_poset(gaussian_arrangement)
    monkeypatch.setattr(ly, "LAYER_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="reached 4 flats"):
        ly.layer_poset(gaussian_arrangement)


def test_refinement_coset_budget(monkeypatch):
    # the Z line with the column (5): the ambient flat and H_0 cut 5 layers,
    # one per point x with 5x in Z, and the poset has 6 layers
    from dedarr.errors import ExponentTooLarge
    A = cq.Arrangement(Z, [[(5,)]])
    built = []
    refinement = ly._Refinement

    def recorded(*args):
        built.append(args[-1])
        return refinement(*args)

    monkeypatch.setattr(ly, "_Refinement", recorded)
    monkeypatch.setattr(ly, "LAYER_BUDGET", 6)
    assert len(ly.layer_poset(A).layers) == 6
    assert built == [5]
    # at 5 the refinement is built and the sixth layer trips the budget
    monkeypatch.setattr(ly, "LAYER_BUDGET", 5)
    with pytest.raises(ExponentTooLarge, match="layer count exceeded"):
        ly.layer_poset(A)
    # below 5 the coset count trips it before the refinement is built
    built.clear()
    monkeypatch.setattr(ly, "LAYER_BUDGET", 4)
    with pytest.raises(ExponentTooLarge, match="cut 5 layers"):
        ly.layer_poset(A)
    assert built == []


def test_layer_budget_messages_say_how_far_the_run_got(gaussian_arrangement,
                                                       monkeypatch):
    # the Gaussian four lines list 1 layer at codim 0, 4 at codim 1 and 6
    # at codim 2, over 6 flats; the Z line (5) has 2 flats, and its ambient
    # flat and H_0 cut 5 layers at codim 1
    from dedarr.errors import ExponentTooLarge
    A = cq.Arrangement(Z, [[(5,)]])
    for arrangement, budget, codim, layers, flats in [
            (gaussian_arrangement, 6, 2, 7, 6),
            (gaussian_arrangement, 10, 2, 11, 6),
            (A, 5, 1, 6, 2)]:
        monkeypatch.setattr(ly, "LAYER_BUDGET", budget)
        with pytest.raises(ExponentTooLarge) as err:
            ly.layer_poset(arrangement)
        assert str(err.value) == (
            f"layer count exceeded the budget of {budget} (reached codim "
            f"{codim}; layers so far: {layers}; flats: {flats})")
    monkeypatch.setattr(ly, "LAYER_BUDGET", 4)
    with pytest.raises(ExponentTooLarge) as err:
        ly.layer_poset(A)
    assert str(err.value) == (
        "flat 0 and hyperplane 0 cut 5 layers, over the budget of 4 "
        "(reached codim 1; layers so far: 1; flats: 2)")


def test_localized_poset_partial_strip(nonprincipal_arrangement):
    A = nonprincipal_arrangement
    P = ly.layer_poset(A)
    local = ly.layer_poset(
        A, period=cq.strip_primes(cq.lcm_period(A), [(2, 0)])[0])
    chosen = P.kappa_subposet(Q5)
    expect = sorted((P.layers[i].dim, P.layers[i].mu,
                     P.layers[i].tau.hnf) for i in chosen)
    got = sorted((z.dim, z.mu, z.tau.hnf) for z in local.layers)
    assert expect == got
    assert len(local.layers) == 4  # ambient, identity, two norm-3 layers


def test_refinement_checks_gcd_diagonal(gaussian_arrangement, monkeypatch):
    # the Smith form each refinement takes must confirm the invariant
    # factors read off gcds; a planted wrong one is caught
    from dedarr.errors import CertificateFailure
    right = ly.zl.small_snf_diagonal

    def wrong(rows):
        diag = right(rows)
        return diag[:-1] + [7 * diag[-1]]

    monkeypatch.setattr(ly.zl, "small_snf_diagonal", wrong)
    with pytest.raises(CertificateFailure):
        ly.layer_poset(gaussian_arrangement)
