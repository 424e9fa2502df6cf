import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

from dedarr import charquasi as cq
from dedarr import oracle
from dedarr import ring as rg
from dedarr import rootsys
from dedarr import zlinalg as zl
from dedarr.errors import (
    BudgetExceeded,
    InvalidArrangement,
    PathInfeasible,
    ZeroInMultiplicativeSet,
)

from conftest import (SubsetInvariants, _minor_table, arrangement_to_json,
                      full_range_lcm, invariant_factors, m_value,
                      rand_small_arrangement, rand_table_arrangement,
                      rank_over_K, subset_data)

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)

P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])
PQ = rg.Ideal.principal(Z5, (1, 1))


def test_arrangement_validation():
    with pytest.raises(InvalidArrangement):
        cq.Arrangement(Z5, [[(0, 0), (0, 0)]])
    with pytest.raises(InvalidArrangement):
        cq.Arrangement(Z, [[(1,)], [(1,), (2,)]])
    # duplicates and proportional columns are allowed
    A = cq.Arrangement(Z, [[(1,), (2,)], [(1,), (2,)], [(2,), (4,)]])
    assert A.n == 3


def test_subset_data_nonprincipal(nonprincipal_arrangement):
    data = subset_data(nonprincipal_arrangement)
    assert data[frozenset({0})].factors == (P5,)
    assert data[frozenset({1})].factors == (Q5,)
    both = data[frozenset({0, 1})]
    assert both.rank == 1 and both.factors[0].is_unit_ideal()


def test_subset_data_single_unimodular():
    A = cq.Arrangement(Z, [[(1,), (3,)]])
    data = subset_data(A)
    assert data[frozenset({0})].factors[0].is_unit_ideal()


def test_subset_data_gaussian(gaussian_arrangement):
    data = subset_data(gaussian_arrangement)
    p = rg.Ideal.from_generators(ZI, [(1, 1)])
    two = rg.Ideal.principal(ZI, (2, 0))
    pair_lasts = sorted(
        data[frozenset(J)].factors[-1].norm
        for J in combinations(range(4), 2))
    assert pair_lasts == [2, 2, 2, 2, 4, 4]
    lasts = {data[frozenset(J)].factors[-1]
             for J in combinations(range(4), 2)}
    assert lasts == {p, two}


def test_lcm_period_examples(gaussian_arrangement, nonprincipal_arrangement):
    assert cq.lcm_period(gaussian_arrangement) == \
        rg.Ideal.principal(ZI, (2, 0))
    assert cq.lcm_period(nonprincipal_arrangement) == PQ
    h2 = rootsys.builtin("H2").arrangement
    assert cq.lcm_period(h2).is_unit_ideal()
    h3 = rootsys.builtin("H3").arrangement
    assert cq.lcm_period(h3) == rg.Ideal.principal(ZT, (2, 0))


def rand_columns(rng, ring, ell, n, bound=3):
    cols = []
    while len(cols) < n:
        col = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(ring.degree))
            for _ in range(ell))
        if any(any(x) for x in col):
            cols.append(col)
    return cols


def big_prime_columns(rng, ring, ell, n, p=300007):
    """Columns e_i or e_i + c*e_j, one column (p, p, 0, ...), and ell
    random row operations x_i += +-x_k: the big-prime presentations of the
    subset-path benchmark."""
    cols = set()
    while len(cols) < n - 1:
        col = [ring.zero] * ell
        i = rng.randrange(ell)
        col[i] = ring.one
        k = rng.choice([x for x in range(ell) if x != i])
        col[k] = rng.choice([ring.one, ring.neg(ring.one), (1, 1)])
        cols.add(tuple(col))
    cols = [list(c) for c in sorted(cols)]
    cols.append([ring.from_int(p if i < 2 else 0) for i in range(ell)])
    for _ in range(ell):
        i, k = rng.sample(range(ell), 2)
        for c in cols:
            c[i] = ring.add(c[i], c[k])
    return [tuple(c) for c in cols]


def test_lcm_period_equals_full_range_lcm(monkeypatch):
    # against the definition: lcm over every J in the size bound
    dtypes = set()
    exact_dtype = zl.exact_dtype

    def recorded(bound):
        dtypes.add(exact_dtype(bound))
        return exact_dtype(bound)

    monkeypatch.setattr(cq.zl, "exact_dtype", recorded)
    rng = random.Random(51)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(15):
            A = rand_small_arrangement(rng, ring, ell_max=3, n_max=4)
            assert cq.lcm_period(A) == full_range_lcm(A), A.columns
        # square bases: ell = n = 4, one basis, and ell = 1, where the
        # bases are the single columns and the coatom is the whole space
        for ell, n in ((4, 4), (4, 4), (1, 1), (1, 3), (1, 5)):
            A = cq.Arrangement(ring, rand_columns(rng, ring, ell, n))
            assert cq.lcm_period(A) == full_range_lcm(A), A.columns
        # ell = 5: the coatoms are lines, at codim 4
        A = cq.Arrangement(ring, rand_columns(rng, ring, 5, 6, bound=2))
        assert cq.lcm_period(A) == full_range_lcm(A), A.columns
    # the basis {1, 2} has the minor 3, which does not divide the lcm
    # <2> of {0, 1}, so the prime 3 must be added
    A = cq.Arrangement(Z, [[(2,), (0,)], [(0,), (1,)], [(3,), (0,)]])
    assert cq.lcm_period(A) == full_range_lcm(A) == \
        rg.Ideal.principal(Z, (6,))
    # the minor 4 of {0, 2} does not divide <2>, yet with E_1 = <2> the
    # last factor is 4/2 = 2, which does: the lcm stays <2>
    A = cq.Arrangement(Z, [[(2,), (0,)], [(0,), (1,)], [(2,), (2,)]])
    assert cq.lcm_period(A) == full_range_lcm(A) == \
        rg.Ideal.principal(Z, (2,))
    # rank below ell: the bases have fewer than ell columns and the
    # coatoms are planes or more; a zero coordinate row, or ell = 3 with
    # every column in the plane x_3 = x_1 + x_2, or proportional columns
    for ring in (Z, ZI, Z5, ZT):
        for ell, n in ((2, 3), (3, 4), (3, 5), (4, 4), (5, 6)):
            for _ in range(3):
                cols = rand_columns(rng, ring, ell, n)
                cols = [(ring.zero,) + col[1:] for col in cols]
                if all(any(any(x) for x in col) for col in cols):
                    A = cq.Arrangement(ring, cols)
                    assert cq.lcm_period(A) == full_range_lcm(A), cols
        for n in (3, 4, 5):
            for _ in range(3):
                cols = [(a, b, ring.add(a, b))
                        for a, b in rand_columns(rng, ring, 2, n)]
                A = cq.Arrangement(ring, cols)
                assert cq.lcm_period(A) == full_range_lcm(A), cols
        base = rand_columns(rng, ring, 3, 1)[0]
        scales = [rand_columns(rng, ring, 1, 1)[0][0] for _ in range(4)]
        cols = [tuple(ring.mul(s, x) for x in base) for s in scales]
        A = cq.Arrangement(ring, cols)
        assert cq.lcm_period(A) == full_range_lcm(A), cols
    # rank 1 in ell = 3: the bases {0} and {1} give <2> and <6>, and the
    # one coatom is the whole space
    A = cq.Arrangement(Z, [[(0,), (2,), (0,)], [(0,), (6,), (0,)]])
    assert cq.lcm_period(A) == full_range_lcm(A) == \
        rg.Ideal.principal(Z, (6,))
    # past the int64 bound the flat images and the quadratic screen run on
    # Python ints: the benchmark's big-prime presentations and large
    # random entries; over a quadratic order the screen passes it already
    # on some small entries above, once the lcm found so far is large
    for ring in (ZI, Z5, ZT):
        A = cq.Arrangement(ring, big_prime_columns(rng, ring, 3, 8))
        assert cq.lcm_period(A) == full_range_lcm(A), A.columns
        for ell, n in ((1, 3), (2, 4), (3, 4)):
            A = cq.Arrangement(ring, rand_columns(rng, ring, ell, n, 10 ** 6))
            assert cq.lcm_period(A) == full_range_lcm(A), A.columns
    assert dtypes == {np.int64, object}
    # the edges of the bounds.  A flat's image B*C stays below
    # D*max|B|*max|C|: over Z with ell = 1 the images are the columns,
    # int64 up to 2^63 - 1
    for B, dtype in ((2 ** 63 - 1, np.int64), (2 ** 63, object)):
        dtypes.clear()
        A = cq.Arrangement(Z, [[(B,)], [(6,)], [(-B,)]])
        assert cq.lcm_period(A) == full_range_lcm(A), B
        assert dtypes == {dtype}
    # the line of the column (B, 3) has the basis (3, -B), so its image
    # takes Python ints from 2*B^2 = 2^63 on; the whole plane stays int64
    for B, past in ((2 ** 31 - 1, False), (2 ** 31, True)):
        dtypes.clear()
        A = cq.Arrangement(Z, [[(B,), (B,)], [(-B,), (B,)], [(B,), (3,)]])
        assert cq.lcm_period(A) == full_range_lcm(A), B
        assert dtypes == ({np.int64, object} if past else {np.int64})
    # over Z[i] the screen's 2 x 2 minors of an image with entries B stay
    # below 2*B^2: the column B at ell = 1
    for B, past in ((2 ** 31 - 1, False), (2 ** 31, True)):
        dtypes.clear()
        A = cq.Arrangement(ZI, [[(B, 0)], [(1, 0)]])
        assert cq.lcm_period(A) == full_range_lcm(A), B
        assert dtypes == ({np.int64, object} if past else {np.int64})


def test_kernel_bound():
    # the dtype switches at 2^63, and the bound on the minors (and norms)
    # of the lcm kernel holds with equality on Z at the 2x2 edge
    assert zl.exact_dtype(2 ** 63 - 1) is np.int64
    assert zl.exact_dtype(2 ** 63) is object
    assert cq._kernel_bound(Z, 2 ** 31 - 1, 2) < 2 ** 63
    assert cq._kernel_bound(Z, 2 ** 31, 2) == 2 ** 63
    rng = random.Random(52)
    for ring in (Z, ZI, Z5, ZT):
        for size in (1, 2, 3, 4):
            for entry in (1, 2, 7):
                C = cq.CoeffMatrix(ring, [
                    [tuple(rng.choice((-entry, entry, rng.randint(
                        -entry, entry))) for _ in range(ring.degree))
                     for _ in range(size)] for _ in range(size)])
                bound = cq._kernel_bound(ring, entry, size)
                for v in _minor_table(C, size).values():
                    assert all(abs(c) <= bound for c in v)
                det = _minor_table(C, size)[
                    (tuple(range(size)), tuple(range(size)))]
                assert abs(ring.norm(det)) <= bound
    C = [[(5,), (5,)], [(-5,), (5,)]]
    det = _minor_table(cq.CoeffMatrix(Z, C), 2)[((0, 1), (0, 1))]
    assert det == (cq._kernel_bound(Z, 5, 2),)


def test_minor_table_budget(monkeypatch):
    # H3: 15 columns of rank 3, so the subset walk reads the 1-, 2- and
    # 3-minors, 15*3 + 105*3 + 455 = 815 entries
    A = rootsys.builtin("H3").arrangement
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 815)
    q = cq.constituents(A, path="subset")
    assert q.constituents[rg.Ideal.unit(ZT)] == (-45, 59, -15, 1)
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 814)
    with pytest.raises(BudgetExceeded, match="needs 815 minors"):
        cq.constituents(A, path="subset")
    # six Z columns of rank 2 in ell = 4: the walk reads minors up to size
    # 2 only, 6*4 + 15*6 = 114 entries, and no 3- or 4-minors (95 more)
    rng = random.Random(7)
    cols = []
    while len(cols) < 6:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if (x, y) != (0, 0) and all(x * c[1][0] != y * c[0][0] for c in cols):
            cols.append(((x,), (y,), (x + y,), (2 * x - y,)))
    A = cq.Arrangement(Z, cols)
    assert rank_over_K(A.coeff_matrix(range(6))) == 2
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 114)
    assert cq.constituents(A, path="subset").constituents == \
        constituents_by_definition(A)
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 113)
    with pytest.raises(BudgetExceeded, match="needs 114 minors"):
        cq.constituents(A, path="subset")


def test_rank_matches_reference():
    # the rank the subset walk reads off the restriction of scalars,
    # against rank_over_K and the largest size of a nonzero minor
    rng = random.Random(55)
    kinds = {"random": 0, "deficient": 0, "dependent": 0, "zero row": 0}
    short = 0
    for ring in (Z, ZI, Z5, ZT):
        for kind in kinds:
            for _ in range(6):
                ell, n = rng.randint(2, 4), rng.randint(1, 6)
                if kind == "deficient":
                    # every column a combination of k < ell columns
                    k = rng.randint(1, ell - 1)
                    base = rand_columns(rng, ring, ell, k, bound=2)
                    cols = []
                    while len(cols) < n:
                        col = [ring.zero] * ell
                        for b in base:
                            c = tuple(rng.randint(-2, 2)
                                      for _ in range(ring.degree))
                            col = [ring.add(x, ring.mul(c, y))
                                   for x, y in zip(col, b)]
                        if any(any(x) for x in col):
                            cols.append(tuple(col))
                else:
                    cols = rand_columns(rng, ring, ell, n, bound=2)
                if kind == "dependent":
                    # a multiple of one column and the sum of two
                    f = tuple(rng.randint(1, 3) for _ in range(ring.degree))
                    cols.append(tuple(ring.mul(f, x) for x in cols[0]))
                    cols.append(tuple(ring.add(x, y)
                                      for x, y in zip(cols[0], cols[-1])))
                if kind == "zero row":
                    cols = [(ring.zero,) + c[1:] for c in cols]
                    cols = [c for c in cols if any(any(x) for x in c)]
                    if not cols:
                        continue
                A = cq.Arrangement(ring, cols)
                top = min(A.ell, A.n)
                tables = cq._minor_tables(A, top)[0]
                largest = max(s for s in range(top + 1)
                              if (tables[s] != 0).any())
                r = cq._rank(A)
                assert r == rank_over_K(A.coeff_matrix(range(A.n))), cols
                assert r == largest, cols
                kinds[kind] += 1
                short += r < top
    assert min(kinds.values()) >= 20 and short >= 30, (kinds, short)


def test_table_index_reaches_every_subset():
    # the row of P + (j,) in tables[s] is offsets[s][row of P] + j: every
    # s-subset, reached from the empty set through offsets, sits at a row
    # holding its minors
    rng = random.Random(59)
    checked = deficient = 0
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(12):
            A = rand_table_arrangement(rng, ring)
            top = min(A.ell, A.n)
            tables, parents, lasts, offsets = cq._minor_tables(A, top)
            ref = _minor_table(A.coeff_matrix(range(A.n)), top)
            row = {(): 0}
            for s in range(1, top + 1):
                for S in combinations(range(A.n), s):
                    p = row[S[:-1]]
                    i = int(offsets[s][p]) + S[-1]
                    assert parents[s][i] == p and lasts[s][i] == S[-1]
                    minors = [tuple(v) for v in tables[s][i].tolist()]
                    assert minors == [
                        ref[(R, S)] for R in combinations(range(A.ell), s)
                    ], (A.columns, S)
                    row[S] = i
                    checked += 1
                assert len(tables[s]) == comb(A.n, s)
            deficient += cq._rank(A) < top
    assert checked >= 600 and deficient >= 8, (checked, deficient)


def constituents_by_definition(A):
    """sum over all 2^n subsets J of (-1)^|J| m(J, kappa) t^(ell - r(J)),
    at each divisor kappa of the lcm period."""
    terms = [(0, 0, None)]
    for size in range(1, A.n + 1):
        for J in combinations(range(A.n), size):
            inv = invariant_factors(A.coeff_matrix(J))
            terms.append((size, inv.rank, inv))
    out = {}
    for kappa in cq.lcm_period(A).divisors():
        coeffs = [0] * (A.ell + 1)
        for size, rank, inv in terms:
            m = 1 if inv is None else m_value(inv, kappa)
            coeffs[A.ell - rank] += (-1) ** size * m
        out[kappa] = tuple(coeffs)
    return out


def test_subset_walk_matches_definition(monkeypatch):
    # the walk reads its minors off the tables _minor_tables builds, int64
    # under the kernel bound and Python ints past it
    dtypes = set()
    build = cq._minor_tables

    def recorded(A, top):
        out = build(A, top)
        dtypes.add(out[0][0].dtype)
        return out

    monkeypatch.setattr(cq, "_minor_tables", recorded)
    rng = random.Random(53)
    cases = []
    for ring in (Z, ZI, Z5, ZT):
        for ell, n in ((1, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 5)):
            cases.append((ring, rand_columns(rng, ring, ell, n,
                                             bound=3 - ring.degree)))
        if ring.degree == 2:
            cases.append((ring, big_prime_columns(rng, ring, 3, 6)))
        # entries up to 10^6 with the same minors: x_1 += M * x_2
        M = ring.from_int(10 ** 6 // 4)
        for ell, n in ((2, 4), (3, 5), (4, 6)):
            cols = rand_columns(rng, ring, ell, n, bound=1)
            cases.append((ring, [(ring.add(c[0], ring.mul(M, c[1])),) + c[1:]
                                 for c in cols]))
    checked = 0
    for ring, cols in cases:
        A = cq.Arrangement(ring, cols)
        if len(cq.lcm_period(A).divisors()) > 1000:
            continue  # the definition is slow past a thousand constituents
        q = cq.constituents(A, path="subset")
        assert q.constituents == constituents_by_definition(A), cols
        checked += 1
    assert checked == 34
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_constituents_checks_arguments_first(monkeypatch):
    # a bad path or an oversized subset path fails before any work
    def refuse(A):
        raise AssertionError("lcm_period ran before the argument checks")

    monkeypatch.setattr(cq, "lcm_period", refuse)
    A = cq.Arrangement(Z, [[(1,), (k,)] for k in range(1, 25)])
    with pytest.raises(ValueError, match="unknown path"):
        cq.constituents(A, path="bogus")
    with pytest.raises(PathInfeasible):
        cq.constituents(A, path="subset")


def test_constituents_gaussian(gaussian_arrangement):
    q = cq.constituents(gaussian_arrangement, path="subset")
    p = rg.Ideal.from_generators(ZI, [(1, 1)])
    two = rg.Ideal.principal(ZI, (2, 0))
    unit = rg.Ideal.unit(ZI)
    assert q.constituents[unit] == (3, -4, 1)
    assert q.constituents[p] == (6, -4, 1)
    assert q.constituents[two] == (10, -4, 1)


def test_constituents_nonprincipal(nonprincipal_arrangement):
    q = cq.constituents(nonprincipal_arrangement, path="subset")
    assert q.period == PQ
    assert q.constituents[rg.Ideal.unit(Z5)] == (0, -1, 1)
    assert q.constituents[P5] == (0, -2, 1)
    assert q.constituents[Q5] == (0, -3, 1)
    assert q.constituents[PQ] == (0, -4, 1)


def test_constituents_h3_both_paths():
    h3 = rootsys.builtin("H3").arrangement
    q_subset = cq.constituents(h3, path="subset")
    q_layers = cq.constituents(h3, path="layers")
    assert q_subset.period == q_layers.period
    assert q_subset.constituents == q_layers.constituents
    unit = rg.Ideal.unit(ZT)
    two = rg.Ideal.principal(ZT, (2, 0))
    assert q_subset.constituents[unit] == (-45, 59, -15, 1)
    assert q_subset.constituents[two] == (-60, 59, -15, 1)


def test_path_equivalence_random():
    rng = random.Random(52)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(8):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3,
                                       bound=2)
            if cq.lcm_period(A).norm > 400:
                continue
            qs = cq.constituents(A, path="subset")
            ql = cq.constituents(A, path="layers")
            assert qs.period == ql.period and \
                qs.constituents == ql.constituents, A.columns


def test_subset_path_bound():
    cols = [[(1,), (k,)] for k in range(1, 25)]
    A = cq.Arrangement(Z, cols)
    with pytest.raises(PathInfeasible):
        cq.constituents(A, path="subset")


def test_empty_arrangement():
    A = cq.Arrangement.empty(Z5, 2)
    q = cq.constituents(A)
    assert q.period.is_unit_ideal()
    assert q.constituents[rg.Ideal.unit(Z5)] == (0, 0, 1)


def test_m_value_examples():
    inv = SubsetInvariants(1, (P5,))
    assert m_value(inv, PQ) == 2
    assert m_value(inv, rg.Ideal.unit(Z5)) == 1
    two = rg.Ideal.principal(ZI, (2, 0))
    inv2 = SubsetInvariants(2, (rg.Ideal.unit(ZI), two))
    assert m_value(inv2, two) == 4


def test_evaluate_examples(gaussian_arrangement, nonprincipal_arrangement):
    h2 = rootsys.builtin("H2").arrangement
    two = rg.Ideal.principal(ZT, (2, 0))
    assert two.norm == 4
    q = cq.constituents(h2)
    assert q.evaluate(two) == 0  # (4-1)(4-4)
    qn = cq.constituents(nonprincipal_arrangement)
    assert qn.evaluate(P5) == 0
    qg = cq.constituents(gaussian_arrangement)
    p = rg.Ideal.from_generators(ZI, [(1, 1)])
    assert qg.evaluate(p) == 2
    assert oracle.brute_count_complement(gaussian_arrangement, p) == 2


def test_oracle_agreement_random():
    rng = random.Random(53)
    checked = 0
    for ring in (Z, ZI, Z5, ZT, rg.quadratic(-3), rg.quadratic(2)):
        for _ in range(12):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=4,
                                       bound=2)
            q = cq.constituents(A)
            for a in rg.ideals_of_norm_up_to(ring, 16):
                if a.norm ** A.ell > 10 ** 4:
                    continue
                assert q.evaluate(a) == \
                    oracle.brute_count_complement(A, a), (A.columns, a)
                checked += 1
    assert checked >= 200


def test_degree_bound_for_agreeing_divisors():
    # when two divisors agree against every singleton's invariant factor,
    # the constituents differ only below degree ell - 1
    for name in ("H3",):
        data = rootsys.builtin(name)
        A = data.arrangement
        singles = [invariant_factors(A.coeff_matrix((j,)))
                   for j in range(A.n)]
        assert all(inv.factors[-1].is_unit_ideal() for inv in singles)
        q = cq.constituents(A, path="layers")
        divs = q.divisors()
        for k1, k2 in combinations(divs, 2):
            diff = [a - b for a, b in
                    zip(q.constituents[k1], q.constituents[k2])]
            for idx in range(A.ell - 1, A.ell + 1):
                assert diff[idx] == 0


def test_minimality_certificate(nonprincipal_arrangement):
    cert = cq.minimality_certificate(nonprincipal_arrangement)
    assert cert.period == PQ and cert.minimum == PQ
    assert set(cert.witnesses) == {P5, Q5}
    for p, (k1, k2) in cert.witnesses.items():
        reduced = PQ / p
        assert (k1 + reduced) == (k2 + reduced)

    empty = cq.Arrangement.empty(Z5, 2)
    cert = cq.minimality_certificate(empty)
    assert cert.period.is_unit_ideal() and not cert.witnesses


def test_minimality_builds_the_poset_once(monkeypatch, gaussian_arrangement):
    # H3 (n = 15) takes the layer path; the Gaussian four lines the subset
    # path, whose values the poset gives as well
    from dedarr import layers as ly
    build = ly.layer_poset
    builds = []

    def counted(A, period=None):
        builds.append(A)
        return build(A, period=period)

    monkeypatch.setattr(ly, "layer_poset", counted)
    for A in (rootsys.builtin("H3").arrangement, gaussian_arrangement):
        q = cq.constituents(A)
        expected = cq.minimality_certificate(
            A, qp=q, poset=build(A, period=q.period))
        del builds[:]
        assert cq.minimality_certificate(A) == expected
        assert builds == [A]


def test_localize_h3():
    h3 = rootsys.builtin("H3").arrangement
    q = cq.constituents(h3, path="layers")
    view, local = cq.localize(h3, [(2, 0)], qp=q)
    assert local.period.is_unit_ideal()
    assert len(local.constituents) == 1
    assert local.constituents[rg.Ideal.unit(ZT)] == \
        q.constituents[rg.Ideal.unit(ZT)]
    # inverting a unit changes nothing
    view2, local2 = cq.localize(h3, [(0, 1)], qp=q)  # tau is a unit
    assert local2.period == q.period
    assert local2.constituents == q.constituents
    with pytest.raises(ZeroInMultiplicativeSet):
        cq.localize(h3, [(0, 0)], qp=q)


def test_strip_primes(nonprincipal_arrangement):
    rho = cq.lcm_period(nonprincipal_arrangement)
    assert cq.strip_primes(rho, [(2, 0)]) == (Q5, (P5,))
    assert cq.strip_primes(rho, [(1, 0)]) == (rho, ())
    with pytest.raises(ZeroInMultiplicativeSet):
        cq.strip_primes(rho, [(0, 0)])


def test_large_inert_prime_period():
    # splitting 10^9+7 (inert in Z[i]) must not scan its residues
    start = time.monotonic()
    q = cq.constituents(cq.Arrangement(ZI, [[(10 ** 9 + 7, 0)]]))
    assert q.period == rg.Ideal.principal(ZI, (10 ** 9 + 7, 0))
    assert time.monotonic() - start < 5


def test_localize_nonprincipal(nonprincipal_arrangement):
    q = cq.constituents(nonprincipal_arrangement)
    view, local = cq.localize(nonprincipal_arrangement, [(2, 0)], qp=q)
    # inverting 2 kills the norm-2 prime; only the norm-3 prime survives
    assert local.period == Q5
    assert set(local.constituents) == {rg.Ideal.unit(Z5), Q5}
    assert local.constituents[Q5] == q.constituents[Q5]


def test_arrangement_json_roundtrip(nonprincipal_arrangement):
    data = arrangement_to_json(nonprincipal_arrangement)
    back = cq.arrangement_from_json(data)
    assert back.columns == nonprincipal_arrangement.columns
    assert back.ring == nonprincipal_arrangement.ring

    A = cq.Arrangement(Z, [[(1,), (2,)], [(0,), (5,)]])
    back = cq.arrangement_from_json(arrangement_to_json(A))
    assert back.columns == A.columns

    empty = cq.Arrangement.empty(ZI, 3)
    back = cq.arrangement_from_json(arrangement_to_json(empty))
    assert back.n == 0 and back.ell == 3


def test_arrangement_json_errors():
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json({"columns": []})
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json({"ring": {"type": "Z"}, "columns": [[0.5]]})
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json(
            {"ring": {"type": "quadratic", "d": -5}, "columns": [[3]]})
    # JSON booleans are not integers, and neither is a float ring d
    for cols in ([[True, 2], [1, False]], [[1, 2], [True, 3]]):
        with pytest.raises(InvalidArrangement):
            cq.arrangement_from_json({"ring": {"type": "Z"}, "columns": cols})
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json({"ring": {"type": "quadratic", "d": -1},
                                  "columns": [[[1, True]]]})
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json({"ring": {"type": "quadratic", "d": -1.5},
                                  "columns": [[[1, 0]]]})
    with pytest.raises(InvalidArrangement):
        cq.arrangement_from_json({"ring": {"type": "Z"}, "ell": True,
                                  "columns": []})
    for text in ("[true]", "[[1, true]]", "[false, 2]"):
        with pytest.raises(InvalidArrangement):
            cq.parse_element_list(ZI, text)
        with pytest.raises(InvalidArrangement):
            cq.parse_element_list(Z, text)
