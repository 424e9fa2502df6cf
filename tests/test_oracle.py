import random
import tracemalloc
from functools import reduce
from itertools import combinations, product

import pytest

from dedarr import charquasi as cq
from dedarr import oracle
from dedarr import ring as rg
from dedarr import rootsys
from dedarr.errors import BudgetExceeded

from conftest import rand_small_arrangement

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)

P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])


def test_complement_examples(nonprincipal_arrangement):
    # at the norm-3 prime the count vanishes: t^2 - 3t at t = 3
    assert oracle.brute_count_complement(nonprincipal_arrangement, Q5) == 0
    # the one-point space lies on every hyperplane
    unit = rg.Ideal.unit(Z5)
    assert oracle.brute_count_complement(nonprincipal_arrangement, unit) == 0
    # H2 at the ramified prime of norm 5: (5-1)(5-4) = 4
    h2 = rootsys.builtin("H2").arrangement
    sqrt5 = rg.Ideal.principal(ZT, (-1, 2))
    assert sqrt5.norm == 5
    assert oracle.brute_count_complement(h2, sqrt5) == 4


def test_kernel_examples():
    col = cq.CoeffMatrix(Z5, [[(2, 0)], [(1, -1)]])
    assert oracle.brute_count_kernel(col, P5) == 4

    eye = cq.CoeffMatrix(ZI, [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    for a in [rg.Ideal.principal(ZI, (2, 0)),
              rg.Ideal.principal(ZI, (3, 0)),
              rg.Ideal.from_generators(ZI, [(1, 1)])]:
        assert oracle.brute_count_kernel(eye, a) == 1

    c = cq.CoeffMatrix(ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    two = rg.Ideal.principal(ZI, (2, 0))
    assert oracle.brute_count_kernel(c, two) == 4


def test_budget_exceeded():
    h2 = rootsys.builtin("H2").arrangement
    big = rg.Ideal.principal(ZT, (101, 0))
    with pytest.raises(BudgetExceeded):
        oracle.brute_count_complement(h2, big, budget=10 ** 4)


def test_large_entries_are_exact():
    # 2^62 + 1 = 0 mod 5, so every point lies on the first hyperplane;
    # int64 products of the unreduced entry used to wrap and count 3
    five = rg.Ideal.principal(Z, (5,))
    A = cq.Arrangement(Z, [[(2 ** 62 + 1,)], [(1,)]])
    assert oracle.brute_count_complement(A, five) == 0
    assert cq.constituents(A).evaluate(five) == 0
    C = cq.CoeffMatrix(Z, [[(2 ** 62 + 1,), (2 ** 62 + 2,)]])
    assert oracle.brute_count_kernel(C, five) == 1
    # entries far past int64 over a quadratic order; the first two
    # columns have determinant -1 and the period is <3>
    M = (3 ** 80, 7 ** 30)
    one = (1, 0)
    M1 = ZI.add(M, one)
    B = cq.Arrangement(ZI, [[M, M1], [M1, ZI.add(M1, one)], [one, one],
                            [(3, 0), (3, 0)]])
    q = cq.constituents(B)
    assert q.period == rg.Ideal.principal(ZI, (3, 0))
    for a in rg.ideals_of_norm_up_to(ZI, 25):
        assert oracle.brute_count_complement(B, a) == q.evaluate(a), a


def test_int64_room_is_a_budget():
    # over Z at ell = 1 the values reach 2*m^2, so m = 2^31 is the first
    # least integer without room; it is refused before any grid is built
    ok = rg.Ideal.principal(Z, (2 ** 31 - 1,))
    assert oracle._reduction_modulus(Z, ok, 1) == 2 ** 31 - 1
    big = rg.Ideal.principal(Z, (2 ** 31,))
    with pytest.raises(BudgetExceeded, match="int64"):
        oracle._reduction_modulus(Z, big, 1)
    A = cq.Arrangement(Z, [[(1,)]])
    with pytest.raises(BudgetExceeded, match="int64"):
        oracle.brute_count_complement(A, big)


def test_huge_integers_in_budget_messages():
    # Python refuses to print an int past 4,300 digits, so a message names
    # an integer past 2^63 by its bit length
    huge = rg.Ideal.principal(Z, (10 ** 5000,))
    bits = (10 ** 5000).bit_length()
    A = cq.Arrangement(Z, [[(1,)]])
    with pytest.raises(BudgetExceeded, match=f"modulo <{bits}-bit integer>"):
        oracle.brute_count_complement(A, huge)
    # m = 2^20 leaves int64 room at ell = 1000, but the grid holds 2^20000
    # residue vectors
    wide = cq.Arrangement(Z, [[(1,)] * 1000])
    with pytest.raises(BudgetExceeded,
                       match="<20001-bit integer> residue vectors"):
        oracle.brute_count_complement(wide, rg.Ideal.principal(Z, (2 ** 20,)))


def test_inclusion_exclusion_sanity():
    rng = random.Random(41)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(10):
            A = rand_small_arrangement(rng, ring, ell_max=2, n_max=3)
            a = rg.Ideal.principal(ring, ring.from_int(rng.randint(2, 4)))
            if a.norm ** A.ell > 10 ** 5:
                continue
            total = a.norm ** A.ell
            acc = total
            for size in range(1, A.n + 1):
                for J in combinations(range(A.n), size):
                    C = A.coeff_matrix(J)
                    acc += (-1) ** size * oracle.brute_count_kernel(C, a)
            assert acc == oracle.brute_count_complement(A, a)


def enumerated_count(ring, a, ell, vectors, on):
    """``oracle._count`` by its definition: one ``Ideal.contains`` per
    residue vector and vector, in pure Python."""
    count = 0
    for x in product(a.residues(), repeat=ell):
        hits = [a.contains(reduce(ring.add, map(ring.mul, x, v)))
                for v in vectors]
        count += all(hits) if on else not any(hits)
    return count


def check_against_enumeration(A, a):
    assert oracle.brute_count_complement(A, a) == enumerated_count(
        A.ring, a, A.ell, A.columns, on=False), (A.columns, a)
    C = A.coeff_matrix(range(min(2, A.n)))
    columns = [[row[j] for row in C.rows] for j in range(C.ncols)]
    assert oracle.brute_count_kernel(C, a) == enumerated_count(
        A.ring, a, A.ell, columns, on=True), (A.columns, a)


def grids_beside_multiples(ring, block, ells, limit):
    """(ideal, ell) with N(a)^ell one point below or one point above a
    multiple of the block and at most ``limit`` points, the first of each
    side per ell."""
    found = {}
    for a in rg.ideals_of_norm_up_to(ring, limit):
        for ell in ells:
            total = a.norm ** ell
            if block - 1 <= total <= limit and total % block in (1, block - 1):
                found.setdefault((total % block, ell), (a, ell))
    return list(found.values())


@pytest.mark.parametrize("block", [1, 7, 64, oracle.BLOCK])
def test_block_boundaries_are_exact(block, monkeypatch):
    # the counts stream the grid in blocks; a block size that splits the
    # grid anywhere, and grids one point either side of a multiple of it,
    # must give the enumeration's counts
    real = block == oracle.BLOCK
    monkeypatch.setattr(oracle, "BLOCK", block)
    rng = random.Random(block)
    sides = set()
    for ring in (Z, ZI, Z5, ZT):
        grids = [(rg.Ideal.principal(ring, ring.from_int(k)), ell)
                 for k, ell in [(2, 2), (3, 1), (2, 3)]]
        if block > 1:
            # past the real block only ell = 1 stays within the budget
            beside = grids_beside_multiples(
                ring, block, [1] if real else [1, 2, 3],
                2 * block + 1 if real else 1500)
            assert beside, ring
            sides |= {a.norm ** ell % block for a, ell in beside}
            grids += beside
        for a, ell in grids:
            A = rand_small_arrangement(rng, ring, ell_max=ell, n_max=4)
            while A.ell != ell:
                A = rand_small_arrangement(rng, ring, ell_max=ell, n_max=4)
            check_against_enumeration(A, a)
    if block > 1:
        assert sides == {1, block - 1}
    # every point of 7..13 is a multiple of 2, 3, 7, 11 or 13 and lies on
    # one of the first five hyperplanes, so at block 7 the second block
    # empties and leaves the loop before the last column; 17 and 19 in
    # the next block survive, as do the 5,760 units of Z/30030
    n = 2 * 3 * 5 * 7 * 11 * 13
    a = rg.Ideal.principal(Z, (n,))
    A = cq.Arrangement(Z, [[(n // d,)] for d in (2, 3, 7, 11, 13, 5)])
    assert oracle.brute_count_complement(A, a) == 5760
    assert enumerated_count(Z, a, 1, A.columns, on=False) == 5760


def test_memory_ceiling():
    # H4[:8] at a norm-19 prime of Z[tau]: 19^4 = 130,321 points.  The
    # blocks hold the call near 1.5 MB; 2^17-point blocks held 18 MB
    h4 = rootsys.builtin("H4").arrangement
    A = cq.Arrangement(ZT, h4.columns[:8])
    p19 = [a for a in rg.ideals_of_norm_up_to(ZT, 19) if a.norm == 19][0]
    tracemalloc.start()
    try:
        count = oracle.brute_count_complement(A, p19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 82080
    assert peak < 4 * 10 ** 6
