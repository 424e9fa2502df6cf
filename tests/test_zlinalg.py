import random

import pytest

from dedarr import zlinalg as zl
from dedarr.errors import CertificateFailure

from conftest import left_kernel_hnf, rational_solve, saturate, snf_diagonal


def rand_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def lattice_points(basis, coeff_bound):
    """All integer combinations with coefficients in [-b, b] (brute force)."""
    pts = {tuple(0 for _ in basis[0])} if basis else set()
    if not basis:
        return pts
    from itertools import product
    for coeffs in product(range(-coeff_bound, coeff_bound + 1),
                          repeat=len(basis)):
        v = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            for j in range(len(v)):
                v[j] += c * row[j]
        pts.add(tuple(v))
    return pts


def test_hnf_canonical_under_row_shuffle():
    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, n)
        b = [list(r) for r in a]
        rng.shuffle(b)
        # also mix a random unimodular-ish operation
        if m >= 2:
            f = rng.randint(-3, 3)
            b[0] = [x + f * y for x, y in zip(b[0], b[1])]
        h1, _ = zl.hnf(a)
        h2, _ = zl.hnf(b)
        assert h1 == h2


def test_hnf_membership_matches_brute_force():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = rand_matrix(rng, rng.randint(1, 3), n, bound=3)
        basis, piv = zl.hnf(a)
        pts = lattice_points(a, 3)
        for _ in range(20):
            v = [rng.randint(-6, 6) for _ in range(n)]
            if zl.in_lattice(v, basis, piv):
                if not basis:
                    assert not any(v)
                else:
                    sol = rational_solve(basis, v)
                    assert sol is not None
                    assert all(x.denominator == 1 for x in sol)
            elif tuple(v) in pts:
                raise AssertionError(f"missed member {v} of {a}")


def test_left_kernel_annihilates_and_is_saturated():
    rng = random.Random(3)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, n)
        ker = zl.left_kernel(a)
        for row in ker:
            assert all(sum(x * a[i][j] for i, x in enumerate(row)) == 0
                       for j in range(n))
        assert len(ker) == m - zl.rank(a)
        if ker:
            sat, _ = zl.hnf(saturate(ker))
            assert sat == zl.hnf(ker)[0]


def test_left_kernel_spans_the_reference_kernel():
    # the kernel stops at A's columns, so its basis is not in HNF; it must
    # span the lattice the full HNF of [A | I] gives
    rng = random.Random(9)
    big = 2 ** 63 + 11
    cases = [[[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0], [0, 0]],
             [[big, big + 1], [big + 1, big + 2], [1, 1]],
             [[big * 3, 5, -big], [big, 7, 2], [0, 1, 1], [big, 0, 0]]]
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(rand_matrix(rng, m, n))          # tall and wide
        cases.append(rand_matrix(rng, 1, n))          # 1 x n
        a = rand_matrix(rng, m, n)
        a.append([sum(rng.randint(-2, 2) * r[j] for r in a)
                  for j in range(n)])                 # rank deficient
        a.insert(rng.randint(0, len(a)), [0] * n)     # a zero row
        cases.append(a)
        cases.append([[x * big for x in row]
                      for row in rand_matrix(rng, m, n)])
    deficient = 0
    for a in cases:
        ker = zl.left_kernel(a)
        ref = left_kernel_hnf(a)
        assert len(ker) == len(ref) == len(a) - zl.rank(a), a
        assert zl.hnf(ker)[0] == ref, a
        deficient += zl.rank(a) < min(len(a), len(a[0]))
    assert deficient >= 25


def test_snf_diagonal_invariants():
    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, n)
        diag = snf_diagonal(a)
        assert all(d > 0 for d in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        assert len(diag) == zl.rank(a)


def test_small_snf_diagonal_matches_snf():
    rng = random.Random(8)
    cases = []
    for D in (1, 2, 4, 8):
        for ncols in (1, 2):
            cases.append([[0] * ncols for _ in range(D)])
            for _ in range(40):
                cases.append(rand_matrix(rng, D, ncols))
                # rank deficient: the second column a multiple of the first
                col = [rng.randint(-6, 6) for _ in range(D)]
                k = rng.randint(-3, 3)
                cases.append([[x, k * x] for x in col] if ncols == 2
                             else [[x] for x in col])
                # a common factor in every entry
                f = rng.randint(2, 5)
                cases.append([[f * x for x in row]
                              for row in rand_matrix(rng, D, ncols)])
    for a in cases:
        diag = snf_diagonal(a)
        ncols = len(a[0])
        assert zl.small_snf_diagonal(a) == \
            diag + [0] * (ncols - len(diag)), a


def test_snf_transforms_product():
    rng = random.Random(5)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, n)
        diag, U, V, Vinv = zl.snf_transforms(a)
        uav = zl.mat_mul(zl.mat_mul(U, a), V)
        for i in range(m):
            for j in range(n):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert uav[i][j] == expected
        assert zl.mat_mul(V, Vinv) == zl.identity(n)


def test_saturate_contains_and_same_rank():
    rng = random.Random(7)
    for _ in range(150):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) * 2 for _ in range(n)] for _ in range(m)]
        sat = saturate(a)
        if not any(any(r) for r in a):
            assert sat == []
            continue
        sb, sp = zl.hnf(sat)
        for row in a:
            assert zl.in_lattice(row, sb, sp)
        assert zl.rank(sat) == zl.rank(a)
        # saturation is idempotent
        assert zl.hnf(saturate(sat))[0] == sb


def test_annihilator_mod_matches_the_kernel():
    # the pairs (a, b) with a*u + b*w in m Z^k are the first two
    # coordinates of the kernel of [u; w; m*I]
    rng = random.Random(9)
    for _ in range(2000):
        k = rng.randint(0, 5)
        m = rng.choice([1, 2, 4, 6, 12, 30, rng.randint(1, 200)])
        u, w = rand_matrix(rng, 2, k, bound=rng.choice([1, 3, 2 * m]))
        if k:
            ker = left_kernel_hnf([u, w] + [
                [m if c == r else 0 for c in range(k)] for r in range(k)])
            ref = tuple(tuple(r) for r in zl.hnf([x[:2] for x in ker])[0])
        else:
            ref = ((1, 0), (0, 1))
        assert zl.annihilator_mod(u, w, m) == ref, (u, w, m)


def test_coset_reps_counts_and_distinct():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 3)
        sup = zl.identity(n)
        sub = rand_matrix(rng, n + 1, n, bound=3)
        sb, _ = zl.hnf(sub)
        if len(sb) < n:
            continue
        det = 1
        for i, row in enumerate(sb):
            det *= row[i] if i < len(row) else 0
        reps = zl.coset_reps(sb, sup)
        assert len(reps) == abs(det)
        canon = {tuple(zl.reduce_mod(r, sb, list(range(n)))) for r in reps}
        assert len(canon) == len(reps)


def test_coset_reps_checks_its_lattices():
    # both are internal faults, not bad input: the lattices come from the
    # library's own refinement
    with pytest.raises(CertificateFailure):
        zl.coset_reps([[1, 0], [0, 1]], [[2, 0], [0, 2]])
    with pytest.raises(CertificateFailure):
        zl.coset_reps([[2, 0]], [[1, 0], [0, 1]])
