"""Brute-force ground truth: point counts over (O/a)^ell.

Enumerates the full residue grid and counts points off every reduced
hyperplane, or in the kernel of a coefficient matrix.  Everything is
int64 numpy.  The coefficients are first reduced modulo the least
integer m in the ideal a; m*O lies in a, so the counts do not change,
and every value the products and membership tests reach stays below
(ell*(1 + |t| + |n|) + 1)*m^2, where w^2 = t*w - n.  An ideal for which
that could reach 2^63 raises BudgetExceeded instead of wrapping.

The grid is streamed in blocks of BLOCK = 2^13 points, so each int64
temporary of a block is 64 KB.  They stay in cache, the allocator reuses
them rather than mapping fresh pages, and one call holds about 1.5 MB
whatever N(a)^ell is; 2^17-point blocks held 18 MB at ell = 4.  Over
block sizes 2^10 to 2^17, 2^12 and 2^13 counted fastest.
"""

import numpy as np

from .errors import BudgetExceeded, format_int

DEFAULT_BUDGET = 10 ** 7
BLOCK = 1 << 13


def _residue_arrays(a):
    """Residue representatives as one int64 array per coordinate of O.

    The canonical system of ``Ideal.residues``, (u, v) for u below the
    first HNF pivot and v below the second, built in numpy.
    """
    r = np.arange(a.hnf[0][0], dtype=np.int64)
    if a.ring.degree == 1:
        return [r]
    c = np.arange(a.hnf[1][1], dtype=np.int64)
    return [np.repeat(r, len(c)), np.tile(c, len(r))]


def _membership_mask(ring, a, coords):
    """Vectorized test for (tuple of coordinate arrays) lying in the ideal."""
    if ring.degree == 1:
        return coords[0] % a.hnf[0][0] == 0
    h = a.hnf
    u, v = coords
    q = u // h[0][0]
    q %= h[1][1]  # keeps q * h[0][1] below m^2
    return (u % h[0][0] == 0) & ((v - q * h[0][1]) % h[1][1] == 0)


def _mul_arrays(ring, x, col):
    """x (tuple of arrays) times the constant element col."""
    if ring.degree == 1:
        return (x[0] * col[0],)
    a, b = x
    e, f = col
    t, n = ring.omega_trace, ring.omega_norm
    return (a * e - n * (b * f), a * f + b * e + t * (b * f))


def _reduction_modulus(ring, a, ell):
    """The least integer m of a, once int64 is known to hold the counts."""
    m = a.least_integer()
    t, n = ring.omega_trace, ring.omega_norm
    if (ell * (1 + abs(t) + abs(n)) + 1) * m * m >= 2 ** 63:
        raise BudgetExceeded(
            f"entries modulo {format_int(m)} could overflow int64 at "
            f"ell = {ell}")
    return m


def _reduce(x, m):
    return tuple(c % m for c in x)


def _grid_blocks(a, ell, budget):
    """Yield tuples of coordinate arrays covering (O/a)^ell, BLOCK points
    at a time."""
    norm = a.norm
    total = norm ** ell
    if total > budget:
        raise BudgetExceeded(
            f"{format_int(total)} residue vectors exceed the budget of "
            f"{budget}")
    per_coord = _residue_arrays(a)
    radix = [norm ** i for i in range(ell)]
    for start in range(0, total, BLOCK):
        flat = np.arange(start, min(start + BLOCK, total), dtype=np.int64)
        coords = []
        for r in radix:
            idx = flat // r % norm
            coords.append(tuple(c[idx] for c in per_coord))
        yield coords


def _count(ring, a, ell, vectors, budget, on):
    """Residue vectors x in (O/a)^ell with x*v in a for every vector v of
    ``vectors`` when ``on``, for none of them otherwise."""
    m = _reduction_modulus(ring, a, ell)
    vectors = [[_reduce(x, m) for x in v] for v in vectors]
    count = 0
    for coords in _grid_blocks(a, ell, budget):
        alive = np.ones(len(coords[0][0]), dtype=bool)
        for v in vectors:
            acc = None
            for i in range(ell):
                term = _mul_arrays(ring, coords[i], v[i])
                acc = term if acc is None else tuple(
                    x + y for x, y in zip(acc, term))
            mask = _membership_mask(ring, a, acc)
            alive &= mask if on else ~mask
            if not alive.any():
                break
        count += int(alive.sum())
    return count


def brute_count_complement(arrangement, a, budget=DEFAULT_BUDGET):
    """Number of residue vectors avoiding every hyperplane of the arrangement."""
    return _count(arrangement.ring, a, arrangement.ell, arrangement.columns,
                  budget, on=False)


def brute_count_kernel(C, a, budget=DEFAULT_BUDGET):
    """Number of residue vectors x with x*C = 0 modulo the ideal."""
    columns = [[row[j] for row in C.rows] for j in range(C.ncols)]
    return _count(C.ring, a, C.nrows, columns, budget, on=True)
