"""Exact integer matrix routines: HNF, SNF, kernels, cosets.

Matrices are lists (or tuples) of rows of Python ints, so everything is
arbitrary precision.  Row convention throughout: a lattice is the set of
integer combinations of the rows of its basis matrix.  The numpy kernels
elsewhere take their dtype from ``exact_dtype``.
"""

import math

import numpy as np

from .errors import CertificateFailure


def exact_dtype(bound):
    """The numpy dtype for values at most ``bound`` in absolute value.

    int64 below 2^63, else object (Python ints), so the same numpy code is
    exact either way.
    """
    return np.int64 if bound < 2 ** 63 else object


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _echelon(work, ncols):
    """Row-reduce the rows of ``work`` (lists, changed in place) on their
    first ``ncols`` columns.

    Returns (basis, pivots, rest): one carrier row with a positive pivot per
    pivot column, and the nonzero rows left, which vanish on those columns.
    """
    width = len(work[0])
    basis = []
    pivots = []
    for col in range(ncols):
        carrier = None
        rest = []
        for r in work:
            if r[col] != 0:
                if carrier is None:
                    carrier = r
                else:
                    # combine so that carrier[col] becomes gcd, r[col] zero
                    a, b = carrier[col], r[col]
                    if b % a == 0:
                        q = b // a
                        for j in range(col, width):
                            r[j] -= q * carrier[j]
                    else:
                        g, x, y = xgcd(a, b)
                        fa, fb = a // g, b // g
                        for j in range(col, width):
                            u, v = carrier[j], r[j]
                            carrier[j] = x * u + y * v
                            r[j] = -fb * u + fa * v
                    if any(r[col:]):
                        rest.append(r)
            else:
                if any(r[col:]):
                    rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                for j in range(col, width):
                    carrier[j] = -carrier[j]
            basis.append(carrier)
            pivots.append(col)
            work = rest
        if not work:
            break
    return basis, pivots, work


def hnf(rows):
    """Row Hermite normal form of the lattice spanned by ``rows``.

    Returns (basis, pivots): ``basis`` is a list of the nonzero echelon rows
    with positive pivots and entries above each pivot reduced into
    [0, pivot); ``pivots`` is the list of pivot column indices.  The result
    is the canonical basis of the row lattice.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    basis, pivots, _ = _echelon(work, len(work[0]))
    # reduce entries above each pivot, in increasing pivot order so that
    # earlier reductions are never disturbed
    for i in range(len(basis)):
        p = pivots[i]
        piv = basis[i][p]
        for k in range(i):
            q = basis[k][p] // piv
            if q:
                row = basis[k]
                brow = basis[i]
                for j in range(p, len(row)):
                    row[j] -= q * brow[j]
    return basis, pivots


def rank(rows):
    return len(hnf(rows)[0])


def in_lattice(vec, basis, pivots):
    """Membership of ``vec`` in the row lattice given by HNF (basis, pivots)."""
    v = list(vec)
    for row, p in zip(basis, pivots):
        if v[p] % row[p] != 0:
            return False
        q = v[p] // row[p]
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    return not any(v)


def reduce_mod(vec, basis, pivots):
    """Canonical representative of ``vec`` modulo the row lattice.

    Pivot coordinates are reduced into [0, pivot); the representative is
    unique when the lattice has full rank.
    """
    v = list(vec)
    for row, p in zip(basis, pivots):
        q = v[p] // row[p]
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    return v


def coords_in_lattice(vec, basis, pivots):
    """Integer coordinates of ``vec`` in the HNF basis, or None."""
    v = list(vec)
    coords = [0] * len(basis)
    for i, (row, p) in enumerate(zip(basis, pivots)):
        if v[p] % row[p] != 0:
            return None
        q = v[p] // row[p]
        coords[i] = q
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    if any(v):
        return None
    return coords


def left_kernel(rows):
    """Basis of {x : x * A = 0} for the matrix A given by ``rows``.

    Row operations on [A | I] eliminate A's own n columns and stop there:
    the rows left with a zero A-part carry, in their I-part, a unimodular
    image of a kernel basis.  The result spans the full integer kernel, a
    saturated lattice, but it is not in Hermite normal form; a caller that
    needs a canonical basis takes ``hnf`` of what it keeps.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)]
           for i in range(m)]
    return [r[n:] for r in _echelon(aug, n)[2]]


def annihilator_mod(u, w, m):
    """HNF rows of {(a, b) in Z^2 : a*u + b*w = 0 mod m}, vectors u, w.

    Column operations on the 2 x k matrix [u; w] keep the set, so one xgcd
    sweep along u leaves a column (g, e) and columns (0, w'_j); those force
    b into n*Z, n = m / gcd(m, w'_j).  What is left is the lattice
    {(a, n*t) : a*g + t*n*e = 0 mod m}: with d = gcd(n*e, m) its first
    row is (d / gcd(g, d), n*t) for the t that solves the congruence, and
    its second (0, n*m/d).  It holds m*Z^2, so both pivots divide m.
    """
    g = e = h = 0
    for x, y in zip(u, w):
        if x:
            G, s, t = xgcd(g, x)
            g, e, y = G, (s * e + t * y) % m, (g // G) * y - (x // G) * e
        h = math.gcd(h, y)
    n = m // math.gcd(h, m)
    d = math.gcd(n * e, m)
    a = d // math.gcd(g, d)
    step = m // d
    t = (-(g * a // d) * pow(n * e // d, -1, step)) % step if step > 1 else 0
    return ((a, n * t), (0, n * step))


def snf_transforms(rows):
    """Return (diag, U, V, Vinv) with U*A*V diagonal, U, V unimodular."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    U = identity(m)
    V = identity(n)
    Vinv = identity(n)

    def row_combine(i, k, x, y, fa, fb):
        # (row_i, row_k) <- (x*row_i + y*row_k, -fb*row_i + fa*row_k)
        for mat in (a, U):
            ri, rk = mat[i], mat[k]
            for j in range(len(ri)):
                u, v = ri[j], rk[j]
                ri[j] = x * u + y * v
                rk[j] = -fb * u + fa * v

    def row_sub(i, k, f):
        # row_k -= f * row_i
        for mat in (a, U):
            ri, rk = mat[i], mat[k]
            for j in range(len(ri)):
                rk[j] -= f * ri[j]

    def col_combine(j, k, x, y, fa, fb):
        # (col_j, col_k) <- (x*col_j + y*col_k, -fb*col_j + fa*col_k)
        for row in a:
            u, v = row[j], row[k]
            row[j] = x * u + y * v
            row[k] = -fb * u + fa * v
        for row in V:
            u, v = row[j], row[k]
            row[j] = x * u + y * v
            row[k] = -fb * u + fa * v
        # inverse elementary matrix acts on Vinv rows
        rj, rk = Vinv[j], Vinv[k]
        for t in range(n):
            u, v = rj[t], rk[t]
            rj[t] = fa * u + fb * v
            rk[t] = -y * u + x * v

    def col_sub(j, k, f):
        # col_k -= f * col_j ;  inverse: row_j of Vinv += f * row_k
        for row in a:
            row[k] -= f * row[j]
        for row in V:
            row[k] -= f * row[j]
        rj, rk = Vinv[j], Vinv[k]
        for t in range(n):
            rj[t] += f * rk[t]

    def neg_row(i):
        for j in range(n):
            a[i][j] = -a[i][j]
        for j in range(m):
            U[i][j] = -U[i][j]

    def clear_block(t):
        # make row t and column t zero outside a[t][t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    p, q = a[t][t], a[i][t]
                    if p and q % p == 0:
                        row_sub(t, i, q // p)
                    else:
                        g, x, y = xgcd(p, q)
                        row_combine(t, i, x, y, p // g, q // g)
            dirty = False
            for j in range(t + 1, n):
                if a[t][j]:
                    p, q = a[t][t], a[t][j]
                    if p and q % p == 0:
                        col_sub(t, j, q // p)
                    else:
                        g, x, y = xgcd(p, q)
                        col_combine(t, j, x, y, p // g, q // g)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, m)):
                break
        if a[t][t] < 0:
            neg_row(t)

    r = min(m, n)
    r_eff = 0
    for t in range(r):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in V:
                row[t], row[j0] = row[j0], row[t]
            Vinv[t], Vinv[j0] = Vinv[j0], Vinv[t]
        clear_block(t)
        r_eff = t + 1
    # enforce the divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for t in range(r_eff - 1):
            p, q = a[t][t], a[t + 1][t + 1]
            if q % p != 0:
                changed = True
                col_sub(t + 1, t, -1)  # col_t += col_{t+1}
                clear_block(t)
                clear_block(t + 1)
    return [a[i][i] for i in range(r_eff)], U, V, Vinv


def small_snf_diagonal(rows):
    """Invariant factors of a matrix with one or two columns, from gcds.

    d_1 is the gcd of the entries and d_1*d_2 the gcd of the 2x2 minors,
    so no transforms are formed.  Zeros pad the result to one entry per
    column, past the rank.
    """
    ncols = len(rows[0])
    if ncols > 2:
        raise ValueError("expected at most two columns")
    d1 = 0
    for row in rows:
        for x in row:
            d1 = math.gcd(d1, x)
    if ncols == 1 or d1 == 0:
        return [d1] + [0] * (ncols - 1)
    # the minors' gcd is a multiple of d1^2, so stop once it gets there
    floor = d1 * d1
    minors = 0
    for i, (a, b) in enumerate(rows):
        for c, e in rows[i + 1:]:
            minors = math.gcd(minors, a * e - b * c)
            if minors == floor:
                return [d1, d1]
    return [d1, minors // d1]


def mat_mul(a, b):
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                for j in range(ncols):
                    acc[j] += x * brow[j]
        out.append(acc)
    return out


def identity(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def coset_reps(sub, sup):
    """Representatives of L_sup / L_sub for full-index sublattice pairs.

    Both arguments are HNF bases (rows), as ``hnf`` gives them; the pivots
    of ``sup`` are read off its rows.  Requires L_sub <= L_sup with finite
    index.  Returns a list of integer vectors in ambient coordinates, one
    per coset, with the zero coset first.
    """
    sup_piv = [next(j for j, x in enumerate(row) if x) for row in sup]
    coords = []
    for row in sub:
        c = coords_in_lattice(row, sup, sup_piv)
        if c is None:
            raise CertificateFailure(
                "sub lattice is not contained in sup lattice")
        coords.append(c)
    diag, U, V, Vinv = snf_transforms(coords)
    if len(diag) < len(sup):
        raise CertificateFailure("quotient is infinite")
    new_basis = mat_mul(Vinv, sup)
    reps = [[0] * len(sup[0])]
    for i, d in enumerate(diag):
        if d <= 1:
            continue
        grown = []
        for t in range(d):
            for r in reps:
                grown.append([x + t * y for x, y in zip(r, new_basis[i])]
                             if t else list(r))
        reps = grown
    return reps
