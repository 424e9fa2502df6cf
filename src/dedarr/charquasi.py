"""Characteristic quasi-polynomials of integral arrangements.

The engine sweeps column subsets J, extracts the torsion invariant
factors of the cokernel of x -> x*C_J, and assembles

    f^kappa(t) = sum over J of (-1)^|J| * m(J, kappa) * t^(ell - r(J)),

where m(J, kappa) is the product of N(kappa + d_{J,i}).  Two routes are
implemented: the inclusion-exclusion sum above over all 2^n subsets (with
an exact cancellation prune), and the layer-poset route that reads the
same constituents off Moebius values of the torsion-translate poset.
"""

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import zlinalg as zl
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    InvalidArrangement,
    PathInfeasible,
    ZeroInMultiplicativeSet,
)
from .quasipoly import QuasiPolynomial, ring_from_json
from .ring import Ideal, PrimeValuator

SUBSET_PATH_MAX_N = 22
AUTO_SUBSET_MAX_N = 12
MINOR_TABLE_BUDGET = 10 ** 7  # entries of one _minor_tables call
LEAF_CHUNK = 2 ** 14  # basis minors formed at once by lcm_period


class Arrangement:
    """A finite list of nonzero coefficient columns in O^ell."""

    __slots__ = ("ring", "ell", "columns", "name")

    def __init__(self, ring, columns, name=None):
        cols = []
        for idx, col in enumerate(columns):
            elements = tuple(ring.element(x) for x in col)
            if all(ring.is_zero(x) for x in elements):
                raise InvalidArrangement(f"column {idx} is zero")
            cols.append(elements)
        if not cols:
            raise InvalidArrangement(
                "an arrangement without columns needs an explicit ambient "
                "rank; use Arrangement.empty")
        lengths = {len(c) for c in cols}
        if len(lengths) != 1:
            raise InvalidArrangement("columns of mixed dimension")
        self.ring = ring
        self.ell = lengths.pop()
        self.columns = tuple(cols)
        self.name = name

    @classmethod
    def empty(cls, ring, ell, name=None):
        self = object.__new__(cls)
        self.ring = ring
        self.ell = ell
        self.columns = ()
        self.name = name
        return self

    @property
    def n(self):
        return len(self.columns)

    def coeff_matrix(self, subset):
        cols = [self.columns[j] for j in subset]
        return CoeffMatrix.from_columns(self.ring, cols)

    def column_restriction(self, j):
        """Integer rows of multiplication by column j on Z^(deg*ell)."""
        ring = self.ring
        deg = ring.degree
        rows = []
        for i in range(self.ell):
            for s in range(deg):
                b = ring.one if s == 0 else (0, 1)
                rows.append(list(ring.mul(b, self.columns[j][i])))
        return rows

    def restriction_matrix(self):
        """[colmat_0 | colmat_1 | ...]: the integer rows of x -> x*C."""
        mats = [self.column_restriction(j) for j in range(self.n)]
        return [[x for cm in mats for x in cm[i]]
                for i in range(self.ring.degree * self.ell)]

    def __repr__(self):
        label = self.name or f"{self.n} columns"
        return f"Arrangement({label}, ell={self.ell}, {self.ring!r})"


class CoeffMatrix:
    """An ell x k matrix of ring elements (columns are the c_j)."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(ring.element(x) for x in row) for row in rows)
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must be nonempty")
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_columns(cls, ring, columns):
        ell = len(columns[0])
        rows = [[columns[j][i] for j in range(len(columns))]
                for i in range(ell)]
        return cls(ring, rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])


def arrangement_from_json(data):
    if not isinstance(data, dict):
        raise InvalidArrangement("arrangement file must be a JSON object")
    if "ring" not in data or "columns" not in data:
        raise InvalidArrangement('missing "ring" or "columns"')
    try:
        ring = ring_from_json(data["ring"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # AttributeError: a ring literal that is not a JSON object
        raise InvalidArrangement(f"bad ring literal: {exc}") from None
    raw_cols = data["columns"]
    if not isinstance(raw_cols, list):
        raise InvalidArrangement('"columns" must be a list')
    columns = []
    for ci, col in enumerate(raw_cols):
        if not isinstance(col, list):
            raise InvalidArrangement(f"columns[{ci}] must be a list")
        parsed = []
        for ei, x in enumerate(col):
            if ring.degree == 1:
                if type(x) is not int:
                    raise InvalidArrangement(
                        f"columns[{ci}][{ei}]: expected an integer")
                parsed.append((x,))
            else:
                if (not isinstance(x, list) or len(x) != 2
                        or not all(type(v) is int for v in x)):
                    raise InvalidArrangement(
                        f"columns[{ci}][{ei}]: expected [a, b]")
                parsed.append(tuple(x))
        columns.append(tuple(parsed))
    name = data.get("name")
    if not columns:
        ell = data.get("ell")
        if type(ell) is not int or ell < 1:
            raise InvalidArrangement('empty arrangement needs integer "ell"')
        return Arrangement.empty(ring, ell, name=name)
    return Arrangement(ring, columns, name=name)


def parse_element_list(ring, text):
    """Parse a JSON list of element literals into coordinate tuples."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise InvalidArrangement(f"bad element list: {exc}") from None
    if not isinstance(data, list) or not data:
        raise InvalidArrangement("expected a nonempty JSON list of elements")
    out = []
    for i, x in enumerate(data):
        if ring.degree == 1:
            if type(x) is not int:
                raise InvalidArrangement(f"element {i}: expected an integer")
            out.append((x,))
        else:
            if type(x) is int:
                out.append((x, 0))
            elif (isinstance(x, list) and len(x) == 2
                  and all(type(v) is int for v in x)):
                out.append(tuple(x))
            else:
                raise InvalidArrangement(f"element {i}: expected [a, b]")
    return out


# ---------------------------------------------------------------------------
# the LCM-period


def _rank(A):
    """Rank over the fraction field: that of x -> x*C over Z, / degree."""
    return zl.rank(A.restriction_matrix()) // A.ring.degree


def _kernel_bound(ring, entry, size):
    """A bound on every integer the lcm kernel forms.

    Those are the coordinates of the minors of sizes up to ``size`` of a
    matrix whose coordinates are at most ``entry`` in absolute value, the
    partial sums of their Laplace expansions, and over a quadratic order
    the norms of the largest minors.  A product of two elements with
    coordinates at most x and y has coordinates at most k*x*y, so an
    s-minor has coordinates at most s*k*entry times the (s-1)-minors'.
    """
    if ring.degree == 1:
        k = 1
    else:
        wt, wn = abs(ring.omega_trace), abs(ring.omega_norm)
        k = max(1 + wn, 2 + wt)
    bound = 1
    for s in range(1, size + 1):
        bound *= s * k * entry
    if ring.degree == 2:
        bound = max(bound, (1 + wt + wn) * bound * bound)
    return bound


def _extend(ring, X, prev, parent, cols, s):
    """The s-minors of the column sets P + (j,), by Laplace expansion.

    ``prev`` holds the (s-1)-minors of column sets P, one row per set and
    one column per row set in combinations order; the result has one row
    per pair (P = prev[parent[i]], j = cols[i]) and one column per s-subset
    of the ell rows.  The expansion runs along the last column j.
    """
    ell = X.shape[1]
    pos = {R: i for i, R in enumerate(combinations(range(ell), s - 1))}
    rows = list(combinations(range(ell), s))
    out = 0
    for t in range(s):
        drop = np.array([pos[R[:t] + R[t + 1:]] for R in rows])
        pick = np.array([R[t] for R in rows])
        x = np.moveaxis(X[cols[:, None], pick], -1, 0)
        y = np.moveaxis(prev[parent[:, None], drop], -1, 0)
        term = np.stack(ring.mul(x, y), axis=-1)
        out = out + term if (t + s) % 2 else out - term
    return out


def _children(last, n):
    """(parent, j, offset) of the sets P + (j,) with j > max P, in lex order.

    ``last`` holds max P of each set P (-1 for the empty set).  Listing the
    children of each set in turn, j increasing, lists the larger sets in
    combinations order; P + (j,) is child offset[P] + j.
    """
    counts = n - 1 - last
    offset = np.cumsum(counts) - counts - last - 1
    parent = np.repeat(np.arange(len(last)), counts)
    return parent, np.arange(len(parent)) - offset[parent], offset


def _minor_tables(A, top, exact):
    """The minors of every column subset of size at most ``top``.

    Returns (X, tables, parents, lasts, offsets).  X holds the columns, one
    row per column.  tables[s] holds the s-minors of the s-subsets of the n
    columns in combinations order: one row per column set, one column per
    s-subset of the ell rows, the coordinates on the last axis; tables[0]
    is the 0-minor 1 of the empty set.  Row i of tables[s] is the set at
    row parents[s][i] of tables[s - 1] plus the column lasts[s][i], and
    is built by Laplace expansion along that column (lasts[0] is [-1]).
    The one index into the tables: for P at row p of tables[s - 1] and
    j > max P, the row of P + (j,) in tables[s] is offsets[s][p] + j.  The
    dtype is int64 when _kernel_bound allows minors up to size
    ``exact``, else object (Python ints).  Past MINOR_TABLE_BUDGET
    entries, BudgetExceeded is raised before any table is formed.
    """
    ring = A.ring
    n, ell, deg = A.n, A.ell, ring.degree
    size = sum(comb(n, s) * comb(ell, s) for s in range(1, top + 1))
    if size > MINOR_TABLE_BUDGET:
        raise BudgetExceeded(
            f"a minor table up to size {top} needs {size} minors of column "
            f"subsets, over the budget of {MINOR_TABLE_BUDGET}")
    entry = max((abs(c) for col in A.columns for x in col for c in x),
                default=0)
    dtype = zl.exact_dtype(_kernel_bound(ring, entry, exact))
    X = np.array([[list(x) for x in col] for col in A.columns], dtype=dtype)
    table = np.zeros((1, 1, deg), dtype=dtype)
    table[0, 0, 0] = 1
    tables, parents, lasts, offsets = [table], [None], [np.array([-1])], [None]
    for s in range(1, top + 1):
        parent, cols, offset = _children(lasts[-1], n)
        tables.append(_extend(ring, X, tables[-1], parent, cols, s))
        parents.append(parent)
        lasts.append(cols)
        offsets.append(offset)
    return X, tables, parents, lasts, offsets


def _subset_rows(parents, lasts, offsets, s, p, j):
    """Rows in tables[s] of the s-subsets of P + (j,), P at row p of tables[s].

    Those are P itself and, for each (s-1)-subset F of P, F + (j,).
    """
    if s == 0:
        return [p]
    faces = _subset_rows(parents, lasts, offsets, s - 1,
                         int(parents[s][p]), int(lasts[s][p]))
    return [p] + [int(offsets[s][f]) + j for f in faces]


def lcm_period(A):
    """The lcm of the last invariant factors d(J), over the bases of A.

    For independent J and J + {j}, dropping coordinate j maps
    coker(J + {j}) onto coker(J); both cokernels are torsion, so
    d(J) | d(J + {j}).  Every independent subset extends to a basis, an
    independent subset of size r = rank A, so the lcm over bases equals the
    lcm over all independent subsets.  Dropping columns of a dependent
    subset at equal rank only grows the last invariant factor, so that is
    also the lcm over every subset.

    The minors of every column subset of size below r come from
    _minor_tables.  The bases P + (j,), P an (r-1)-subset and j > max P,
    are then formed in blocks and visited in lex order: a basis has a
    nonzero r-minor, and d = E_r * E_(r-1)^(-1) of its determinantal
    ideals.  When r = ell, E_ell = (g) for its one maximal minor g, and d
    contains (g): a basis whose g is a unit or divides the lcm found so
    far forms no ideal.

    This walk serves the subset path and ``dedarr period``; the layer path
    reads the same ideal off its flat lattice (``FlatLattice.lcm_period``).
    """
    ring = A.ring
    unit = Ideal.unit(ring)
    if A.n == 0:
        return unit
    n, ell, deg = A.n, A.ell, ring.degree
    r = _rank(A)
    X, tables, parents, lasts, offsets = _minor_tables(A, r - 1, r)
    table, last = tables[-1], lasts[-1]
    acc = unit
    per = max(1, LEAF_CHUNK // (n * comb(ell, r)))
    for lo in range(0, len(last), per):
        parent, cols, _ = _children(last[lo:lo + per], n)
        top = _extend(ring, X, table, parent + lo, cols, r)
        if r == ell:
            # g = 0: dependent; a unit g makes d the unit ideal
            keep = abs(ring.norm(top[:, 0].T)) > 1
        else:
            keep = (top != 0).any(axis=(1, 2))
        for i in np.flatnonzero(keep).tolist():
            gens = [tuple(v) for v in top[i].tolist()]
            if r == ell:
                if ring.divides(gens[0], *acc.hnf):
                    continue  # d contains (g), which contains the lcm
                e_top = Ideal.principal(ring, gens[0])
            else:
                e_top = Ideal.from_generators(ring, gens)
            if r == 1:
                e_prev = unit
            else:
                # E_(r-1): the (r-1)-minors of P and of each P - {k} + {j}
                subs = _subset_rows(parents, lasts, offsets, r - 1,
                                    int(parent[i]) + lo, int(cols[i]))
                smaller = [tuple(v)
                           for v in table[subs].reshape(-1, deg).tolist()]
                e_prev = Ideal.from_generators(ring, smaller)
            if e_top.is_unit_ideal() or e_top.contains_ideal(acc * e_prev):
                continue  # d already divides the accumulated lcm
            acc = acc.intersect(e_top / e_prev)
    return acc


# ---------------------------------------------------------------------------
# constituents, subset-sum path


def _constituents_subset_sum(A, rho):
    ring = A.ring
    ell = A.ell
    n = A.n
    deg = ring.degree
    # an unfactorable period fails here, before any minor is tabled
    primes = [p for p, _ in rho.factor()]
    # no subset has rank above r, so no table past size r is read
    r = _rank(A)
    _, tables, _, _, offsets = _minor_tables(A, r, r)
    vals = [PrimeValuator(p) for p in primes]
    np_ = len(primes)
    INF = 10 ** 9
    counts = {}

    def record(size, rank, evals):
        key = (rank, evals)
        counts[key] = counts.get(key, 0) + (1 if size % 2 == 0 else -1)

    record(0, 0, ())

    def walk(size, rows, rank, evals, start):
        # rows[s] holds the table rows of the node's s-subsets, s <= r;
        # column j adds the sets sub + (j,), at offsets[s][rows[s - 1]] + j
        grow = [None] + [offsets[s][rows[s - 1]] for s in range(1, r + 1)]
        for j in range(start, n):
            # child rank
            child_rank = rank
            if rank < r and (tables[rank + 1][grow[rank + 1] + j] != 0).any():
                child_rank = rank + 1
            # child valuations of E_1..E_child_rank (per size, per prime)
            child_evals = []
            for s in range(1, child_rank + 1):
                if s <= rank:
                    base = list(evals[s - 1])
                else:
                    base = [INF] * np_
                if any(base):
                    minors = tables[s][grow[s] + j].reshape(-1, deg)
                    minors = minors[(minors != 0).any(axis=1)].tolist()
                    for pi in range(np_):
                        if base[pi] == 0:
                            continue
                        for g in minors:
                            v = vals[pi].ord_element(g)
                            if v < base[pi]:
                                base[pi] = v
                                if v == 0:
                                    break
                child_evals.append(tuple(base))
            child_evals = tuple(child_evals)
            rem = n - j - 1
            flat = (child_rank == ell
                    and all(v == 0 for es in child_evals for v in es))
            if flat:
                # every extension keeps rank ell and m = 1, so the signed
                # subtree sum telescopes to zero unless this is a leaf
                if rem == 0:
                    record(size + 1, child_rank, child_evals)
            else:
                record(size + 1, child_rank, child_evals)
                if rem:
                    kids = [np.concatenate((rows[s], grow[s] + j))
                            for s in range(1, r + 1)]
                    walk(size + 1, rows[:1] + kids, child_rank, child_evals,
                         j + 1)

    walk(0, [np.array([0])] + [np.array([], int)] * r, 0, (), 0)

    divisors = rho.divisors()
    kappa_vals = {k: tuple(v.ord_ideal(k) for v in vals) for k in divisors}
    norms = [p.norm for p in primes]
    consts = {}
    for kappa in divisors:
        kv = kappa_vals[kappa]
        coeffs = [0] * (ell + 1)
        for (rank, evals), c in counts.items():
            m = 1
            prev = (0,) * np_
            for es in evals:
                for pi in range(np_):
                    d_ord = es[pi] - prev[pi]
                    e = min(kv[pi], d_ord)
                    if e:
                        m *= norms[pi] ** e
                prev = es
            coeffs[ell - rank] += c * m
        consts[kappa] = tuple(coeffs)
    return QuasiPolynomial(ring, rho, consts)


def constituents(A, path="auto"):
    """The characteristic quasi-polynomial of the arrangement.

    The subset path takes the lcm period from ``lcm_period``'s minor
    tables; the layer path (``auto`` past AUTO_SUBSET_MAX_N columns) reads
    it off the flat lattice it builds anyway, and tables no minor.
    """
    if path not in ("auto", "subset", "layers"):
        raise ValueError(f"unknown path {path!r}")
    if path == "subset" and A.n > SUBSET_PATH_MAX_N:
        raise PathInfeasible(
            f"subset-sum path needs n <= {SUBSET_PATH_MAX_N}, got {A.n}")
    if path == "auto":
        path = "subset" if A.n <= AUTO_SUBSET_MAX_N else "layers"
    if path == "subset":
        q = _constituents_subset_sum(A, lcm_period(A))
    else:
        from .layers import layer_poset
        q = layer_poset(A).quasi_polynomial()
    return _monic(q, A.ell)


def _monic(q, ell):
    """q, once every constituent is checked monic of degree ell."""
    for kappa in q.divisors():
        coeffs = q.constituents[kappa]
        if len(coeffs) != ell + 1 or coeffs[-1] != 1:
            raise CertificateFailure("constituent is not monic of degree ell")
    return q


def evaluate(A, a, qp=None):
    """Value of the characteristic quasi-polynomial at the ideal a."""
    if qp is None:
        qp = constituents(A)
    return qp.evaluate(a)


# ---------------------------------------------------------------------------
# minimality certificate


@dataclass
class MinimalityCertificate:
    period: Ideal
    minimum: Ideal
    per_dimension: list  # (dim r, lcm of annihilators of the r-dim layers)
    witnesses: dict      # prime -> (kappa1, kappa2) with distinct constituents


def minimality_certificate(A, qp=None, poset=None):
    """Certify that the computed period is the minimum period.

    Without ``poset`` the layer poset is built once, at the period of
    ``qp`` when it is given; without ``qp`` it is read off the poset.
    """
    if poset is None:
        from .layers import layer_poset
        poset = layer_poset(A, period=None if qp is None else qp.period)
    if qp is None:
        qp = _monic(poset.quasi_polynomial(), A.ell)
    rho = qp.period
    unit = Ideal.unit(A.ring)
    per_dim = {r: unit for r in range(A.ell)}
    for dim, tau in poset.mobius_sums:
        if dim < A.ell:
            cur = per_dim[dim]
            if not tau.contains_ideal(cur):
                per_dim[dim] = cur.intersect(tau)
    total = unit
    for r, ideal in per_dim.items():
        total = total.intersect(ideal)
    if total != rho:
        raise CertificateFailure(
            "per-dimension annihilator lcms do not reproduce the period")
    # a witness at every prime p says rho/p is no period, and the periods
    # are the multiples of the minimum, so rho is the minimum
    witnesses = {}
    for p, _ in rho.factor():
        kappa = qp.fibre_witness(p)
        if kappa is None:
            raise CertificateFailure(
                f"period reduced below the lcm period: no witness pair for "
                f"prime {p!r}")
        witnesses[p] = (kappa, kappa * p)
    per_dimension = sorted(per_dim.items())
    return MinimalityCertificate(rho, rho, per_dimension, witnesses)


# ---------------------------------------------------------------------------
# localization


@dataclass
class LocalizedArrangement:
    base: Arrangement
    inverted: tuple          # generators of the multiplicative set
    inverted_primes: tuple   # primes of the period that become units
    period: Ideal            # the period with those primes stripped


def _invertible(ring, s_gens):
    gens = tuple(ring.element(g) for g in s_gens)
    if any(ring.is_zero(g) for g in gens):
        raise ZeroInMultiplicativeSet("cannot invert zero")
    return gens


def strip_primes(rho, s_gens):
    """Remove from rho the primes that contain an element of s_gens.

    Those are the primes that become units once s_gens is inverted.
    Returns (the stripped period, the removed primes).
    """
    gens = _invertible(rho.ring, s_gens)
    stripped = Ideal.unit(rho.ring)
    dead = []
    for p, e in rho.factor():
        if any(p.contains(g) for g in gens):
            dead.append(p)
        else:
            stripped = stripped * p.pow(e)
    return stripped, tuple(dead)


def localize(A, s_gens, qp=None):
    """Invert the elements of s_gens: strip their primes from the period.

    Residue rings away from the inverted primes are unchanged, so the
    localized quasi-polynomial is the restriction of the original to the
    divisors coprime to every generator.
    """
    gens = _invertible(A.ring, s_gens)
    if qp is None:
        qp = constituents(A)
    stripped, dead = strip_primes(qp.period, gens)
    consts = {k: qp.constituents[k] for k in stripped.divisors()}
    local_qp = QuasiPolynomial(A.ring, stripped, consts)
    view = LocalizedArrangement(A, gens, dead, stripped)
    return view, local_qp
