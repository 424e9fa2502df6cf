"""Module structure of cokernels over the base ring.

For a coefficient matrix C over the ring, the cokernel of x -> x*C
decomposes as a direct sum of cyclic torsion pieces O/d_1 + ... + O/d_r
(d_i dividing d_{i+1}) plus a projective part that never enters any
counting formula.  The d_i are recovered from the determinantal ideals
E_i

    E_i = ideal generated by all i x i minors of C,     d_i = E_i * E_{i-1}^{-1}

which is valid because both sides localize to the Smith normal form
identity over every discrete valuation ring.  The tests cross-check the
d_i against the explicit torsion module, computed independently by
restricting scalars to Z and taking Smith normal form.
"""

from itertools import combinations

from . import zlinalg as zl
from .errors import NonIntegralQuotient
from .ring import Ideal


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

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def restriction_rows(self):
        """Integer matrix of x -> x*C after restricting scalars to Z.

        Rows are indexed by (basis element of O^ell), columns by the Z-basis
        of O^k; the row lattice is the image of the map.
        """
        ring = self.ring
        deg = ring.degree
        out = []
        for i in range(self.nrows):
            basis_elts = [ring.one]
            if deg == 2:
                basis_elts.append((0, 1))
            for b in basis_elts:
                row = []
                for j in range(self.ncols):
                    prod = ring.mul(b, self.rows[i][j])
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
    r = zl.rank(C.restriction_rows())
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
