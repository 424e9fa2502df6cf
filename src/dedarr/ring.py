"""Base rings (Z and maximal quadratic orders) and their ideal arithmetic.

Elements are plain integer tuples: ``(a,)`` over Z, ``(a, b)`` meaning
a + b*w over a quadratic order, where w = (1+sqrt(d))/2 when d = 1 mod 4
and w = sqrt(d) otherwise.  Ideals are full-rank integer row lattices in
the basis {1, w}, held in Hermite normal form, which makes equality,
membership, norms and intersections exact and canonical.
"""

import math
from dataclasses import dataclass

from . import zlinalg as zl
from .errors import (
    AllGeneratorsZero,
    BudgetExceeded,
    ElementNotInModule,
    NonIntegralQuotient,
    NormFactorizationTooLarge,
    RingMismatch,
    format_int,
)

TRIAL_DIVISION_BOUND = 10 ** 3
FACTOR_BUDGET = 2 ** 63
RESIDUE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class Ring:
    """The base domain: the rational integers or a maximal quadratic order."""

    kind: str  # "Z" or "quadratic"
    d: int = 0

    def __post_init__(self):
        if self.kind == "Z":
            object.__setattr__(self, "d", 0)
        elif self.kind == "quadratic":
            if self.d in (0, 1) or any(
                    e > 1 for e in _factor_int(abs(self.d)).values()):
                raise ValueError(f"d must be squarefree and != 0, 1: {self.d}")
        else:
            raise ValueError(f"unknown ring kind: {self.kind}")
        # cached constants; w satisfies w^2 = t*w - n
        deg = 1 if self.kind == "Z" else 2
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "omega_trace",
                           1 if self.d % 4 == 1 else 0)
        object.__setattr__(self, "omega_norm",
                           (1 - self.d) // 4 if self.d % 4 == 1 else -self.d)
        object.__setattr__(self, "zero", (0,) * deg)
        object.__setattr__(self, "one", (1,) + (0,) * (deg - 1))

    # -- element arithmetic (tuples of length `degree`) --

    def from_int(self, a):
        return (a,) + (0,) * (self.degree - 1)

    def element(self, coords):
        coords = tuple(coords)
        # exact ints only: int() would truncate 1.7 and read True as 1
        if not all(type(c) is int for c in coords):
            raise ElementNotInModule(
                f"coordinates must be integers: {coords!r}")
        if len(coords) != self.degree:
            if self.degree == 1 and len(coords) == 2 and coords[1] == 0:
                return (coords[0],)
            raise ValueError(f"expected {self.degree} coordinates: {coords}")
        return coords

    def add(self, x, y):
        return tuple(u + v for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple(u - v for u, v in zip(x, y))

    def neg(self, x):
        return tuple(-u for u in x)

    def mul(self, x, y):
        if self.degree == 1:
            return (x[0] * y[0],)
        a, b = x
        e, f = y
        t, n = self.omega_trace, self.omega_norm
        bf = b * f
        return (a * e - n * bf, a * f + b * e + t * bf)

    def omega_mul(self, x):
        """w * x."""
        if self.degree == 1:
            return x
        a, b = x
        t, n = self.omega_trace, self.omega_norm
        return (-n * b, a + t * b)

    def conj(self, x):
        if self.degree == 1:
            return x
        a, b = x
        return (a + self.omega_trace * b, -b)

    def norm(self, x):
        """Field norm down to Z (can be negative for real quadratic)."""
        if self.degree == 1:
            return x[0]
        a, b = x
        return a * a + self.omega_trace * a * b + self.omega_norm * b * b

    def is_zero(self, x):
        return not any(x)

    def format_element(self, x):
        if self.degree == 1:
            return str(x[0])
        a, b = x
        if b == 0:
            return str(a)
        wterm = "w" if b == 1 else ("-w" if b == -1 else f"{b}w")
        if a == 0:
            return wterm
        return f"{a}+{wterm}" if not wterm.startswith("-") else f"{a}{wterm}"

    def __repr__(self):
        return "Z" if self.kind == "Z" else f"Z[w], w=(1+sqrt({self.d}))/2" \
            if self.d % 4 == 1 else f"Z[sqrt({self.d})]"


def rational_integers():
    return Ring("Z")


def quadratic(d):
    return Ring("quadratic", d)


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"different rings: {a.ring!r} vs {b.ring!r}")


class Ideal:
    """A nonzero ideal of the ring, as an HNF integer lattice."""

    __slots__ = ("ring", "hnf", "_norm", "_factors")

    def __init__(self, ring, hnf_rows):
        self.ring = ring
        self.hnf = tuple(tuple(r) for r in hnf_rows)
        # the sorted (prime, exponent) pairs, once factor() found them or
        # the ideal was built from its primes
        self._factors = None
        self._norm = 1
        for i in range(ring.degree):
            self._norm *= self.hnf[i][i]

    # -- construction --

    @classmethod
    def from_generators(cls, ring, gens):
        gens = [ring.element(g) for g in gens]
        gens = [g for g in gens if not ring.is_zero(g)]
        if not gens:
            raise AllGeneratorsZero("an ideal needs a nonzero generator")
        rows = []
        for g in gens:
            rows.append(list(g))
            if ring.degree == 2:
                rows.append(list(ring.omega_mul(g)))
        basis, pivots = zl.hnf(rows)
        if len(basis) < ring.degree:
            raise AllGeneratorsZero("generators span a rank-deficient lattice")
        return cls(ring, basis)

    @classmethod
    def principal(cls, ring, g):
        return cls.from_generators(ring, [g])

    @classmethod
    def unit(cls, ring):
        one = cls(ring, zl.identity(ring.degree))
        one._factors = ()
        return one

    # -- basics --

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.ring, self.hnf))

    def __repr__(self):
        gens = ", ".join(self.ring.format_element(g) for g in self.basis())
        return f"<{gens}>"

    def sort_key(self):
        return (self._norm, self.hnf)

    def basis(self):
        return [tuple(r) for r in self.hnf]

    @property
    def norm(self):
        return self._norm

    def is_unit_ideal(self):
        return self._norm == 1

    def contains(self, x):
        # a full-rank HNF has its pivots on the diagonal
        return zl.in_lattice(x, self.hnf, range(self.ring.degree))

    def contains_ideal(self, other):
        _check_same_ring(self, other)
        return all(self.contains(r) for r in other.hnf)

    def divides(self, other):
        """a | b  iff  a contains b."""
        return self.contains_ideal(other)

    def least_integer(self):
        """The least positive rational integer contained in the ideal."""
        if self.ring.degree == 1:
            return self.hnf[0][0]
        a, b = self.hnf[0][0], self.hnf[0][1]
        c = self.hnf[1][1]
        return a * c // math.gcd(b, c)

    # -- arithmetic --

    def __add__(self, other):
        _check_same_ring(self, other)
        basis, _ = zl.hnf([list(r) for r in self.hnf]
                          + [list(r) for r in other.hnf])
        return Ideal(self.ring, basis)

    def __mul__(self, other):
        _check_same_ring(self, other)
        ring = self.ring
        rows = []
        for x in self.hnf:
            for y in other.hnf:
                rows.append(list(ring.mul(x, y)))
        basis, _ = zl.hnf(rows)
        return Ideal(ring, basis)

    def __truediv__(self, other):
        """The ideal c with c * other = self; raises unless other | self."""
        _check_same_ring(self, other)
        ring = self.ring
        n = other._norm
        if ring.degree == 1:
            q, rem = divmod(self.hnf[0][0], n)
            rows = [[q]]
        else:
            # a maximal order has b * conj(b) = <N(b)>, so
            # a * conj(b) = (a / b) * <N(b)>
            prod, _ = zl.hnf([list(ring.mul(x, ring.conj(y)))
                              for x in self.hnf for y in other.hnf])
            rem = any(x % n for row in prod for x in row)
            rows = [[x // n for x in row] for row in prod]
        if rem:
            raise NonIntegralQuotient(f"{other!r} does not divide {self!r}")
        return Ideal(ring, rows)

    def intersect(self, other):
        """a cap b = lcm(a, b) = a * b / (a + b)."""
        return self * other / (self + other)

    def conj(self):
        ring = self.ring
        rows = [list(ring.conj(r)) for r in self.hnf]
        basis, _ = zl.hnf(rows)
        return Ideal(ring, basis)

    def pow(self, e):
        result = Ideal.unit(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- residues --

    def reduce_element(self, x):
        """Canonical coset representative of x modulo the ideal."""
        return tuple(zl.reduce_mod(x, self.hnf, range(self.ring.degree)))

    def residues(self, budget=RESIDUE_BUDGET):
        """All residue classes, canonically reduced."""
        if self._norm > budget:
            raise BudgetExceeded(
                f"residue system of size {format_int(self._norm)} exceeds "
                f"{budget}")
        if self.ring.degree == 1:
            return [(u,) for u in range(self.hnf[0][0])]
        a = self.hnf[0][0]
        c = self.hnf[1][1]
        return [(u, v) for u in range(a) for v in range(c)]

    # -- primality and factorization --

    def is_prime(self):
        if _is_prime_int(self._norm):
            return True  # norm-p ideals of a maximal order are prime
        # the only other primes are <r> for an inert rational prime r, i.e.
        # one where the minimal polynomial of w has no root mod r
        r = self.hnf[0][0]
        return (self.hnf == ((r, 0), (0, r)) and _is_prime_int(r)
                and not _omega_roots(self.ring, r))

    def factor(self):
        """Prime factorization: ((prime, exponent), ...), primes sorted."""
        if self._factors is None:
            factors = {}
            for p, _ in sorted(_factor_int(self._norm).items()):
                for prime in _primes_above(self.ring, p):
                    e = PrimeValuator(prime).ord_ideal(self)
                    if e:
                        factors[prime] = e
            items = tuple(sorted(factors.items(),
                                 key=lambda kv: kv[0].sort_key()))
            product = Ideal.unit(self.ring)
            for prime, e in items:
                product = product * prime.pow(e)
            if product != self:
                raise AssertionError("factorization failed to reassemble")
            self._factors = items
        return self._factors

    def divisors(self):
        """All divisors, sorted by (norm, HNF)."""
        divs = [Ideal.unit(self.ring)]
        for p, e in self.factor():
            powers = [p.pow(i) for i in range(e + 1)]
            divs = [d * q for d in divs for q in powers]
        return sorted(divs, key=Ideal.sort_key)


class PrimeValuator:
    """ord at a fixed prime ideal, with cached powers.

    A prime generated by a rational prime r (every prime over Z, and the
    inert primes of a quadratic order) has r times the identity as its
    HNF; there ord is the r-adic valuation of the coordinates.
    """

    def __init__(self, prime):
        self.prime = prime
        self._powers = [Ideal.unit(prime.ring), prime]
        r = prime.hnf[0][0]
        self._rational = r if (prime.ring.degree == 1
                               or prime.hnf == ((r, 0), (0, r))) else None

    def ord_element(self, x):
        """Largest e with x in prime^e, for a nonzero element x."""
        if self._rational is not None:
            return self._rational_ord(x)
        v = 0
        while self._power(v + 1).contains(x):
            v += 1
        return v

    def ord_ideal(self, a):
        """Largest e with prime^e dividing the ideal a."""
        _check_same_ring(self.prime, a)
        if self._rational is not None:
            # a lies in <r^e> iff every HNF row does
            return self._rational_ord([c for row in a.hnf for c in row])
        v = 0
        while self._power(v + 1).contains_ideal(a):
            v += 1
        return v

    def _rational_ord(self, coords):
        r = self._rational
        v = 0
        while all(c % r == 0 for c in coords):
            v += 1
            coords = [c // r for c in coords]
        return v

    def _power(self, e):
        while len(self._powers) <= e:
            self._powers.append(self._powers[-1] * self.prime)
        return self._powers[e]


# -- integer factorization helpers --

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_prime_int(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y = x
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1
        x = c


def _factor_int(n):
    """Factor a positive integer; raises past the configured budget."""
    if n > FACTOR_BUDGET:
        raise NormFactorizationTooLarge(
            f"{format_int(n)} exceeds 2^63 budget")
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f <= TRIAL_DIVISION_BOUND:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime_int(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1).
    """
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


def _omega_roots(ring, p):
    """Roots in [0, p) of w's minimal polynomial x^2 - t*x + n mod the prime p.

    No root means p is inert, one that p ramifies, two that it splits.
    """
    t, n = ring.omega_trace, ring.omega_norm
    if p == 2:
        return [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
    disc = (t * t - 4 * n) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    half = (p + 1) // 2  # the inverse of 2 mod p
    return sorted({(t + s) * half % p, (t - s) * half % p})


def _primes_above(ring, p):
    """The prime ideals of the ring above the rational prime p, sorted."""
    if ring.degree == 1:
        return [Ideal.principal(ring, (p,))]
    roots = _omega_roots(ring, p)
    if not roots:
        return [Ideal.principal(ring, ring.from_int(p))]
    primes = {Ideal.from_generators(ring, [ring.from_int(p), (-r, 1)])
              for r in roots}
    return sorted(primes, key=Ideal.sort_key)


def ideals_of_norm_up_to(ring, bound):
    """All nonzero ideals of norm <= bound, sorted by (norm, HNF)."""
    if bound < 1:
        return []
    primes = []
    for p in range(2, bound + 1):
        if _is_prime_int(p):
            for prime in _primes_above(ring, p):
                if prime.norm <= bound:
                    primes.append(prime)
    primes.sort(key=Ideal.sort_key)
    # one (prime, 1) pair per prime, shared by the products ending in it
    firsts = [(prime, 1) for prime in primes]
    result = []

    def extend(ideal, start):
        # each ideal is one non-decreasing sequence of prime indices, which
        # it keeps as its factorization; a prime is its own first step
        result.append(ideal)
        for i in range(start, len(primes)):
            prime = primes[i]
            if ideal.norm * prime.norm > bound:
                break
            product = ideal * prime if ideal.norm > 1 else prime
            factors = ideal._factors
            if factors and factors[-1][0] is prime:
                product._factors = factors[:-1] + (
                    (prime, factors[-1][1] + 1),)
            else:
                product._factors = factors + (firsts[i],)
            extend(product, i)

    extend(Ideal.unit(ring), 0)
    return sorted(result, key=Ideal.sort_key)


def format_factored(ideal):
    """Deterministic factored form like "p2^1*q3^2" (primes by norm)."""
    return format_factors(ideal.factor())


def format_factors(factors):
    """``format_factored`` of the ideal with the sorted (prime, exponent)
    pairs ``factors``, exponents positive."""
    if not factors:
        return "1"
    letters = "pqrstuvabcdefghijklmno"
    parts = []
    for i, (prime, e) in enumerate(factors):
        letter = letters[i % len(letters)]
        parts.append(f"{letter}{prime.norm}^{e}")
    return "*".join(parts)
