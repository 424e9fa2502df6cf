"""Inputs, operations and output checks of the three benchmark workloads.

Every function takes ``dd``, a namespace holding the dedarr modules
(``charquasi``, ``layers``, ``ring``, ``quasipoly``, ``oracle``,
``rootsys``), and looks the library's functions up through it at call
time, so the tracer's patches and a fresh import both take effect.

A workload is built once per run from ``--seed`` (``build``), run in
whole rounds (``Workload.run_round``: one output per operation, in a
fixed order), and its first round's outputs are checked after the timed
region (``Workload.check``).
"""

import random
from dataclasses import dataclass

# Largest residue grid (N(a)^ell points) the brute-force checks count;
# the oracle's own default budget.
CHECK_POINTS = 2 * 10 ** 5
# The layer path enumerates layers on the 1/m grid, m the least integer
# of the period; past this m the cross-check is skipped (the big-prime
# arrangements carry m > 10^5 and would need ~m^2 layers).
LAYER_CHECK_MAX_M = 1000

H4_PREFIXES = (24, 27, 30)
H3_EXPONENTS = (1, 5, 9)
H4_EXPONENTS = (1, 11, 19, 29)

# Split in Z[sqrt(-5)], inert in Z[i] and in Z[tau]; between 10^5 and 10^6.
BIG_PRIME = 300007

# Second entries of the support-two columns of the random arrangements.
# Small, so that minors stay small and the lcm period keeps a handful of
# primes (denser random columns reach periods past the factoring budget).
POOLS = {
    "Z": [(1,), (-1,), (2,)],
    "ZI": [(1, 0), (-1, 0), (0, 1), (1, 1)],
    "Z5": [(1, 0), (-1, 0), (1, 1)],
    "ZT": [(1, 0), (-1, 0), (0, 1), (1, -1)],
}
UNITS = {
    "Z": [(1,), (-1,)],
    "ZI": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "Z5": [(1, 0), (-1, 0)],
    "ZT": [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)],
}
# (ring, ell, n) of the random_subset arrangements; the base columns of
# slot k are drawn with random.Random(k), so the work per round does not
# depend on --seed, which draws the presentation.
SUBSET_SLOTS = [(r, ell, n) for r in ("Z", "ZI", "Z5", "ZT")
                for ell, n in ((2, 6), (3, 10), (4, 12))]
BIG_PRIME_SLOTS = [("ZI", 3, 8), ("Z5", 3, 8), ("ZT", 3, 8)]

# oracle_sweep: (ring, ell, n, norm bound) of the seeded random cases
ORACLE_RANDOM_SLOTS = [("Z", 3, 5, 30), ("ZI", 2, 4, 150), ("Z5", 2, 4, 150),
                       ("ZT", 3, 5, 20)]
ORACLE_FIXED_BOUNDS = {"gauss4": 200, "nonprincipal": 200, "H2": 200,
                       "H3": 40}
# Arrangements over Z with entries above 2^62 and period <q>: columns
# (M, M+1), (M+1, M+2), (1, 1), (q, q) with M = 2^62 + offset.  The norms
# listed are ideals <m> at which oracle._mul_arrays wraps in int64 and
# miscounts today; these comparisons are the workload's known failures.
BIG_ENTRY_CASES = [
    (3, 12345, (5, 6, 7, 9, 10, 13, 14, 17)),
    (5, 1, (3, 6, 7, 9, 11, 13, 15, 17)),
]


def ring_of(dd, key):
    if key == "Z":
        return dd.ring.rational_integers()
    return dd.ring.quadratic({"ZI": -1, "Z5": -5, "ZT": 5}[key])


@dataclass
class Case:
    label: str
    A: object
    exponents: tuple = ()   # exponents whose (t - e) product is f^<1>
    bound: int = 0          # oracle_sweep: every ideal of norm <= bound,
    ideals: tuple = ()      # or exactly these ideals
    known_fault: bool = False


# ---------------------------------------------------------------------------
# input generation


def tame_columns(rng, ring, key, ell, n):
    """n distinct columns e_i or e_i + c*e_j, c from the ring's pool."""
    cols = set()
    while len(cols) < n:
        i = rng.randrange(ell)
        col = [ring.zero] * ell
        col[i] = ring.one
        if rng.random() < 0.85:
            j = rng.choice([k for k in range(ell) if k != i])
            col[j] = rng.choice(POOLS[key])
        cols.add(tuple(col))
    return sorted(cols)


def present(rng, ring, key, columns, row_ops):
    """A random presentation of the same arrangement.

    Shuffles the columns, multiplies each by a unit and, with ``row_ops``,
    applies ell elementary row operations x_i += +-x_k.  None of these
    changes the point counts, so the quasi-polynomial and the work stay
    put while the entries the program sees change with the seed.
    """
    cols = [list(c) for c in columns]
    rng.shuffle(cols)
    cols = [[ring.mul(u, x) for x in c]
            for c, u in zip(cols, (rng.choice(UNITS[key]) for _ in cols))]
    ell = len(cols[0])
    if row_ops and ell > 1:
        for _ in range(ell):
            i, k = rng.sample(range(ell), 2)
            s = rng.choice((ring.one, ring.neg(ring.one)))
            for c in cols:
                c[i] = ring.add(c[i], ring.mul(s, c[k]))
    return [tuple(c) for c in cols]


def weyl_cases(dd, rng):
    H3 = dd.rootsys.builtin("H3").arrangement
    H4 = dd.rootsys.builtin("H4").arrangement
    ring = H4.ring
    cases = []
    for label, cols, exps in [("H3", H3.columns, H3_EXPONENTS)] + [
            (f"H4[:{k}]", H4.columns[:k], ()) for k in H4_PREFIXES]:
        cols = present(rng, ring, "ZT", cols, row_ops=False)
        cases.append(Case(label, dd.charquasi.Arrangement(ring, cols),
                          exponents=exps))
    return cases


def subset_cases(dd, rng):
    cases = []
    for k, (key, ell, n) in enumerate(SUBSET_SLOTS):
        ring = ring_of(dd, key)
        base = tame_columns(random.Random(k), ring, key, ell, n)
        cols = present(rng, ring, key, base, row_ops=True)
        cases.append(Case(f"{key} ell={ell} n={n}",
                          dd.charquasi.Arrangement(ring, cols)))
    for k, (key, ell, n) in enumerate(BIG_PRIME_SLOTS):
        ring = ring_of(dd, key)
        base = tame_columns(random.Random(100 + k), ring, key, ell, n - 1)
        # content <p>, so p divides the period
        big = tuple(ring.from_int(BIG_PRIME if i < 2 else 0)
                    for i in range(ell))
        cols = present(rng, ring, key, base + [big], row_ops=True)
        cases.append(Case(f"{key} ell={ell} n={n} p={BIG_PRIME}",
                          dd.charquasi.Arrangement(ring, cols)))
    return cases


def oracle_cases(dd, rng):
    cq = dd.charquasi
    Z, ZI, Z5 = ring_of(dd, "Z"), ring_of(dd, "ZI"), ring_of(dd, "Z5")
    b = ORACLE_FIXED_BOUNDS
    cases = [
        Case("gauss4", cq.Arrangement(
            ZI, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)],
                 [(1, 0), (0, 1)], [(1, 0), (0, -1)]]), bound=b["gauss4"]),
        Case("nonprincipal", cq.Arrangement(
            Z5, [[(2, 0), (1, -1)], [(1, 1), (3, 0)]]),
            bound=b["nonprincipal"]),
        Case("H2", dd.rootsys.builtin("H2").arrangement, bound=b["H2"]),
        Case("H3", dd.rootsys.builtin("H3").arrangement, bound=b["H3"]),
    ]
    for key, ell, n, bound in ORACLE_RANDOM_SLOTS:
        ring = ring_of(dd, key)
        base = tame_columns(rng, ring, key, ell, n)
        cols = present(rng, ring, key, base, row_ops=True)
        cases.append(Case(f"{key} ell={ell} n={n}",
                          cq.Arrangement(ring, cols), bound=bound))
    for q, offset, norms in BIG_ENTRY_CASES:
        M = 2 ** 62 + offset
        A = cq.Arrangement(Z, [[(M,), (M + 1,)], [(M + 1,), (M + 2,)],
                               [(1,), (1,)], [(q,), (q,)]])
        ideals = tuple(dd.ring.Ideal.principal(Z, (m,)) for m in norms)
        cases.append(Case(f"Z big entries q={q}", A, ideals=ideals,
                          known_fault=True))
    return cases


# ---------------------------------------------------------------------------
# checks made after the timed region, apart from the code under test


def poly_from_roots(roots):
    """Coefficients, lowest degree first, of prod (t - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [(coeffs[i - 1] if i else 0)
                  - r * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    return tuple(coeffs)


def poly_value(coeffs, t):
    return sum(c * t ** i for i, c in enumerate(coeffs))


def constituent_problems(dd, case, q, path):
    """What is wrong with q, the quasi-polynomial of case.A (empty: nothing)."""
    A = case.A
    unit = dd.ring.Ideal.unit(A.ring)
    problems = []
    if q.constituents[unit] != \
            dd.layers.whitney_characteristic_polynomial(A):
        problems.append("f^<1> is not the Whitney characteristic polynomial")
    if case.exponents and q.constituents[unit] != poly_from_roots(
            case.exponents):
        problems.append(f"f^<1> is not prod (t - e), e in {case.exponents}")
    if q.minimum_period()[0] != q.period:
        problems.append("the lcm period is not the minimum period")
    for kappa in q.divisors():
        if kappa.norm ** A.ell > CHECK_POINTS:
            continue
        count = dd.oracle.brute_count_complement(A, kappa, CHECK_POINTS)
        if poly_value(q.constituents[kappa], kappa.norm) != count:
            problems.append(f"f^{kappa!r} disagrees with the brute-force "
                            f"count at {kappa!r}")
    other = None
    max_n = dd.charquasi.SUBSET_PATH_MAX_N
    if path == "layers" and A.n <= max_n:
        other = "subset"
    elif path == "subset" and q.period.least_integer() <= LAYER_CHECK_MAX_M:
        other = "layers"
    if other and dd.charquasi.constituents(A, path=other) != q:
        problems.append(f"the {other} path disagrees")
    return problems


def reduced_count(dd, A, a):
    """Brute-force count on A, entries reduced modulo a's least integer."""
    m = a.least_integer()
    cols = [tuple(tuple(c % m for c in x) for x in col) for col in A.columns]
    if any(not any(any(x) for x in col) for col in cols):
        return 0  # a column vanishing mod m puts every point on its hyperplane
    return dd.oracle.brute_count_complement(
        dd.charquasi.Arrangement(A.ring, cols), a)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Cases plus the rounds and checks of one workload.

    ``run_round(dd)`` returns one output per operation; ``check(dd,
    outputs)`` returns one (ok, known fault confirmed) pair per operation
    and fills ``problems``.
    """

    def __init__(self, cases):
        self.cases = cases
        self.problems = {}  # case label -> what its checks found


class ConstituentsWorkload(Workload):
    path = None

    def run_round(self, dd):
        out = []
        for case in self.cases:
            try:
                out.append(dd.charquasi.constituents(case.A, path=self.path))
            except Exception as exc:  # a raising operation is a failed one
                out.append(exc)
        return out

    def check(self, dd, outputs):
        verdicts = []
        self.problems = {}
        for case, q in zip(self.cases, outputs):
            if isinstance(q, Exception):
                problems = [f"raised {q!r}"]
            else:
                problems = constituent_problems(dd, case, q, self.path)
            if problems:
                self.problems[case.label] = problems
            verdicts.append((not problems, False))
        return verdicts


class WeylLayers(ConstituentsWorkload):
    path = "layers"


class RandomSubset(ConstituentsWorkload):
    path = "subset"


class OracleSweep(Workload):
    """What ``dedarr verify`` does: evaluate against the oracle, per ideal.

    One operation is one (arrangement, ideal) comparison; its output is
    (case index, ideal, evaluate, oracle count), or (case index, error).
    """

    def run_round(self, dd):
        out = []
        for i, case in enumerate(self.cases):
            A = case.A
            try:
                ideals = case.ideals or dd.ring.ideals_of_norm_up_to(
                    A.ring, case.bound)
                q = dd.charquasi.constituents(A, path="subset")
            except Exception as exc:  # a raising operation is a failed one
                out.extend([(i, exc)] * max(1, len(case.ideals)))
                continue
            for a in ideals:
                try:
                    out.append((i, a, q.evaluate(a),
                                dd.oracle.brute_count_complement(A, a)))
                except Exception as exc:
                    out.append((i, exc))
        return out

    def check(self, dd, outputs):
        verdicts = []
        self.problems = {}
        for item in outputs:
            case = self.cases[item[0]]
            if len(item) == 2:
                verdicts.append((False, False))
                self.problems.setdefault(case.label, []).append(
                    f"raised {item[1]!r}")
                continue
            _, a, value, count = item
            if value == count:
                verdicts.append((True, False))
                continue
            # which side is wrong: recount with the entries made small
            confirmed = (case.known_fault
                         and reduced_count(dd, case.A, a) == value)
            verdicts.append((False, confirmed))
            if not confirmed:
                self.problems.setdefault(case.label, []).append(
                    f"at {a!r}: evaluate {value}, oracle {count}")
        return verdicts


def build(dd, name, seed):
    """The named workload, its inputs drawn from the seed."""
    cls, cases = WORKLOADS[name]
    return cls(cases(dd, random.Random(seed)))


WORKLOADS = {
    "weyl_layers": (WeylLayers, weyl_cases),
    "random_subset": (RandomSubset, subset_cases),
    "oracle_sweep": (OracleSweep, oracle_cases),
}
