import math
import random

import pytest

from dedarr import ring as rg
from dedarr.errors import (
    AllGeneratorsZero,
    BudgetExceeded,
    ElementNotInModule,
    InputError,
    InternalCheckError,
    NonIntegralQuotient,
    NormFactorizationTooLarge,
    RingMismatch,
    format_int,
)

from conftest import divides

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)
ZT = rg.quadratic(5)
ZE = rg.quadratic(-3)   # w = (1+sqrt(-3))/2
Z2 = rg.quadratic(2)    # w = sqrt(2)

RINGS = [Z, ZI, Z5, ZT, ZE, Z2]


def rand_element(rng, ring, bound=5):
    while True:
        x = tuple(rng.randint(-bound, bound) for _ in range(ring.degree))
        if any(x):
            return x


def rand_ideal(rng, ring, bound=5):
    gens = [rand_element(rng, ring, bound)]
    if rng.random() < 0.5:
        gens.append(rand_element(rng, ring, bound))
    return rg.Ideal.from_generators(ring, gens)


def test_ring_rejects_bad_d():
    with pytest.raises(ValueError):
        rg.quadratic(12)
    with pytest.raises(ValueError):
        rg.quadratic(1)
    with pytest.raises(ValueError):
        rg.quadratic(0)
    # d is checked through the factorization of |d|, not trial division up
    # to sqrt|d|; it must agree with the definition
    for d in range(-3000, 3001):
        if d in (0, 1):
            continue
        n = abs(d)
        if all(n % (f * f) for f in range(2, math.isqrt(n) + 1)):
            assert rg.quadratic(d).d == d
        else:
            with pytest.raises(ValueError):
                rg.quadratic(d)
    assert rg.quadratic(10 ** 18 + 3).d == 10 ** 18 + 3
    with pytest.raises(NormFactorizationTooLarge):
        rg.quadratic(2 ** 63 + 5)


def test_element_norm_is_multiplicative():
    rng = random.Random(11)
    for ring in RINGS:
        for _ in range(200):
            x = rand_element(rng, ring, 9)
            y = rand_element(rng, ring, 9)
            assert ring.norm(ring.mul(x, y)) == ring.norm(x) * ring.norm(y)


def test_omega_relation():
    for ring in [ZI, Z5, ZT]:
        w = (0, 1)
        w2 = ring.mul(w, w)
        t, n = ring.omega_trace, ring.omega_norm
        assert w2 == ring.sub(ring.mul((t, 0), w), (n, 0))


def test_ideal_from_generators_examples():
    # <2, 1-sqrt(-5)> has norm 2 (residue count oracle below);
    # HNF derived by hand from the generator lattice
    p = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
    assert p.hnf == ((1, 1), (0, 2))
    assert p.norm == 2
    assert len(p.residues()) == 2

    assert rg.Ideal.from_generators(Z, [(6,), (10,)]).hnf == ((2,),)

    # <1+i> squared is <2>
    q = rg.Ideal.from_generators(ZI, [(1, 1)])
    assert q * q == rg.Ideal.principal(ZI, (2, 0))

    with pytest.raises(AllGeneratorsZero):
        rg.Ideal.from_generators(Z5, [(0, 0)])


def test_ideal_canonical_form_random_generators():
    rng = random.Random(12)
    for ring in RINGS:
        for _ in range(60):
            a = rand_ideal(rng, ring)
            # regenerate from random element combinations that still span
            basis = a.basis()
            gens = list(basis)
            for _ in range(3):
                x = rand_element(rng, ring, 3)
                pick = rng.choice(basis)
                gens.append(ring.mul(x, pick))
            rng.shuffle(gens)
            b = rg.Ideal.from_generators(ring, gens)
            assert a == b and a.hnf == b.hnf


P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])   # norm 2
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])    # norm 3
PQ = rg.Ideal.principal(Z5, (1, 1))                    # <1+sqrt(-5)>


def test_ideal_sum_examples():
    assert (P5 + Q5).is_unit_ideal()
    assert PQ + P5 == P5
    four = rg.Ideal.principal(Z, (4,))
    six = rg.Ideal.principal(Z, (6,))
    assert (four + six).hnf == ((2,),)


def test_ideal_product_and_intersection_examples():
    assert P5 * Q5 == PQ
    assert P5.intersect(Q5) == PQ
    p_sq = P5 * P5
    assert p_sq == rg.Ideal.principal(Z5, (2, 0))
    assert p_sq.norm == 4


def test_ideal_norm_examples():
    two = rg.Ideal.principal(ZI, (2, 0))
    assert two.norm == 4
    assert len(two.residues()) == 4
    assert Q5.norm == 3
    assert len(Q5.residues()) == 3
    for ring in RINGS:
        assert rg.Ideal.unit(ring).norm == 1


def test_ideal_colon_examples():
    # when b divides a, the quotient a / b is the colon ideal (a : b)
    four = rg.Ideal.principal(Z, (4,))
    two = rg.Ideal.principal(Z, (2,))
    assert four / two == two
    assert PQ / P5 == Q5
    assert PQ / Q5 == P5
    rng = random.Random(13)
    for ring in RINGS:
        unit = rg.Ideal.unit(ring)
        for _ in range(20):
            a = rand_ideal(rng, ring)
            assert a / unit == a


def test_inverse_and_fractional():
    # a * a^-1 = 1 in the group of fractional ideals, read inside the
    # integral ideals: a / a is the unit ideal, and dividing by a cancels
    # a factor of a
    rng = random.Random(19)
    for ring in RINGS:
        unit = rg.Ideal.unit(ring)
        for _ in range(40):
            a = rand_ideal(rng, ring, 4)
            b = rand_ideal(rng, ring, 4)
            assert a / a == unit
            assert (a * b) / a == b


def test_quotient_against_elementwise_oracle():
    # for c = a*b: x in c / b  iff  x*b inside c, and c / b == a, tested
    # over a residue box modulo m*O, m the least integer of c, which lies
    # inside c and so inside c / b
    rng = random.Random(14)
    cases = 0
    for ring in RINGS:
        for _ in range(40):
            a = rand_ideal(rng, ring, 3)
            b = rand_ideal(rng, ring, 3)
            c = a * b
            q = c / b
            assert q == a, (a, b)
            m_int = c.least_integer()
            box = rg.Ideal.principal(ring, ring.from_int(m_int))
            if box.norm > 3000:
                continue
            bgens = b.basis()
            for x in box.residues():
                member = all(c.contains(ring.mul(x, g)) for g in bgens)
                assert member == q.contains(x), (a, b, x)
            cases += 1
    assert cases >= 100


def test_intersect_against_elementwise_oracle():
    # x in a cap b  iff  x in a and x in b, over a residue box modulo m*O,
    # m the lcm of the least integers of a and b, which lies inside both
    rng = random.Random(15)
    cases = 0
    for ring in RINGS:
        for _ in range(40):
            a = rand_ideal(rng, ring, 3)
            b = rand_ideal(rng, ring, 3)
            i = a.intersect(b)
            m_int = math.lcm(a.least_integer(), b.least_integer())
            box = rg.Ideal.principal(ring, ring.from_int(m_int))
            if box.norm > 3000:
                continue
            for x in box.residues():
                assert i.contains(x) == (a.contains(x) and b.contains(x)), \
                    (a, b, x)
            cases += 1
    assert cases >= 100


def product(ring, factors):
    """The ideal prod p^e over the (prime, exponent) pairs of factor()."""
    result = rg.Ideal.unit(ring)
    for p, e in factors:
        result = result * p.pow(e)
    return result


def test_factor_examples():
    f = PQ.factor()
    assert [p.norm for p, e in f] == [2, 3]
    assert all(e == 1 for _, e in f)
    assert product(Z5, f) == PQ

    two_zi = rg.Ideal.principal(ZI, (2, 0)).factor()
    assert len(two_zi) == 1
    p, e = two_zi[0]
    assert e == 2 and p == rg.Ideal.principal(ZI, (1, 1))

    # sqrt(5) = 2w - 1 in Z[w], w = (1+sqrt 5)/2; norm 180 = 4 * 5 * 9
    six_sqrt5 = rg.Ideal.principal(ZT, (-6, 12))
    f = six_sqrt5.factor()
    norms = [(p.norm, e) for p, e in f]
    assert norms == [(4, 1), (5, 1), (9, 1)]
    # 2 and 3 are inert, sqrt(5) ramified
    assert f[0][0] == rg.Ideal.principal(ZT, (2, 0))
    assert f[2][0] == rg.Ideal.principal(ZT, (3, 0))
    assert f[1][0].pow(2) == rg.Ideal.principal(ZT, (5, 0))


def test_factor_roundtrip_random():
    rng = random.Random(15)
    for ring in RINGS:
        for _ in range(40):
            a = rand_ideal(rng, ring, 4)
            f = a.factor()
            assert product(ring, f) == a
            for p, _ in f:
                assert p.is_prime()


def test_divisors_examples():
    six_sqrt5 = rg.Ideal.principal(ZT, (-6, 12))
    divs = six_sqrt5.divisors()
    assert len(divs) == 8  # squarefree with three prime factors
    assert divs[0].is_unit_ideal()
    assert divs[-1] == six_sqrt5

    assert len(PQ.divisors()) == 4
    assert [d.norm for d in PQ.divisors()] == [1, 2, 3, 6]
    assert rg.Ideal.unit(Z5).divisors() == [rg.Ideal.unit(Z5)]


def test_residues_examples():
    five = rg.Ideal.principal(Z, (5,))
    assert five.residues() == [(0,), (1,), (2,), (3,), (4,)]
    two = rg.Ideal.principal(ZI, (2, 0))
    assert sorted(two.residues()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_residues_distinct_and_reduced():
    rng = random.Random(16)
    for ring in RINGS:
        for _ in range(30):
            a = rand_ideal(rng, ring, 4)
            if a.norm > 500:
                continue
            reps = a.residues()
            assert len(reps) == a.norm
            reduced = {a.reduce_element(r) for r in reps}
            assert len(reduced) == a.norm
            for r in reps:
                assert a.reduce_element(r) == r
            # translation by ideal elements does not change the class
            for row in a.hnf:
                x = rand_element(rng, ring, 3)
                shifted = ring.add(x, row)
                assert a.reduce_element(x) == a.reduce_element(shifted)


def test_ord_p_examples():
    # ord at a prime is PrimeValuator.ord_ideal, for an ideal that
    # Ideal.is_prime accepts
    def ord_p(a, p):
        assert p.is_prime()
        return rg.PrimeValuator(p).ord_ideal(a)

    p_zi = rg.Ideal.principal(ZI, (1, 1))
    assert ord_p(rg.Ideal.principal(ZI, (2, 0)), p_zi) == 2
    assert ord_p(rg.Ideal.unit(Z5), P5) == 0
    assert ord_p(PQ, P5) == 1
    assert not PQ.is_prime()
    # <r> is prime exactly when r is inert: 3 is inert in Z[i], 5 splits
    assert ord_p(rg.Ideal.principal(ZI, (9, 0)),
                 rg.Ideal.principal(ZI, (3, 0))) == 2
    assert not rg.Ideal.principal(ZI, (5, 0)).is_prime()


def test_omega_roots_against_brute_scan():
    for d in (-1, -5, 5, 2, -3, 13):
        ring = rg.quadratic(d)
        t, n = ring.omega_trace, ring.omega_norm
        for p in range(2, 3000):
            if not rg._is_prime_int(p):
                continue
            brute = [r for r in range(p) if (r * r - t * r + n) % p == 0]
            assert rg._omega_roots(ring, p) == brute, (d, p)


def test_valuation_against_prime_powers():
    # inert, split and ramified primes all occur above 2, 3, 5, 7 here
    rng = random.Random(21)
    for ring in [Z, ZI, Z5, ZT]:
        primes = [P for p in (2, 3, 5, 7) for P in rg._primes_above(ring, p)]
        for P in primes:
            val = rg.PrimeValuator(P)
            for _ in range(25):
                x = rand_element(rng, ring, 30)
                scale = rng.choice((2, 3, 5, 7)) ** rng.randint(0, 3)
                x = ring.mul(x, ring.from_int(scale))
                e = 0
                while P.pow(e + 1).contains(x):
                    e += 1
                assert val.ord_element(x) == e, (ring, P, x)
                assert val.ord_ideal(rg.Ideal.principal(ring, x)) == e


def test_ring_laws_random():
    rng = random.Random(17)
    cases = 0
    for ring in RINGS:
        for _ in range(60):
            a = rand_ideal(rng, ring, 4)
            b = rand_ideal(rng, ring, 4)
            s = a + b
            i = a.intersect(b)
            assert s.divides(a) and s.divides(b)
            assert a.divides(i) and b.divides(i)
            assert (a * b).norm == a.norm * b.norm
            cases += 1
    assert cases >= 200


def test_torsion_of_residue_ring_matches_gcd_norm():
    # the kappa-torsion subgroup of O/a has N(kappa + a) elements
    rng = random.Random(18)
    checked = 0
    for ring in RINGS:
        for _ in range(80):
            a = rand_ideal(rng, ring, 4)
            k = rand_ideal(rng, ring, 3)
            if a.norm > 30:
                continue
            kgens = k.basis()
            torsion = [x for x in a.residues()
                       if all(a.contains(ring.mul(g, x)) for g in kgens)]
            assert len(torsion) == (k + a).norm, (a, k)
            checked += 1
    assert checked >= 100


def test_non_integer_coordinates_are_rejected():
    # int() would read 1.7 as 1 and True as 1, giving the unit ideal
    for gens in ([(1.7,)], [(True,)], [(2, 1.0)], [(False, 3)]):
        ring = Z if len(gens[0]) == 1 else ZI
        with pytest.raises(ElementNotInModule):
            rg.Ideal.from_generators(ring, gens)
    assert issubclass(ElementNotInModule, InputError)
    assert rg.Ideal.from_generators(Z, [(7,)]).hnf == ((7,),)


def test_non_integral_quotient_is_internal():
    # a / b exists exactly when b divides a; any other quotient is a
    # library fault, not bad input
    assert issubclass(NonIntegralQuotient, InternalCheckError)
    with pytest.raises(NonIntegralQuotient):
        rg.Ideal.unit(ZI) / rg.Ideal.principal(ZI, (2, 0))
    rng = random.Random(19)
    raised = 0
    for ring in RINGS:
        for _ in range(40):
            a = rand_ideal(rng, ring, 4)
            b = rand_ideal(rng, ring, 4)
            if b.divides(a):
                assert (a / b) * b == a
                continue
            with pytest.raises(NonIntegralQuotient):
                a / b
            raised += 1
    assert raised >= 100


def test_least_integer():
    rng = random.Random(20)
    for ring in RINGS:
        for _ in range(40):
            a = rand_ideal(rng, ring, 4)
            m = a.least_integer()
            assert a.contains(ring.from_int(m))
            for k in range(1, min(m, 60)):
                assert not a.contains(ring.from_int(k))


def test_divides_matches_principal_membership():
    # the divisibility test of the minor-walk reference in conftest
    rng = random.Random(61)
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(300):
            g = rand_element(rng, ring, 4)
            x = rand_element(rng, ring, 6)
            # multiples of g must be recognised, not only random pairs
            xs = [x, ring.mul(g, x)]
            for y in xs:
                assert divides(ring, g, y) == \
                    rg.Ideal.principal(ring, g).contains(y), (ring, g, y)
    # over Z[tau] the norm of g can be negative
    for g in [(0, 1), (1, 3), (2, -3), (-1, 2)]:
        assert ZT.norm(g) < 0
        for x in [(5, 0), (1, 1), (3, -2), ZT.mul(g, (2, 7))]:
            assert divides(ZT, g, x) == \
                rg.Ideal.principal(ZT, g).contains(x), (g, x)
    # over Z the quadratic formula would accept everything
    assert not divides(Z, (3,), (4,)) and divides(Z, (-3,), (12,))
    # several elements at once: g divides each of them
    for ring in (Z, ZI, Z5, ZT):
        for _ in range(100):
            g = rand_element(rng, ring, 4)
            xs = [rand_element(rng, ring, 6) for _ in range(2)]
            xs = [ring.mul(g, x) if rng.random() < 0.6 else x for x in xs]
            assert divides(ring, g, *xs) == \
                all(divides(ring, g, x) for x in xs), (ring, g, xs)


def test_ideals_of_norm_up_to_matches_all_ideals():
    # against the definition: an ideal holding the integer m is <m, b+cw>
    # for some b, c modulo m, so these generators reach every ideal
    for ring in (ZI, Z5, ZT):
        bound = 30
        got = rg.ideals_of_norm_up_to(ring, bound)
        assert len(set(got)) == len(got)
        assert [a.sort_key() for a in got] == \
            sorted(a.sort_key() for a in got)
        seen = set()
        for m in range(1, bound + 1):
            for b in range(m):
                for c in range(m):
                    a = rg.Ideal.from_generators(ring, [(m, 0), (b, c)])
                    if a.norm <= bound:
                        seen.add(a)
        assert set(got) == seen


def test_ideals_of_norm_up_to():
    ids = rg.ideals_of_norm_up_to(Z, 12)
    assert [i.norm for i in ids] == list(range(1, 13))
    ids5 = rg.ideals_of_norm_up_to(ZT, 20)
    norms = [i.norm for i in ids5]
    assert norms == sorted(norms)
    assert len(set(ids5)) == len(ids5)
    # norms of ideals of Z[(1+sqrt5)/2] realize exactly these values <= 20
    assert sorted(set(norms)) == [1, 4, 5, 9, 11, 16, 19, 20]


def test_ideals_of_norm_up_to_below_one_is_empty():
    # the unit ideal has norm 1, so a bound below 1 admits no ideal
    for ring in (Z, ZI):
        assert rg.ideals_of_norm_up_to(ring, 0) == []
        assert rg.ideals_of_norm_up_to(ring, -3) == []


def test_ideals_of_norm_up_to_keep_their_factorization():
    # the factorization each ideal is built from is the one factor()
    # computes from scratch on an ideal with the same HNF
    for ring in RINGS:
        for a in rg.ideals_of_norm_up_to(ring, 200):
            fresh = rg.Ideal(ring, a.hnf)
            assert a.factor() == fresh.factor(), a
            assert rg.format_factored(a) == rg.format_factored(fresh)
            assert product(ring, a.factor()) == a


def test_period_is_factored_once(monkeypatch):
    # the period keeps its factorization, so one run factors its norm once
    from dedarr import charquasi as cq
    from dedarr import rootsys
    h3 = rootsys.builtin("H3").arrangement
    norm = cq.lcm_period(h3).norm
    real = rg._factor_int
    calls = []

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(rg, "_factor_int", spy)
    for run in (lambda: cq.constituents(h3, path="layers"),
                lambda: cq.constituents(h3, path="subset"),
                lambda: cq.minimality_certificate(h3)):
        calls.clear()
        run()
        assert calls == [norm]


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        P5 + rg.Ideal.principal(ZI, (2, 0))


def test_format_factored():
    assert rg.format_factored(PQ) == "p2^1*q3^1"
    assert rg.format_factored(rg.Ideal.unit(Z5)) == "1"
    assert rg.format_factored(rg.Ideal.principal(ZI, (2, 0))) == "p2^2"


def test_residue_budget():
    big = rg.Ideal.principal(Z, (10 ** 8,))
    with pytest.raises(BudgetExceeded):
        big.residues(budget=10 ** 6)


def test_factor_budget():
    huge = rg.Ideal.principal(Z, (2 ** 70 + 1,))
    with pytest.raises(NormFactorizationTooLarge):
        huge.factor()


def test_huge_integers_in_budget_messages():
    # Python refuses to print an int past 4,300 digits, so a message names
    # an integer past 2^63 by its bit length
    assert format_int(2 ** 63 - 1) == "9223372036854775807"
    assert format_int(2 ** 63) == "<64-bit integer>"
    huge = rg.Ideal.principal(Z, (10 ** 5000,))
    bits = (10 ** 5000).bit_length()
    with pytest.raises(NormFactorizationTooLarge,
                       match=f"<{bits}-bit integer> exceeds"):
        huge.factor()
    with pytest.raises(BudgetExceeded, match=f"size <{bits}-bit integer>"):
        huge.residues()


def test_factor_int_matches_trial_division():
    # large cofactors go to the Miller-Rabin test and Pollard rho; the
    # result must be the plain trial-division factorisation
    def trial(n):
        out = {}
        f = 2
        while f * f <= n:
            while n % f == 0:
                out[f] = out.get(f, 0) + 1
                n //= f
            f += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    rng = random.Random(67)
    cases = list(range(1, 2000))
    cases += [rng.randint(1, 10 ** 8) for _ in range(200)]
    # prime squares and products just past the trial-division bound
    cases += [1009 ** 2, 1013 * 1019, 4 * 300007 ** 2, 3 * 1009 * 10007,
              999983 * 1000003, 7 ** 5 * 1031 ** 2]
    for n in cases:
        assert rg._factor_int(n) == trial(n), n
    assert rg._factor_int((10 ** 9 + 7) ** 2) == {10 ** 9 + 7: 2}
