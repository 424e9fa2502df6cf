import random
from itertools import combinations

import pytest

from dedarr import charquasi as cq
from dedarr import quasipoly as qp
from dedarr import ring as rg
from dedarr.errors import RingMismatch

from conftest import inflate, rand_small_arrangement

Z = rg.rational_integers()
ZI = rg.quadratic(-1)
Z5 = rg.quadratic(-5)

P5 = rg.Ideal.from_generators(Z5, [(2, 0), (1, -1)])
Q5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, 1)])
PQ = rg.Ideal.principal(Z5, (1, 1))
UNIT5 = rg.Ideal.unit(Z5)


def nonprincipal_example_qp():
    # two-column arrangement over Z[sqrt(-5)]: four constituents
    return qp.QuasiPolynomial(Z5, PQ, {
        UNIT5: (0, -1, 1),
        P5: (0, -2, 1),
        Q5: (0, -3, 1),
        PQ: (0, -4, 1),
    })


def gaussian_example_qp(period_two=True):
    p = rg.Ideal.principal(ZI, (1, 1))
    two = rg.Ideal.principal(ZI, (2, 0))
    consts = {
        rg.Ideal.unit(ZI): (3, -4, 1),
        p: (6, -4, 1),
        two: (10, -4, 1),
    }
    if not period_two:
        # inflate the period to <4> with duplicated constituents
        four = rg.Ideal.principal(ZI, (4, 0))
        q = qp.QuasiPolynomial(ZI, two, consts)
        return inflate(q, four)
    return qp.QuasiPolynomial(ZI, two, consts)


def test_evaluate_examples():
    q = nonprincipal_example_qp()
    # f at the prime of norm 2: 2^2 - 2*2 = 0
    assert q.evaluate(P5) == 0
    # conjugate prime above 3 is coprime to the period: unit constituent
    qbar = rg.Ideal.from_generators(Z5, [(3, 0), (1, -1)])
    assert (qbar + PQ).is_unit_ideal()
    assert q.evaluate(qbar) == 3 * 3 - 3
    # empty-arrangement quasi-polynomial evaluates to N(a)^ell
    empty = qp.QuasiPolynomial(Z5, UNIT5, {UNIT5: (0, 0, 1)})
    for a in [P5, Q5, PQ, rg.Ideal.principal(Z5, (7, 0))]:
        assert empty.evaluate(a) == a.norm ** 2


def test_minimum_period_examples():
    # constant with inflated period <4> collapses to <1>
    four = rg.Ideal.principal(Z, (4,))
    const = qp.QuasiPolynomial(Z, four, {
        k: (9,) for k in four.divisors()})
    minimal, reduced = const.minimum_period()
    assert minimal.is_unit_ideal()
    assert reduced.constituent(rg.Ideal.unit(Z)) == (9,)

    # gaussian example stated with period <4> collapses back to <2>
    inflated = gaussian_example_qp(period_two=False)
    assert inflated.period == rg.Ideal.principal(ZI, (4, 0))
    minimal, reduced = inflated.minimum_period()
    assert minimal == rg.Ideal.principal(ZI, (2, 0))
    assert reduced == gaussian_example_qp()

    # four pairwise distinct constituents: nothing can be removed
    q = nonprincipal_example_qp()
    minimal, reduced = q.minimum_period()
    assert minimal == PQ and reduced == q


def test_minimum_period_reindex_safe():
    rng = random.Random(32)
    inflated = gaussian_example_qp(period_two=False)
    _, reduced = inflated.minimum_period()
    ideals = rg.ideals_of_norm_up_to(ZI, 60)
    picks = rng.sample(ideals, min(100, len(ideals)))
    for a in picks:
        assert reduced.evaluate(a) == inflated.evaluate(a)


def witness_by_pairs(q, p):
    """The first pair of divisors, in combinations order, with distinct
    constituents on one fibre of kappa -> kappa + rho/p; or None.

    The O(d^2) pair search: the reference for
    ``QuasiPolynomial.fibre_witness``.
    """
    reduced = q.period / p
    divs = q.divisors()
    fibre = [(k + reduced).hnf for k in divs]
    consts = [q.constituents[k] for k in divs]
    for i, j in combinations(range(len(divs)), 2):
        if fibre[i] == fibre[j] and consts[i] != consts[j]:
            return divs[i], divs[j]
    return None


def minimum_period_by_restarts(q):
    """Strip any prime whose removal leaves a period, then start over.

    The reference for ``QuasiPolynomial.minimum_period``.
    """
    period = q.period
    changed = True
    while changed:
        changed = False
        for p, _ in period.factor():
            candidate = period / p
            if all(q.constituent(k) == q.constituent(k + candidate)
                   for k in period.divisors()):
                period = candidate
                changed = True
                break
    return period


def test_fibre_witness_matches_pair_search():
    # on lcm periods and on periods inflated by <k>, k <= 6, which are
    # not minimal: one fibre test per prime finds the pair search's
    # witness, and minimum_period the minimum of the restarting search
    rng = random.Random(33)
    found = missing = 0
    for ring in (Z, ZI, Z5, rg.quadratic(5)):
        for _ in range(8):
            A = rand_small_arrangement(rng, ring)
            q = cq.constituents(A)
            for k in range(1, 7):
                inflated = inflate(
                    q, q.period * rg.Ideal.principal(ring, ring.from_int(k)))
                if len(inflated.divisors()) > 100:
                    continue  # the pair search is quadratic
                for p, _ in inflated.period.factor():
                    kappa = inflated.fibre_witness(p)
                    expect = witness_by_pairs(inflated, p)
                    if kappa is None:
                        assert expect is None
                        missing += 1
                    else:
                        assert expect == (kappa, kappa * p)
                        found += 1
                minimal, reduced = inflated.minimum_period()
                assert minimal == minimum_period_by_restarts(inflated)
                assert reduced.constituents == {
                    k: inflated.constituent(k) for k in minimal.divisors()}
    assert found >= 150 and missing >= 150, (found, missing)


def test_gcd_property_by_construction():
    q = nonprincipal_example_qp()
    # ideals with the same gcd against the period share a constituent
    a1 = rg.Ideal.principal(Z5, (2, 0))   # p^2, gcd = p
    a2 = P5 * Q5.conj()
    assert (a1 + q.period) == (a2 + q.period)
    assert q.constituent(a1) == q.constituent(a2)


def test_json_roundtrip():
    q = nonprincipal_example_qp()
    data = q.to_json_dict()
    back = qp.QuasiPolynomial.from_json_dict(data)
    assert back == q
    # rational-integer ring uses one-coordinate elements
    six = rg.Ideal.principal(Z, (6,))
    qz = qp.QuasiPolynomial(Z, six, {
        k: (k.norm, 1) for k in six.divisors()})
    assert qp.QuasiPolynomial.from_json_dict(qz.to_json_dict()) == qz


def test_ring_mismatch():
    q = nonprincipal_example_qp()
    with pytest.raises(RingMismatch):
        q.evaluate(rg.Ideal.principal(ZI, (2, 0)))


def test_poly_to_str():
    assert qp.poly_to_str((3, -4, 1)) == "t^2 - 4*t + 3"
    assert qp.poly_to_str((0, -1, 1)) == "t^2 - t"
    assert qp.poly_to_str((0,)) == "0"
    assert qp.poly_to_str((-45, 59, -15, 1)) == "t^3 - 15*t^2 + 59*t - 45"


def test_constituent_keys_must_be_the_divisors():
    # the keys must be exactly the period's divisors, in any order; the
    # constituents come out in divisor order
    good = {UNIT5: (0, -1, 1), P5: (0, -2, 1), Q5: (0, -3, 1),
            PQ: (0, -4, 1)}
    q = qp.QuasiPolynomial(Z5, PQ, dict(reversed(list(good.items()))))
    assert q.divisors() == PQ.divisors()
    assert list(q.constituents) == PQ.divisors()
    assert q == nonprincipal_example_qp()
    # the conjugate of Q5 does not divide PQ
    R5 = rg.Ideal.from_generators(Z5, [(3, 0), (1, -1)])
    less = {k: v for k, v in good.items() if k != Q5}
    bad = [less, {**less, R5: (0, -3, 1)}, {**good, R5: (0, -3, 1)},
           {**less, rg.Ideal.unit(ZI): (0, -3, 1)},
           {**less, "Q5": (0, -3, 1)}]
    for consts in bad:
        with pytest.raises(ValueError, match="period divisors"):
            qp.QuasiPolynomial(Z5, PQ, consts)


def test_constituents_list_the_divisors_once(monkeypatch):
    # the period's divisors are multiplied out once per constituents call,
    # by its caller: QuasiPolynomial sorts and checks the keys it is given
    from dedarr import rootsys
    h3 = rootsys.builtin("H3").arrangement
    real = rg.Ideal.divisors
    calls = []

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(rg.Ideal, "divisors", spy)
    got = []
    for path in ("layers", "subset"):
        calls.clear()
        q = cq.constituents(h3, path=path)
        assert len(calls) == 1, path
        got.append(list(q.constituents.items()))
    assert got[0] == got[1]
    assert [k for k, _ in got[0]] == real(q.period)
