"""Quasi-polynomials on the nonzero ideals of the base ring.

A quasi-polynomial is a period ideal rho together with one integer
polynomial per divisor kappa of rho; its value at an ideal a is the
kappa-constituent evaluated at the absolute norm N(a), where
kappa = a + rho.  Values therefore depend only on gcd(a, rho), which is
the generalized GCD property.
"""

from .errors import RingMismatch
from .ring import Ideal, PrimeValuator, format_factored, format_factors


def poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_to_str(coeffs, var="t"):
    """Deterministic human-readable form, highest degree first."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            tpart = var if i == 1 else f"{var}^{i}"
            body = tpart if abs(c) == 1 else f"{abs(c)}*{tpart}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


class QuasiPolynomial:
    """Period ideal plus one constituent polynomial per divisor.

    ``constituents`` is keyed by the period's divisors in divisor order,
    the order ``divisors()`` gives.  The given keys are checked, not
    rebuilt: distinct ideals that all divide the period, as many as it
    has divisors, prod (e_p + 1) over its factorization.
    """

    __slots__ = ("ring", "period", "constituents")

    def __init__(self, ring, period, constituents):
        self.ring = ring
        self.period = period
        count = 1
        for _, e in period.factor():
            count *= e + 1
        if len(constituents) != count or not all(
                isinstance(k, Ideal) and k.ring == period.ring
                and k.divides(period) for k in constituents):
            raise ValueError("constituents must cover the period divisors")
        self.constituents = {k: tuple(constituents[k])
                             for k in sorted(constituents, key=Ideal.sort_key)}

    def divisors(self):
        return list(self.constituents)

    def divisor_labels(self):
        """``format_factored`` of each divisor, in divisor order.

        The exponents are read off the period's primes, so no divisor is
        factored on its own.
        """
        vals = [(p, PrimeValuator(p)) for p, _ in self.period.factor()]
        labels = []
        for kappa in self.constituents:
            factors = []
            for p, val in vals:
                e = val.ord_ideal(kappa)
                if e:
                    factors.append((p, e))
            labels.append(format_factors(factors))
        return labels

    def constituent(self, kappa):
        """The constituent for any ideal: kappa is reduced to gcd(kappa, rho)."""
        key = kappa + self.period
        return self.constituents[key]

    def evaluate(self, a):
        if a.ring != self.ring:
            raise RingMismatch("ideal from a different ring")
        return poly_eval(self.constituent(a), a.norm)

    def __eq__(self, other):
        return (isinstance(other, QuasiPolynomial)
                and self.ring == other.ring and self.period == other.period
                and self.constituents == other.constituents)

    def fibre_witness(self, p):
        """The first divisor kappa, in divisor order, with
        v_p(kappa) = v_p(rho) - 1 and f(kappa) != f(kappa * p); or None.

        kappa + rho/p differs from kappa only when v_p(kappa) = v_p(rho),
        and is then kappa/p.  So rho/p is a period exactly when no such
        kappa exists, and (kappa, kappa * p) is a witness pair otherwise.
        """
        val = PrimeValuator(p)
        e = val.ord_ideal(self.period)
        for kappa in self.constituents:
            if (val.ord_ideal(kappa) == e - 1 and self.constituents[kappa]
                    != self.constituents[kappa * p]):
                return kappa
        return None

    def minimum_period(self):
        """Return (minimal period, reindexed quasi-polynomial).

        The periods of a quasi-polynomial are exactly the multiples of the
        minimum period, so the primes are independent: each is stripped
        for as long as ``fibre_witness`` finds nothing.
        """
        q = self
        for p, e in self.period.factor():
            for _ in range(e):
                if q.fibre_witness(p) is not None:
                    break
                period = q.period / p
                q = QuasiPolynomial(
                    self.ring, period,
                    {k: q.constituents[k] for k in period.divisors()})
        return q.period, q

    def to_json_dict(self):
        return {
            "ring": ring_to_json(self.ring),
            "period": {
                "generators": [list(g) for g in self.period.basis()],
                "hnf": [list(r) for r in self.period.hnf],
                "factored": format_factored(self.period),
            },
            "constituents": [
                {
                    "kappa": [list(g) for g in k.basis()],
                    "kappa_hnf": [list(r) for r in k.hnf],
                    "kappa_factored": label,
                    "coeffs": list(self.constituents[k]),
                }
                for k, label in zip(self.constituents, self.divisor_labels())
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        ring = ring_from_json(data["ring"])
        period = Ideal.from_generators(
            ring, [tuple(g) for g in data["period"]["generators"]])
        consts = {}
        for entry in data["constituents"]:
            k = Ideal.from_generators(
                ring, [tuple(g) for g in entry["kappa"]])
            consts[k] = tuple(entry["coeffs"])
        return cls(ring, period, consts)

    def __repr__(self):
        parts = ", ".join(
            f"{k!r}: {poly_to_str(v)}" for k, v in self.constituents.items())
        return f"QuasiPolynomial(period={self.period!r}, {{{parts}}})"


def ring_to_json(ring):
    if ring.kind == "Z":
        return {"type": "Z"}
    return {"type": "quadratic", "d": ring.d}


def ring_from_json(data):
    from .ring import Ring
    if data.get("type") == "Z":
        return Ring("Z")
    if data.get("type") == "quadratic" and type(data.get("d")) is int:
        return Ring("quadratic", data["d"])
    raise ValueError(f"unknown ring literal: {data!r}")
