"""Command-line interface.

Arrangement files are JSON objects
    {"ring": {"type": "Z"} | {"type": "quadratic", "d": INT},
     "name": STRING?,                      -- optional
     "columns": [[ELEM x ell] x n]}        -- ELEM is INT over Z, [a, b] else
with [a, b] meaning a + b*w.  Ideals on the command line are JSON lists of
element literals, e.g. --ideal "[[2,0],[1,-1]]".

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 internal
certificate failure.
"""

import argparse
import json
import sys
import time

from . import charquasi as cq
from . import layers as ly
from . import oracle
from . import rootsys
from .errors import (BudgetError, BudgetExceeded, InputError,
                     InternalCheckError)
from .quasipoly import poly_to_str
from .ring import Ideal, format_factored, ideals_of_norm_up_to

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_arrangement(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer literal past Python's
        # digit limit, which json reports as a plain ValueError
        raise InputError(f"{path}: {exc}") from None
    return cq.arrangement_from_json(data)


def _parse_ideal(ring, text):
    gens = cq.parse_element_list(ring, text)
    return Ideal.from_generators(ring, gens)


def _ideal_str(ideal):
    return f"{format_factored(ideal)} hnf={[list(r) for r in ideal.hnf]}"


def _print_quasi_polynomial(q, as_json, timing_ms, out):
    if as_json:
        payload = q.to_json_dict()
        payload["timing_ms"] = timing_ms
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    out.write(f"period: {_ideal_str(q.period)}\n")
    for k, label in zip(q.divisors(), q.divisor_labels()):
        out.write(f"f[{label}] = {poly_to_str(q.constituents[k])}\n")


def cmd_period(args, out):
    A = _load_arrangement(args.file)
    rho = cq.lcm_period(A)
    out.write(f"period: {_ideal_str(rho)}\n")
    return EXIT_OK


def cmd_constituents(args, out):
    A = _load_arrangement(args.file)
    start = time.monotonic()
    q = cq.constituents(A, path=args.path)
    ms = int((time.monotonic() - start) * 1000)
    _print_quasi_polynomial(q, args.json, ms, out)
    return EXIT_OK


def cmd_eval(args, out):
    A = _load_arrangement(args.file)
    a = _parse_ideal(A.ring, args.ideal)
    q = cq.constituents(A)
    out.write(f"{q.evaluate(a)}\n")
    return EXIT_OK


def cmd_layers(args, out):
    A = _load_arrangement(args.file)
    P = ly.layer_poset(A)
    kappa = None
    if args.kappa:
        kappa = _parse_ideal(A.ring, args.kappa)
    chosen = (P.kappa_subposet(kappa) if kappa is not None
              else range(len(P.layers)))
    # the diagram may exceed its budget, or its file be unwritable: fail
    # before printing anything
    text = P.hasse_dot(kappa) if args.dot is not None else None
    if args.dot not in (None, "-"):
        try:
            with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from None
    by_dim = {}
    for i in chosen:
        z = P.layers[i]
        by_dim[z.dim] = by_dim.get(z.dim, 0) + 1
    out.write(f"period: {_ideal_str(P.period)}\n")
    out.write(f"layers: {sum(by_dim.values())}\n")
    for dim in sorted(by_dim, reverse=True):
        out.write(f"  dim {dim}: {by_dim[dim]}\n")
    for i in chosen:
        z = P.layers[i]
        out.write(f"  {P.representative_string(z)} | "
                  f"{format_factored(z.tau)} | mu={z.mu} | dim={z.dim}\n")
    if args.dot == "-":
        out.write(text)
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _default_verify_bound(ring, ell):
    """The largest norm bound whose ideals' grids fit the oracle budget,
    and every ideal up to a norm past it, sorted by (norm, HNF).

    A grid at the ideal a holds N(a)^ell points; the bound admits ideals
    by increasing norm while the total stays within the budget.  Over Z
    the bound is near ((ell + 1) * budget)^(1 / (ell + 1)), so twice that
    is one enumeration there and on most quadratic rings; past it the cap
    doubles.
    """
    cap = 2 * round(((ell + 1) * oracle.DEFAULT_BUDGET) ** (1 / (ell + 1)))
    while True:
        total = 0
        ideals = ideals_of_norm_up_to(ring, cap)
        for a in ideals:
            total += a.norm ** ell
            if total > oracle.DEFAULT_BUDGET:
                return a.norm - 1, ideals
        cap *= 2


def cmd_verify(args, out):
    A = _load_arrangement(args.file)
    fits, ideals = _default_verify_bound(A.ring, A.ell)
    bound = fits if args.max_norm is None else args.max_norm
    if bound > fits:
        raise BudgetExceeded(
            f"--max-norm {bound}: the largest bound within the oracle's "
            f"budget of {oracle.DEFAULT_BUDGET} grid points is {fits}")
    q = cq.constituents(A)
    ideals = [a for a in ideals if a.norm <= bound]
    failures = 0
    for a in ideals:
        expect = q.evaluate(a)
        got = oracle.brute_count_complement(A, a)
        status = "ok" if expect == got else "MISMATCH"
        if expect != got:
            failures += 1
        out.write(f"N={a.norm} {format_factored(a)}: "
                  f"eval={expect} oracle={got} {status}\n")
    out.write(f"verified {len(ideals)} ideals, {failures} mismatches\n")
    if failures:
        raise InternalCheckError(f"{failures} oracle mismatches")
    return EXIT_OK


def cmd_minimality(args, out):
    A = _load_arrangement(args.file)
    cert = cq.minimality_certificate(A)
    out.write(f"period: {_ideal_str(cert.period)}\n")
    out.write(f"minimum: {_ideal_str(cert.minimum)}\n")
    for r, ideal in cert.per_dimension:
        out.write(f"dimension {r}: lcm of annihilators = "
                  f"{format_factored(ideal)}\n")
    for p, (k1, k2) in sorted(cert.witnesses.items(),
                              key=lambda kv: kv[0].sort_key()):
        out.write(f"witness for {format_factored(p)}: "
                  f"f[{format_factored(k1)}] != f[{format_factored(k2)}]\n")
    return EXIT_OK


def cmd_localize(args, out):
    A = _load_arrangement(args.file)
    gens = cq.parse_element_list(A.ring, args.invert)
    view, q = cq.localize(A, gens)
    inverted = ", ".join(format_factored(p) for p in view.inverted_primes)
    out.write(f"inverted primes: {inverted or '(none)'}\n")
    _print_quasi_polynomial(q, args.json, 0, out)
    return EXIT_OK


def cmd_rootsystem(args, out):
    data = rootsys.builtin(args.name)
    if args.verify:
        ok = rootsys.verify_transcription(args.name)
        out.write(f"{data.name}: rank {data.rank}, {data.n_positive} "
                  f"positive roots, coxeter number {data.coxeter_number}\n")
        out.write("transcription check: "
                  f"{'ok' if ok else 'FAILED'}\n")
        if not ok:
            raise InternalCheckError("root data does not match generation")
        return EXIT_OK
    if args.constituents:
        start = time.monotonic()
        q = cq.constituents(data.arrangement)
        ms = int((time.monotonic() - start) * 1000)
        _print_quasi_polynomial(q, args.json, ms, out)
        return EXIT_OK
    out.write(f"{data.name}: rank {data.rank}, {data.n_positive} positive "
              f"roots, coxeter number {data.coxeter_number}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dedarr",
        description="characteristic quasi-polynomials of integral "
                    "arrangements over Z and quadratic orders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", help="LCM-period of an arrangement")
    p.add_argument("file")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("constituents", help="period and all constituents")
    p.add_argument("file")
    p.add_argument("--path", choices=["auto", "subset", "layers"],
                   default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constituents)

    p = sub.add_parser("eval", help="evaluate at an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, metavar="GENS")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("layers", help="poset of layers")
    p.add_argument("file")
    p.add_argument("--kappa", metavar="GENS")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("verify", help="oracle sweep over small ideals")
    p.add_argument("file")
    p.add_argument("--max-norm", type=_positive_int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimality", help="minimum-period certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_minimality)

    p = sub.add_parser("localize", help="strip primes meeting a "
                                        "multiplicative set")
    p.add_argument("file")
    p.add_argument("--invert", required=True, metavar="ELEMS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("rootsystem", help="built-in H2/H3/H4 data")
    p.add_argument("name")
    p.add_argument("--constituents", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rootsystem)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
