"""Self-test of the benchmark's checks: planted faults must fail operations.

    python3 perfbench/selftest.py

Runs small versions of random_subset and oracle_sweep and scores them as
run.py does:

* as they are: no failures besides the oracle's known int64 wrap, and
  correct stays true;
* with one coefficient of one constituent changed: exactly one more
  failed operation, and correct turns false;
* with the oracle counting one point too many at one ideal of an ordinary
  case: exactly one more failed operation, and correct turns false.

Exits with 0 when every planted fault was caught, 1 otherwise.
"""

import dataclasses
import random
import sys

import run
import workloads


def scored(workload, dd, outputs):
    verdicts = workload.check(dd, outputs)
    attempted, failed, unexpected = run.score([outputs], verdicts)
    return failed, unexpected == 0


def plant_constituent(dd, q):
    """q with f^kappa + 1 for the first kappa the brute-force check covers."""
    ell = len(next(iter(q.constituents.values()))) - 1
    kappa = next(k for k in q.divisors() if not k.is_unit_ideal()
                 and k.norm ** ell <= workloads.CHECK_POINTS)
    consts = dict(q.constituents)
    consts[kappa] = (consts[kappa][0] + 1,) + consts[kappa][1:]
    return dd.quasipoly.QuasiPolynomial(q.ring, q.period, consts)


def main():
    sys.path.insert(0, str(run.SRC))
    dd = run.import_dedarr()
    results = []

    def expect(name, got, want):
        results.append(got == want)
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: "
              f"(failed, correct) = {got}, expected {want}")

    # random_subset: the Z[i] ell=3 slot has a non-unit constituent in reach
    cases = workloads.subset_cases(dd, random.Random(1))
    subset = workloads.RandomSubset([c for c in cases
                                     if c.label.startswith("ZI ell=3")])
    outputs = subset.run_round(dd)
    expect("random_subset as computed", scored(subset, dd, outputs), (0, True))
    planted = [plant_constituent(dd, outputs[0])] + outputs[1:]
    expect("random_subset, one constituent planted wrong",
           scored(subset, dd, planted), (1, False))

    # oracle_sweep: gauss4 up to norm 20 plus the big-entry cases
    cases = workloads.oracle_cases(dd, random.Random(1))
    small = [dataclasses.replace(cases[0], bound=20)] + [
        c for c in cases if c.known_fault]
    sweep = workloads.OracleSweep(small)
    known = sum(len(c.ideals) for c in small if c.known_fault)
    expect("oracle_sweep as computed",
           scored(sweep, dd, sweep.run_round(dd)), (known, True))

    target_case = small[0]
    target = dd.ring.Ideal.principal(target_case.A.ring, (3, 0))
    original = dd.oracle.brute_count_complement

    def off_by_one(A, a, *args):
        count = original(A, a, *args)
        return count + 1 if A is target_case.A and a == target else count

    dd.oracle.brute_count_complement = off_by_one
    try:
        outputs = sweep.run_round(dd)
    finally:
        dd.oracle.brute_count_complement = original
    expect("oracle_sweep, one oracle count planted wrong",
           scored(sweep, dd, outputs), (known + 1, False))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
