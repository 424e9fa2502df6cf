"""Reference trace of the full H4 pipeline, outside the workloads.

    python3 perfbench/h4_reference.py

Runs constituents(H4, path="layers") once untraced and once traced, prints
the wall times and the per-stage self times and counts (the stages of the
ROADMAP baseline table), and checks the unit constituent against
(t-1)(t-11)(t-19)(t-29), from H4's Coxeter exponents.  Takes several
minutes; exits with 1 when the check fails.
"""

import sys
import time

import run
import tracing
import workloads

ROWS = [
    ("lcm_period", "charquasi.lcm_period.s", "charquasi.lcm_period.hnf_calls",
     "hnf calls"),
    ("FlatLattice", "layers.FlatLattice.s", "layers.flats", "flats"),
    ("layer_poset (self)", "layers.refine.s", "layers.refine.snf_calls",
     "snf calls"),
    ("fill_mobius", "layers.fill_mobius.s", "layers.layers", "layers"),
    ("quasi_polynomial (assembly)", "layers.quasi_polynomial.s", None, None),
    ("Ideal.factor", "ring.factor.s", "ring.factor.calls", "calls"),
    ("constituents glue", None, None, None),
]


def main():
    sys.path.insert(0, str(run.SRC))
    dd = run.import_dedarr()
    A = dd.rootsys.builtin("H4").arrangement

    t0 = time.perf_counter()
    q = dd.charquasi.constituents(A, path="layers")
    plain = time.perf_counter() - t0
    print(f"untraced: {plain:.2f} s")

    tracer = tracing.Tracer(dd)
    with tracer:
        t0 = time.perf_counter()
        traced_q = dd.charquasi.constituents(A, path="layers")
        traced = time.perf_counter() - t0
    glue = tracer.self_s["charquasi.constituents"]
    hnf_s = tracer.total_s["zlinalg.hnf"]
    hnf_calls = tracer.calls["zlinalg.hnf"]
    values = tracer.take()
    overhead = 100 * (traced / plain - 1)
    print(f"traced:   {traced:.2f} s (overhead {overhead:.0f}%)")
    print(f"{'stage':30s} {'self s':>8s}  count")
    for label, time_key, count_key, count_label in ROWS:
        secs = values[time_key] if time_key else glue
        count = f"{values[count_key]} {count_label}" if count_key else ""
        print(f"{label:30s} {secs:8.2f}  {count}")
    print(f"{'(zlinalg.hnf, inside the above)':30s} {hnf_s:8.2f}  "
          f"{hnf_calls} calls")

    expected = workloads.poly_from_roots(workloads.H4_EXPONENTS)
    unit = dd.ring.Ideal.unit(A.ring)
    ok = q.constituents[unit] == expected and traced_q == q
    print(f"period {q.period!r}, {len(q.divisors())} constituents; "
          f"f^<1> = (t-1)(t-11)(t-19)(t-29): {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
