"""Stage-level benchmark of dedarr: one workload per run, one JSON result.

    python3 perfbench/run.py --workload weyl_layers --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; dedarr is imported from its src/.  The
run sets up (imports numpy and dedarr, builds the workload's inputs from
the seed), runs whole rounds of the workload until --seconds have passed,
checks the first round's outputs apart from the code under test, and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (solve_s, setup_s,
peak_rss_mb); with --trace 1 untraced and traced rounds alternate and the
metrics are the per-layer ones of tracing.METRICS.  See README.md.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

# one thread: keep numpy's BLAS pool from starting worker threads (the
# oracle's integer arithmetic needs none)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("charquasi", "layers", "ring", "zlinalg", "quasipoly", "oracle",
           "rootsys")
SETUP_REPEATS = 5


def import_dedarr():
    """A fresh import of dedarr from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "dedarr" or m.startswith("dedarr.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dedarr")
    if Path(pkg.__file__).resolve().parent != SRC / "dedarr":
        raise ImportError(f"dedarr was imported from {pkg.__file__}")
    return SimpleNamespace(**{m: importlib.import_module(f"dedarr.{m}")
                              for m in MODULES})


def set_up(name, seed):
    """Median over SETUP_REPEATS fresh imports and input builds, plus numpy."""
    t0 = time.perf_counter()
    importlib.import_module("numpy")
    numpy_s = time.perf_counter() - t0
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dd = import_dedarr()
        workload = workloads.build(dd, name, seed)
        times.append(time.perf_counter() - t0)
    return dd, workload, numpy_s + statistics.median(times)


def timed_round(workload, dd):
    t0 = time.perf_counter()
    out = workload.run_round(dd)
    return out, time.perf_counter() - t0


def score(outputs, verdicts):
    """(attempted, failed, unexpected) over all rounds.

    An operation fails when it raised or failed a check in the first
    round, or when its output differs from the first round's.  A failure
    is expected only for a known fault whose recount confirmed it.
    """
    attempted = failed = unexpected = 0
    first = outputs[0]
    for out in outputs:
        attempted += max(len(out), len(first))
        extra = abs(len(out) - len(first))
        failed += extra
        unexpected += extra
        for item, ref, (ok, known) in zip(out, first, verdicts):
            same = item is ref or item == ref
            if not (ok and same):
                failed += 1
                if not (known and same):
                    unexpected += 1
    return attempted, failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dedarr" / "__init__.py").is_file():
        print(f"error: no dedarr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    dd, workload, setup_s = set_up(args.workload, args.seed)

    outputs, plain, traced, layer_rounds = [], [], [], []
    tracer = tracing.Tracer(dd) if args.trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, dt = timed_round(workload, dd)
        outputs.append(out)
        plain.append(dt)
        if tracer is not None:
            with tracer:
                out, dt = timed_round(workload, dd)
            outputs.append(out)
            traced.append(dt)
            layer_rounds.append(tracer.take())
        # stop before a round that would end past --seconds
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    t0 = time.perf_counter()
    verdicts = workload.check(dd, outputs[0])
    check_s = time.perf_counter() - t0
    attempted, failed, unexpected = score(outputs, verdicts)
    for label, problems in workload.problems.items():
        for p in problems[:3]:
            print(f"check failed: {label}: {p}", file=sys.stderr)

    if tracer is None:
        values = {
            "solve_s": statistics.mean(plain),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        units = tracing.METRICS
        values = {}
        for name, unit in units.items():
            if name == "trace.overhead_pct":
                continue
            per_round = [r[name] for r in layer_rounds]
            if unit == "count" and len(set(per_round)) > 1:
                print(f"warning: {name} differs between rounds: {per_round}",
                      file=sys.stderr)
            values[name] = statistics.mean(per_round)
        values["trace.overhead_pct"] = 100 * (
            statistics.mean(traced) / statistics.mean(plain) - 1)
    print(f"{args.workload}: {attempted} operations, checks {check_s:.1f} s; "
          f"untraced rounds {' '.join(f'{t:.3f}' for t in plain)} s; "
          f"traced rounds {' '.join(f'{t:.3f}' for t in traced)} s",
          file=sys.stderr)
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
