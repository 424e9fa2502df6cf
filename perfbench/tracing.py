"""Per-layer spans and counters, recorded from outside the library.

``Tracer`` replaces the module or class attributes that dedarr's callers
look up at call time with timing wrappers, and puts the originals back on
exit; nothing under src/ changes.

Two kinds of wrapper:

* a stage span (constituents, lcm_period, FlatLattice, layer_poset,
  fill_mobius, quasi_polynomial, Ideal.factor, ideals_of_norm_up_to,
  QuasiPolynomial.evaluate, brute_count_complement) records its self
  time: its duration minus that of the stage spans nested in it;
* a kernel span (zlinalg.hnf, zlinalg.snf_transforms) records its calls
  and total time, and does not subtract from the stage around it, so a
  stage's self time includes the linear algebra it asks for.  Neither
  kernel calls itself or the other, so the totals count no time twice.
"""

import time
from collections import Counter

# (module, class or None, attribute, span name)
STAGES = [
    ("charquasi", None, "lcm_period", "charquasi.lcm_period"),
    ("layers", "FlatLattice", "__init__", "layers.FlatLattice"),
    ("layers", None, "layer_poset", "layers.refine"),
    ("layers", "LayerPoset", "fill_mobius", "layers.fill_mobius"),
    ("layers", "LayerPoset", "quasi_polynomial", "layers.quasi_polynomial"),
    ("ring", "Ideal", "factor", "ring.factor"),
    ("ring", None, "ideals_of_norm_up_to", "ring.ideals_of_norm_up_to"),
    ("quasipoly", "QuasiPolynomial", "evaluate", "quasipoly.evaluate"),
    ("oracle", None, "brute_count_complement",
     "oracle.brute_count_complement"),
]
KERNELS = [
    ("zlinalg", None, "hnf", "zlinalg.hnf"),
    ("zlinalg", None, "snf_transforms", "zlinalg.snf_transforms"),
]
# kernel calls counted while a stage is open: (stage, kernel, metric)
INSIDE = [
    ("charquasi.lcm_period", "zlinalg.hnf", "charquasi.lcm_period.hnf_calls"),
    ("layers.refine", "zlinalg.snf_transforms", "layers.refine.snf_calls"),
]

# Per-layer metrics: name -> unit.  Times are per round.
METRICS = {
    "charquasi.lcm_period.s": "s",
    "charquasi.lcm_period.hnf_calls": "count",
    "charquasi.subset_walk.s": "s",
    "layers.FlatLattice.s": "s",
    "layers.flats": "count",
    "layers.refine.s": "s",
    "layers.refine.snf_calls": "count",
    "layers.layers": "count",
    "layers.refine.layers_per_snf": "ratio",
    "layers.fill_mobius.s": "s",
    "layers.quasi_polynomial.s": "s",
    "ring.factor.s": "s",
    "ring.factor.calls": "count",
    "ring.ideals_of_norm_up_to.s": "s",
    "zlinalg.hnf.s": "s",
    "zlinalg.hnf.calls": "count",
    "zlinalg.snf_transforms.s": "s",
    "quasipoly.evaluate.s": "s",
    "quasipoly.evaluate.calls": "count",
    "oracle.brute_count_complement.s": "s",
    "oracle.points": "count",
    "oracle.points_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Patch dedarr while open; ``take()`` returns and resets the totals."""

    def __init__(self, dd):
        self.dd = dd
        self._saved = []
        self._stack = []          # child stage time of each open stage
        self._open = Counter()    # open depth per stage name
        self.reset()

    def reset(self):
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    # -- patching --

    def __enter__(self):
        for mod, cls, attr, name in STAGES:
            self._patch(mod, cls, attr, self._stage(name, self._after(name)))
        self._patch("charquasi", None, "constituents",
                    self._constituents_wrapper)
        for mod, cls, attr, name in KERNELS:
            self._patch(mod, cls, attr, self._kernel(name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, mod, cls, attr, make):
        owner = getattr(self.dd, mod)
        if cls is not None:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers --

    def _constituents_wrapper(self, fn):
        # the subset walk is what constituents(path="subset") does besides
        # lcm_period and Ideal.factor; on the layer path the same span
        # only holds the glue between stages
        walk = self._stage("charquasi.subset_walk")(fn)
        glue = self._stage("charquasi.constituents")(fn)

        def constituents(A, path="auto"):
            return (walk if path == "subset" else glue)(A, path=path)
        return constituents

    def _stage(self, name, after=None):
        stack, is_open = self._stack, self._open
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                is_open[name] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    stack.pop()
                    is_open[name] -= 1
                    self.self_s[name] += d - frame[0]
                    self.calls[name] += 1
                    if stack:
                        stack[-1][0] += d
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _after(self, name):
        if name == "layers.FlatLattice":
            def after(args, result):
                self.counts["layers.flats"] += len(args[0].flats)
        elif name == "layers.refine":
            def after(args, result):
                self.counts["layers.layers"] += len(result.layers)
        elif name == "oracle.brute_count_complement":
            def after(args, result):
                A, a = args[0], args[1]
                self.counts["oracle.points"] += a.norm ** A.ell
        else:
            after = None
        return after

    def _kernel(self, name):
        inside = [(stage, metric) for stage, kernel, metric in INSIDE
                  if kernel == name]
        is_open = self._open
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                for stage, metric in inside:
                    if is_open[stage]:
                        self.counts[metric] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.total_s[name] += clock() - t0
            return wrapper
        return make

    # -- results --

    def take(self):
        """This round's per-layer values (without the overhead), then reset."""
        s, c = self.self_s, self.counts
        snf = c["layers.refine.snf_calls"]
        brute_s = s["oracle.brute_count_complement"]
        values = {
            "charquasi.lcm_period.s": s["charquasi.lcm_period"],
            "charquasi.lcm_period.hnf_calls":
                c["charquasi.lcm_period.hnf_calls"],
            "charquasi.subset_walk.s": s["charquasi.subset_walk"],
            "layers.FlatLattice.s": s["layers.FlatLattice"],
            "layers.flats": c["layers.flats"],
            "layers.refine.s": s["layers.refine"],
            "layers.refine.snf_calls": snf,
            "layers.layers": c["layers.layers"],
            "layers.refine.layers_per_snf":
                c["layers.layers"] / snf if snf else 0.0,
            "layers.fill_mobius.s": s["layers.fill_mobius"],
            "layers.quasi_polynomial.s": s["layers.quasi_polynomial"],
            "ring.factor.s": s["ring.factor"],
            "ring.factor.calls": self.calls["ring.factor"],
            "ring.ideals_of_norm_up_to.s": s["ring.ideals_of_norm_up_to"],
            "zlinalg.hnf.s": self.total_s["zlinalg.hnf"],
            "zlinalg.hnf.calls": self.calls["zlinalg.hnf"],
            "zlinalg.snf_transforms.s": self.total_s["zlinalg.snf_transforms"],
            "quasipoly.evaluate.s": s["quasipoly.evaluate"],
            "quasipoly.evaluate.calls": self.calls["quasipoly.evaluate"],
            "oracle.brute_count_complement.s": brute_s,
            "oracle.points": c["oracle.points"],
            "oracle.points_per_s":
                c["oracle.points"] / brute_s if brute_s else 0.0,
        }
        self.reset()
        return values
