"""Spans and counters recorded from outside the library.

``install`` replaces every qmarginal module attribute bound to a listed
function with a wrapper, and wraps the listed class constructors and
methods.  A spanned call records (name, start, end, parent span, job id)
into typed arrays; a counted call only increments a counter.  ``metrics``
derives the per-layer metrics from the spans: self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array
from collections import Counter

# Functions whose calls are recorded as spans, by module.  A capitalised
# name is a class (its constructor); "Class.method" is a method.
SPANNED = {
    "tensor": ("haar_pure", "haar_unitary", "random_density",
               "random_mixed_with_spectrum", "pure_marginal", "partial_trace",
               "spectrum_of", "DensityMatrix"),
    "fermion": ("haar_fermion", "one_rdm", "one_rdm_mixed", "fermion_basis"),
    "spectra": ("spectrum", "renormalize", "Spectrum"),
    "catalog": ("check_family", "check_equivalence", "InequalityRecord.lhs"),
    "harness": ("mc_verify", "sample_bundle"),
    "chambers": ("cubicle_arrangement", "enumerate_chambers", "split_cone",
                 "extremal_edges", "rays_from_inequalities", "convex_hull",
                 "redundancy_filter"),
    "rational": ("lp_max", "rank", "solve_square", "solve_any", "nullspace",
                 "row_space_basis"),
    "schubert": ("generate_qubit_array", "enumerate_inequalities", "coeff_two",
                 "schubert_poly", "apply_chain"),
    "plethysm": ("decompose", "weight_multiplicities", "kostka",
                 "occurring_spectra", "inner_approximation"),
    "cli": ("main",),
}

# Hot kernels whose calls are only counted; their time stays in the caller.
COUNTED = {"rational": ("dot", "primitive")}
EIGVALSH = "tensor.eigvalsh"   # every numpy.linalg.eigvalsh call

# Modules charged with import time, as "<short name>.import_s".
IMPORT_MODULES = ("qmarginal", "cli", "tensor", "spectra", "fermion", "catalog",
                  "schubert", "chambers", "rational", "plethysm", "harness",
                  "systems")


def spanned_names() -> list:
    return [f"{mod}.{name}" for mod, names in SPANNED.items() for name in names]


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in spanned_names():
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs += [(f"{mod}.{name}.calls", "count", "lower")
              for mod, names in COUNTED.items() for name in names]
    specs += [
        (f"{EIGVALSH}.calls", "count", "lower"),
        ("chambers.split_cone.cut_ratio", "ratio", "higher"),
        ("chambers.split_cone.rays_out", "count", "lower"),
        ("chambers.redundancy_filter.kept_ratio", "ratio", "higher"),
    ]
    specs += [(f"{mod}.self_s", "s", "lower") for mod in SPANNED]
    specs += [(f"{mod}.import_s", "s", "lower") for mod in IMPORT_MODULES]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


class Tracer:
    """In-memory span store and counters for one traced pass."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.job_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job = 0
        self.counts = Counter()   # (job id, counter name) -> count

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, outcome=None):
        """Wrap ``fn`` so each call records a span; ``outcome(args, result)``
        may return extra counters to add."""
        nid = self._name_id(name)
        stack, clock = self.stack, time.perf_counter
        name_of, parent, job_of = self.name_of, self.parent, self.job_of
        start, end, counts = self.start, self.end, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None:
                for key, k in outcome(args, result):
                    counts[(self.job, key)] += k
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path, job_names):
        """Write spans and counters as one .npz file."""
        import numpy as np

        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                jobs=np.array(job_names),
                name=np.frombuffer(self.name_of, dtype=np.uint16),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                job=np.frombuffer(self.job_of, dtype=np.uint16),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                counter_job=np.array([j for j, _ in self.counts], dtype=np.int64),
                counter_name=np.array([n for _, n in self.counts]),
                counter_value=np.array(list(self.counts.values()), dtype=np.int64),
            )

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, derived from spans and counters."""
        import numpy as np

        name = np.frombuffer(self.name_of, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        nnames = len(self.names)
        calls = np.bincount(name, minlength=nnames)
        self_s = np.bincount(name, weights=self_time, minlength=nnames)
        totals = Counter()
        for (_, key), k in self.counts.items():
            totals[key] += k

        out = {}
        module_self = Counter()
        for full in spanned_names():
            nid = self.name_ids[full]
            out[f"{full}.calls"] = int(calls[nid])
            out[f"{full}.self_s"] = float(self_s[nid])
            module_self[full.split(".")[0]] += float(self_s[nid])
        for mod, names in COUNTED.items():
            for fname in names:
                out[f"{mod}.{fname}.calls"] = totals[f"{mod}.{fname}"]
        out[f"{EIGVALSH}.calls"] = totals[EIGVALSH]
        splits = out["chambers.split_cone.calls"]
        out["chambers.split_cone.cut_ratio"] = (
            totals["split_cone.cuts"] / splits if splits else 0.0)
        out["chambers.split_cone.rays_out"] = totals["split_cone.rays_out"]
        records_in = totals["redundancy_filter.in"]
        out["chambers.redundancy_filter.kept_ratio"] = (
            totals["redundancy_filter.kept"] / records_in if records_in else 0.0)
        for mod in SPANNED:
            out[f"{mod}.self_s"] = module_self[mod]
        return out


def _split_outcome(args, result):
    plus, minus = result
    sides = [c for c in (plus, minus) if c is not None]
    return [("split_cone.cuts", int(len(sides) == 2)),
            ("split_cone.rays_out", sum(len(c.rays) for c in sides))]


def _filter_outcome(args, result):
    return [("redundancy_filter.in", len(args[0])),
            ("redundancy_filter.kept", len(result))]


OUTCOMES = {
    "chambers.split_cone": _split_outcome,
    "chambers.redundancy_filter": _filter_outcome,
}


def _modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "qmarginal" or key.startswith("qmarginal."))]


def _rebind(modules, original, wrapper) -> int:
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap every listed function, constructor and method of the loaded
    qmarginal modules, and numpy.linalg.eigvalsh."""
    import numpy.linalg

    modules = _modules()
    by_name = {m.__name__: m for m in modules}
    for mod_name, names in SPANNED.items():
        mod = by_name[f"qmarginal.{mod_name}"]
        for name in names:
            full = f"{mod_name}.{name}"
            owner, _, method = name.partition(".")
            target = getattr(mod, owner)
            if isinstance(target, type):
                method = method or "__init__"
                setattr(target, method,
                        tracer.span(full, vars(target)[method], OUTCOMES.get(full)))
            elif not _rebind(modules, target,
                             tracer.span(full, target, OUTCOMES.get(full))):
                raise RuntimeError(f"no module attribute is bound to {full}")
    for mod_name, names in COUNTED.items():
        mod = by_name[f"qmarginal.{mod_name}"]
        for name in names:
            original = getattr(mod, name)
            _rebind(modules, original, tracer.count(f"{mod_name}.{name}", original))
    numpy.linalg.eigvalsh = tracer.count(EIGVALSH, numpy.linalg.eigvalsh)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr_text: str) -> dict:
    """Per-module import seconds from ``python -X importtime`` output.

    A non-qmarginal import is charged to the nearest qmarginal module above
    it in the import tree; top-level imports that finish after the package
    came from the ``-m qmarginal.cli`` body and are charged to ``cli``.
    Imports of the interpreter's own start-up are not charged.
    """
    pending = {}   # depth -> finished nodes waiting for their parent
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        node = (m.group(4), int(m.group(1)), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = Counter()

    def charge(node, owner):
        name, self_us, children = node
        if name == "qmarginal" or name.startswith("qmarginal."):
            owner = name.rpartition(".")[2]
        if owner is not None:
            totals[owner] += self_us / 1e6
        for c in children:
            charge(c, owner)

    seen_package = False
    for node in pending.get(0, []):
        seen_package = seen_package or node[0].startswith("qmarginal")
        charge(node, "cli" if seen_package else None)
    return {f"{mod}.import_s": totals[mod] for mod in IMPORT_MODULES}
