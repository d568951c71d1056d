"""Spans around the calls into each layer of ``sgcert``, installed from outside.

The tracer replaces every binding through which a call can reach one of the
functions in ``TARGETS``: the defining module's attribute, every name other
``sgcert`` modules imported from it, and ``Arrangement.dimension`` on the
class.  Each call records one span ``(name, start, end, parent, job)`` in
memory; self time and the per-layer metrics are computed from the spans
after a pass.  ``uninstall`` restores every binding, so untraced passes run
the original code.
"""

import gzip
import os
import sys
from collections import Counter
from time import perf_counter

# layer (module name) -> functions whose calls become spans
TARGETS = {
    "scaling": ("sample_admissible", "optimize", "spanning_model"),
    "dependency": ("is_dependent_triple", "find_special_spaces", "build_sg_system",
                   "validate_system", "map_and_clean", "prune_low_degree",
                   "read_system"),
    "certifier": ("certify", "decompose_step", "verify_certificate",
                  "separated_certificate"),
    "arrangement": ("read_arrangement", "pairwise_zero_intersection",
                    "tau_separated"),
    "linalg": ("rank", "orthonormalize", "spectral_norm"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)
BRANCHES = ("harvest", "scale-collapse", "entry", "separated")

_SELF_S = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns
           if (layer, fn) not in {("arrangement", "tau_separated"),
                                  ("linalg", "spectral_norm")}]
_CALLS = ["scaling.sample_admissible", "scaling.optimize",
          "dependency.is_dependent_triple", "dependency.find_special_spaces",
          "dependency.validate_system", "dependency.map_and_clean",
          "dependency.prune_low_degree", "certifier.decompose_step",
          "certifier.verify_certificate", "certifier.separated_certificate",
          "arrangement.pairwise_zero_intersection", "arrangement.dimension",
          "arrangement.tau_separated", "linalg.rank", "linalg.orthonormalize",
          "linalg.spectral_norm"]
_INCLUSIVE = ["scaling.sample_admissible", "scaling.optimize"]


def _self_s_name(span):
    # the CLI layer is the one function ``main``: its metrics are named ``cli.*``
    return "cli.self_s" if span == "cli.main" else f"{span}.self_s"


def _metric_units():
    units = {}
    for name in _SELF_S:
        units[_self_s_name(name)] = "s"
    for name in _CALLS:
        units[f"{name}.calls"] = "count"
    units["cli.jobs"] = "count"
    units["scaling.sample_admissible.trials"] = "count"
    units["scaling.sample_admissible.distinct_frac"] = "frac"
    units["scaling.sample_admissible.nonspanning_frac"] = "frac"
    units["scaling.optimize.iterations"] = "count"
    units["arrangement.read_arrangement.bytes"] = "B"
    for branch in BRANCHES:
        units[f"certifier.branch.{branch}"] = "count"
    for name in _INCLUSIVE:
        units[f"{name}.inclusive_frac"] = "frac"
    for layer in LAYERS:
        units[f"{layer}.inclusive_frac"] = "frac"
    units["bench.traced_pass_s"] = "s"
    units["bench.span_coverage_frac"] = "frac"
    units["bench.trace_overhead_frac"] = "frac"
    return units


# every per-layer metric the traced run reports, with its unit
METRIC_UNITS = _metric_units()


class Tracer:
    """In-memory span recorder plus the counters observed at span boundaries."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index or -1, job)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sgcert" or name.startswith("sgcert."))]
        linalg = sys.modules["sgcert.linalg"]
        self._orig_rank = linalg.rank
        observers = {
            "scaling.sample_admissible": self._observe_sample,
            "scaling.optimize": self._observe_optimize,
            "certifier.decompose_step": self._observe_decompose,
            "arrangement.read_arrangement": self._observe_read,
        }
        for layer, names in TARGETS.items():
            home = sys.modules[f"sgcert.{layer}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                span = f"{layer}.{fn_name}"
                wrapped = self._wrap(span, orig, observers.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        cls = sys.modules["sgcert.arrangement"].Arrangement
        orig = cls.__dict__["dimension"]
        self._undo.append((cls, "dimension", orig))
        cls.dimension = self._wrap("arrangement.dimension", orig, None)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters observed after a span closes ------------------------------

    def _observe_sample(self, args, kwargs, sample):
        arr = args[0] if args else kwargs["arr"]
        span_dim = self._orig_rank(arr.stacked_basis())
        dims = arr.dims()
        self.counts["trials"] += sample.trials
        self.counts["distinct"] += len({tuple(sorted(h)) for h in sample.sets})
        self.counts["nonspanning"] += sum(
            1 for h in sample.sets if sum(dims[i] for i in h) != span_dim)

    def _observe_optimize(self, args, kwargs, result):
        self.counts["iterations"] += result.iterations

    def _observe_decompose(self, args, kwargs, cert):
        self.counts[f"branch.{cert.params.get('branch', cert.kind)}"] += 1

    def _observe_read(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["read_bytes"] += os.path.getsize(path)

    # -- per pass -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.job = None

    def pass_metrics(self, pass_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)       # time covered by each span's children
        enclosing = [frozenset()] * len(spans)  # layers and names of a span and its ancestors
        self_s, calls, incl_name, incl_layer = Counter(), Counter(), Counter(), Counter()
        top_s = 0.0
        # a parent is recorded before its children, so one forward sweep sees
        # every ancestor; inclusive time counts only the outermost span of a
        # name or layer, so nested calls are not counted twice
        for i, (name, start, end, parent, _job) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            above = enclosing[parent] if parent >= 0 else frozenset()
            if parent >= 0:
                child[parent] += dur
            else:
                top_s += dur
            if layer not in above:
                incl_layer[layer] += dur
            if name not in above:
                incl_name[name] += dur
            enclosing[i] = above | {layer, name}
            calls[name] += 1
        for i, (name, start, end, _parent, _job) in enumerate(spans):
            self_s[name] += (end - start) - child[i]

        c = self.counts
        m = {}
        for name in _SELF_S:
            m[_self_s_name(name)] = self_s[name]
        for name in _CALLS:
            m[f"{name}.calls"] = calls[name]
        m["cli.jobs"] = calls["cli.main"]
        trials = c["trials"]
        m["scaling.sample_admissible.trials"] = trials
        m["scaling.sample_admissible.distinct_frac"] = c["distinct"] / trials if trials else 0.0
        m["scaling.sample_admissible.nonspanning_frac"] = (
            c["nonspanning"] / trials if trials else 0.0)
        m["scaling.optimize.iterations"] = c["iterations"]
        m["arrangement.read_arrangement.bytes"] = c["read_bytes"]
        for branch in BRANCHES:
            m[f"certifier.branch.{branch}"] = c[f"branch.{branch}"]
        for name in _INCLUSIVE:
            m[f"{name}.inclusive_frac"] = incl_name[name] / pass_s
        for layer in LAYERS:
            m[f"{layer}.inclusive_frac"] = incl_layer[layer] / pass_s
        m["bench.traced_pass_s"] = pass_s
        m["bench.span_coverage_frac"] = top_s / pass_s
        return m

    def write_spans(self, path):
        """Write the recorded spans as gzipped tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
