"""In-memory span tracer that instruments the somgmm package from outside.

Every module-level binding of a public somgmm function is replaced by a
wrapper that records one span (name, start, end, parent) per call; re-imports
such as ``trainer.build_kernel`` or ``cli.train_run`` share the wrapper of
the function they alias, so a call is attributed to the defining module
whichever name it went through.  The CLI's command handlers become
``cli.<command>`` spans and ``DataSet`` construction a ``model.DataSet`` span.

Spans are stored in flat arrays while the run executes and folded into
per-name totals only when the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from collections import defaultdict

# Modules instrumented, by their name inside the somgmm package ("" is the
# package namespace itself, which re-exports the public API).
MODULES = ("", "backend", "_core_py", "model", "topology", "trainer",
           "sombridge", "inference", "io", "cli")

# Span prefix for functions defined in a kernel implementation module.
LAYER_ALIASES = {"_core_py": "backend", "_core": "backend"}

ROOT = -1


class Tracer:
    """Collects spans in parallel arrays; one instance per traced phase."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counters = defaultdict(int)
        self._stack = [ROOT]

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(counters, args, kwargs)`` runs after the span has closed and
        adds the call's work counts (rows, bytes) to ``counters``.
        """
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if count is not None:
                    count(counters, args, kwargs)

        traced.__wrapped_by_tracer__ = True
        return traced

    def spans(self):
        """All recorded spans as (name, start_ns, end_ns, parent_index)."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_ids, self.starts, self.ends, self.parents)]

    def summary(self):
        """Per span name: number of calls and total self time in seconds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for nid, st in zip(self.name_ids, selfs):
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += st
        return {name: {"calls": calls[name], "self_s": self_ns[name] * 1e-9}
                for name in calls}

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, s, e, p in self.spans():
                fh.write(json.dumps({"name": name, "start_ns": s, "end_ns": e,
                                     "parent": p}) + "\n")


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the union of its children's
    intervals, each clipped to the parent's interval.

    Spans may be given in any order; ``parents[i]`` is the index of span i's
    parent or ``ROOT``.
    """
    n = len(starts)
    covered = [0] * n
    frontier = list(starts)  # end of the children's coverage merged so far
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p == ROOT:
            continue
        lo = max(starts[i], frontier[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [max(0, ends[i] - starts[i] - covered[i]) for i in range(n)]


# ---------------------------------------------------------------------------
# Work counters recorded at call boundaries

def _count_log_joints(counters, args, kwargs):
    weights, centroids, precision_roots, samples = args
    n = samples.shape[0]
    k, d = centroids.shape
    counters["backend.log_joints.rows"] += n
    counters["backend.log_joints.elems"] += n * k * d


def _count_file(name, pos):
    def count(counters, args, kwargs):
        path = args[pos] if len(args) > pos else None
        if path is not None and os.path.exists(path):
            counters[name + ".bytes"] += os.path.getsize(path)
    return count


COUNTERS = {
    "backend.log_joints": _count_log_joints,
    "io.load_idx": _count_file("io.load_idx", 0),
    "io.save_csv": _count_file("io.save_csv", 1),
    "io.save_checkpoint": _count_file("io.save_checkpoint", 0),
    "io.load_checkpoint": _count_file("io.load_checkpoint", 0),
}


def span_name(obj):
    """Span name for a module attribute, or None when it is not traced.

    Public functions defined in somgmm are traced under their defining
    module; the CLI's ``_cmd_<command>`` handlers become ``cli.<command>``.
    """
    if not inspect.isroutine(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("somgmm."):
        return None
    layer = module.split(".", 1)[1]
    layer = LAYER_ALIASES.get(layer, layer)
    fname = obj.__name__
    if layer == "cli" and fname.startswith("_cmd_"):
        return "cli." + fname[len("_cmd_"):].replace("_", "-")
    if fname.startswith("_"):
        return None
    return f"{layer}.{fname}"


class Instrumentation:
    """Context manager that swaps the traced wrappers into the package and
    restores every original binding on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._restore = []

    def __enter__(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module("somgmm" + (short and "." + short))
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__wrapped_by_tracer__", False):
                    raise RuntimeError(f"{mod.__name__}.{attr} is already traced")
                name = span_name(obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.tracer.wrap(obj, name, COUNTERS.get(name))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        # Every binding of DataSet is the same class object, so patching its
        # post-init hook traces construction through all of them.
        from somgmm.model import DataSet
        post_init = DataSet.__dict__["__post_init__"]
        self._restore.append((DataSet, "__post_init__", post_init))
        DataSet.__post_init__ = self.tracer.wrap(post_init, "model.DataSet")
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        return False
