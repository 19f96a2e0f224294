"""In-memory span tracer for the benchmark's traced pass.

The tracer replaces each public library function listed in
:data:`TARGETS` by a wrapper at every module attribute that callers
resolve it through (``from .qr import orthogonalize_column`` makes
``wextrap.extrapolate.orthogonalize_column`` a second binding of the
same function), and methods on their class.  Each call records a span:
name, start, end, parent span and the job it ran under.  Nothing in the
library is edited; :meth:`Tracer.uninstall` restores every binding.

A target missing from the library (renamed or inlined) is skipped, so
its counts read 0 instead of breaking the trace.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, attribute, span name) of every wrapped function
TARGETS = (
    ("weights", "WeightOperator.apply", "weights.apply"),
    ("weights", "WeightOperator.inner", "weights.inner"),
    ("weights", "WeightOperator.norm", "weights.norm"),
    ("qr", "orthogonalize_column", "qr.orthogonalize_column"),
    ("qr", "append_column", "qr.append_column"),
    ("qr", "mgs_factorize", "qr.mgs_factorize"),
    ("extrapolate", "run", "extrapolate.run"),
    ("extrapolate", "mpe_coefficients", "extrapolate.mpe_coefficients"),
    ("extrapolate", "rre_coefficients", "extrapolate.rre_coefficients"),
    ("extrapolate", "assemble", "extrapolate.assemble"),
    ("extrapolate", "history_to_dict", "extrapolate.history_to_dict"),
    ("relations", "verify_history", "relations.verify_history"),
    ("relations", "check_master_identity", "relations.check_master_identity"),
    ("relations", "check_stagnation", "relations.check_stagnation"),
    ("relations", "check_coupling", "relations.check_coupling"),
    ("relations", "check_corollaries", "relations.check_corollaries"),
    ("relations", "peak_plateau_report", "relations.peak_plateau_report"),
    ("mmio", "save_history", "mmio.save_history"),
    ("mmio", "load_history", "mmio.load_history"),
    ("mmio", "read_matrix", "mmio.read_matrix"),
    ("mmio", "read_vector", "mmio.read_vector"),
    ("krylov", "equivalence_check", "krylov.equivalence_check"),
    ("krylov", "fom_solve", "krylov.fom_solve"),
    ("krylov", "gmr_solve", "krylov.gmr_solve"),
    ("problems", "iterate", "problems.iterate"),
    ("problems", "FixedPointProblem.linear", "problems.linear"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_accelerate", "cli.accelerate"),
    ("cli", "cmd_verify", "cli.verify_relations"),
)

PACKAGE = "wextrap"


class Tracer:
    """Spans kept in flat arrays; span i's parent has a smaller index."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = ["job"]  # name table; id 0 marks a job's root span
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.jobs = []  # (job name, root index)
        self._stack = [-1]
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def job(self, name: str):
        """Root span of one job execution."""
        idx = self._open(0)
        self.jobs.append((name, idx))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            idx = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each binding callers resolve."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for module_name, attr, span in self.targets:
            self._id(span)  # a target that never fires still reads 0
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(fn_name)
                if isinstance(raw, classmethod):
                    self._patch(cls, fn_name,
                                classmethod(self._wrap(span, raw.__func__)))
                elif callable(raw):
                    self._patch(cls, fn_name, self._wrap(span, raw))
                continue
            fn = getattr(owner, fn_name, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(span, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)

    def _patch(self, obj, key, value) -> None:
        self._patches.append((obj, key, obj.__dict__[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------

    def job_spans(self, root: int, stop: int):
        """Arrays (name ids, durations ns, self times ns, local parent
        indices) of the spans root..stop-1 of one job execution."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[root:stop]
        start = np.frombuffer(self.start, dtype=np.int64)[root:stop]
        end = np.frombuffer(self.end, dtype=np.int64)[root:stop]
        parent = np.frombuffer(self.parent, dtype=np.int32)[root:stop] - root
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return names, dur, dur - child, parent

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start, end, parent, job."""
        bounds = [idx for _, idx in self.jobs] + [len(self.start)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,job\n")
            for (job, root), stop in zip(self.jobs, bounds[1:]):
                for i in range(root, stop):
                    fh.write(f"{i},{self.names[self.name_id[i]]},"
                             f"{self.start[i]},{self.end[i]},"
                             f"{self.parent[i]},{job}\n")


def layer_stats(tracer: Tracer, root: int, stop: int) -> dict:
    """Per-function and per-module statistics of one job execution.

    Keys: ``<module>.<function>.calls``, ``.s`` (inclusive seconds) and
    ``.self_s``; ``<module>.self_s``; ``weights.applications`` (weight
    calls not made from inside another weight call);
    ``relations.weights_calls`` (those made under a relations span);
    ``job.s`` and ``spans.self_s`` (self times of all library spans).
    """
    names, dur, self_ns, parent = tracer.job_spans(root, stop)
    size = len(tracer.names)
    calls = np.bincount(names, minlength=size)
    incl = np.bincount(names, weights=dur, minlength=size)
    own = np.bincount(names, weights=self_ns, minlength=size)
    out = {}
    module_self = {}
    for nid, name in enumerate(tracer.names[1:], start=1):
        out[f"{name}.calls"] = int(calls[nid])
        out[f"{name}.s"] = incl[nid] / 1e9
        out[f"{name}.self_s"] = own[nid] / 1e9
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + own[nid] / 1e9
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    modules = [tracer.names[n].split(".")[0] for n in range(size)]
    under_relations = np.zeros(names.size, dtype=bool)
    applications = relation_calls = 0
    for i in range(1, names.size):
        p = parent[i]
        module = modules[names[i]]
        parent_module = modules[names[p]]
        under_relations[i] = under_relations[p] or parent_module == "relations"
        if module == "weights" and parent_module != "weights":
            applications += 1
            relation_calls += bool(under_relations[i])
    out["weights.applications"] = applications
    out["relations.weights_calls"] = relation_calls
    out["job.s"] = dur[0] / 1e9
    out["spans.self_s"] = float(self_ns[1:].sum()) / 1e9
    return out
