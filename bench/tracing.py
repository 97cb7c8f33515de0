"""Traced mode: spans around qcorr's public functions, counts at numpy's kernels.

The tracer replaces every public function of qcorr's modules, in every
module namespace that binds it (the package re-exports them, and
`correlations` imports `optimize_measurement` and `apply_nonselective` by
name), with a wrapper that records a span. It also wraps
`numpy.linalg.eigvalsh`, `numpy.linalg.eigh` and `numpy.einsum` and keeps
their counts. Spans stay in memory until `write`.
"""
from __future__ import annotations

import collections
import functools
import gzip
import inspect
import json
import math
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "states", "infotheory", "measurement", "optimizer",
          "correlations", "cli")
SPAN_FIELDS = ("name", "state", "parent", "start_ns", "end_ns")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # SPAN_FIELDS, name as an index into names
        self.counts: collections.Counter = collections.Counter()
        self.max_einsum_bytes = 0
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._state = -1
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "optimizer.refine_local":
                lambda r: self.counts.update({"optimizer.refine_local.evals": r[2]}),
            "optimizer.optimize_measurement":
                lambda r: self.counts.update({"optimizer.j_evals": r.iterations}),
        }

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), self._state, parent, 0, 0]
        self.spans.append(record)
        self._stack.append(idx)
        record[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def request(self, state: int, label: str):
        """Root span of one analysed state; its spans carry `state` as their id."""
        self._state = state
        with self.span(f"bench.{label}"):
            yield

    def _wrap_function(self, fn, name: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    # -------------------------------------------------------------- kernels

    def _wrap_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = time.perf_counter_ns()
            out = fn(a, *args, **kwargs)
            elapsed = time.perf_counter_ns() - start
            shape = np.shape(a)
            batch = math.prod(shape[:-2])
            self.counts.update({"kernel.eig.calls": 1, "kernel.eig.matrices": batch,
                                "kernel.eig.flops_computed": batch * shape[-1] ** 3,
                                "kernel.eig.ns": elapsed})
            return out
        return wrapper

    def _wrap_einsum(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter_ns() - start
            self.counts.update({"kernel.einsum.calls": 1, "kernel.einsum.ns": elapsed})
            self.max_einsum_bytes = max(self.max_einsum_bytes, np.asarray(out).nbytes)
            return out
        return wrapper

    # ----------------------------------------------------- install / remove

    def _patch(self, namespace, attr: str, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, package):
        """Wrap qcorr's public functions wherever they are bound, and the kernels."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith(package.__name__ + ".")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap_function(obj, f"{layer}.{obj.__name__}")
                self._patch(module, attr, wrappers[obj])
        for attr in ("eigvalsh", "eigh"):
            self._patch(np.linalg, attr, self._wrap_eig(getattr(np.linalg, attr)))
        self._patch(np, "einsum", self._wrap_einsum(np.einsum))

    def remove(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -------------------------------------------------------------- results

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds for every span name.

        Self time is a span's duration minus that of its direct child spans.
        """
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = collections.defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, _, _, start, end), inner in zip(self.spans, child_ns):
            entry = totals[self.names[name]]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - inner) / 1e9
        return totals

    def write(self, path):
        doc = {"fields": SPAN_FIELDS, "names": self.names, "spans": self.spans,
               "counts": dict(self.counts), "max_einsum_bytes": self.max_einsum_bytes}
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))
