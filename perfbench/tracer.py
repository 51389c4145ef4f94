"""Outside-in tracer: wrappers installed around relaqm's public functions.

The benchmark adds no code to relaqm.  :class:`Tracer` replaces each public
function of the layer modules, in every relaqm namespace that bound it, by a
wrapper that records a span (name, start, end, parent, op id) in memory.
``numpy.linalg.svd`` is wrapped by a counter that counts calls made while
``scenario.run`` is open.  :meth:`Tracer.uninstall` puts every original
back.  With tracing off no tracer exists and nothing is wrapped.

``hilbert`` is not wrapped: its cost shows in the self time of its caller.
``errors`` does no work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("scenario", "measurement", "kernels", "questions", "dynamics", "cli")
RUN_SPAN = "scenario.run"
SVD_COUNTER = "scenario.run.svd_calls"


def _operator_bytes(tracer, result):
    tracer.counters["measurement.operator_bytes"] += result.matrix.nbytes


def _search_outcome(tracer, result):
    tracer.counters["kernels.unistochastic_search.iterations"] += result.iterations
    tracer.counters["kernels.unistochastic_search.decided"] += result.verdict != "inconclusive"


# counters computed from a wrapped function's return value
RESULT_HOOKS = {
    "measurement.premeasurement_unitary": _operator_bytes,
    "measurement.correlation_operator": _operator_bytes,
    "kernels.unistochastic_search": _search_outcome,
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index, op id]
        self.counters: defaultdict = defaultdict(float)
        self.op = 0
        self._open: list[int] = []     # indices of the spans not yet ended
        self._run_depth = 0
        self._patches: list = []       # (namespace, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"relaqm.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "relaqm" or n.startswith("relaqm.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(namespace, attr, wrappers[id(value)][1])
        self._patch(np.linalg, "svd", self._count_svd(np.linalg.svd))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def _patch(self, namespace, attr, replacement) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        is_run = name == RUN_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op]
            self.spans.append(span)
            self._open.append(idx)
            self._run_depth += is_run
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._run_depth -= is_run
                self._open.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _count_svd(self, svd):
        @functools.wraps(svd)
        def counted(*args, **kwargs):
            if self._run_depth:
                self.counters[SVD_COUNTER] += 1
            return svd(*args, **kwargs)

        return counted

    # -- output ---------------------------------------------------------------

    def write(self, fh) -> None:
        """Spans as JSON lines, then one line holding the counters."""
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
        fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    def merge(self, fh, op: int) -> None:
        """Append the spans and counters that :meth:`write` wrote in another
        process, as those of op ``op``."""
        base = len(self.spans)
        for line in fh:
            row = json.loads(line)
            if "counters" in row:
                for key, value in row["counters"].items():
                    self.counters[key] += value
            else:
                parent = row["parent"] + base if row["parent"] >= 0 else -1
                self.spans.append([row["name"], row["start"], row["end"], parent, op])


def aggregate(spans: list) -> tuple[dict, dict, dict]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus that of its direct children; spans
    of one process nest strictly, so children never overlap.
    """
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    child = defaultdict(float)
    for idx in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[idx]
        duration = end - start
        calls[name] += 1
        total[name] += duration
        own[name] += duration - child[idx]
        if parent >= 0:
            child[parent] += duration
    return calls, total, own
