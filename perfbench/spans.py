"""Span tracing of prelog_lab from outside the library.

`Tracer.install` replaces every public function that a layer module defines
with a wrapper that records a span (name, start, end, parent, thread, job),
and wraps the `parallel_map` names that `asymptotics`, `mcsim` and `cli`
bind from `_parallel`.  Module attributes are the modules' globals, so calls
inside a module go through the wrappers too.  `uninstall` puts the original
functions back.  Spans stay in memory until `save`.

Items of a parallel_map run in pool threads, where the caller's span stack
is not visible; the item wrapper makes the parallel_map span their parent.
Jobs run one at a time, so every span carries the id of the job that was
running when it ended.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

import numpy as np

LAYERS = ("spectra", "fading", "bounds", "asymptotics", "mcsim", "scenario",
          "cli", "_parallel")

# dense n x n complex matrices the Python code of penalty_logdet and
# toeplitz_covariance allocates per call: K, I, snr*K, I + snr*K and the
# Cholesky factor (copies inside the LAPACK wrappers are not counted)
_LOGDET_MATRICES = 5

# inclusive span times reported per function, as "<layer>.<function>_s"
TIMED_FUNCTIONS = (
    "fading.marginal_tail", "fading.simulate_path", "bounds.optimize_gamma",
    "bounds.penalty_spectral", "bounds.penalty_logdet",
    "asymptotics.prelog_lower_estimate", "spectra.toeplitz_covariance",
    "mcsim.estimate_coherent_mi", "mcsim.empirical_spectrum",
    "scenario.load_scenario", "cli.render_csv",
)


def _argument(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, name id, start, end, parent id, thread, job)
        self.names = []
        self.job = -1
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = {}
        self._saved = []
        self._lock = threading.Lock()
        self.counts = collections.Counter()
        self._pass_models = set()
        self._caches = {}
        self.passes = []  # per pass: {"builds", "models", "embed_hits", "embed_misses"}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self):
        return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def _span(self, name_id, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name_id, start, end, parent, self._thread(), self.job))

    def _add(self, **amounts):
        with self._lock:
            self.counts.update(amounts)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            return self._span(name_id, fn, args, kwargs)

        return wrapper

    def _wrap_parallel_map(self, fn, thread_count):
        name_id = self._name_id("_parallel.parallel_map")

        def run(item_fn, items):
            items = list(items)
            parent = self._stack()[-1]
            item_name = item_fn.__module__.rsplit(".", 1)[-1] + "." + item_fn.__qualname__
            item_id = self._name_id(item_name)
            busy = []

            def item(x):
                own = self._local.__dict__.get("stack")
                self._local.stack = [parent]
                start = time.perf_counter()
                try:
                    return self._span(item_id, item_fn, (x,), {})
                finally:
                    busy.append(time.perf_counter() - start)
                    self._local.stack = own

            workers = min(thread_count(), max(len(items), 1))
            if len(items) <= 1:
                workers = 1
            start = time.perf_counter()
            out = fn(item, items)
            wall = time.perf_counter() - start
            self._add(parallel_maps=1, parallel_items=len(items),
                      parallel_workers=workers, parallel_busy_s=sum(busy),
                      parallel_capacity_s=wall * workers)
            return out

        @functools.wraps(fn)
        def wrapper(item_fn, items):
            return self._span(name_id, run, (item_fn, items), {})

        return wrapper

    def _count_logdet(self, args, kwargs):
        n = int(_argument(args, kwargs, 2, "n"))
        self._add(logdet_flops=n**3 / 3, logdet_bytes=_LOGDET_MATRICES * 16 * n * n)

    def _count_knn(self, args, kwargs):
        n_samples = int(_argument(args, kwargs, 2, "n_samples"))
        self._add(knn_points=(n_samples // 64) * 64)

    def install(self):
        modules = {layer: importlib.import_module(f"prelog_lab.{layer}") for layer in LAYERS}
        parallel = modules["_parallel"]
        original_map, thread_count = parallel.parallel_map, parallel.thread_count
        pmap = self._wrap_parallel_map(original_map, thread_count)
        counters = {"bounds.penalty_logdet": self._count_logdet,
                    "mcsim.estimate_coherent_mi": self._count_knn}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj is original_map:
                    wrapped = pmap
                elif obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, obj, counters.get(name))
                else:
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapped)

        # the tail-table cache is private: count the models that reach it and
        # read its statistics, but record no span
        fading = modules["fading"]
        tables = fading._marginal_samples

        def marginal_samples(model):
            with self._lock:
                self._pass_models.add(model)
            return tables(model)

        self._saved.append((fading, "_marginal_samples", tables))
        fading._marginal_samples = marginal_samples
        self._caches = {"tables": tables, "embed": fading._embedding_eigenvalues}

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-pass cache statistics ------------------------------------------

    def begin_pass(self):
        self._pass_models = set()
        self._pass_start = (self._caches["tables"].cache_info(),
                            self._caches["embed"].cache_info())

    def end_pass(self):
        tables0, embed0 = self._pass_start
        tables1 = self._caches["tables"].cache_info()
        embed1 = self._caches["embed"].cache_info()
        self.passes.append({"builds": tables1.misses - tables0.misses,
                            "models": len(self._pass_models),
                            "embed_hits": embed1.hits - embed0.hits,
                            "embed_misses": embed1.misses - embed0.misses})

    # -- results ------------------------------------------------------------

    def save(self, path):
        spans = np.array(self.spans, dtype=float).reshape(-1, 7)
        np.savez_compressed(path, spans=spans, names=np.array(json.dumps(self.names)))

    def self_times(self):
        """Self time per span name: duration minus the union of child intervals."""
        children = collections.defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = collections.Counter()
        for sid, name_id, start, end, _, _, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[self.names[name_id]] += (end - start) - covered
        return out

    def layer_metrics(self):
        """Per-layer metrics, each normalized to one pass over the job list."""
        passes = len(self.passes)
        inclusive = collections.Counter()
        calls = collections.Counter()
        for _, name_id, start, end, _, _, _ in self.spans:
            inclusive[self.names[name_id]] += end - start
            calls[self.names[name_id]] += 1
        per_pass = {key: [p[key] for p in self.passes] for key in self.passes[0]}
        c = self.counts
        metrics = {
            "fading.marginal_tail_calls": calls["fading.marginal_tail"] / passes,
            "fading.tail_table_builds": sum(per_pass["builds"]) / passes,
            "fading.tail_table_builds_spread": max(per_pass["builds"]) - min(per_pass["builds"]),
            "fading.tail_table_models": sum(per_pass["models"]) / passes,
            "fading.embed_cache_hits": sum(per_pass["embed_hits"]) / passes,
            "fading.embed_cache_misses": sum(per_pass["embed_misses"]) / passes,
            "bounds.logdet_flops": c["logdet_flops"] / passes,
            "bounds.logdet_bytes": c["logdet_bytes"] / passes,
            "mcsim.knn_points": c["knn_points"] / passes,
            "parallel.maps": c["parallel_maps"] / passes,
            "parallel.items": c["parallel_items"] / passes,
            "parallel.workers": c["parallel_workers"] / max(c["parallel_maps"], 1),
            "parallel.busy_over_wall": c["parallel_busy_s"] / max(c["parallel_capacity_s"], 1e-12),
        }
        for name in TIMED_FUNCTIONS:
            metrics[f"{name}_s"] = inclusive[name] / passes
        self_by_layer = collections.Counter()
        for name, seconds in self.self_times().items():
            self_by_layer[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:  # metric names may not start with "_"
            metrics[f"{layer.lstrip('_')}.self_s"] = self_by_layer[layer] / passes
        return metrics
