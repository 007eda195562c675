"""Spans around spnstream's module boundaries, recorded from outside the package.

``Instrument`` replaces a public function or method by a wrapper wherever
the package holds a reference to it (``from .x import f`` copies the
reference into every importing module, so each copy is swapped) and puts
the originals back on ``uninstall``.  Two kinds of wrapper exist:

* the batch meter, which times every ``learn_batch`` call in every run and
  records its row count, so per-batch latency is measured even when
  ``learn_batch`` is called from inside ``fit``;
* trace spans, installed only in a traced run.  Each span records name,
  start, end, parent span and request id (``b<n>`` for the n-th batch,
  ``q<n>`` for the n-th read query).  Spans stay in memory until
  ``write`` puts them in a file.

A span's self time is its duration minus the time its child spans cover.
Every ``*_s`` per-layer metric is a sum of self times, so the layers
partition the covered wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

from spnstream import cli, dataset, evaluate, gstats, learner, model_io, nodes, updates

perf_counter = time.perf_counter

# Span names that start a new request when no request is open.
_BATCH_REQUESTS = {"learner.learn_batch"}
_QUERY_REQUESTS = {"evaluate.log_density_rows", "evaluate.log_density",
                   "evaluate.conditional", "evaluate.sample"}


class Instrument:
    """Installs wrappers into the loaded spnstream modules and removes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Swap ``owner.attr`` and every package-level alias of it."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "spnstream" and not name.startswith("spnstream."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class BatchMeter:
    """Latency and row count of every ``learn_batch`` call.

    ``after``, if set, is called after each call, outside its timing.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.rows = 0
        self.after = None

    def take(self) -> tuple[list[float], int]:
        lat, rows = self.latencies, self.rows
        self.latencies, self.rows = [], 0
        return lat, rows

    def install(self, inst: Instrument) -> None:
        meter = self

        def make(fn):
            @functools.wraps(fn)
            def timed_learn_batch(pool, rows, *args, **kwargs):
                start = perf_counter()
                report = fn(pool, rows, *args, **kwargs)
                meter.latencies.append(perf_counter() - start)
                meter.rows += report.rows
                if meter.after is not None:
                    meter.after()
                return report
            return timed_learn_batch

        inst.replace(learner, "learn_batch", make)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.active = False
        self.spans: list = []          # (name, start, end, parent, request)
        self.stack: list[int] = []
        self.request = ""
        self.counters: dict[str, float] = defaultdict(float)
        self._next_request = {"b": 0, "q": 0}

    # ------------------------------------------------------------------
    def span(self, name: str, count=None):
        """Wrapper factory; ``count(args, kwargs, result)`` adds counters."""
        tracer = self
        opens = ("b" if name in _BATCH_REQUESTS
                 else "q" if name in _QUERY_REQUESTS else None)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                outer_request = tracer.request
                if opens is not None and not tracer.request:
                    n = tracer._next_request[opens]
                    tracer._next_request[opens] = n + 1
                    tracer.request = f"{opens}{n}"
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer.stack.pop()
                    tracer.spans[sid] = (name, start, end, parent, tracer.request)
                    tracer.request = outer_request
                if count is not None:
                    count(tracer.counters, args, kwargs, result)
                return result
            return traced
        return make

    def install(self, inst: Instrument) -> None:
        def rows_of(x):
            shape = getattr(x, "shape", None)
            return 1 if shape is None or len(shape) < 2 else shape[0]

        def count_load_csv(c, args, kwargs, result):
            c["dataset.bytes_read"] += os.path.getsize(args[0])

        def count_eval(c, args, kwargs, result):
            c["kernels.node_rows"] += result.shape[0] * result.shape[1]

        def count_compile(c, args, kwargs, result):
            c["evaluate.compiled_nodes"] += len(result.order)

        def count_sample(c, args, kwargs, result):
            c["evaluate.sample_rows"] += rows_of(result)

        def count_update(c, args, kwargs, result):
            c["gstats.update_rows"] += rows_of(args[1])

        def count_batch(c, args, kwargs, result):
            c["learner.structure_edits"] += result.mixtures_created + result.leaves_merged

        def count_save(c, args, kwargs, result):
            c["model_io.model_bytes"] += os.path.getsize(args[0])

        s = self.span
        inst.replace(dataset, "load_csv", s("dataset.load_csv", count_load_csv))
        inst.replace(evaluate.CompiledNet, "eval_rows", s("kernels.eval_rows", count_eval))
        inst.replace(evaluate, "compile_pool", s("evaluate.compile_pool", count_compile))
        inst.replace(evaluate.CompiledNet, "refresh_leaf", s("evaluate.refresh_leaf"))
        inst.replace(evaluate.CompiledNet, "refresh_weights", s("evaluate.refresh_weights"))
        inst.replace(evaluate, "subtree_log_density_rows", s("evaluate.subtree_walk"))
        inst.replace(evaluate, "log_density_rows", s("evaluate.log_density_rows"))
        inst.replace(evaluate, "log_density", s("evaluate.log_density"))
        inst.replace(evaluate, "conditional_log_density", s("evaluate.conditional"))
        inst.replace(evaluate, "sample", s("evaluate.sample", count_sample))
        inst.replace(gstats.GaussianStats, "update", s("gstats.update", count_update))
        inst.replace(updates, "tie_break_argmax", s("updates.tie_break"))
        inst.replace(learner, "learn_batch", s("learner.learn_batch", count_batch))
        inst.replace(learner, "simplify", s("learner.simplify"))
        inst.replace(learner, "fit", s("learner.fit"))
        inst.replace(nodes, "topological_order", s("nodes.topological_order"))
        inst.replace(model_io, "save_model", s("model_io.save_model", count_save))
        inst.replace(model_io, "load_model", s("model_io.load_model"))
        inst.replace(cli, "main", s("cli.main"))

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Self time and call count per span name, plus derived totals."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        compiles_in_batches = 0
        for i, (name, start, end, parent, _req) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
            elif name == "evaluate.compile_pool" and self.spans[parent][0] == "learner.learn_batch":
                compiles_in_batches += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "covered_s": covered,
                "compiles_in_batches": compiles_in_batches, "spans": len(self.spans)}

    def write(self, path: str) -> None:
        """Spans as columns, gzip-compressed JSON."""
        names = sorted({sp[0] for sp in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "name": [code[sp[0]] for sp in self.spans],
            "start_s": [round(sp[1] - t0, 9) for sp in self.spans],
            "end_s": [round(sp[2] - t0, 9) for sp in self.spans],
            "parent": [sp[3] for sp in self.spans],
            "request": [sp[4] for sp in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer(tracer: Tracer, episodes: int, traced_total_s: float, traced_wall_s: float,
              untraced_wall_s: float, model_nodes: float) -> dict[str, float]:
    """Per-layer metrics, as means per traced episode.

    ``traced_total_s`` is the wall time of all traced episodes, which the
    spans should cover; ``traced_wall_s`` and ``untraced_wall_s`` are
    comparable episode times with and without tracing.
    """
    summ = tracer.summary()
    self_s, calls, c = summ["self_s"], summ["calls"], tracer.counters
    per = 1.0 / max(episodes, 1)

    def t(name):
        return self_s.get(name, 0.0) * per

    def n(name):
        return calls.get(name, 0) * per

    eval_s = self_s.get("kernels.eval_rows", 0.0)
    node_rows = c.get("kernels.node_rows", 0.0)
    updates_n = calls.get("gstats.update", 0)
    edits = c.get("learner.structure_edits", 0.0)
    return {
        "dataset.load_csv_s": t("dataset.load_csv"),
        "dataset.bytes_read": c.get("dataset.bytes_read", 0.0) * per,
        "kernels.eval_calls": n("kernels.eval_rows"),
        "kernels.eval_s": t("kernels.eval_rows"),
        "kernels.node_rows": node_rows * per,
        "kernels.ns_per_node_row": 1e9 * eval_s / node_rows if node_rows else 0.0,
        "evaluate.compile_calls": n("evaluate.compile_pool"),
        "evaluate.compile_s": t("evaluate.compile_pool"),
        "evaluate.compiled_nodes": c.get("evaluate.compiled_nodes", 0.0) * per,
        "evaluate.refresh_leaf_calls": n("evaluate.refresh_leaf"),
        "evaluate.refresh_leaf_s": t("evaluate.refresh_leaf"),
        "evaluate.refresh_weights_s": t("evaluate.refresh_weights"),
        "evaluate.subtree_walk_calls": n("evaluate.subtree_walk"),
        "evaluate.subtree_walk_s": t("evaluate.subtree_walk"),
        "evaluate.log_density_rows_s": t("evaluate.log_density_rows"),
        "evaluate.log_density_calls": n("evaluate.log_density"),
        "evaluate.log_density_s": t("evaluate.log_density"),
        "evaluate.conditional_s": t("evaluate.conditional"),
        "evaluate.sample_s": t("evaluate.sample"),
        "evaluate.sample_rows": c.get("evaluate.sample_rows", 0.0) * per,
        "gstats.update_calls": n("gstats.update"),
        "gstats.update_s": t("gstats.update"),
        "gstats.rows_per_update": (c.get("gstats.update_rows", 0.0) / updates_n
                                   if updates_n else 0.0),
        "updates.tie_break_calls": n("updates.tie_break"),
        "updates.tie_break_s": t("updates.tie_break"),
        "learner.learn_batch_calls": n("learner.learn_batch"),
        "learner.learn_batch_self_s": t("learner.learn_batch"),
        "learner.structure_edits": edits * per,
        "learner.simplify_s": t("learner.simplify"),
        "learner.compiles_per_edit": summ["compiles_in_batches"] / edits if edits else 0.0,
        "learner.fit_self_s": t("learner.fit"),
        "nodes.model_nodes": model_nodes,
        "nodes.topological_order_calls": n("nodes.topological_order"),
        "nodes.topological_order_s": t("nodes.topological_order"),
        "model_io.save_s": t("model_io.save_model"),
        "model_io.load_s": t("model_io.load_model"),
        "model_io.model_bytes": c.get("model_io.model_bytes", 0.0) * per,
        "cli.main_self_s": t("cli.main"),
        "trace.wall_s": traced_wall_s,
        "trace.coverage": summ["covered_s"] / traced_total_s if traced_total_s else 0.0,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.spans": summ["spans"] * per,
    }
