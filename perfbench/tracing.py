"""Spans around calls into crowdtag, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules, and a
few public methods, with a wrapper that records one span per call: id,
parent id, name, start, end, plus the benchmark phase and pipeline stage it
ran in. Spans stay in memory until the run ends. A layer's self time is its
span time minus the time of its child spans.

Every module namespace that holds a wrapped function under any name gets the
wrapper, so calls through ``from .graph import build_graph`` are seen too.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
import uuid
from collections import Counter, defaultdict

LAYERS = ("dataio", "graph", "annotate", "aggregate", "filtering", "gcn", "pipeline")

# Public methods traced besides the module-level functions.
METHODS = {
    "graph": {"DirectedTAG": ("homophily_tie",)},
    "annotate": {"ResponseCache": ("__init__", "get", "put")},
}

STAGES = ("ingest", "annotate", "aggregate", "filter", "train")


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        # (id, parent id, name, start, end, phase, stage); parent 0 is the root
        self.spans: list[tuple[int, int, str, float, float, str, str]] = []
        self.phase = ""
        self.stage = ""
        # (phase, stage, key) -> observed values
        self.observed: dict[tuple[str, str, str], list] = defaultdict(list)
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(tracer, args, result)``
        runs after the span closes."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        stage = name[len("pipeline.stage_"):] if name.startswith("pipeline.stage_") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            outer_stage = self.stage
            if stage is not None:
                self.stage = stage
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.phase, self.stage))
                self.stage = outer_stage
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def note(self, key: str, value) -> None:
        self.observed[(self.phase, self.stage, key)].append(value)

    def install(self) -> None:
        """Wrap the layer modules' public functions and ``METHODS``."""
        modules = {name: sys.modules[f"crowdtag.{name}"] for name in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[fn] = self.wrap(name, fn, OBSERVERS.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, vars(cls)[meth], OBSERVERS.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "crowdtag" and not mod_name.startswith("crowdtag."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, attr, replacements[value])

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines under a header naming the run."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


SPAN_FIELDS = ["id", "parent", "name", "start", "end", "phase", "stage"]


def _observe_load_graph(tracer, args, result):
    tracer.note("graph_bytes", os.path.getsize(args[0]))


def _observe_cache_init(tracer, args, result):
    path = args[1] if len(args) > 1 else None
    if path is not None and os.path.exists(path):
        tracer.note("cache_bytes", os.path.getsize(path))


OBSERVERS = {
    "dataio.load_graph": _observe_load_graph,
    "annotate.ResponseCache.__init__": _observe_cache_init,
    "annotate.build_prompt": lambda t, a, r: t.note("prompt_hash", r.prompt_hash),
    "aggregate.aggregate_all": lambda t, a, r: t.note("dropped", len(r[1])),
    "filtering.kmeans": lambda t, a, r: t.note("kmeans_iters", len(r.inertia_history)),
    "gcn.train": lambda t, a, r: t.note("epochs", len(r)),
}


def span_overhead_s(calls: int = 200_000) -> float:
    """Measured cost of one span: a traced no-op call minus a bare one."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - bare) / calls)


def layer_metrics(tracer: Tracer, phase: str = "pipeline") -> dict[str, float]:
    """Per-layer totals, self times, call counts and ratios for one phase."""
    spans = [s for s in tracer.spans if s[5] == phase]
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, _ph, _st in spans:
        child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _parent, name, start, end, _ph, _st in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1

    def under(sid: int, ancestor: str) -> bool:
        sid = parent_of.get(sid, 0)
        while sid:
            if name_of[sid] == ancestor:
                return True
            sid = parent_of.get(sid, 0)
        return False

    def seen(key: str, stage: str | None = None) -> list:
        return [
            v
            for (ph, st, k), values in tracer.observed.items()
            if ph == phase and k == key and (stage is None or st == stage)
            for v in values
        ]

    hashes = seen("prompt_hash", "annotate")
    epochs = sum(seen("epochs"))
    forwards = sum(
        1
        for s in spans
        if s[2] in ("gcn.forward", "gcn.loss_and_grads") and under(s[0], "gcn.train")
    )
    graph_bytes = seen("graph_bytes")
    m = {
        "dataio.load_graph_s": total["dataio.load_graph"],
        "dataio.load_graph_calls": calls["dataio.load_graph"],
        "dataio.graph_bytes": graph_bytes[0] if graph_bytes else 0,
        "dataio.parse_s": self_time["dataio.load_graph"],
        "graph.build_s": total["graph.build_graph"],
        "graph.homophily_tie_s": total["graph.DirectedTAG.homophily_tie"],
        "annotate.build_prompt_s": total["annotate.build_prompt"],
        "annotate.prompts": len(hashes),
        "annotate.unique_prompt_ratio": len(set(hashes)) / len(hashes) if hashes else 0.0,
        "annotate.cache_put_s": total["annotate.ResponseCache.put"],
        "annotate.cache_appends": calls["annotate.ResponseCache.put"],
        "annotate.cache_load_s": total["annotate.ResponseCache.__init__"],
        "annotate.cache_bytes": sum(seen("cache_bytes")),
        "annotate.parse_response_s": total["annotate.parse_response"],
        "aggregate.aggregate_all_s": total["aggregate.aggregate_all"],
        "aggregate.dropped_nodes": sum(seen("dropped")),
        "filtering.pagerank_s": total["filtering.pagerank"],
        "filtering.pagerank_calls": calls["filtering.pagerank"],
        "filtering.kmeans_s": total["filtering.kmeans"],
        "filtering.kmeans_calls": calls["filtering.kmeans"],
        "filtering.kmeans_iters": sum(seen("kmeans_iters")),
        "filtering.c_density_s": total["filtering.c_density"],
        "filtering.run_filter_s": total["filtering.run_filter"],
        "gcn.normalize_adjacency_s": total["gcn.normalize_adjacency"],
        "gcn.normalize_adjacency_calls": calls["gcn.normalize_adjacency"],
        "gcn.train_s": total["gcn.train"],
        "gcn.epoch_s": total["gcn.train"] / epochs if epochs else 0.0,
        "gcn.forward_calls_per_epoch": forwards / epochs if epochs else 0.0,
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = total[f"pipeline.stage_{stage}"]
        m[f"pipeline.{stage}_self_s"] = self_time[f"pipeline.stage_{stage}"]
    m["pipeline.run_pipeline_s"] = total["pipeline.run_pipeline"]
    m["trace.spans"] = len(spans)
    return m
