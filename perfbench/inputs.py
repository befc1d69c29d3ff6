"""The benchmark's set-up: a workload's input files, made from its seed.

``make_inputs`` is the work ``setup_s`` times. It generates the workload's
graph, writes the ``.content/.cites/.texts`` dataset files, and for a
workload that resumes from a shared cache, fills that cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload


@dataclass
class Inputs:
    files: tuple[str, str, str]
    # shared cache the run resumes from, or None
    shared_cache: Path | None = None
    # records in the shared cache, and the requests a run must still make
    prefilled: int = 0
    expected_requests: int = 0
    # the graph as ingest assembles it, and every annotation of the workload's
    # node set; kept only for a workload with a shared cache
    graph: object = None
    annotations: dict = field(default_factory=dict)


def make_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    """Writes the workload's inputs for ``seed`` into ``directory``."""
    from crowdtag import synthetic

    directory.mkdir(parents=True)
    graph = w.generate(seed)
    files = synthetic.write_dataset_files(graph, str(directory / "cora"))
    inputs = Inputs(files=tuple(files))
    if w.prefilled_share > 0:
        inputs.shared_cache = directory / "shared-annotations.jsonl"
        fill_cache(w, seed, graph, inputs)
    return inputs


def fill_cache(w: Workload, seed: int, graph, inputs: Inputs) -> None:
    """Leaves ``inputs.shared_cache`` as an interrupted run annotating the
    workload's node set would: holding the prompts of its first
    ``prefilled_share`` nodes.

    Annotates every node of the set in memory on the way.
    """
    from crowdtag import annotate as ann
    from crowdtag import pipeline as pl

    from bench_client import MeteredOracleClient, as_ingested

    g = as_ingested(graph)
    a = pl.AnnotatorConfig()
    nodes = annotation_order(g, w.node_cap, w.filter_config())
    client = MeteredOracleClient(g, noise=w.oracle_noise, seed=seed)
    memory = ann.ResponseCache()
    annotations = ann.annotate_graph(
        g, nodes, client, memory, ann.BudgetState(limit_usd=math.inf),
        model=a.model, policy=ann.TruncationPolicy(**a.truncation),
    )
    done = set(nodes[: int(len(nodes) * w.prefilled_share)])
    ann.ResponseCache.write_header(inputs.shared_cache, "interrupted-run")
    cache = ann.ResponseCache(inputs.shared_cache)
    for center, prompt_hash in client.sent:
        if center in done:
            cache.put(memory.get(prompt_hash))
    inputs.prefilled = len(cache)
    inputs.expected_requests = client.requests - inputs.prefilled
    inputs.graph, inputs.annotations = g, annotations


def annotation_order(graph, cap: int | None, f) -> list[int]:
    """The nodes the annotate stage picks: all, or the stage-one top ``cap``."""
    import numpy as np

    from crowdtag import filtering

    n = graph.num_nodes
    if cap is None or cap >= n:
        return list(range(n))
    pr = filtering.pagerank(graph, damping=f.damping)
    model = filtering.kmeans(graph.features, k=graph.num_classes, seed=f.kmeans_seed)
    dens = filtering.c_density(graph.features, model)
    deg = np.array([graph.degree(v) for v in range(n)], dtype=np.float64)
    s1 = filtering.stage1_scores(pr, dens, deg, f.gamma, f.lam)
    return sorted(filtering.select_top_k(np.arange(n), s1, cap))
