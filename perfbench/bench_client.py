"""Annotator client for the benchmark: the synthetic oracle, metered.

The plain ``SyntheticOracleClient`` reports zero tokens, so the budget never
moves. This client reports ``estimate_tokens`` of the prompt and of the
response as usage, which makes ``BudgetState`` spend realistic, deterministic
dollars at the configured prices, and it keeps its own request count and the
time spent inside ``complete`` (the simulated LLM), apart from program time.
"""

from __future__ import annotations

import time

import numpy as np

from crowdtag import annotate as ann
from crowdtag.graph import DirectedTAG, build_graph


class MeteredOracleClient:
    """``annotate.Client`` over the synthetic oracle with token usage."""

    def __init__(self, graph: DirectedTAG, noise: float, seed: int) -> None:
        self._oracle = ann.SyntheticOracleClient(graph, noise=noise, seed=seed)
        self.requests = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self.seconds = 0.0
        # (center, prompt hash) of every request, in order
        self.sent: list[tuple[int, str]] = []

    def complete(self, prompt: ann.PromptSpec) -> ann.ClientResponse:
        start = time.perf_counter()
        text = self._oracle.complete(prompt).text
        tokens_in = ann.estimate_tokens(prompt.body)
        tokens_out = ann.estimate_tokens(text)
        self.seconds += time.perf_counter() - start
        self.requests += 1
        self.tokens_in += tokens_in
        self.tokens_out += tokens_out
        self.sent.append((prompt.center, prompt.prompt_hash))
        return ann.ClientResponse(text=text, tokens_in=tokens_in, tokens_out=tokens_out)


def as_ingested(graph: DirectedTAG, with_features: bool = True) -> DirectedTAG:
    """The graph the ingest stage assembles from this graph's dataset files.

    Ingest keeps node order and edges but sorts the class names, which
    renumbers the labels and reorders the category list of every prompt. The
    oracle needs no features, so ``with_features=False`` drops them.
    """
    names = sorted(graph.class_names)
    index = {c: i for i, c in enumerate(names)}
    labels = [index[graph.class_names[y]] for y in graph.labels]
    features = graph.features if with_features else np.zeros((graph.num_nodes, 0))
    return build_graph(graph.original_keys, graph.edges(), graph.texts, features, labels, names)
