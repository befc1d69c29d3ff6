from __future__ import annotations

import numpy as np
import pytest

from crowdtag.fixtures import load_fixture_graph
from crowdtag.graph import DirectedTAG, build_graph
from crowdtag.synthetic import synthetic_citation_graph


def tiny_graph(edges: list[tuple[int, int]], n: int = 5, num_classes: int = 2) -> DirectedTAG:
    """Small hand-specified graph; features are one-hot node indicators."""
    return build_graph(
        keys=[f"n{i}" for i in range(n)],
        edges=edges,
        texts=[f"text of node {i}" for i in range(n)],
        features=np.eye(n),
        labels=[i % num_classes for i in range(n)],
        class_names=[f"Class_{c}" for c in range(num_classes)],
    )


@pytest.fixture
def chain_graph() -> DirectedTAG:
    # edges: 1->2, 3->2, 2->4
    return tiny_graph([(1, 2), (3, 2), (2, 4)])


@pytest.fixture(scope="session")
def fixture30() -> DirectedTAG:
    return load_fixture_graph()


@pytest.fixture(scope="session")
def synthetic1000() -> DirectedTAG:
    return synthetic_citation_graph(
        n=1000,
        num_classes=4,
        alpha=0.85,
        avg_out_degree=3.0,
        feature_dim=10,
        feature_noise=1.3,
        seed=11,
    )


def random_graph(rng: np.random.Generator, max_nodes: int = 200) -> DirectedTAG:
    n = int(rng.integers(2, max_nodes + 1))
    density = rng.uniform(0.5, 3.0) / n
    mask = rng.random((n, n)) < density
    mask |= mask.T & (rng.random((n, n)) < 0.3)  # mutual edges, so two-hop paths return to a node
    np.fill_diagonal(mask, False)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    return tiny_graph(edges, n=n)
