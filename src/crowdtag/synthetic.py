"""Seeded synthetic citation graphs with controllable homophily.

Used for the bundled fixtures and for Monte Carlo checks: class labels are
balanced, each directed edge points to a same-class target with probability
``alpha``, features are Gaussian blobs around per-class centers, and texts
are templated sentences carrying a class-specific topic phrase.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedTAG, build_graph

TOPIC_PHRASES = [
    "spectral methods for sparse linear systems",
    "reinforcement learning for robot control",
    "protein structure prediction pipelines",
    "compiler optimization via dependence analysis",
    "bayesian inference for survey data",
    "distributed consensus under network partitions",
    "image segmentation with variational models",
    "query planning in column stores",
    "error-correcting codes for flash storage",
    "causal discovery from observational studies",
]

DEFAULT_CLASS_NAMES = [
    "Numerical_Analysis",
    "Robotics",
    "Computational_Biology",
    "Compilers",
    "Statistics",
    "Distributed_Systems",
    "Computer_Vision",
    "Databases",
    "Information_Theory",
    "Causal_Inference",
]


def synthetic_citation_graph(
    n: int,
    num_classes: int = 3,
    alpha: float = 0.85,
    avg_out_degree: float = 3.0,
    feature_dim: int = 8,
    feature_noise: float = 0.6,
    outlier_frac: float = 0.0,
    seed: int = 0,
    class_names: list[str] | None = None,
) -> DirectedTAG:
    """Generate a labeled, text-attributed, homophilous directed graph.

    ``outlier_frac`` marks a fraction of nodes as fringe papers: their
    features come from a broad background cloud instead of their class blob,
    and they cite little. They keep valid labels, so they are legitimate but
    low-value training picks.
    """
    if num_classes > len(DEFAULT_CLASS_NAMES) and class_names is None:
        raise ValueError(f"supply class_names for more than {len(DEFAULT_CLASS_NAMES)} classes")
    rng = np.random.default_rng(seed)
    names = class_names or DEFAULT_CLASS_NAMES[:num_classes]

    # Balanced labels, shuffled.
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(num_classes)]
    outlier = rng.random(n) < outlier_frac

    edges: list[tuple[int, int]] = []  # build_graph drops self-loops and repeats
    for u in range(n):
        rate = avg_out_degree * (0.3 if outlier[u] else 1.0)
        out_deg = rng.poisson(rate)
        for _ in range(out_deg):
            if rng.random() < alpha:
                pool = by_class[labels[u]]
            else:
                other = (labels[u] + 1 + rng.integers(num_classes - 1)) % num_classes
                pool = by_class[other]
            edges.append((u, int(pool[rng.integers(len(pool))])))

    centers = rng.normal(size=(num_classes, feature_dim)) * 2.0
    features = centers[labels] + rng.normal(size=(n, feature_dim)) * feature_noise
    spread = np.abs(centers).max() + 2.0 * feature_noise
    n_out = int(outlier.sum())
    if n_out:
        features[outlier] = rng.normal(size=(n_out, feature_dim)) * spread

    texts = [
        f"This paper studies {TOPIC_PHRASES[labels[i] % len(TOPIC_PHRASES)]}, "
        f"presenting method variant {i} with an empirical evaluation."
        for i in range(n)
    ]
    keys = [f"paper_{i:04d}" for i in range(n)]
    return build_graph(
        keys=keys,
        edges=edges,
        texts=texts,
        features=features,
        labels=[int(l) for l in labels],
        class_names=list(names),
    )


def write_dataset_files(graph: DirectedTAG, prefix: str) -> tuple[str, str, str]:
    """Write .content/.cites/.texts files for a graph; returns the three paths."""
    content_path = f"{prefix}.content"
    cites_path = f"{prefix}.cites"
    texts_path = f"{prefix}.texts"
    with open(content_path, "w", encoding="utf-8") as fh:
        for key, row, label in zip(graph.original_keys, graph.features, graph.labels):
            feats = "\t".join(map(repr, row.tolist()))
            fh.write(f"{key}\t{feats}\t{graph.class_names[label]}\n")
    with open(cites_path, "w", encoding="utf-8") as fh:
        # public convention: first key = cited, second = citing
        keys = graph.original_keys
        for u, v in zip(*graph.edge_array.T.tolist()):
            fh.write(f"{keys[v]}\t{keys[u]}\n")
    with open(texts_path, "w", encoding="utf-8") as fh:
        for i in range(graph.num_nodes):
            fh.write(f"{graph.original_keys[i]}\t{graph.texts[i]}\n")
    return content_path, cites_path, texts_path
