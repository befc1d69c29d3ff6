"""Fusion of the eight workers' guesses into one pseudo-label per node.

Confidence-weighted soft voting: each parsed worker's confidence mass is
renormalized to unit sum (uniform when all its confidences are zero), the
per-class masses are summed across workers, and the heaviest class wins with
confidence equal to its share of the total mass. Ties break toward the lower
class index, and sums are taken in sorted order, so the result is independent
of worker order. :func:`fuse` does this for all nodes at once on the guess
arrays annotate records; the other entry points adapt WorkerAnnotation lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotate import WorkerAnnotation
from .graph import NUM_TIE_CONFIGS


@dataclass
class PseudoLabel:
    node: int
    label: int
    confidence: float
    unparseable_count: int


class NoUsableWorkersError(ValueError):
    """Every worker for the node was unparseable."""


@dataclass
class Fusion:
    """What :func:`fuse` computes for n nodes."""

    label: np.ndarray  # (n,) fused class; -1 where no worker parsed
    confidence: np.ndarray  # (n,) the label's share of the mass; 0 where dropped
    usable: np.ndarray  # (n,) workers that parsed
    # per worker column k: (k, top-1 accuracy, nodes evaluated); [] without truth
    accuracy: list[tuple[int, float, int]]


def guess_arrays(
    annotations: dict[int, list[WorkerAnnotation]], class_names: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nodes, top1, mass)`` of ``annotations``, in its key order.

    Column k holds the worker of configuration k; a configuration with no
    worker, or whose response did not parse, has top1 -1 and zero mass.
    Raises ValueError when a node lists a configuration outside 0..7 or twice.
    """
    n, width, num_classes = len(annotations), NUM_TIE_CONFIGS, len(class_names)
    index = {c: i for i, c in enumerate(class_names)}
    top1 = np.full(n * width, -1, dtype=np.int16)
    # (row * C + class, confidence) of every guess; one bincount sums them
    cells: list[int] = []
    confs: list[int] = []
    for i, (v, workers) in enumerate(annotations.items()):
        seen: set[int] = set()
        for a in workers:
            k = a.config_k
            if not 0 <= k < width or k in seen:
                raise ValueError(f"node {v}: configuration {k} out of range or repeated")
            seen.add(k)
            if a.parse_failed or not a.guesses:
                continue
            row = i * width + k
            top1[row] = index[a.guesses[0][0]]
            for label, conf in a.guesses:
                cells.append(row * num_classes + index[label])
                confs.append(max(0, conf))
    mass = np.bincount(
        np.asarray(cells, dtype=np.intp), weights=confs, minlength=n * width * num_classes
    )
    nodes = np.fromiter(annotations, dtype=np.int64, count=n)
    return nodes, top1.reshape(n, width), mass.astype(np.int32).reshape(n, width, num_classes)


def _fsum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` in sorted order, carrying each addition's rounding
    error (TwoSum) and adding it back once. The result does not depend on the
    order of the terms and, for the few terms fused here, equals the correctly
    rounded sum ``math.fsum`` gives."""
    terms = np.sort(np.moveaxis(x, axis, 0), axis=0)
    total = np.zeros(terms.shape[1:])
    error = np.zeros_like(total)
    for term in terms:
        s = total + term
        back = s - total
        error += (total - (s - back)) + (term - back)
        total = s
    return total + error


def fuse(top1: np.ndarray, mass: np.ndarray, truth: np.ndarray | None = None) -> Fusion:
    """Fuse ``top1`` (n, W), each worker's best class or -1 where its response
    did not parse, and ``mass`` (n, W, C), its confidences summed per class.
    ``truth`` (n,), -1 where unknown, adds each column's top-1 accuracy over
    the nodes with a truth whose worker parsed (0 over 0 when there are none).
    """
    num_classes = mass.shape[2]
    usable = top1 >= 0
    total = mass.sum(axis=2, keepdims=True)
    share = np.where(total > 0, mass / np.maximum(total, 1), 1.0 / num_classes)
    share[~usable] = 0.0
    scores = _fsum(share, axis=1)
    label = scores.argmax(axis=1)  # the first maximum: ties go to the lower index
    n_usable = usable.sum(axis=1)
    kept = n_usable > 0
    best = np.take_along_axis(scores, label[:, None], axis=1)[:, 0]
    confidence = np.divide(best, _fsum(scores, axis=1), out=np.zeros(len(best)), where=kept)

    accuracy: list[tuple[int, float, int]] = []
    if truth is not None:
        evaluated = usable & (truth >= 0)[:, None]
        hits = (evaluated & (top1 == truth[:, None])).sum(axis=0).tolist()
        counts = evaluated.sum(axis=0).tolist()
        accuracy = [(k, h / e if e else 0.0, e) for k, (h, e) in enumerate(zip(hits, counts))]
    return Fusion(np.where(kept, label, -1), confidence, n_usable, accuracy)


def aggregate(
    node: int,
    workers: list[WorkerAnnotation],
    class_names: list[str],
) -> PseudoLabel:
    """Fuse 1..8 worker annotations, one per configuration, into a pseudo-label."""
    if not workers:
        raise ValueError(f"node {node}: no worker annotations")
    pseudo, dropped = aggregate_all({node: workers}, class_names)
    if dropped:
        raise NoUsableWorkersError(f"node {node}: all {len(workers)} workers unparseable")
    return pseudo[node]


def aggregate_all(
    annotations: dict[int, list[WorkerAnnotation]],
    class_names: list[str],
) -> tuple[dict[int, PseudoLabel], list[int]]:
    """Aggregate every annotated node; returns pseudo-labels plus the node ids
    that were dropped because no worker parsed."""
    _, top1, mass = guess_arrays(annotations, class_names)
    fused = fuse(top1, mass)
    pseudo: dict[int, PseudoLabel] = {}
    dropped: list[int] = []
    for (node, workers), label, confidence, usable in zip(
        annotations.items(), fused.label.tolist(), fused.confidence.tolist(), fused.usable.tolist()
    ):
        if label < 0:
            dropped.append(node)
        else:
            pseudo[node] = PseudoLabel(node, label, confidence, len(workers) - usable)
    return pseudo, dropped


def worker_accuracy(
    annotations: dict[int, list[WorkerAnnotation]],
    ground_truth: dict[int, int],
    class_names: list[str],
) -> list[tuple[int, float, int]]:
    """Per-configuration top-1 accuracy against ground truth.

    Returns (config_k, accuracy, evaluated_count) rows; a worker whose every
    response was unparseable scores 0 over 0 evaluated nodes.
    """
    nodes = [v for v in annotations if v in ground_truth]
    if not nodes:
        raise ValueError("no nodes with ground truth to evaluate")
    _, top1, mass = guess_arrays({v: annotations[v] for v in nodes}, class_names)
    truth = np.array([ground_truth[v] for v in nodes], dtype=np.int64)
    return fuse(top1, mass, truth).accuracy


def aggregation_accuracy(
    pseudo: dict[int, PseudoLabel], ground_truth: dict[int, int]
) -> float:
    nodes = [v for v in pseudo if v in ground_truth]
    if not nodes:
        raise ValueError("no overlap between pseudo-labels and ground truth")
    hits = sum(1 for v in nodes if pseudo[v].label == ground_truth[v])
    return hits / len(nodes)
