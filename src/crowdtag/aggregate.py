"""Fusion of the eight workers' guesses into one pseudo-label per node.

Confidence-weighted soft voting: each parsed worker's confidence mass is
renormalized to unit sum (uniform when all its confidences are zero), the
per-class masses are summed across workers, and the heaviest class wins with
confidence equal to its share of the total mass. Ties break toward the lower
class index, and sums are taken in sorted order, so the result is independent
of worker order. :func:`fuse` does this for all nodes at once on the guess
arrays annotate records; :func:`aggregate_all` keys its result by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotate import Guesses


@dataclass
class PseudoLabel:
    node: int
    label: int
    confidence: float
    unparseable_count: int


@dataclass
class Fusion:
    """What :func:`fuse` computes for n nodes."""

    label: np.ndarray  # (n,) fused class; -1 where no worker parsed
    confidence: np.ndarray  # (n,) the label's share of the mass; 0 where dropped
    usable: np.ndarray  # (n,) workers that parsed
    # per worker column k: (k, top-1 accuracy, nodes evaluated); [] without truth
    accuracy: list[tuple[int, float, int]]


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


def aggregate_all(
    guesses: Guesses, class_names: list[str]
) -> tuple[dict[int, PseudoLabel], list[int]]:
    """Fuse the guesses of every node that :func:`annotate.annotate_graph`
    recorded; returns pseudo-labels plus the node ids that were dropped
    because no worker parsed. Raises ValueError when ``mass`` does not have
    one class column per class name."""
    if guesses.mass.shape[2:] != (len(class_names),):
        raise ValueError(
            f"guess mass of shape {guesses.mass.shape} does not fit {len(class_names)} classes"
        )
    fused = fuse(guesses.top1, guesses.mass)
    workers = guesses.top1.shape[1]
    pseudo: dict[int, PseudoLabel] = {}
    dropped: list[int] = []
    for node, label, confidence, usable in zip(
        guesses.nodes.tolist(), fused.label.tolist(), fused.confidence.tolist(), fused.usable.tolist()
    ):
        if label < 0:
            dropped.append(node)
        else:
            pseudo[node] = PseudoLabel(node, label, confidence, workers - usable)
    return pseudo, dropped
