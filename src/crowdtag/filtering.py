"""Two-stage training-set selection over annotated nodes.

Stage one ranks nodes by a convex combination of PageRank, cluster density
(one over one-plus-distance to the nearest k-means center), and total degree,
each min-max normalized over the candidate pool, and keeps the top K. Stage
two re-ranks the survivors by change-of-entropy plus aggregated annotation
confidence (again min-max normalized) and keeps the top ``ceil(K * eta)``.

All scoring is deterministic: identical inputs and seeds give the identical
final node list. Ties always break toward the lower node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedTAG


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual."""

    def __init__(self, message: str, last_delta: float):
        super().__init__(message)
        self.last_delta = last_delta


@dataclass
class ClusterModel:
    """Fitted k-means state: centers, nearest-center assignment, inertia."""

    centers: np.ndarray
    assignment: np.ndarray
    inertia: float
    inertia_history: list[float] = field(default_factory=list)


@dataclass
class StructuralScores:
    """Stage-one inputs of every node, indexed by node id: PageRank, cluster
    density and total degree. They depend only on the graph, its features,
    the damping factor and the k-means seed."""

    pagerank: np.ndarray
    c_density: np.ndarray
    degree: np.ndarray


@dataclass
class FilterScores:
    """Per-node scoring state for the selection dump (CSV + analysis).

    Stage-two columns hold NaN for nodes that did not survive stage one.
    ``selected_stage`` is 0 (dropped), 1 (stage-one only) or 2 (final set).
    """

    node_ids: np.ndarray
    pagerank: np.ndarray
    c_density: np.ndarray
    degree: np.ndarray
    s1: np.ndarray
    coe: np.ndarray
    confidence: np.ndarray
    s2: np.ndarray
    selected_stage: np.ndarray


def pagerank(
    graph: DirectedTAG,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> np.ndarray:
    """Power iteration on the directed edges with uniform teleport.

    Dangling-node mass is redistributed uniformly. Converges when the L1
    change between iterates drops below ``tol``.
    """
    n = graph.num_nodes
    if n < 1:
        raise ValueError("graph has no nodes")
    src, dst = graph.edge_array.T
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_deg == 0

    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        contrib = np.zeros(n)
        if src.size:
            np.add.at(contrib, dst, x[src] / out_deg[src])
        dangling_mass = x[dangling].sum() / n
        x_new = (1.0 - damping) / n + damping * (contrib + dangling_mass)
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta < tol:
            return x
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (last delta {delta:.3e})",
        last_delta=delta,
    )


def _sq_dists(x: np.ndarray, centers: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """(n, k) squared euclidean distances from every point to every center.

    One center at a time into ``scratch`` (``np.empty_like(x)`` when not
    given), so the only (n, d) temporary is that one buffer.
    """
    if scratch is None:
        scratch = np.empty_like(x)
    out = np.empty((x.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        out[:, j] = np.square(np.subtract(x, c, out=scratch), out=scratch).sum(axis=1)
    return out


def _sq_residuals(
    x: np.ndarray, centers: np.ndarray, assignment: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``(x - centers[assignment]) ** 2``, computed in ``scratch``.

    ``mode="clip"`` (a no-op on valid assignments) lets ``take`` write into
    ``scratch`` directly instead of through a buffer of the same size.
    """
    np.take(centers, assignment, axis=0, out=scratch, mode="clip")
    return np.square(np.subtract(x, scratch, out=scratch), out=scratch)


def kmeans(
    features: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> ClusterModel:
    """Lloyd iterations from a kmeans++-style seeded init.

    Deterministic given the seed. Empty clusters are re-seeded to the point
    farthest from its assigned center. Inertia is recorded per iteration and
    must never increase.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)  # row slices of the scratch are contiguous
    n = x.shape[0]
    if n < k:
        raise ValueError(f"need at least {k} points for {k} clusters, have {n}")
    rng = np.random.default_rng(seed)

    scratch = np.empty_like(x)  # the one (n, d) buffer every step below reuses
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    sq_dist = _sq_dists(x, centers[:1], scratch)[:, 0]
    for j in range(1, k):
        total = sq_dist.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=sq_dist / total))
        centers[j] = x[idx]
        sq_dist = np.minimum(sq_dist, _sq_dists(x, centers[j : j + 1], scratch)[:, 0])

    history: list[float] = []
    assignment = np.zeros(n, dtype=np.intp)
    for _ in range(max_iter):
        assignment = _sq_dists(x, centers, scratch).argmin(axis=1)
        for j in range(k):
            rows = np.flatnonzero(assignment == j)
            if rows.size:
                # x[rows].mean(axis=0), with the rows gathered into the scratch
                members = np.take(x, rows, axis=0, out=scratch[: rows.size], mode="clip")
                centers[j] = members.mean(axis=0)
            else:
                # farthest point from its current center takes over
                cur = _sq_residuals(x, centers, assignment, scratch).sum(axis=1)
                farthest = int(cur.argmax())
                centers[j] = x[farthest]
                assignment[farthest] = j
        inertia = float(_sq_residuals(x, centers, assignment, scratch).sum())
        if history and inertia > history[-1] + 1e-9 * (1.0 + history[-1]):
            raise AssertionError(
                f"k-means inertia increased: {history[-1]} -> {inertia}"
            )
        converged = bool(history) and history[-1] - inertia < tol
        history.append(inertia)
        if converged:
            break
    # final pass so the returned assignment is exactly nearest-center
    # (reseeding can leave a moved point on an equidistant duplicate center)
    dists = _sq_dists(x, centers, scratch)
    assignment = dists.argmin(axis=1)
    return ClusterModel(
        centers=centers,
        assignment=assignment,
        inertia=float(dists[np.arange(n), assignment].sum()),
        inertia_history=history,
    )


def c_density(features: np.ndarray, model: ClusterModel) -> np.ndarray:
    """1 / (1 + euclidean distance to the nearest cluster center), per node."""
    x = np.asarray(features, dtype=np.float64)
    dists = np.sqrt(_sq_dists(x, model.centers))
    return 1.0 / (1.0 + dists.min(axis=1))


def structural_scores(
    graph: DirectedTAG,
    features: np.ndarray,
    damping: float = 0.85,
    kmeans_seed: int = 0,
) -> StructuralScores:
    """PageRank, ``c_density`` under a k-means of ``features`` with one
    cluster per class, and degree, for every node of ``graph``."""
    pr = pagerank(graph, damping=damping)
    model = kmeans(features, k=graph.num_classes, seed=kmeans_seed)
    return StructuralScores(
        pagerank=pr,
        c_density=c_density(features, model),
        degree=np.bincount(graph.edge_array.ravel(), minlength=graph.num_nodes).astype(np.float64),
    )


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant vector normalizes to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def stage1_scores(
    pagerank_scores: np.ndarray,
    density_scores: np.ndarray,
    degrees: np.ndarray,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Convex combination of the normalized structure/feature metrics.

    The degree weight is the remainder ``1 - gamma - lam``, so the three
    weights always sum to one.
    """
    if gamma < 0 or lam < 0 or gamma + lam > 1.0:
        raise ValueError(f"need gamma, lam >= 0 and gamma + lam <= 1, got {gamma}, {lam}")
    theta = 1.0 - gamma - lam
    return (
        gamma * minmax_normalize(pagerank_scores)
        + lam * minmax_normalize(density_scores)
        + theta * minmax_normalize(degrees)
    )


def select_top_k(node_ids: np.ndarray, scores: np.ndarray, k: int) -> list[int]:
    """Top-k node ids by score, ties to the lower id; sorted (score desc, id asc)."""
    if k < 0:
        raise ValueError(f"cannot select a negative number of nodes ({k})")
    if k > len(node_ids):
        raise ValueError(f"cannot select {k} of {len(node_ids)} nodes")
    order = sorted(range(len(node_ids)), key=lambda i: (-scores[i], node_ids[i]))
    return [int(node_ids[i]) for i in order[:k]]


def shannon_entropy(counts: np.ndarray) -> float:
    """Entropy in nats of the empirical distribution given by class counts."""
    total = counts.sum()
    if total == 0:
        return 0.0
    nz = counts[counts > 0].astype(np.float64)
    return float(math.log(total) - (nz * np.log(nz)).sum() / total)


def coe(selected: list[int], pseudo_label_of: dict[int, int], num_classes: int) -> np.ndarray:
    """Leave-one-out change of entropy for every selected node.

    COE(v) is the entropy of the selected set's pseudo-label distribution
    with v removed, minus the entropy with v included. Computed incrementally
    from the class counts rather than re-tallying per node.
    """
    if not selected:
        raise ValueError("selected set is empty")
    counts = np.zeros(num_classes, dtype=np.int64)
    for v in selected:
        counts[pseudo_label_of[v]] += 1
    h_full = shannon_entropy(counts)

    h_without = np.empty(num_classes)
    for c in range(num_classes):
        if counts[c] == 0:
            h_without[c] = np.nan
            continue
        reduced = counts.copy()
        reduced[c] -= 1
        h_without[c] = shannon_entropy(reduced)
    return np.array([h_without[pseudo_label_of[v]] - h_full for v in selected])


def stage2_select(
    selected: list[int],
    coe_scores: np.ndarray,
    confidences: np.ndarray,
    eta: float,
) -> tuple[list[int], np.ndarray]:
    """Keep the top ``ceil(K * eta)`` of the stage-one set by COE + confidence.

    The two terms are summed on their raw scales. COE is constant within a
    pseudo-label class (it depends only on the class counts), so rescaling it
    to the confidence range would rank whole classes above others and strip
    minority classes out of the training set; on its natural scale (a few
    thousandths of a nat for realistic pool sizes) it acts as the intended
    mild tie-breaker. Returns the final node list and the per-node score.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    s2 = np.asarray(coe_scores, dtype=np.float64) + np.asarray(confidences, dtype=np.float64)
    count = math.ceil(len(selected) * eta)
    return select_top_k(np.asarray(selected), s2, count), s2


def run_filter(
    graph: DirectedTAG,
    features: np.ndarray,
    annotated_nodes: list[int],
    confidences: dict[int, float],
    pseudo_label_of: dict[int, int],
    gamma: float,
    lam: float,
    eta: float,
    k: int,
    kmeans_seed: int = 0,
    damping: float = 0.85,
    structure: StructuralScores | None = None,
) -> tuple[list[int], FilterScores]:
    """Full two-stage pipeline over the annotated candidate pool.

    ``structure`` is ``structural_scores(graph, features, damping,
    kmeans_seed)`` when a caller already has it; it is computed when absent.
    """
    if not annotated_nodes:
        raise ValueError("no annotated nodes to filter")
    pool = np.asarray(sorted(annotated_nodes), dtype=np.intp)
    if structure is None:
        structure = structural_scores(graph, features, damping=damping, kmeans_seed=kmeans_seed)

    pr, dens, deg = structure.pagerank[pool], structure.c_density[pool], structure.degree[pool]
    s1 = stage1_scores(pr, dens, deg, gamma, lam)
    stage1_nodes = select_top_k(pool, s1, min(k, len(pool)))

    coe_scores = coe(stage1_nodes, pseudo_label_of, graph.num_classes)
    conf = np.array([confidences[v] for v in stage1_nodes])
    final_nodes, s2 = stage2_select(stage1_nodes, coe_scores, conf, eta)

    pos = {int(v): i for i, v in enumerate(pool)}
    n_pool = len(pool)
    coe_col = np.full(n_pool, np.nan)
    conf_col = np.full(n_pool, np.nan)
    s2_col = np.full(n_pool, np.nan)
    stage_col = np.zeros(n_pool, dtype=np.intp)
    for i, v in enumerate(stage1_nodes):
        j = pos[v]
        coe_col[j] = coe_scores[i]
        conf_col[j] = conf[i]
        s2_col[j] = s2[i]
        stage_col[j] = 1
    for v in final_nodes:
        stage_col[pos[v]] = 2

    scores = FilterScores(
        node_ids=pool,
        pagerank=pr,
        c_density=dens,
        degree=deg,
        s1=s1,
        coe=coe_col,
        confidence=conf_col,
        s2=s2_col,
        selected_stage=stage_col,
    )
    return final_nodes, scores
