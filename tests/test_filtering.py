from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from crowdtag.filtering import (
    ConvergenceError,
    _sq_dists,
    c_density,
    coe,
    kmeans,
    minmax_normalize,
    pagerank,
    run_filter,
    select_top_k,
    shannon_entropy,
    stage1_scores,
    stage2_select,
    structural_scores,
)
from crowdtag.synthetic import synthetic_citation_graph

from conftest import tiny_graph


# --- independent oracles -----------------------------------------------------

def dense_pagerank_oracle(graph, damping: float, iters: int = 500) -> np.ndarray:
    """Power iteration on the dense transition matrix (teleport + dangling)."""
    n = graph.num_nodes
    a = graph.adjacency_matrix().astype(np.float64)
    out_deg = a.sum(axis=1)
    t = np.zeros((n, n))
    for u in range(n):
        if out_deg[u] > 0:
            t[u] = a[u] / out_deg[u]
        else:
            t[u] = 1.0 / n
    m = damping * t.T + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x = m @ x
    return x


def entropy_from_scratch(labels: list[int]) -> float:
    """Textbook Shannon entropy of a label multiset (natural log)."""
    if not labels:
        return 0.0
    n = len(labels)
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log(p)
    return h


def coe_from_scratch(selected: list[int], label_of: dict[int, int]) -> list[float]:
    full = [label_of[v] for v in selected]
    out = []
    for i, _v in enumerate(selected):
        rest = full[:i] + full[i + 1 :]
        out.append(entropy_from_scratch(rest) - entropy_from_scratch(full))
    return out


# --- pagerank -------------------------------------------------------------------

def test_pagerank_three_cycle():
    g = tiny_graph([(0, 1), (1, 2), (2, 0)], n=3)
    p = pagerank(g)
    np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-9)


def test_pagerank_single_node():
    g = tiny_graph([], n=1)
    assert pagerank(g)[0] == pytest.approx(1.0, abs=1e-12)


def test_pagerank_star_matches_dense_oracle():
    g = tiny_graph([(0, 1), (0, 2), (0, 3)], n=4)
    p = pagerank(g, damping=0.85)
    oracle = dense_pagerank_oracle(g, 0.85)
    np.testing.assert_allclose(p, oracle, atol=1e-9)
    assert p[1] == pytest.approx(p[2], abs=1e-12)
    assert p[2] == pytest.approx(p[3], abs=1e-12)


def test_pagerank_random_graphs_match_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = synthetic_citation_graph(
            n=int(rng.integers(5, 60)), num_classes=3, seed=int(rng.integers(1e6))
        )
        p = pagerank(g)
        oracle = dense_pagerank_oracle(g, 0.85)
        np.testing.assert_allclose(p, oracle, atol=1e-8)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p > 0).all()


def test_pagerank_nonconvergence_carries_delta():
    g = tiny_graph([(0, 1), (1, 0)], n=2)
    with pytest.raises(ConvergenceError) as err:
        pagerank(g, tol=0.0, max_iter=3)
    assert err.value.last_delta >= 0.0


# --- kmeans ----------------------------------------------------------------------

def test_kmeans_k_equals_n():
    x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    model = kmeans(x, k=3, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.assignment.tolist()) == [0, 1, 2]


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(loc=(0, 0), scale=0.3, size=(100, 2))
    blob_b = rng.normal(loc=(10, 10), scale=0.3, size=(100, 2))
    x = np.vstack([blob_a, blob_b])
    model = kmeans(x, k=2, seed=1)
    centers = model.centers[np.argsort(model.centers[:, 0])]
    np.testing.assert_allclose(centers[0], blob_a.mean(axis=0), atol=0.1)
    np.testing.assert_allclose(centers[1], blob_b.mean(axis=0), atol=0.1)


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 5))
    a = kmeans(x, k=4, seed=7)
    b = kmeans(x, k=4, seed=7)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_kmeans_inertia_monotone():
    rng = np.random.default_rng(3)
    for trial in range(10):
        x = rng.normal(size=(60, 4))
        model = kmeans(x, k=5, seed=trial)
        hist = model.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_rejects_too_few_points():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3)), k=5)


def test_kmeans_handles_empty_cluster_reseed():
    # duplicate-heavy data forces duplicate centers at init; the empty
    # cluster must be re-seeded instead of producing NaN means
    x = np.vstack([np.zeros((9, 2)), [[5.0, 0.0]]])
    model = kmeans(x, k=3, seed=0)
    assert np.isfinite(model.centers).all()
    assert np.isfinite(model.inertia)
    dists = ((x[:, None, :] - model.centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(model.assignment, dists.argmin(axis=1))


def test_kmeans_assignment_is_nearest_center():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 3))
    model = kmeans(x, k=4, seed=0)
    dists = ((x[:, None, :] - model.centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(model.assignment, dists.argmin(axis=1))


def test_sq_dists_bit_identical_to_broadcast():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, k, d = (int(v) for v in rng.integers(1, 40, size=3))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        centers = rng.normal(size=(k, d))
        reference = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(_sq_dists(x, centers), reference)


def test_kmeans_scratch_below_n_k_d_tensor():
    n, k, d = 2000, 8, 64
    x = np.random.default_rng(22).normal(size=(n, d))
    tracemalloc.start()
    try:
        kmeans(x, k=k, seed=0, max_iter=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8  # about one (n, d) scratch, far below n * k * d


def kmeans_gathering_reference(x, k, seed=0, max_iter=100, tol=1e-6):
    """k-means as written with full-size temporaries (``centers[assignment]``,
    ``x[mask]``): the arithmetic ``kmeans`` must reproduce bit for bit."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    sq_dist = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = sq_dist.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=sq_dist / total))
        centers[j] = x[idx]
        sq_dist = np.minimum(sq_dist, ((x - centers[j]) ** 2).sum(axis=1))
    history = []
    for _ in range(max_iter):
        assignment = _sq_dists(x, centers).argmin(axis=1)
        for j in range(k):
            mask = assignment == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
            else:
                farthest = int(((x - centers[assignment]) ** 2).sum(axis=1).argmax())
                centers[j] = x[farthest]
                assignment[farthest] = j
        inertia = float(((x - centers[assignment]) ** 2).sum())
        converged = bool(history) and history[-1] - inertia < tol
        history.append(inertia)
        if converged:
            break
    return centers, _sq_dists(x, centers).argmin(axis=1), history


def test_kmeans_bit_identical_to_gathering_reference():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n, d = int(rng.integers(3, 200)), int(rng.integers(1, 20))
        k = int(rng.integers(1, min(n, 8) + 1))
        if trial % 2:  # few distinct rows: duplicate centers and empty-cluster reseeds
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            x = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        centers, assignment, history = kmeans_gathering_reference(x, k, seed=trial)
        model = kmeans(x, k=k, seed=trial)
        np.testing.assert_array_equal(model.centers, centers)
        np.testing.assert_array_equal(model.assignment, assignment)
        assert model.inertia_history == history


# --- c_density -------------------------------------------------------------------

def test_c_density_values():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    model = kmeans(np.vstack([centers, centers]), k=2, seed=0)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    d = c_density(x, model)
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(0.5)
    assert d[2] == pytest.approx(0.25)


# --- stage-one scores --------------------------------------------------------------

def test_stage1_weighted_combination():
    # normalized inputs chosen to hit P_hat=1, D_hat=0.5, Deg_hat=0 on node 0
    p = np.array([3.0, 1.0, 2.0])
    d = np.array([0.5, 0.0, 1.0])
    deg = np.array([0.0, 4.0, 2.0])
    s1 = stage1_scores(p, d, deg, gamma=0.02, lam=0.78)
    assert s1[0] == pytest.approx(0.02 * 1.0 + 0.78 * 0.5 + 0.20 * 0.0, abs=1e-12)


def test_stage1_constant_metric_normalizes_to_zero():
    s1 = stage1_scores(
        np.array([0.5, 0.5]), np.array([1.0, 2.0]), np.array([3.0, 3.0]), 0.5, 0.25
    )
    # pagerank and degree constant -> only density contributes
    assert s1[0] == pytest.approx(0.0)
    assert s1[1] == pytest.approx(0.25)


def test_stage1_gamma_one_is_pagerank_ranking():
    rng = np.random.default_rng(5)
    p = rng.random(20)
    s1 = stage1_scores(p, rng.random(20), rng.random(20), gamma=1.0, lam=0.0)
    assert np.argsort(-s1).tolist() == np.argsort(-p).tolist()


def test_stage1_rejects_bad_weights():
    with pytest.raises(ValueError):
        stage1_scores(np.ones(3), np.ones(3), np.ones(3), 0.7, 0.5)


def test_minmax_normalize_bounds():
    rng = np.random.default_rng(6)
    v = rng.normal(size=100) * 50
    n = minmax_normalize(v)
    assert n.min() == pytest.approx(0.0) and n.max() == pytest.approx(1.0)


# --- top-k selection -----------------------------------------------------------------

def test_select_top_k_basic():
    assert select_top_k(np.arange(3), np.array([3.0, 1.0, 2.0]), 2) == [0, 2]


def test_select_top_k_tie_breaks_by_id():
    assert select_top_k(np.arange(4), np.ones(4), 2) == [0, 1]


def test_select_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        scores = rng.random(100)
        ids = np.arange(100)
        got = select_top_k(ids, scores, 10)
        oracle = [int(i) for i in sorted(ids, key=lambda i: (-scores[i], i))[:10]]
        assert got == oracle


def test_select_top_k_too_large_errors():
    with pytest.raises(ValueError):
        select_top_k(np.arange(3), np.ones(3), 4)


def test_select_top_k_negative_k_errors():
    # a negative slice bound would silently drop nodes from the end instead
    with pytest.raises(ValueError):
        select_top_k(np.arange(3), np.ones(3), -1)
    assert select_top_k(np.arange(3), np.ones(3), 0) == []


# --- change of entropy -----------------------------------------------------------------

def test_coe_hand_case():
    # labels {A,A,B,B}; removing an A gives H({A,B,B}) - H({A,A,B,B})
    labels = {0: 0, 1: 0, 2: 1, 3: 1}
    values = coe([0, 1, 2, 3], labels, num_classes=2)
    expected = entropy_from_scratch([0, 1, 1]) - entropy_from_scratch([0, 0, 1, 1])
    assert values[0] == pytest.approx(expected, abs=1e-12)
    assert values[0] == pytest.approx(-0.0566, abs=1e-4)


def test_coe_uniform_labels_zero():
    labels = {v: 1 for v in range(6)}
    values = coe(list(range(6)), labels, num_classes=3)
    np.testing.assert_allclose(values, 0.0, atol=1e-12)


def test_coe_singleton_set():
    values = coe([5], {5: 2}, num_classes=4)
    assert values[0] == pytest.approx(0.0, abs=1e-15)


def test_coe_matches_from_scratch_recomputation():
    rng = np.random.default_rng(10)
    for _ in range(200):
        size = int(rng.integers(1, 40))
        num_classes = int(rng.integers(2, 8))
        nodes = list(range(size))
        label_of = {v: int(rng.integers(num_classes)) for v in nodes}
        incremental = coe(nodes, label_of, num_classes)
        scratch = coe_from_scratch(nodes, label_of)
        np.testing.assert_allclose(incremental, scratch, atol=1e-12)


def test_shannon_entropy_empty_is_zero():
    assert shannon_entropy(np.zeros(3, dtype=np.int64)) == 0.0


# --- stage-two selection -------------------------------------------------------------

def test_stage2_count_is_ceil():
    selected = list(range(100))
    coe_scores = np.zeros(100)
    conf = np.linspace(0, 1, 100)
    final, _ = stage2_select(selected, coe_scores, conf, eta=0.15)
    assert len(final) == 15


def test_stage2_uniform_confidence_ranks_by_coe():
    selected = [0, 1, 2, 3]
    coe_scores = np.array([0.1, 0.9, 0.5, 0.3])
    conf = np.full(4, 0.7)
    final, _ = stage2_select(selected, coe_scores, conf, eta=0.5)
    assert final == [1, 2]


def test_stage2_eta_one_returns_everything():
    selected = [3, 1, 4]
    final, _ = stage2_select(selected, np.array([0.0, 1.0, 0.5]), np.ones(3), eta=1.0)
    assert set(final) == set(selected)


def test_stage2_rejects_bad_eta():
    with pytest.raises(ValueError):
        stage2_select([0], np.zeros(1), np.zeros(1), eta=0.0)
    with pytest.raises(ValueError):
        stage2_select([0], np.zeros(1), np.zeros(1), eta=1.5)


# --- full filter pipeline --------------------------------------------------------------

def test_run_filter_nesting_and_sizes():
    graph = synthetic_citation_graph(n=120, num_classes=3, seed=21)
    annotated = list(range(graph.num_nodes))
    rng = np.random.default_rng(0)
    labels = {v: int(rng.integers(3)) for v in annotated}
    conf = {v: float(rng.random()) for v in annotated}
    final, scores = run_filter(
        graph, graph.features, annotated, conf, labels,
        gamma=0.02, lam=0.78, eta=0.15, k=40, kmeans_seed=0,
    )
    stage1 = set(scores.node_ids[scores.selected_stage >= 1].tolist())
    assert len(stage1) == 40
    assert len(final) == math.ceil(40 * 0.15)
    assert set(final) <= stage1
    assert set(final) == set(scores.node_ids[scores.selected_stage == 2].tolist())


def test_run_filter_deterministic():
    graph = synthetic_citation_graph(n=80, num_classes=3, seed=33)
    annotated = list(range(graph.num_nodes))
    rng = np.random.default_rng(1)
    labels = {v: int(rng.integers(3)) for v in annotated}
    conf = {v: float(rng.random()) for v in annotated}
    kwargs = dict(gamma=0.1, lam=0.6, eta=0.3, k=30, kmeans_seed=5)
    a, _ = run_filter(graph, graph.features, annotated, conf, labels, **kwargs)
    b, _ = run_filter(graph, graph.features, annotated, conf, labels, **kwargs)
    assert a == b


def test_structural_scores_feed_run_filter_unchanged():
    graph = synthetic_citation_graph(n=90, num_classes=3, seed=34)
    structure = structural_scores(graph, graph.features, damping=0.8, kmeans_seed=4)
    np.testing.assert_array_equal(structure.pagerank, pagerank(graph, damping=0.8))
    model = kmeans(graph.features, k=graph.num_classes, seed=4)
    np.testing.assert_array_equal(structure.c_density, c_density(graph.features, model))
    assert structure.degree.tolist() == [graph.degree(v) for v in range(graph.num_nodes)]

    annotated = list(range(0, graph.num_nodes, 2))
    rng = np.random.default_rng(2)
    labels = {v: int(rng.integers(3)) for v in annotated}
    conf = {v: float(rng.random()) for v in annotated}
    kwargs = dict(gamma=0.1, lam=0.6, eta=0.3, k=20, kmeans_seed=4, damping=0.8)
    a, scores_a = run_filter(graph, graph.features, annotated, conf, labels, **kwargs)
    b, scores_b = run_filter(graph, graph.features, annotated, conf, labels, structure=structure, **kwargs)
    assert a == b
    for name in ("pagerank", "c_density", "degree", "s1", "s2", "selected_stage"):
        np.testing.assert_array_equal(getattr(scores_a, name), getattr(scores_b, name))
