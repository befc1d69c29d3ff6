"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 10's public-dataset half needs the real Cora files (point
``CORA_DIR`` at them); it reports SKIP when they are absent.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from crowdtag.aggregate import aggregate_all, fuse
from crowdtag.annotate import (
    BudgetState,
    ResponseCache,
    SyntheticOracleClient,
    ResponseParseError,
    annotate_graph,
    parse_response,
)
from crowdtag.dataio import ParseError, parse_cites, parse_content
from crowdtag.filtering import (
    coe,
    kmeans,
    pagerank,
    run_filter,
    select_top_k,
    stage1_scores,
    stage2_select,
)
from crowdtag.fixtures import load_fixture_graph
from crowdtag.gcn import GCNConfig, gradient_check, init_model, normalize_adjacency, train
from crowdtag.homophily import (
    HomophilyParams,
    boundary_sweep,
    build_q,
    dominance_gap,
    q_power_closed_form,
    simulate_propagation,
)
from crowdtag.pipeline import GCNTrainConfig, train_once
from crowdtag.synthetic import synthetic_citation_graph

from test_dataio import cora_dir, line_count_oracle
from test_filtering import coe_from_scratch
from test_gcn import separable_toy
from test_homophily import matrix_power_oracle


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


# -------------------------------------------------------------------------
# 1. closed-form transition powers vs brute force
# -------------------------------------------------------------------------

def test_criterion_1_theorem_reproduction():
    start = time.time()
    p = HomophilyParams(alpha=0.7, num_classes=3)
    q2 = q_power_closed_form(p, 2)
    assert q2[0, 0] == pytest.approx(0.5350, abs=1e-12)
    assert q2[0, 1] == pytest.approx(0.2325, abs=1e-12)
    np.testing.assert_allclose(q2.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(q2 - matrix_power_oracle(build_q(p), 2))) < 1e-12
    gap, dominant = dominance_gap(p, 2)
    assert gap == pytest.approx(0.3025, abs=1e-12) and dominant

    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = HomophilyParams(
            alpha=float(rng.random()), num_classes=int(rng.integers(2, 11))
        )
        h = int(rng.integers(0, 9))
        closed = q_power_closed_form(params, h)
        brute = matrix_power_oracle(build_q(params), h)
        assert np.max(np.abs(closed - brute)) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"closed-form powers match brute force to 1e-12 ({elapsed:.2f}s)")


# -------------------------------------------------------------------------
# 2. Monte Carlo check of the two-hop same-label probability
# -------------------------------------------------------------------------

def test_criterion_2_monte_carlo_theorem():
    start = time.time()
    p = HomophilyParams(alpha=0.7, num_classes=3)
    reports = simulate_propagation(p, h=2, num_roots=1600, fanout=8, seed=7)
    final = reports[-1]
    assert final.samples >= 100_000
    deviation = abs(final.empirical - 0.5350)
    assert deviation <= 3.0 * final.std_error
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        2,
        f"{final.samples} samples: empirical {final.empirical:.4f} within "
        f"3 SE of 0.5350 ({elapsed:.2f}s)",
    )


# -------------------------------------------------------------------------
# 3. one-hop dominance boundary
# -------------------------------------------------------------------------

def test_criterion_3_one_hop_boundary():
    for num_classes in (2, 3, 7):
        for alpha, dominant, above in boundary_sweep(num_classes):
            assert dominant == above, f"alpha={alpha}, classes={num_classes}"
    report(3, "non-strict 1-hop dominance holds iff alpha >= 1/num_classes")


# -------------------------------------------------------------------------
# 4. pipeline beats a random-selection baseline of equal budget
# -------------------------------------------------------------------------

def _pipeline_vs_random(graph, k, eta, ann_seed, n_seeds=5):
    client = SyntheticOracleClient(graph, noise=0.3, seed=ann_seed)
    annotations = annotate_graph(
        graph, list(range(graph.num_nodes)), client,
        ResponseCache(), BudgetState(limit_usd=10.0), model="oracle",
    )
    pseudo, _ = aggregate_all(annotations, graph.class_names)
    truth = {v: graph.labels[v] for v in pseudo}
    labels = {v: p.label for v, p in pseudo.items()}
    confs = {v: p.confidence for v, p in pseudo.items()}
    final, _ = run_filter(
        graph, graph.features, sorted(labels), confs, labels,
        gamma=0.1, lam=0.6, eta=eta, k=k, kmeans_seed=0,
    )
    pool = sorted(labels)
    csa_accs, random_accs = [], []
    for s in range(n_seeds):
        cfg = GCNTrainConfig(epochs=200, seed=s)
        _, acc, _, _ = train_once(graph, final, labels, cfg)
        csa_accs.append(acc)
        rng = np.random.default_rng(1000 + s)
        random_nodes = sorted(rng.choice(pool, size=len(final), replace=False).tolist())
        _, acc_r, _, _ = train_once(graph, random_nodes, labels, cfg)
        random_accs.append(acc_r)

    agg_acc = np.mean([pseudo[v].label == truth[v] for v in pseudo])
    truth_rows = np.array([graph.labels[v] for v in annotations.nodes.tolist()])
    acc_rows = fuse(annotations.top1, annotations.mass, truth_rows).accuracy
    config0_acc = acc_rows[0][1]
    margin = (np.mean(csa_accs) - np.mean(random_accs)) * 100
    return margin, agg_acc, config0_acc


def test_criterion_4_pipeline_beats_random_baseline():
    start = time.time()

    fixture = load_fixture_graph()
    margin30, agg30, w030 = _pipeline_vs_random(fixture, k=20, eta=0.45, ann_seed=3)
    assert margin30 >= 3.0, f"30-node fixture margin {margin30:.1f} < 3 points"
    assert agg30 >= w030, f"aggregation {agg30:.3f} < config-0 {w030:.3f}"

    big = synthetic_citation_graph(
        n=1000, num_classes=4, alpha=0.65, avg_out_degree=3.0,
        feature_dim=10, feature_noise=3.0, seed=11,
    )
    margin1k, agg1k, w01k = _pipeline_vs_random(big, k=120, eta=0.2, ann_seed=7)
    assert margin1k >= 3.0, f"1000-node margin {margin1k:.1f} < 3 points"
    assert agg1k >= w01k, f"aggregation {agg1k:.3f} < config-0 {w01k:.3f}"

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        4,
        f"margins over random: fixture {margin30:+.1f} pts, 1000-node {margin1k:+.1f} pts; "
        f"aggregation beats worker 0 ({agg30:.3f}>={w030:.3f}, {agg1k:.3f}>={w01k:.3f}) "
        f"({elapsed:.0f}s)",
    )


# -------------------------------------------------------------------------
# 5. two-stage selection mechanics
# -------------------------------------------------------------------------

def test_criterion_5_filter_mechanics():
    gamma, lam, eta = 0.02, 0.78, 0.15
    theta = 1.0 - gamma - lam
    assert theta == pytest.approx(0.20, abs=1e-12)

    rng = np.random.default_rng(99)
    n, k = 400, 100
    p = rng.random(n)
    d = rng.random(n)
    deg = rng.integers(0, 50, size=n).astype(float)
    s1 = stage1_scores(p, d, deg, gamma, lam)
    ids = np.arange(n)
    stage1 = select_top_k(ids, s1, k)
    assert len(stage1) == k

    labels = {v: int(rng.integers(4)) for v in stage1}
    coe_scores = coe(stage1, labels, 4)
    confs = rng.random(k)
    final, _ = stage2_select(stage1, coe_scores, confs, eta)
    assert len(final) == math.ceil(k * eta) == 15
    assert set(final) <= set(stage1)

    for _ in range(100):
        scores = rng.random(n)
        got = select_top_k(ids, scores, k)
        oracle = [int(i) for i in sorted(ids, key=lambda i: (-scores[i], i))[:k]]
        assert got == oracle
    report(5, "stage sizes exact, weights (0.02, 0.78, 0.20), top-k matches sort oracle")


# -------------------------------------------------------------------------
# 6. change-of-entropy correctness
# -------------------------------------------------------------------------

def test_criterion_6_coe_correctness():
    labels = {0: 0, 1: 0, 2: 1, 3: 1}
    values = coe([0, 1, 2, 3], labels, num_classes=2)
    assert values[0] == pytest.approx(-0.0566, abs=1e-4)

    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(1, 50))
        num_classes = int(rng.integers(2, 9))
        nodes = list(range(size))
        label_of = {v: int(rng.integers(num_classes)) for v in nodes}
        incremental = coe(nodes, label_of, num_classes)
        scratch = coe_from_scratch(nodes, label_of)
        worst = max(worst, float(np.max(np.abs(np.asarray(incremental) - scratch))))
    assert worst < 1e-12
    report(6, f"incremental COE matches from-scratch entropy (max dev {worst:.2e})")


# -------------------------------------------------------------------------
# 7. GCN numerics
# -------------------------------------------------------------------------

def test_criterion_7_gcn_numerics():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(2, 8))
        g = synthetic_citation_graph(n=n, num_classes=3, feature_dim=d, seed=trial)
        cfg = GCNConfig(hidden=int(rng.integers(2, 7)), dropout=0.0, seed=trial)
        a_hat = normalize_adjacency(g)
        model = init_model(a_hat, a_hat @ g.features, 3, cfg)
        nodes = np.arange(max(2, n // 2))
        labels = np.array([g.labels[v] for v in nodes])
        worst = max(worst, gradient_check(model, nodes, labels))
    assert worst < 1e-4

    def fixed_seed_history():
        g = synthetic_citation_graph(n=25, num_classes=3, seed=3)
        cfg = GCNConfig(epochs=40, seed=12)
        a_hat = normalize_adjacency(g)
        model = init_model(a_hat, a_hat @ g.features, 3, cfg)
        nodes = np.arange(12)
        labels = np.array([g.labels[v] for v in nodes])
        hist = train(model, nodes, labels)
        return [(r.loss, r.train_acc) for r in hist]

    assert fixed_seed_history() == fixed_seed_history()

    toy = separable_toy()
    cfg = GCNConfig(hidden=8, dropout=0.0, epochs=200, seed=0)
    a_hat = normalize_adjacency(toy)
    model = init_model(a_hat, a_hat @ toy.features, 2, cfg)
    hist = train(model, np.arange(8), np.array(toy.labels))
    assert max(r.train_acc for r in hist) == 1.0
    report(
        7,
        f"gradient check worst {worst:.2e} < 1e-4; training bit-reproducible; "
        "separable toy reaches accuracy 1.0",
    )


# -------------------------------------------------------------------------
# 8. PageRank and k-means oracles
# -------------------------------------------------------------------------

def test_criterion_8_pagerank_and_kmeans():
    from conftest import tiny_graph

    cycle = tiny_graph([(0, 1), (1, 2), (2, 0)], n=3)
    p = pagerank(cycle)
    np.testing.assert_allclose(p, 1 / 3, atol=1e-9)

    for seed in (1, 2, 3):
        g = synthetic_citation_graph(n=80, num_classes=3, seed=seed)
        assert pagerank(g).sum() == pytest.approx(1.0, abs=1e-9)
    fixture = load_fixture_graph()
    assert pagerank(fixture).sum() == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(8)
    for trial in range(5):
        x = rng.normal(size=(70, 4))
        model = kmeans(x, k=4, seed=trial)
        hist = model.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    blob_a = rng.normal(loc=(0, 0), scale=0.4, size=(150, 2))
    blob_b = rng.normal(loc=(8, 8), scale=0.4, size=(150, 2))
    model = kmeans(np.vstack([blob_a, blob_b]), k=2, seed=0)
    centers = model.centers[np.argsort(model.centers[:, 0])]
    assert np.linalg.norm(centers[0] - blob_a.mean(axis=0)) < 0.1
    assert np.linalg.norm(centers[1] - blob_b.mean(axis=0)) < 0.1
    report(8, "PageRank sums/symmetry exact; k-means inertia monotone, blobs recovered")


# -------------------------------------------------------------------------
# 9. annotator robustness
# -------------------------------------------------------------------------

def test_criterion_9_annotator_robustness(tmp_path):
    classes = ["Theory", "Systems", "Learning"]
    rng = np.random.default_rng(4242)
    failures = 0
    for _ in range(10_000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 300)), dtype=np.uint8))
        try:
            parse_response(blob.decode("latin-1"), classes)
        except ResponseParseError:
            failures += 1
        # any other exception propagates and fails the test

    fixture = load_fixture_graph()

    class CountingClient:
        calls = 0

        def complete(self, prompt):
            CountingClient.calls += 1
            from crowdtag.annotate import ClientResponse

            return ClientResponse('[{"answer": "Robotics", "confidence": 90}]', 10, 5)

    budget = BudgetState(limit_usd=1.0)
    with ResponseCache(tmp_path / "cache.jsonl") as cache:
        first = annotate_graph(fixture, [0], CountingClient(), cache, budget, model="m")
        sent = CountingClient.calls
        annotate_graph(fixture, [0], CountingClient(), cache, budget, model="m")
    assert CountingClient.calls == sent == len({h for row in first.prompt_hashes for h in row})

    from crowdtag import cli, pipeline
    from crowdtag.fixtures import fixture_paths
    import json

    content, cites, texts = fixture_paths()
    cfg = {
        "dataset": {"content": str(content), "cites": str(cites), "texts": str(texts)},
        "annotator": {
            "mode": "llm", "endpoint": "http://127.0.0.1:1/v1", "model": "x",
            "budget_usd": 0.0, "retries": 0, "backoff_s": 0.0,
        },
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["pipeline", "--config", str(cfg_path)])
    assert code == pipeline.EXIT_BUDGET == 3
    report(
        9,
        f"10k fuzzed inputs handled ({failures} clean parse failures); cache idempotent; "
        "zero budget exits with code 3",
    )


# -------------------------------------------------------------------------
# 10. dataset ingestion
# -------------------------------------------------------------------------

def test_criterion_10_dataset_ingestion(tmp_path):
    bad_content = tmp_path / "bad.content"
    bad_content.write_text("p1 0 1 Theory\np2 1 0 1 Theory\n")
    with pytest.raises(ParseError, match=":2"):
        parse_content(bad_content)

    bad_cites = tmp_path / "bad.cites"
    bad_cites.write_text("p1\tp2\nonly_one_key\n")
    with pytest.raises(ParseError, match=":2"):
        parse_cites(bad_cites)

    d = cora_dir()
    if d is None:
        report(10, "malformed files produce line-numbered errors "
                   "(public Cora half SKIPPED: files not present, set CORA_DIR)")
        pytest.skip("public Cora files not available (set CORA_DIR)")

    rows, dim, labels = line_count_oracle(d / "cora.content")
    assert (rows, dim, len(labels)) == (2708, 1433, 7)
    keys, features, _ = parse_content(d / "cora.content")
    assert len(keys) == 2708 and features[0].size == 1433
    report(10, "Cora parses to 2708 nodes / 1433 features / 7 classes; "
               "malformed files produce line-numbered errors")
