from __future__ import annotations

import numpy as np
import pytest

from crowdtag.gcn import (
    CSR,
    GCNConfig,
    TrainingDivergedError,
    _adam_step,
    evaluate,
    forward,
    gradient_check,
    init_model,
    loss_and_grads,
    normalize_adjacency,
    receptive_field,
    softmax,
    split_nodes,
    train,
)
from crowdtag.synthetic import synthetic_citation_graph

from conftest import random_graph, tiny_graph


# --- independent oracle: straight-line forward recomputation -------------------

def dense(a: CSR) -> np.ndarray:
    out = np.zeros(a.shape)
    out[np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), a.indices] = a.data
    return out


def csr_from_dense(m: np.ndarray) -> CSR:
    rows, cols = np.nonzero(m)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m.shape[0]))])
    return CSR(indptr, cols, m[rows, cols], m.shape)


def forward_oracle(a_hat: np.ndarray, x: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    h = a_hat.dot(x).dot(w1)
    h = np.where(h > 0, h, 0.0)
    return a_hat.dot(h).dot(w2)


def dense_loss_and_grads(a_hat, x, w1, w2, nodes, labels, weight_decay, mask=None):
    """Loss, dW1 and dW2 over every row of a dense A_hat: the full-row
    reference for the training step, which computes only the rows in reach
    of the training nodes."""
    ax = a_hat @ x
    z1 = ax @ w1
    h = np.maximum(z1, 0.0) if mask is None else np.maximum(z1, 0.0) * mask
    ah = a_hat @ h
    probs = softmax(ah @ w2)
    loss = -np.log(probs[nodes, labels]).mean()
    loss += 0.5 * weight_decay * ((w1**2).sum() + (w2**2).sum())
    d_logits = np.zeros_like(probs)
    d_logits[nodes] = probs[nodes]
    d_logits[nodes, labels] -= 1.0
    d_logits /= len(nodes)
    d_w2 = ah.T @ d_logits + weight_decay * w2
    d_h = (a_hat.T @ d_logits) @ w2.T
    if mask is not None:
        d_h = d_h * mask
    d_w1 = ax.T @ (d_h * (z1 > 0.0)) + weight_decay * w1
    return loss, d_w1, d_w2


def small_model(n=6, d=4, h=5, c=3, seed=0, dropout=0.0, **kw):
    g = synthetic_citation_graph(n=n, num_classes=c, feature_dim=d, seed=seed)
    cfg = GCNConfig(hidden=h, dropout=dropout, seed=seed, **kw)
    model = init_model(g, d, c, cfg)
    return g, model


# --- adjacency normalization -----------------------------------------------------

def test_normalize_single_node():
    g = tiny_graph([], n=1)
    a = normalize_adjacency(g)
    assert isinstance(a, CSR)
    np.testing.assert_allclose(dense(a), [[1.0]])


def test_normalize_two_nodes_one_edge():
    g = tiny_graph([(0, 1)], n=2)
    a = normalize_adjacency(g)
    assert isinstance(a, CSR)
    np.testing.assert_allclose(dense(a), np.full((2, 2), 0.5))


def test_normalize_isolated_node_row():
    g = tiny_graph([(0, 1)], n=3)
    a = normalize_adjacency(g)
    assert isinstance(a, CSR)
    np.testing.assert_allclose(dense(a)[2], [0.0, 0.0, 1.0])


def test_normalize_symmetric():
    g = synthetic_citation_graph(n=50, num_classes=3, seed=2)
    a = normalize_adjacency(g)
    assert isinstance(a, CSR)
    np.testing.assert_allclose(dense(a), dense(a).T, atol=1e-15)


def set_based_adjacency(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A_hat's CSR arrays as a set of seen entries builds them, before
    normalize_adjacency read the edge array; the reference for index order."""
    n = graph.num_nodes
    seen: set[tuple[int, int]] = {(v, v) for v in range(n)}
    for u, v in graph.edges():
        seen |= {(u, v), (v, u)}
    entries = sorted(seen)
    deg = np.bincount([a for a, _ in entries], minlength=n)
    inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64))
    indptr = np.concatenate([[0], np.cumsum(deg)]).astype(np.intp)
    indices = np.array([b for _, b in entries], dtype=np.intp)
    data = np.array([inv_sqrt[a] * inv_sqrt[b] for a, b in entries])
    return indptr, indices, data


@pytest.mark.parametrize("seed", range(8))
def test_normalize_matches_dense_and_set_based_references_bit_for_bit(seed):
    g = random_graph(np.random.default_rng(seed), max_nodes=80)
    a = normalize_adjacency(g)
    adj = g.adjacency_matrix()
    ref_dense = (adj | adj.T | np.eye(g.num_nodes, dtype=bool)).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(ref_dense.sum(axis=1))
    assert np.array_equal(dense(a), inv_sqrt[:, None] * ref_dense * inv_sqrt[None, :])
    for name, want in zip(("indptr", "indices", "data"), set_based_adjacency(g)):
        got = getattr(a, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", range(8))
def test_product_matches_scipy_bit_for_bit(seed):
    # scipy's compiled CSR loop is the oracle for the summation order
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=80)
    a = normalize_adjacency(g)
    ref = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    features = rng.normal(size=(g.num_nodes, 300))
    hidden = rng.normal(size=(g.num_nodes, 16))
    assert (a @ features).tobytes() == (ref @ features).tobytes()
    assert (a @ hidden).tobytes() == (ref @ hidden).tobytes()
    assert (a @ hidden).tobytes() == (ref.T @ hidden).tobytes()  # A_hat is symmetric
    # rectangular, with an empty row, and each row's columns in descending order
    m = rng.normal(size=(7, g.num_nodes + 3)) * (rng.random((7, g.num_nodes + 3)) < 0.4)
    m[1] = 0.0
    rows, cols = np.nonzero(m[:, ::-1])
    cols = m.shape[1] - 1 - cols
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=7))])
    rect = CSR(indptr, cols, m[rows, cols], m.shape)
    x = rng.normal(size=(m.shape[1], 5))
    want = sp.csr_matrix((rect.data, rect.indices, rect.indptr), shape=m.shape) @ x
    assert (rect @ x).tobytes() == want.tobytes()


def test_product_rejects_a_mismatched_operand():
    a = normalize_adjacency(tiny_graph([(0, 1)], n=3))
    with pytest.raises(ValueError):
        a @ np.zeros((4, 2))
    with pytest.raises(ValueError):
        CSR([0, 1], [3], [1.0], (1, 3))


# --- forward ---------------------------------------------------------------------

def test_forward_zero_weights_zero_logits():
    g, model = small_model()
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    logits = forward(model, g.features)
    np.testing.assert_array_equal(logits, np.zeros_like(logits))


def test_forward_single_node_is_mlp():
    g = tiny_graph([], n=1)
    cfg = GCNConfig(hidden=4, dropout=0.0, seed=1)
    model = init_model(g, g.feature_dim, 2, cfg)
    x = g.features
    logits = forward(model, x)
    mlp = np.maximum(x @ model.w1, 0.0) @ model.w2
    np.testing.assert_allclose(logits, mlp, atol=1e-12)


def test_forward_matches_duplicate_implementation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g, model = small_model(n=int(rng.integers(3, 15)), seed=int(rng.integers(1e6)))
        logits = forward(model, g.features)
        oracle = forward_oracle(dense(model.a_hat), g.features, model.w1, model.w2)
        assert np.max(np.abs(logits - oracle)) < 1e-12


def test_forward_dimension_mismatch():
    g, model = small_model(d=4)
    with pytest.raises(ValueError):
        forward(model, np.zeros((g.num_nodes, 7)))
    with pytest.raises(ValueError):  # a product of another shape than A_hat @ x
        forward(model, g.features, ax=np.zeros((g.num_nodes + 1, 4)))


def test_training_with_a_given_product_matches_training_without():
    def run(with_ax: bool):
        g, model = small_model(n=20, seed=9, dropout=0.5, epochs=30)
        nodes = np.arange(10)
        labels = np.array([g.labels[v] for v in nodes])
        ax = model.a_hat @ g.features if with_ax else None
        history = train(model, g.features, nodes, labels, ax=ax)
        return [(r.loss, r.train_acc) for r in history], model.w1.copy(), forward(model, g.features, ax=ax)

    (h1, w1a, logits_a), (h2, w1b, logits_b) = run(False), run(True)
    assert h1 == h2
    np.testing.assert_array_equal(w1a, w1b)
    np.testing.assert_array_equal(logits_a, logits_b)


def test_forward_on_another_feature_matrix_uses_its_own_product():
    g, model = small_model(n=12, d=4, seed=5, epochs=5)
    nodes = np.arange(6)
    train(model, g.features, nodes, np.array([g.labels[v] for v in nodes]))
    other = np.random.default_rng(6).normal(size=g.features.shape)
    for x in (other, g.features, other):
        oracle = forward_oracle(dense(model.a_hat), x, model.w1, model.w2)
        assert np.max(np.abs(forward(model, x) - oracle)) < 1e-12


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_csr_propagation_matches_a_dense_reference(dropout):
    # the model propagates over CSR; a dense copy of A_hat and the full-row
    # step, stepped by the same optimizer, are the reference. The reference
    # draws each epoch's dropout mask over every node from the same generator.
    g = synthetic_citation_graph(n=40, num_classes=3, seed=19)
    cfg = GCNConfig(hidden=6, dropout=dropout, seed=2, epochs=15)
    model = init_model(g, g.feature_dim, 3, cfg)
    assert isinstance(model.a_hat, CSR)
    ref = init_model(g, g.feature_dim, 3, cfg)
    a = dense(model.a_hat)
    np.testing.assert_allclose(
        forward_oracle(a, g.features, ref.w1, ref.w2), forward(model, g.features), atol=1e-12
    )
    nodes = np.arange(15)
    labels = np.array([g.labels[v] for v in nodes])
    hist = train(model, g.features, nodes, labels)
    rng = np.random.default_rng(cfg.seed + 1)
    ref_losses, ref_accs = [], []
    for _ in range(cfg.epochs):
        mask = None
        if dropout:
            mask = (rng.random((g.num_nodes, cfg.hidden)) < 1 - dropout) / (1 - dropout)
        loss, d_w1, d_w2 = dense_loss_and_grads(
            a, g.features, ref.w1, ref.w2, nodes, labels, cfg.weight_decay, mask
        )
        _adam_step(ref, d_w1, d_w2)
        ref_losses.append(loss)
        logits = forward_oracle(a, g.features, ref.w1, ref.w2)
        ref_accs.append(float((logits[nodes].argmax(axis=1) == labels).mean()))
    np.testing.assert_allclose([r.loss for r in hist], ref_losses, rtol=1e-10)
    assert [r.train_acc for r in hist] == ref_accs


@pytest.mark.parametrize("seed", range(6))
def test_receptive_field_gradients_match_the_full_row_reference(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=120)
    g.features = rng.normal(size=(g.num_nodes, 9))
    cfg = GCNConfig(hidden=5, dropout=0.5, seed=seed)
    model = init_model(g, 9, 4, cfg)
    nodes = rng.choice(g.num_nodes, size=max(1, g.num_nodes // 6), replace=False)
    labels = rng.integers(0, 4, size=len(nodes))
    mask = (rng.random((g.num_nodes, 5)) < 0.5) / 0.5
    a = dense(model.a_hat)
    reach = receptive_field(model.a_hat, model.a_hat @ g.features, nodes)
    assert reach.rows.tolist() == np.flatnonzero(a[nodes].any(axis=0)).tolist()
    for m in (None, mask):
        loss, d_w1, d_w2 = loss_and_grads(model, reach, labels, None if m is None else m[reach.rows])
        want = dense_loss_and_grads(a, g.features, model.w1, model.w2, nodes, labels, cfg.weight_decay, m)
        assert loss == pytest.approx(want[0], rel=1e-12)
        np.testing.assert_allclose(d_w1, want[1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(d_w2, want[2], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_block_equals_the_dense_slice(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=60)
    a = normalize_adjacency(g)
    for rows, cols in (
        (rng.permutation(g.num_nodes), rng.permutation(g.num_nodes)),
        (np.sort(rng.choice(g.num_nodes, size=3, replace=False)), np.arange(g.num_nodes)),
        (np.arange(g.num_nodes), rng.choice(g.num_nodes, size=1)),
        (np.array([], dtype=np.intp), np.arange(2)),
    ):
        b = a.block(rows, cols)
        assert b.shape == (len(rows), len(cols))
        assert np.array_equal(dense(b), dense(a)[np.ix_(rows, cols)])


def test_training_without_the_per_epoch_eval_fits_the_same_weights():
    def run(eval_each_epoch: bool):
        g, model = small_model(n=20, seed=9, dropout=0.5, epochs=30)
        nodes = np.arange(10)
        labels = np.array([g.labels[v] for v in nodes])
        history = train(model, g.features, nodes, labels, nodes, labels, eval_each_epoch=eval_each_epoch)
        return history, model

    (h1, m1), (h2, m2) = run(True), run(False)
    assert [r.loss for r in h1] == [r.loss for r in h2]
    assert [r.epoch for r in h2] == list(range(1, 31))
    assert all(np.isnan(r.train_acc) and np.isnan(r.test_acc) for r in h2)
    np.testing.assert_array_equal(m1.w1, m2.w1)
    np.testing.assert_array_equal(m1.w2, m2.w2)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = softmax(rng.normal(size=(30, 7)) * 20)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (p >= 0).all()


# --- gradients ----------------------------------------------------------------------

def test_gradient_check_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(5):
        g, model = small_model(
            n=int(rng.integers(4, 12)), d=6, h=4, c=3, seed=trial, dropout=0.0
        )
        nodes = np.arange(g.num_nodes // 2)
        labels = np.array([g.labels[v] for v in nodes])
        err = gradient_check(model, g.features, nodes, labels)
        assert err < 1e-4


def test_gradient_check_zero_weights():
    g, model = small_model(dropout=0.0)
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    nodes = np.arange(3)
    labels = np.array([g.labels[v] for v in nodes])
    err = gradient_check(model, g.features, nodes, labels, epsilon=1e-6)
    assert err < 1e-4


def test_gradient_check_requires_dropout_off():
    g, model = small_model(dropout=0.5)
    with pytest.raises(ValueError):
        gradient_check(model, g.features, np.arange(2), np.zeros(2, dtype=int))


def test_a_training_node_listed_twice_is_refused():
    # the loss would count node 1 twice and the gradient once: before the
    # refusal, the gradient check's relative error here was 0.96, against
    # 1.2e-9 without the repeat
    g, model = small_model(n=12, dropout=0.0)
    nodes = np.array([0, 1, 1, 2])
    labels = np.array([g.labels[v] for v in nodes])
    with pytest.raises(ValueError, match="training node 1 "):
        gradient_check(model, g.features, nodes, labels)
    with pytest.raises(ValueError, match="training node 1 "):
        train(model, g.features, nodes, labels)
    assert gradient_check(model, g.features, nodes[[0, 1, 3]], labels[[0, 1, 3]]) < 1e-4


def test_loss_nonnegative_and_decreasing_on_toy():
    g, model = small_model(n=12, dropout=0.0, learning_rate=0.05, epochs=50)
    nodes = np.arange(12)
    labels = np.array([g.labels[v] for v in nodes])
    history = train(model, g.features, nodes, labels)
    losses = [r.loss for r in history]
    assert all(l >= 0 for l in losses)
    assert losses[-1] < losses[0]


# --- training ------------------------------------------------------------------------

def test_history_row_per_epoch():
    g, model = small_model(epochs=20, dropout=0.0)
    nodes = np.arange(4)
    labels = np.array([g.labels[v] for v in nodes])
    history = train(model, g.features, nodes, labels)
    assert [r.epoch for r in history] == list(range(1, 21))


def separable_toy():
    """Two disconnected cliques with opposite features: block-diagonal A_hat."""
    edges = [(i, j) for i in range(4) for j in range(4) if i != j]
    edges += [(i + 4, j + 4) for i, j in edges if i < 4 and j < 4][: len(edges)]
    g = tiny_graph(edges, n=8, num_classes=2)
    g.features = np.vstack([np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (4, 1))])
    g.labels = [0] * 4 + [1] * 4
    return g


def test_separable_toy_reaches_full_train_accuracy():
    g = separable_toy()
    cfg = GCNConfig(hidden=8, dropout=0.0, epochs=200, seed=0)
    model = init_model(g, 2, 2, cfg)
    nodes = np.arange(8)
    labels = np.array(g.labels)
    history = train(model, g.features, nodes, labels)
    assert max(r.train_acc for r in history) == 1.0


def test_training_bit_reproducible():
    def run():
        g, model = small_model(n=20, seed=9, dropout=0.5, epochs=30)
        nodes = np.arange(10)
        labels = np.array([g.labels[v] for v in nodes])
        history = train(model, g.features, nodes, labels)
        return [(r.loss, r.train_acc) for r in history], model.w1.copy()

    (h1, w1a), (h2, w1b) = run(), run()
    assert h1 == h2
    np.testing.assert_array_equal(w1a, w1b)


def test_last_history_row_matches_evaluate_on_final_weights():
    g, model = small_model(n=30, seed=7, dropout=0.5, epochs=12)
    train_ids = np.arange(10)
    test_ids = np.arange(10, 30)
    y_train = np.array([g.labels[v] for v in train_ids])
    y_test = np.array([g.labels[v] for v in test_ids])
    last = train(model, g.features, train_ids, y_train, test_ids, y_test)[-1]
    assert last.train_acc == evaluate(model, g.features, train_ids, y_train)
    assert last.test_acc == evaluate(model, g.features, test_ids, y_test)


def test_zero_learning_rate_freezes_weights():
    g, model = small_model(learning_rate=0.0, epochs=5, dropout=0.0)
    w1_before = model.w1.copy()
    nodes = np.arange(3)
    labels = np.array([g.labels[v] for v in nodes])
    train(model, g.features, nodes, labels)
    np.testing.assert_array_equal(model.w1, w1_before)


def test_divergence_detected():
    g, model = small_model(dropout=0.0)
    model.w1[:] = np.inf
    nodes = np.arange(2)
    labels = np.zeros(2, dtype=int)
    with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore", over="ignore"):
        train(model, g.features, nodes, labels)


# --- evaluation ---------------------------------------------------------------------

def test_evaluate_perfect_logits():
    # identity propagation + identity weights pass one-hot features through,
    # so the logits predict every label exactly
    from crowdtag.gcn import GCNModel

    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    onehot = np.eye(3)[labels]
    model = GCNModel(
        w1=np.eye(3), w2=np.eye(3), a_hat=csr_from_dense(np.eye(10)), config=GCNConfig(hidden=3, dropout=0.0)
    )
    acc = evaluate(model, onehot, np.arange(10), labels)
    assert acc == 1.0


def test_evaluate_zero_logits_tie_rule():
    g = tiny_graph([], n=10, num_classes=2)
    cfg = GCNConfig(hidden=4, dropout=0.0)
    model = init_model(g, g.feature_dim, 2, cfg)
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    labels = np.array([i % 2 for i in range(10)])  # class 0 holds half
    acc = evaluate(model, g.features, np.arange(10), labels)
    assert acc == 0.5


def test_evaluate_random_model_near_chance():
    g = synthetic_citation_graph(n=1000, num_classes=7, feature_dim=12, seed=12)
    cfg = GCNConfig(hidden=16, dropout=0.0, seed=100)
    model = init_model(g, 12, 7, cfg)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=1000)
    acc = evaluate(model, g.features, np.arange(1000), labels)
    assert acc == pytest.approx(1 / 7, abs=0.05)


def test_permutation_consistency_of_forward_and_eval():
    g, model = small_model(n=15, dropout=0.0)
    x = g.features
    logits = forward(model, x)
    rng = np.random.default_rng(6)
    perm = rng.permutation(15)
    a_perm = csr_from_dense(dense(model.a_hat)[np.ix_(perm, perm)])
    model_p = init_model(a_perm, g.feature_dim, g.num_classes, model.config)
    model_p.w1 = model.w1.copy()
    model_p.w2 = model.w2.copy()
    logits_p = forward(model_p, x[perm])
    np.testing.assert_allclose(logits_p, logits[perm], atol=1e-10)

    labels = np.array([g.labels[v] for v in range(15)])
    acc = evaluate(model, x, np.arange(15), labels)
    acc_p = evaluate(model_p, x[perm], np.arange(15), labels[perm])
    assert acc == pytest.approx(acc_p, abs=1e-12)


# --- splits -------------------------------------------------------------------------

def test_split_disjoint_and_complete():
    g = synthetic_citation_graph(n=200, num_classes=3, seed=14)
    train_ids, val, test = split_nodes(g, train_nodes=[0, 1, 2, 3], val_size=20, seed=0)
    all_ids = set(train_ids) | set(val) | set(test)
    assert len(all_ids) == len(train_ids) + len(val) + len(test)
    assert set(train_ids) == {0, 1, 2, 3}
    assert len(val) == 20
    assert len(test) == 200 - 4 - 20


def test_split_small_graph_caps_validation():
    g = synthetic_citation_graph(n=30, num_classes=3, seed=15)
    train_ids, val, test = split_nodes(g, train_nodes=[0, 1], val_size=500, seed=1)
    assert len(val) == (30 - 2) // 5
    assert len(test) == 30 - 2 - len(val)
    assert len(test) > 0
