"""Two-layer graph convolutional network on numpy.

logits = A_hat @ relu(A_hat @ X @ W1) @ W2, where A_hat is the symmetrically
normalized adjacency with self-loops, held as a sparse CSR matrix. Training
minimizes mean cross-entropy over the training nodes plus L2 weight decay,
using adaptive-moment gradient descent with bias correction. Everything is
seeded and single-threaded at the Python level, so fixed seeds give
bit-identical histories.

The backward pass is derived by hand and validated against central finite
differences (``gradient_check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import DirectedTAG

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class GCNConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    epochs: int = 200
    seed: int = 0


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float


@dataclass
class GCNModel:
    w1: np.ndarray
    w2: np.ndarray
    a_hat: sp.csr_matrix
    config: GCNConfig
    _adam_state: dict = field(default_factory=dict, repr=False)


def normalize_adjacency(graph: DirectedTAG) -> sp.csr_matrix:
    """A_hat = D^-1/2 (A + I) D^-1/2, where ``A[u, v] = A[v, u] = 1`` for
    each edge ``u -> v`` of the graph's edge array.

    ``A + I`` is built from the distinct ``u * n + v`` codes of the edges,
    the reversed edges and the diagonal, so its CSR indices are sorted; that
    order fixes the summation order of ``A_hat @ X``.
    """
    n = graph.num_nodes
    src, dst = graph.edge_array.T
    diag = np.arange(n, dtype=np.int64)
    codes = np.unique(np.concatenate([src * n + dst, dst * n + src, diag * n + diag]))
    adj = sp.csr_matrix((np.ones(codes.size), np.divmod(codes, n)), shape=(n, n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    return sp.csr_matrix(sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(
    graph_or_ahat: DirectedTAG | sp.csr_matrix,
    feature_dim: int,
    num_classes: int,
    config: GCNConfig | None = None,
) -> GCNModel:
    config = config or GCNConfig()
    if isinstance(graph_or_ahat, DirectedTAG):
        a_hat = normalize_adjacency(graph_or_ahat)
    else:
        a_hat = graph_or_ahat
    rng = np.random.default_rng(config.seed)
    return GCNModel(
        w1=_glorot(rng, feature_dim, config.hidden),
        w2=_glorot(rng, config.hidden, num_classes),
        a_hat=a_hat,
        config=config,
    )


def forward(
    model: GCNModel,
    x: np.ndarray,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
    ax: np.ndarray | None = None,
) -> np.ndarray:
    """Logits for every node; dropout hits the hidden layer in training only.

    ``ax`` is ``model.a_hat @ x`` when the caller already has it: the product
    depends on neither weights nor epoch, so training forms it once.
    """
    logits, _ = _forward_full(model, x, training, dropout_rng, ax)
    return logits


def _forward_full(
    model: GCNModel,
    x: np.ndarray,
    training: bool,
    dropout_rng: np.random.Generator | None,
    ax: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    if x.shape[1] != model.w1.shape[0]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match W1 rows {model.w1.shape[0]}"
        )
    if ax is None:
        ax = model.a_hat @ x
    elif ax.shape != (model.a_hat.shape[0], x.shape[1]):
        raise ValueError(f"A_hat @ X has shape {ax.shape}, expected {(model.a_hat.shape[0], x.shape[1])}")
    z1 = ax @ model.w1
    h = np.maximum(z1, 0.0)
    if training and model.config.dropout > 0.0:
        if dropout_rng is None:
            raise ValueError("training-mode dropout requires a generator")
        keep = 1.0 - model.config.dropout
        mask = (dropout_rng.random(h.shape) < keep) / keep
        h_dropped = h * mask
    else:
        mask = None
        h_dropped = h
    ah = model.a_hat @ h_dropped
    logits = ah @ model.w2
    cache = {"ax": ax, "z1": z1, "mask": mask, "ah": ah}
    return logits, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(
    model: GCNModel,
    x: np.ndarray,
    train_nodes: np.ndarray,
    train_labels: np.ndarray,
    training: bool = True,
    dropout_rng: np.random.Generator | None = None,
    ax: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the training nodes plus L2 penalty.

    Returns (loss, dW1, dW2, logits). ``ax`` is as in :func:`forward`.
    """
    logits, cache = _forward_full(model, x, training, dropout_rng, ax)
    probs = softmax(logits)
    m = len(train_nodes)
    wd = model.config.weight_decay

    ce = -np.log(np.maximum(probs[train_nodes, train_labels], 1e-300)).mean()
    loss = ce + 0.5 * wd * (float((model.w1**2).sum()) + float((model.w2**2).sum()))

    d_logits = np.zeros_like(logits)
    d_logits[train_nodes] = probs[train_nodes]
    d_logits[train_nodes, train_labels] -= 1.0
    d_logits /= m

    d_w2 = cache["ah"].T @ d_logits + wd * model.w2
    d_h = (model.a_hat.T @ d_logits) @ model.w2.T
    if cache["mask"] is not None:
        d_h = d_h * cache["mask"]
    d_z1 = d_h * (cache["z1"] > 0.0)
    d_w1 = cache["ax"].T @ d_z1 + wd * model.w1
    return float(loss), d_w1, d_w2, logits


def _adam_step(model: GCNModel, d_w1: np.ndarray, d_w2: np.ndarray) -> None:
    state = model._adam_state
    if not state:
        state.update(
            t=0,
            m1=np.zeros_like(model.w1),
            v1=np.zeros_like(model.w1),
            m2=np.zeros_like(model.w2),
            v2=np.zeros_like(model.w2),
        )
    state["t"] += 1
    t = state["t"]
    lr = model.config.learning_rate
    for w, g, mk, vk in ((model.w1, d_w1, "m1", "v1"), (model.w2, d_w2, "m2", "v2")):
        state[mk] = ADAM_BETA1 * state[mk] + (1 - ADAM_BETA1) * g
        state[vk] = ADAM_BETA2 * state[vk] + (1 - ADAM_BETA2) * g**2
        m_hat = state[mk] / (1 - ADAM_BETA1**t)
        v_hat = state[vk] / (1 - ADAM_BETA2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def evaluate(
    model: GCNModel,
    x: np.ndarray,
    nodes: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Argmax-logit accuracy; argmax ties resolve to the lowest class index."""
    if len(nodes) == 0:
        raise ValueError("evaluation node set is empty")
    return _accuracy(forward(model, x), nodes, labels)


def _accuracy(logits: np.ndarray, nodes: np.ndarray, labels: np.ndarray) -> float:
    return float((logits[nodes].argmax(axis=1) == labels).mean())


def train(
    model: GCNModel,
    x: np.ndarray,
    train_nodes: np.ndarray,
    train_labels: np.ndarray,
    test_nodes: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
    ax: np.ndarray | None = None,
) -> list[EpochRecord]:
    """Full training loop; one history row per epoch.

    Train accuracy is measured against the (pseudo-)labels being fit; test
    accuracy against the supplied ground truth, when given. Both come from
    one eval-mode forward after each weight update. Every forward shares one
    ``A_hat @ x``: ``ax`` when given, else computed here once.
    """
    if len(train_nodes) == 0:
        raise ValueError("training node set is empty")
    train_nodes = np.asarray(train_nodes, dtype=np.intp)
    train_labels = np.asarray(train_labels, dtype=np.intp)
    dropout_rng = np.random.default_rng(model.config.seed + 1)
    if ax is None:
        ax = model.a_hat @ x

    history: list[EpochRecord] = []
    for epoch in range(1, model.config.epochs + 1):
        loss, d_w1, d_w2, _ = loss_and_grads(
            model, x, train_nodes, train_labels, training=True, dropout_rng=dropout_rng, ax=ax
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        _adam_step(model, d_w1, d_w2)
        if not (np.isfinite(model.w1).all() and np.isfinite(model.w2).all()):
            raise TrainingDivergedError(epoch)

        logits = forward(model, x, ax=ax)
        train_acc = _accuracy(logits, train_nodes, train_labels)
        if test_nodes is not None and len(test_nodes) > 0:
            test_acc = _accuracy(logits, np.asarray(test_nodes), np.asarray(test_labels))
        else:
            test_acc = float("nan")
        history.append(EpochRecord(epoch=epoch, loss=loss, train_acc=train_acc, test_acc=test_acc))
    return history


def gradient_check(
    model: GCNModel,
    x: np.ndarray,
    train_nodes: np.ndarray,
    train_labels: np.ndarray,
    epsilon: float = 1e-5,
) -> float:
    """Central finite differences on every weight vs the analytic gradient.

    Requires dropout disabled: the objective must be deterministic.
    """
    if model.config.dropout > 0.0:
        raise ValueError("gradient check requires dropout = 0")
    train_nodes = np.asarray(train_nodes, dtype=np.intp)
    train_labels = np.asarray(train_labels, dtype=np.intp)
    _, d_w1, d_w2, _ = loss_and_grads(model, x, train_nodes, train_labels, training=False)

    def loss_only() -> float:
        loss, _, _, _ = loss_and_grads(model, x, train_nodes, train_labels, training=False)
        return loss

    max_rel = 0.0
    for w, grad in ((model.w1, d_w1), (model.w2, d_w2)):
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + epsilon
            up = loss_only()
            w[idx] = orig - epsilon
            down = loss_only()
            w[idx] = orig
            numeric = (up - down) / (2 * epsilon)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            max_rel = max(max_rel, abs(numeric - grad[idx]) / denom)
            it.iternext()
    return max_rel


def model_to_json(model: GCNModel) -> dict:
    return {
        "schema_version": 1,
        "hidden": model.config.hidden,
        "w1": model.w1.tolist(),
        "w2": model.w2.tolist(),
    }


def split_nodes(
    graph: DirectedTAG,
    train_nodes: list[int],
    val_size: int = 500,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, val, test) node splits.

    Test is every ground-truth-labeled node outside training, minus a seeded
    validation sample capped at both ``val_size`` and a fifth of the
    remainder (small graphs cannot give up 500 nodes).
    """
    train_set = set(train_nodes)
    rest = np.array(
        [v for v in range(graph.num_nodes) if v not in train_set and graph.labels[v] is not None],
        dtype=np.intp,
    )
    if len(rest) == 0:
        raise ValueError("no labeled nodes left outside the training set")
    rng = np.random.default_rng(seed)
    n_val = min(val_size, len(rest) // 5)
    val = np.sort(rng.choice(rest, size=n_val, replace=False)) if n_val else np.array([], dtype=np.intp)
    val_set = set(val.tolist())
    test = np.array([v for v in rest if v not in val_set], dtype=np.intp)
    return np.asarray(sorted(train_set), dtype=np.intp), val, test
