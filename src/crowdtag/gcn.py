"""Two-layer graph convolutional network on numpy.

logits = A_hat @ (relu(A_hat @ X @ W1) @ W2), where A_hat is the symmetrically
normalized adjacency with self-loops, held as a :class:`CSR` matrix whose
product with a dense matrix is written in numpy alone. ``A_hat @ X`` is formed
once per training run, and the second propagation runs at class width.
Training minimizes mean cross-entropy over the training nodes plus L2 weight
decay, using adaptive-moment gradient descent with bias correction. The loss
reads only the training nodes' logits, which depend only on the rows within
one hop of them, so each step computes those rows alone
(:class:`ReceptiveField`). Everything is seeded and single-threaded at the
Python level, so fixed seeds give bit-identical histories.

The backward pass is derived by hand and validated against central finite
differences (``gradient_check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


class CSR:
    """A sparse matrix in compressed sparse row form, with one operation:
    ``a @ x`` for a dense 2-D ``x``.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``. ``a @ x`` sums each row's terms in
    stored order, starting from 0.0, the order of a compiled row-by-row CSR
    loop, so the two agree bit for bit.

    The product runs from a plan built once per matrix: the rows sorted by
    entry count, most first, so that the rows holding a k-th entry are a
    prefix of that order, and for each k those entries' columns and weights.
    Step k gathers the k-th terms of all those rows at once and adds them to
    the running sums; one gather back into row order ends the product. A
    wide ``x`` is taken ``COLUMN_BLOCK`` columns at a time, each block copied
    contiguous (gathering rows of a strided view is about twice as slow), so
    its working memory stays at three ``n x COLUMN_BLOCK`` arrays besides the
    result.
    """

    COLUMN_BLOCK = 128

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: tuple[int, int]):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.indptr) != self.shape[0] + 1 or not self.indptr[-1] == len(self.indices) == len(self.data):
            raise ValueError(f"CSR arrays do not describe a {self.shape} matrix")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.shape[1]):
            raise ValueError(f"CSR column index outside 0..{self.shape[1] - 1}")
        counts = np.diff(self.indptr)
        order = np.argsort(-counts, kind="stable")
        starts = self.indptr[:-1][order]
        # rows with more than k entries, for each k
        prefix = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)), side="left")
        self._steps = []
        for k, rows in enumerate(prefix.tolist()):
            at = starts[:rows] + k
            self._steps.append((self.indices[at], self.data[at, None]))
        self._position = np.empty(self.shape[0], dtype=np.intp)
        self._position[order] = np.arange(self.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by one of shape {x.shape}")
        if x.shape[1] > self.COLUMN_BLOCK:
            out = np.empty((self.shape[0], x.shape[1]))
            for lo in range(0, x.shape[1], self.COLUMN_BLOCK):
                cols = slice(lo, lo + self.COLUMN_BLOCK)
                out[:, cols] = self @ np.ascontiguousarray(x[:, cols])
            return out
        sums = np.zeros((self.shape[0], x.shape[1]))
        buf = np.empty_like(sums)
        for cols, weights in self._steps:
            terms = buf[: len(cols)]
            np.take(x, cols, axis=0, out=terms, mode="clip")  # cols are in range, checked at construction
            terms *= weights
            sums[: len(cols)] += terms
        return np.take(sums, self._position, axis=0, out=buf, mode="clip")

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions in ``indices``/``data`` of the entries of ``rows``, in
        order, and each row's entry count)."""
        counts = np.diff(self.indptr)[rows]
        ends = np.cumsum(counts)
        offsets = np.repeat(self.indptr[rows] - (ends - counts), counts)
        return np.arange(ends[-1] if len(ends) else 0) + offsets, counts

    def block(self, rows: np.ndarray, cols: np.ndarray) -> CSR:
        """``A[rows][:, cols]``: each row's entries whose column is in
        ``cols``, renumbered by position in ``cols``, in stored order."""
        position = np.full(self.shape[1], -1, dtype=np.intp)
        position[cols] = np.arange(len(cols))
        at, counts = self.entries(rows)
        new_cols = position[self.indices[at]]
        keep = new_cols >= 0
        kept = np.bincount(np.repeat(np.arange(len(rows)), counts)[keep], minlength=len(rows))
        indptr = np.concatenate([[0], np.cumsum(kept)])
        return CSR(indptr, new_cols[keep], self.data[at][keep], (len(rows), len(cols)))


@dataclass
class GCNModel:
    w1: np.ndarray
    w2: np.ndarray
    a_hat: CSR
    config: GCNConfig
    _adam_state: dict = field(default_factory=dict, repr=False)


def normalize_adjacency(graph: DirectedTAG) -> CSR:
    """A_hat = D^-1/2 (A + I) D^-1/2, where ``A[u, v] = A[v, u] = 1`` for
    each edge ``u -> v`` of the graph's edge array.

    ``A + I`` is built from the distinct ``u * n + v`` codes of the edges,
    the reversed edges and the diagonal, so its CSR indices are sorted; that
    order fixes the summation order of ``A_hat @ X``. Entry ``(i, j)`` is
    ``d_i^-1/2 * d_j^-1/2``, so ``A_hat`` is exactly symmetric.
    """
    n = graph.num_nodes
    src, dst = graph.edge_array.T
    diag = np.arange(n, dtype=np.int64)
    codes = np.unique(np.concatenate([src * n + dst, dst * n + src, diag * n + diag]))
    rows, cols = np.divmod(codes, n)
    deg = np.bincount(rows, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64))
    indptr = np.concatenate([[0], np.cumsum(deg)])
    return CSR(indptr, cols, inv_sqrt[rows] * inv_sqrt[cols], (n, n))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(
    graph_or_ahat: DirectedTAG | CSR,
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


def _features_product(model: GCNModel, x: np.ndarray, ax: np.ndarray | None) -> np.ndarray:
    """``ax`` after checking its shape against ``x`` and ``A_hat``, or ``A_hat @ x``."""
    if x.shape[1] != model.w1.shape[0]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match W1 rows {model.w1.shape[0]}"
        )
    if ax is None:
        return model.a_hat @ x
    if ax.shape != (model.a_hat.shape[0], x.shape[1]):
        raise ValueError(f"A_hat @ X has shape {ax.shape}, expected {(model.a_hat.shape[0], x.shape[1])}")
    return ax


def forward(model: GCNModel, x: np.ndarray, ax: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode logits for every node.

    ``ax`` is ``model.a_hat @ x`` when the caller already has it: the product
    depends on neither weights nor epoch, so training forms it once.
    """
    ax = _features_product(model, x, ax)
    h = np.maximum(ax @ model.w1, 0.0)
    return model.a_hat @ (h @ model.w2)


@dataclass
class ReceptiveField:
    """What a training step reads: the rows ``R`` within one hop of the
    training nodes, ``A_hat[train][:, R]``, its transpose
    ``A_hat[R][:, train]`` (A_hat is symmetric) and ``(A_hat @ X)[R]``."""

    rows: np.ndarray
    to_train: CSR
    from_train: CSR
    ax: np.ndarray


def receptive_field(a_hat: CSR, ax: np.ndarray, train_nodes: np.ndarray) -> ReceptiveField:
    """The training nodes' receptive field under ``a_hat``; ``ax`` is ``a_hat @ X``.
    Raises ValueError for a training node listed twice, which the loss would
    count twice and the gradient once."""
    seen, counts = np.unique(train_nodes, return_counts=True)
    if len(seen) < len(train_nodes):
        raise ValueError(f"training node {int(seen[counts > 1][0])} is listed more than once")
    at, _ = a_hat.entries(train_nodes)
    rows = np.unique(a_hat.indices[at])
    return ReceptiveField(
        rows=rows,
        to_train=a_hat.block(train_nodes, rows),
        from_train=a_hat.block(rows, train_nodes),
        ax=ax[rows],
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(
    model: GCNModel,
    reach: ReceptiveField,
    train_labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the training nodes plus L2 penalty, and its
    gradients; returns (loss, dW1, dW2).

    Only the receptive field's rows enter: ``d_logits`` is zero off the
    training rows, so every gradient term lies on those rows. ``mask`` is
    the dropout mask's rows of ``reach.rows``, or None for no dropout.
    """
    z1 = reach.ax @ model.w1
    h = np.maximum(z1, 0.0)
    if mask is not None:
        h *= mask
    probs = softmax(reach.to_train @ (h @ model.w2))
    m = len(train_labels)
    wd = model.config.weight_decay
    picked = (np.arange(m), train_labels)

    ce = -np.log(np.maximum(probs[picked], 1e-300)).mean()
    loss = ce + 0.5 * wd * (float((model.w1**2).sum()) + float((model.w2**2).sum()))

    d_logits = probs
    d_logits[picked] -= 1.0
    d_logits /= m

    d_ah = reach.from_train @ d_logits  # A_hat[R][:, train] @ d_logits
    d_w2 = h.T @ d_ah + wd * model.w2
    d_h = d_ah @ model.w2.T
    if mask is not None:
        d_h *= mask
    d_z1 = d_h * (z1 > 0.0)
    d_w1 = reach.ax.T @ d_z1 + wd * model.w1
    return float(loss), d_w1, d_w2


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
    eval_each_epoch: bool = True,
) -> list[EpochRecord]:
    """Full training loop; one history row per epoch.

    Train accuracy is measured against the (pseudo-)labels being fit; test
    accuracy against the supplied ground truth, when given. Both come from
    one eval-mode forward after each weight update; without
    ``eval_each_epoch`` that forward is skipped and both are NaN, for a
    caller that reads only the final weights. Every forward shares one
    ``A_hat @ x``: ``ax`` when given, else computed here once.

    The dropout mask is drawn over every node, as a full forward would draw
    it, and cut to the receptive field's rows, so the generator's stream
    does not depend on which rows the step computes.
    """
    if len(train_nodes) == 0:
        raise ValueError("training node set is empty")
    train_nodes = np.asarray(train_nodes, dtype=np.intp)
    train_labels = np.asarray(train_labels, dtype=np.intp)
    dropout_rng = np.random.default_rng(model.config.seed + 1)
    ax = _features_product(model, x, ax)
    reach = receptive_field(model.a_hat, ax, train_nodes)
    mask_shape = (ax.shape[0], model.w1.shape[1])
    keep = 1.0 - model.config.dropout

    history: list[EpochRecord] = []
    for epoch in range(1, model.config.epochs + 1):
        mask = None
        if model.config.dropout > 0.0:
            mask = ((dropout_rng.random(mask_shape) < keep) / keep)[reach.rows]
        loss, d_w1, d_w2 = loss_and_grads(model, reach, train_labels, mask)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        _adam_step(model, d_w1, d_w2)
        if not (np.isfinite(model.w1).all() and np.isfinite(model.w2).all()):
            raise TrainingDivergedError(epoch)

        train_acc = test_acc = float("nan")
        if eval_each_epoch:
            logits = forward(model, x, ax=ax)
            train_acc = _accuracy(logits, train_nodes, train_labels)
            if test_nodes is not None and len(test_nodes) > 0:
                test_acc = _accuracy(logits, np.asarray(test_nodes), np.asarray(test_labels))
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
    reach = receptive_field(model.a_hat, _features_product(model, x, None), train_nodes)
    _, d_w1, d_w2 = loss_and_grads(model, reach, train_labels)

    def loss_only() -> float:
        loss, _, _ = loss_and_grads(model, reach, train_labels)
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
