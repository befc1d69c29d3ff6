from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from crowdtag.aggregate import aggregate_all, fuse
from crowdtag.annotate import (
    BudgetState,
    Guesses,
    ResponseCache,
    SyntheticOracleClient,
    annotate_graph,
)
from crowdtag.graph import NUM_TIE_CONFIGS
from crowdtag.synthetic import synthetic_citation_graph

CLASSES = ["A", "B", "C"]


def worker(k: int, guesses: list[tuple[str, int]], failed: bool = False):
    """Configuration ``k``'s ranked (label, confidence) guesses; None when its
    response did not parse."""
    return k, None if failed else guesses


def recorded(annotations: dict, class_names=CLASSES) -> Guesses:
    """The guess arrays ``annotate_graph`` records when node v's workers give
    ``annotations[v]``, a list of :func:`worker`: top1 is the first guess's
    class and mass sums the confidences per class; a configuration with no
    worker, or whose response did not parse, has top1 -1 and zero mass."""
    index = {c: i for i, c in enumerate(class_names)}
    n = len(annotations)
    top1 = np.full((n, NUM_TIE_CONFIGS), -1, dtype=np.int16)
    mass = np.zeros((n, NUM_TIE_CONFIGS, len(class_names)), dtype=np.int32)
    for i, workers in enumerate(annotations.values()):
        for k, guesses in workers:
            if guesses:
                top1[i, k] = index[guesses[0][0]]
                for label, conf in guesses:
                    mass[i, k, index[label]] += conf
    return Guesses(np.fromiter(annotations, dtype=np.int64, count=n), top1, mass, [[]] * n)


def aggregate(workers, class_names=CLASSES):
    """The pseudo-label ``aggregate_all`` fuses from one node's workers, or
    None when it drops the node."""
    pseudo, _ = aggregate_all(recorded({0: workers}, class_names), class_names)
    return pseudo.get(0)


# --- aggregate -----------------------------------------------------------------

def test_unanimous_workers():
    workers = [worker(k, [("A", 100)]) for k in range(8)]
    p = aggregate(workers)
    assert p.label == 0
    assert p.confidence == pytest.approx(1.0)
    assert p.unparseable_count == 0


def test_two_worker_weighted_sum_hand_case():
    # hand-computed: masses A=0.6+0.2=0.8, B=0.4+0.8=1.2 of total 2
    workers = [
        worker(0, [("A", 60), ("B", 40)]),
        worker(1, [("B", 80), ("A", 20)]),
    ]
    p = aggregate(workers)
    assert p.label == 1
    assert p.confidence == pytest.approx(1.2 / 2.0)


def test_one_unparseable_excluded():
    workers = [worker(k, [("A", 100)]) for k in range(7)]
    workers.append(worker(7, [], failed=True))
    p = aggregate(workers)
    assert p.label == 0
    assert p.unparseable_count == 1
    assert p.confidence == pytest.approx(1.0)  # mass over the 7 usable workers


def test_zero_confidence_list_treated_uniform():
    workers = [worker(0, [("A", 0), ("B", 0)])]
    p = aggregate(workers)
    # uniform mass over all classes -> tie -> lowest class index
    assert p.label == 0
    assert p.confidence == pytest.approx(1 / 3)


def test_permutation_invariance():
    base = [
        worker(0, [("A", 50), ("B", 30), ("C", 20)]),
        worker(1, [("B", 90), ("A", 10)]),
        worker(2, [("C", 100)]),
        worker(3, [("B", 60), ("C", 40)]),
    ]
    # the same guess lists, given to the configurations in every order
    expected = aggregate(base)
    for perm in itertools.permutations([guesses for _, guesses in base]):
        p = aggregate([worker(k, guesses) for k, guesses in enumerate(perm)])
        assert (p.label, p.confidence) == (expected.label, expected.confidence)


def test_scale_invariance_of_one_worker():
    w1 = [worker(0, [("A", 60), ("B", 40)]), worker(1, [("B", 70), ("C", 30)])]
    w2 = [worker(0, [("A", 6), ("B", 4)]), worker(1, [("B", 70), ("C", 30)])]
    a, b = aggregate(w1), aggregate(w2)
    assert a.label == b.label
    assert a.confidence == pytest.approx(b.confidence)


def test_confidence_bounds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_workers = int(rng.integers(1, 9))
        workers = []
        for k in range(n_workers):
            n_guesses = int(rng.integers(1, 4))
            classes = rng.choice(len(CLASSES), size=n_guesses, replace=False)
            guesses = [(CLASSES[c], int(rng.integers(0, 101))) for c in classes]
            workers.append(worker(k, guesses))
        p = aggregate(workers)
        assert 1 / len(CLASSES) - 1e-12 <= p.confidence <= 1.0 + 1e-12


def test_adding_worker_for_winner_keeps_winner():
    rng = np.random.default_rng(1)
    for _ in range(50):
        workers = [
            worker(k, [(CLASSES[int(rng.integers(3))], int(rng.integers(1, 101)))])
            for k in range(int(rng.integers(1, 7)))
        ]
        before = aggregate(workers)
        boosted = workers + [worker(7, [(CLASSES[before.label], 100)])]
        after = aggregate(boosted)
        assert after.label == before.label


def test_aggregate_all_drops_dead_nodes():
    annotations = {
        0: [worker(k, [("A", 100)]) for k in range(8)],
        1: [worker(k, [], failed=True) for k in range(8)],
    }
    pseudo, dropped = aggregate_all(recorded(annotations), CLASSES)
    assert list(pseudo) == [0]
    assert dropped == [1]


def test_aggregate_all_refuses_mass_with_another_class_count():
    guesses = recorded({0: [worker(k, [("A", 100)]) for k in range(8)]})
    with pytest.raises(ValueError, match="2 classes"):
        aggregate_all(guesses, CLASSES[:2])


# --- worker accuracy ----------------------------------------------------------------

def oracle_annotations(graph, noise, seed, nodes=None):
    client = SyntheticOracleClient(graph, noise=noise, seed=seed)
    return annotate_graph(
        graph,
        nodes if nodes is not None else list(range(graph.num_nodes)),
        client,
        ResponseCache(),
        BudgetState(limit_usd=1.0),
        model="oracle",
    )


def worker_accuracy(guesses: Guesses, graph) -> list[tuple[int, float, int]]:
    """Per-configuration (config_k, top-1 accuracy, nodes evaluated) against
    the graph's labels, as ``fuse`` computes it."""
    truth = np.array([graph.labels[v] for v in guesses.nodes.tolist()])
    return fuse(guesses.top1, guesses.mass, truth).accuracy


def test_worker_accuracy_perfect_oracle():
    # alpha=1: every neighbor shares the center's class, so at noise 0 the
    # plurality vote is the truth for every configuration
    g = synthetic_citation_graph(n=40, num_classes=3, alpha=1.0, seed=1)
    annotations = oracle_annotations(g, noise=0.0, seed=0)
    rows = worker_accuracy(annotations, g)
    assert len(rows) == 8
    assert all(acc == pytest.approx(1.0) for _, acc, _ in rows)
    assert all(n == g.num_nodes for _, _, n in rows)


def test_worker_accuracy_config3_beats_config0_on_homophilous_graph():
    # 1000 nodes, structure-rich tie vs singleton tie under a noisy oracle
    g = synthetic_citation_graph(n=1000, num_classes=3, alpha=0.9, avg_out_degree=4.0, seed=6)
    annotations = oracle_annotations(g, noise=0.35, seed=3)
    rows = dict((k, acc) for k, acc, _ in worker_accuracy(annotations, g))
    assert rows[3] >= rows[0]


def test_worker_accuracy_all_unparseable_flagged_zero():
    annotations = {
        0: [worker(k, [("A", 100)]) if k else worker(0, [], failed=True) for k in range(8)],
        1: [worker(k, [("A", 100)]) if k else worker(0, [], failed=True) for k in range(8)],
    }
    truth = np.array([0, 0])
    guesses = recorded(annotations)
    rows = fuse(guesses.top1, guesses.mass, truth).accuracy
    k0 = rows[0]
    assert k0 == (0, 0.0, 0)  # zero evaluated, accuracy reported as 0


def test_aggregation_accuracy_beats_single_worker():
    g = synthetic_citation_graph(n=600, num_classes=3, alpha=0.9, avg_out_degree=4.0, seed=10)
    annotations = oracle_annotations(g, noise=0.3, seed=4)
    pseudo, _ = aggregate_all(annotations, g.class_names)
    agg_acc = np.mean([p.label == g.labels[v] for v, p in pseudo.items()])
    rows = dict((k, acc) for k, acc, _ in worker_accuracy(annotations, g))
    assert agg_acc >= rows[0]


# --- the array computation against the per-node loop ---------------------------------

def loop_aggregate(workers, class_names):
    """Per-node reference for ``fuse``: each usable worker's mass renormalized
    (uniform when all its confidences are zero) and summed with math.fsum.
    Returns (label, confidence, unparseable_count, tied), or None when no
    worker parsed; the unparseable count is the eight configurations less
    the usable workers."""
    index = {c: i for i, c in enumerate(class_names)}
    num_classes = len(class_names)
    masses = []
    for _, guesses in workers:
        if not guesses:
            continue
        mass = np.zeros(num_classes)
        for label, conf in guesses:
            mass[index[label]] += max(0.0, float(conf))
        total = mass.sum()
        masses.append(mass / total if total > 0 else np.full(num_classes, 1.0 / num_classes))
    if not masses:
        return None
    scores = np.array([math.fsum(m[c] for m in masses) for c in range(num_classes)])
    label = int(scores.argmax())
    tied = int((scores == scores[label]).sum()) > 1
    return label, float(scores[label] / math.fsum(scores)), NUM_TIE_CONFIGS - len(masses), tied


def random_workers(rng, classes):
    """1..8 workers on distinct configurations: some unparseable, some with
    all-zero confidences, the rest with repeated labels and coarse
    confidences, so that exact ties between classes are common."""
    workers = []
    for k in rng.choice(NUM_TIE_CONFIGS, size=int(rng.integers(1, 9)), replace=False):
        kind = rng.random()
        if kind < 0.15:
            workers.append(worker(int(k), [], failed=True))
            continue
        labels = rng.integers(len(classes), size=int(rng.integers(1, 2 * len(classes))))
        confs = [0] * len(labels) if kind < 0.25 else rng.choice([0, 10, 20, 25, 30, 50, 100], len(labels))
        workers.append(worker(int(k), [(classes[c], int(x)) for c, x in zip(labels, confs)]))
    return workers


def test_fuse_and_aggregate_all_match_the_loop_on_random_annotations():
    rng = np.random.default_rng(7)
    classes = ["A", "B", "C", "D"]
    annotations = {v: random_workers(rng, classes) for v in range(1500)}
    truth = {v: int(rng.integers(len(classes))) for v in range(0, 1500, 2)}

    guesses = recorded(annotations, classes)
    assert guesses.nodes.tolist() == list(annotations)
    fused = fuse(guesses.top1, guesses.mass, np.array([truth.get(v, -1) for v in annotations]))
    pseudo, dropped = aggregate_all(guesses, classes)
    ties = 0
    for i, (v, workers) in enumerate(annotations.items()):
        want = loop_aggregate(workers, classes)
        if want is None:
            assert fused.label[i] == -1 and v in dropped and v not in pseudo
            continue
        label, confidence, unparseable, tied = want
        ties += tied
        assert (fused.label[i], fused.confidence[i]) == (label, confidence)
        assert NUM_TIE_CONFIGS - fused.usable[i] == unparseable
        assert (pseudo[v].label, pseudo[v].confidence, pseudo[v].unparseable_count) == want[:3]
    assert ties > 0 and dropped  # the tie rule and the drop path were exercised

    expected = []
    for k in range(NUM_TIE_CONFIGS):
        top = [
            (guesses[0][0] == classes[truth[v]])
            for v in truth for config_k, guesses in annotations[v]
            if config_k == k and guesses
        ]
        expected.append((k, sum(top) / len(top) if top else 0.0, len(top)))
    assert fused.accuracy == expected
