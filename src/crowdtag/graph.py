"""Directed text-attributed graph with the homophily-tie neighborhood algebra.

A graph couples directed structure (forward and reverse adjacency), per-node
raw text, per-node feature vectors, and optional ground-truth class labels.
Around any node, eight subgraph configurations ("homophily ties") are defined
from compositions of predecessor/successor lookups up to two hops; these drive
prompt construction for the annotation workers.

Graphs are immutable after construction: all read operations are safe to call
concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

NUM_TIE_CONFIGS = 8

# Relation of a tie member to the tie's center node.
ROLE_SELF = "self"
ROLE_PRED = "pred"
ROLE_SUCC = "succ"
ROLE_PRED_OF_PRED = "pred_of_pred"
ROLE_PRED_OF_SUCC = "pred_of_succ"
ROLE_SUCC_OF_PRED = "succ_of_pred"
ROLE_SUCC_OF_SUCC = "succ_of_succ"

COMPOSITE_ROLES = (
    ROLE_PRED_OF_SUCC,
    ROLE_SUCC_OF_PRED,
    ROLE_PRED_OF_PRED,
    ROLE_SUCC_OF_SUCC,
)


# (one-hop roles, two-hop role) of each configuration; see homophily_tie.
_TIE_ROLES: tuple[tuple[tuple[str, ...], str | None], ...] = (
    ((), None),
    ((ROLE_PRED,), None),
    ((ROLE_SUCC,), None),
    ((ROLE_PRED, ROLE_SUCC), None),
    ((ROLE_PRED,), ROLE_PRED_OF_PRED),
    ((ROLE_SUCC,), ROLE_PRED_OF_SUCC),
    ((ROLE_PRED,), ROLE_SUCC_OF_PRED),
    ((ROLE_SUCC,), ROLE_SUCC_OF_SUCC),
)


class UnknownNodeError(KeyError):
    """Raised when a node id is not part of the graph."""


@dataclass(frozen=True)
class HomophilyTie:
    """One of the eight subgraph configurations around a center node.

    ``members`` lists the center first, then the remaining members in
    ascending node-id order. ``roles[i]`` is the relation tag of
    ``members[i]``; a node reachable through several relations carries the
    shorter-hop one.
    """

    center: int
    config_k: int
    members: tuple[int, ...]
    roles: tuple[str, ...]


def _assemble_tie(v: int, k: int, groups: dict[str, Iterable[int]]) -> HomophilyTie:
    """Tie ``k`` at ``v`` from the neighbors of ``v`` by role; ``groups`` holds
    at least the roles configuration ``k`` uses. One-hop roles win on overlap
    because the prompt templates phrase one-hop relations."""
    one_hop, two_hop = _TIE_ROLES[k]
    role_of: dict[int, str] = {}
    if two_hop is not None:
        role_of = dict.fromkeys(groups[two_hop], two_hop)
    for role in one_hop:
        role_of.update(dict.fromkeys(groups[role], role))
    role_of.pop(v, None)
    others = sorted(role_of)
    return HomophilyTie(
        center=v,
        config_k=k,
        members=(v, *others),
        roles=(ROLE_SELF, *(role_of[u] for u in others)),
    )


@dataclass
class DirectedTAG:
    """In-memory directed text-attributed graph.

    Nodes carry dense integer ids ``0..n-1`` assigned in input order; the
    original string keys are kept for reporting. ``labels[i]`` is a class
    index or ``None`` when ground truth is unknown.
    """

    original_keys: list[str]
    successors: list[list[int]]
    predecessors: list[list[int]]
    texts: list[str]
    features: np.ndarray
    labels: list[int | None]
    class_names: list[str]
    key_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.key_to_id = {k: i for i, k in enumerate(self.original_keys)}
        self._validate()

    def _validate(self) -> None:
        n = len(self.original_keys)
        if not (len(self.successors) == len(self.predecessors) == n):
            raise ValueError("adjacency lists do not match node count")
        if len(self.texts) != n or len(self.labels) != n:
            raise ValueError("texts/labels do not match node count")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"feature matrix must be ({n}, d)")
        forward = {(u, v) for u, succ in enumerate(self.successors) for v in succ}
        reverse = {(u, v) for v, pred in enumerate(self.predecessors) for u in pred}
        if forward != reverse:
            raise ValueError("forward and reverse adjacency disagree")
        if any(u == v for u, v in forward):
            raise ValueError("self-loops are not allowed")
        for u, succ in enumerate(self.successors):
            if len(set(succ)) != len(succ):
                raise ValueError(f"duplicate edges out of node {u}")

    @property
    def num_nodes(self) -> int:
        return len(self.original_keys)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.successors)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, succ in enumerate(self.successors) for v in succ]

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise UnknownNodeError(f"node id {v} not in graph of {self.num_nodes} nodes")

    def degree(self, v: int) -> int:
        """Total degree: in-degree plus out-degree."""
        self._check_node(v)
        return len(self.successors[v]) + len(self.predecessors[v])

    def pred(self, v: int) -> set[int]:
        """All nodes u with an edge u -> v."""
        self._check_node(v)
        return set(self.predecessors[v])

    def succ(self, v: int) -> set[int]:
        """All nodes u with an edge v -> u."""
        self._check_node(v)
        return set(self.successors[v])

    def composite_neighbors(self, v: int, which: str) -> set[int]:
        """Two-hop neighbor set obtained by composing pred/succ lookups.

        The center is not removed from the result; tie construction unions
        the center in anyway, so set semantics absorb it.
        """
        self._check_node(v)
        if which == ROLE_PRED_OF_SUCC:
            mid, final = self.successors[v], self.predecessors
        elif which == ROLE_SUCC_OF_PRED:
            mid, final = self.predecessors[v], self.successors
        elif which == ROLE_PRED_OF_PRED:
            mid, final = self.predecessors[v], self.predecessors
        elif which == ROLE_SUCC_OF_SUCC:
            mid, final = self.successors[v], self.successors
        else:
            raise ValueError(f"unknown composite relation {which!r}")
        out: set[int] = set()
        for u in mid:
            out.update(final[u])
        return out

    def homophily_tie(self, v: int, k: int) -> HomophilyTie:
        """Build configuration ``k`` (0..7) of the tie centered at ``v``.

        Member sets per configuration:

        ==  =============================
        0   {v}
        1   {v} + pred
        2   {v} + succ
        3   {v} + pred + succ
        4   {v} + pred + pred_of_pred
        5   {v} + succ + pred_of_succ
        6   {v} + pred + succ_of_pred
        7   {v} + succ + succ_of_succ
        ==  =============================
        """
        self._check_node(v)
        if not 0 <= k < NUM_TIE_CONFIGS:
            raise ValueError(f"tie configuration must be 0..7, got {k}")
        two_hop = _TIE_ROLES[k][1]
        groups = {ROLE_PRED: self.predecessors[v], ROLE_SUCC: self.successors[v]}
        if two_hop is not None:
            groups[two_hop] = self.composite_neighbors(v, two_hop)
        return _assemble_tie(v, k, groups)

    def all_ties(self, v: int) -> list[HomophilyTie]:
        """All eight configurations of the tie centered at ``v``; each
        neighbor set is looked up once and shared by the ties that use it."""
        self._check_node(v)
        groups = {ROLE_PRED: self.predecessors[v], ROLE_SUCC: self.successors[v]}
        for role in COMPOSITE_ROLES:
            groups[role] = self.composite_neighbors(v, role)
        return [_assemble_tie(v, k, groups) for k in range(NUM_TIE_CONFIGS)]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency; A[u, v] iff edge u -> v. For small graphs."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        for u, succ in enumerate(self.successors):
            a[u, list(succ)] = True
        return a


def build_graph(
    keys: list[str],
    edges: list[tuple[int, int]],
    texts: list[str],
    features: np.ndarray,
    labels: list[int | None],
    class_names: list[str],
) -> DirectedTAG:
    """Assemble a graph from an edge list, dropping self-loops and duplicates."""
    n = len(keys)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        succ[u].append(v)
        pred[v].append(u)
    for lst in succ:
        lst.sort()
    for lst in pred:
        lst.sort()
    return DirectedTAG(
        original_keys=list(keys),
        successors=succ,
        predecessors=pred,
        texts=list(texts),
        features=np.asarray(features, dtype=np.float64),
        labels=list(labels),
        class_names=list(class_names),
    )
