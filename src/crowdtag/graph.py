"""Directed text-attributed graph with the homophily-tie neighborhood algebra.

A graph couples directed structure, per-node raw text, per-node feature
vectors, and optional ground-truth class labels. The structure is one sorted
``(m, 2)`` int64 array of distinct edges ``u -> v`` without self-loops, put in
that form only by :func:`build_graph`; everything else reads it. Around any
node, eight subgraph configurations ("homophily ties") are defined from
compositions of predecessor/successor lookups up to two hops; these drive
prompt construction for the annotation workers.

Graphs are immutable after construction: all read operations are safe to call
concurrently.
"""

from __future__ import annotations

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

# (one-hop roles, two-hop role) of each configuration, in prompt order; see
# DirectedTAG.tie_groups.
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

    ``groups`` holds the tie's relation groups in prompt order, each as
    ``(role, member ids ascending)``; the center is in none of them and no
    group is empty. ``members`` lists the center first, then every group
    member in ascending node-id order; ``roles[i]`` is the role of
    ``members[i]``, :data:`ROLE_SELF` for the center.
    """

    center: int
    config_k: int
    groups: tuple[tuple[str, tuple[int, ...]], ...]
    members: tuple[int, ...]
    roles: tuple[str, ...]


def _grouped(keys: np.ndarray, values: np.ndarray, n: int) -> list[list[int]]:
    """``values`` split into one list per node id ``0..n-1`` by ``keys``,
    which must be sorted ascending."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    flat = values.tolist()
    return [flat[start:end] for start, end in zip([0, *ends[:-1]], ends)]


@dataclass
class DirectedTAG:
    """In-memory directed text-attributed graph.

    Nodes carry dense integer ids ``0..n-1`` assigned in input order; the
    original string keys are kept for reporting. ``labels[i]`` is a class
    index or ``None`` when ground truth is unknown. ``edge_array`` holds the
    edges as :func:`build_graph` normalises them; ``successors[u]`` and
    ``predecessors[v]`` are derived from it as sorted lists of ids.
    """

    original_keys: list[str]
    edge_array: np.ndarray
    texts: list[str]
    features: np.ndarray
    labels: list[int | None]
    class_names: list[str]
    successors: list[list[int]] = field(init=False, repr=False)
    predecessors: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        n = self.num_nodes
        src, dst = self.edge_array.T
        self.successors = _grouped(src, dst, n)
        by_dst = np.argsort(dst, kind="stable")  # keeps sources ascending per target
        self.predecessors = _grouped(dst[by_dst], src[by_dst], n)

    def _validate(self) -> None:
        n = len(self.original_keys)
        if len(self.texts) != n or len(self.labels) != n:
            raise ValueError("texts/labels do not match node count")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"feature matrix must be ({n}, d)")
        e = self.edge_array
        if e.dtype != np.int64 or e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edge array must be int64 of shape (m, 2), got {e.dtype}{e.shape}")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge node id outside 0..{n - 1}")
        src, dst = e.T
        if (src == dst).any():
            raise ValueError("self-loops are not allowed")
        if (np.diff(src * n + dst) <= 0).any():
            raise ValueError("edges must be unique and sorted by (u, v)")

    @property
    def num_nodes(self) -> int:
        return len(self.original_keys)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def edges(self) -> list[tuple[int, int]]:
        """Every edge ``(u, v)``, sorted."""
        return list(map(tuple, self.edge_array.tolist()))

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

        The center is not removed from the result; :meth:`tie_groups`
        removes it.
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

    def tie_groups(self, v: int, k: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The relation groups of configuration ``k`` (0..7) of the tie
        centered at ``v``, in prompt order, each as ``(role, member ids
        ascending)``; no group is empty.

        ==  =============================
        0   none
        1   pred
        2   succ
        3   pred, succ
        4   pred, pred_of_pred
        5   succ, pred_of_succ
        6   pred, succ_of_pred
        7   succ, succ_of_succ
        ==  =============================

        A node is shown in one group only. In configuration 3 a node that is
        both a predecessor and a successor of ``v`` is shown as a successor;
        in 4-7 the two-hop group leaves out ``v`` and the one-hop group,
        because the prompt templates phrase one-hop relations.
        """
        self._check_node(v)
        if not 0 <= k < NUM_TIE_CONFIGS:
            raise ValueError(f"tie configuration must be 0..7, got {k}")
        one_hop, two_hop = _TIE_ROLES[k]
        near = {ROLE_PRED: self.predecessors[v], ROLE_SUCC: self.successors[v]}
        if k == 3:
            succ = set(near[ROLE_SUCC])
            near[ROLE_PRED] = [u for u in near[ROLE_PRED] if u not in succ]
        groups = [(role, tuple(near[role])) for role in one_hop if near[role]]
        if two_hop is not None:
            far = self.composite_neighbors(v, two_hop)
            far.discard(v)
            far.difference_update(*(near[role] for role in one_hop))
            if far:
                groups.append((two_hop, tuple(sorted(far))))
        return tuple(groups)

    def homophily_tie(self, v: int, k: int) -> HomophilyTie:
        """Configuration ``k`` (0..7) of the tie centered at ``v``: the groups
        of :meth:`tie_groups` with their members listed by id."""
        return HomophilyTie(v, k, *self.tie_members(v, k))

    def tie_members(
        self, v: int, k: int
    ) -> tuple[tuple[tuple[str, tuple[int, ...]], ...], tuple[int, ...], tuple[str, ...]]:
        """``(groups, members, roles)`` of :meth:`homophily_tie`, without
        building the tie: the groups of :meth:`tie_groups`, the center then
        every group member in ascending id order, and the role of each."""
        groups = self.tie_groups(v, k)
        role_of = {u: role for role, ids in groups for u in ids}
        others = sorted(role_of)
        return groups, (v, *others), (ROLE_SELF, *map(role_of.__getitem__, others))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency; A[u, v] iff edge u -> v. For small graphs."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        a[self.edge_array[:, 0], self.edge_array[:, 1]] = True
        return a


def build_graph(
    keys: list[str],
    edges: list[tuple[int, int]] | np.ndarray,
    texts: list[str],
    features: np.ndarray,
    labels: list[int | None],
    class_names: list[str],
) -> DirectedTAG:
    """Assemble a graph from ``(u, v)`` pairs: a list or an ``(m, 2)`` array.

    Raises ValueError for a node id outside ``0..len(keys)-1``; drops
    self-loops and duplicates and sorts the rest by ``(u, v)``.
    """
    n = len(keys)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"edge node id outside 0..{n - 1}")
    src, dst = pairs.reshape(-1, 2).T
    codes = np.unique((src * n + dst)[src != dst])
    return DirectedTAG(
        original_keys=list(keys),
        edge_array=np.stack(np.divmod(codes, n), axis=1),
        texts=list(texts),
        features=np.asarray(features, dtype=np.float64),
        labels=list(labels),
        class_names=list(class_names),
    )
