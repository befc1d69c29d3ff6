from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from crowdtag.graph import (
    NUM_TIE_CONFIGS,
    ROLE_PRED,
    ROLE_SELF,
    ROLE_SUCC,
    DirectedTAG,
    UnknownNodeError,
    build_graph,
)

from conftest import random_graph, tiny_graph


# --- independent oracle: boolean adjacency-matrix algebra ------------------

def matrix_relation_oracle(graph: DirectedTAG) -> dict[str, np.ndarray]:
    """Relation matrices: row v of each entry is the neighbor set of v."""
    a = graph.adjacency_matrix().astype(np.int64)
    at = a.T
    return {
        "pred": at,
        "succ": a,
        "pred_of_succ": a @ at,
        "succ_of_pred": at @ a,
        "pred_of_pred": at @ at,
        "succ_of_succ": a @ a,
    }


# Relations of each tie configuration; a member in several keeps the last one
# listed in _WEAKEST_FIRST, and the center is always "self".
_TIE_RELATIONS = [
    (),
    ("pred",),
    ("succ",),
    ("pred", "succ"),
    ("pred", "pred_of_pred"),
    ("succ", "pred_of_succ"),
    ("pred", "succ_of_pred"),
    ("succ", "succ_of_succ"),
]
_WEAKEST_FIRST = ("pred_of_pred", "pred_of_succ", "succ_of_pred", "succ_of_succ", "pred", "succ")
_PROMPT_ORDER = ("pred", "succ", "pred_of_pred", "succ_of_succ", "succ_of_pred", "pred_of_succ")


def tie_role_oracle(rows: dict[str, set[int]], v: int, k: int) -> dict[int, str]:
    """Role of every member of tie ``k`` at ``v``, from ``v``'s relation rows."""
    role_of: dict[int, str] = {}
    for name in sorted(_TIE_RELATIONS[k], key=_WEAKEST_FIRST.index):
        role_of.update(dict.fromkeys(rows[name], name))
    role_of[v] = ROLE_SELF
    return role_of


# --- pred / succ ------------------------------------------------------------

def test_pred_succ_examples(chain_graph):
    g = chain_graph
    assert g.pred(2) == {1, 3}
    assert g.pred(1) == set()
    assert g.pred(4) == {2}
    assert g.succ(2) == {4}
    assert g.succ(4) == set()
    assert g.succ(1) == {2}


def test_unknown_node_errors(chain_graph):
    with pytest.raises(UnknownNodeError):
        chain_graph.pred(99)
    with pytest.raises(UnknownNodeError):
        chain_graph.succ(-1)
    with pytest.raises(UnknownNodeError):
        chain_graph.composite_neighbors(99, "pred_of_succ")


def test_composite_examples(chain_graph):
    g = chain_graph
    assert g.composite_neighbors(2, "succ_of_pred") == {2}
    assert g.composite_neighbors(2, "pred_of_pred") == set()
    assert g.composite_neighbors(2, "pred_of_succ") == {2}


def test_composite_matches_matrix_oracle(chain_graph):
    relations = matrix_relation_oracle(chain_graph)
    for v in range(chain_graph.num_nodes):
        for name in ("pred_of_succ", "succ_of_pred", "pred_of_pred", "succ_of_succ"):
            expected = set(np.flatnonzero(relations[name][v]).tolist())
            assert chain_graph.composite_neighbors(v, name) == expected


def test_composite_rejects_unknown_relation(chain_graph):
    with pytest.raises(ValueError):
        chain_graph.composite_neighbors(2, "sideways")


def test_pred_succ_duality_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, max_nodes=60)
        for v in range(g.num_nodes):
            for u in g.succ(v):
                assert v in g.pred(u)
            for u in g.pred(v):
                assert v in g.succ(u)


# --- homophily ties ----------------------------------------------------------

def test_tie_config0_is_singleton(chain_graph):
    tie = chain_graph.homophily_tie(2, 0)
    assert tie.members == (2,)
    assert tie.roles == (ROLE_SELF,)


def test_tie_config3_members_and_roles():
    g = tiny_graph([(1, 2), (2, 4)])
    tie = g.homophily_tie(2, 3)
    assert tie.members == (2, 1, 4)
    assert tie.roles == (ROLE_SELF, ROLE_PRED, ROLE_SUCC)


def test_tie_config3_shows_a_mutual_neighbor_as_a_successor():
    g = tiny_graph([(1, 2), (2, 1), (2, 4)])
    tie = g.homophily_tie(2, 3)
    assert tie.members == (2, 1, 4)
    assert tie.roles == (ROLE_SELF, ROLE_SUCC, ROLE_SUCC)
    assert tie.groups == ((ROLE_SUCC, (1, 4)),)


def test_tie_config7_empty_two_hop():
    g = tiny_graph([(1, 2), (2, 4)])
    tie = g.homophily_tie(2, 7)
    assert set(tie.members) == {2, 4}  # succ_of_succ(2) is empty


def test_tie_rejects_bad_config(chain_graph):
    with pytest.raises(ValueError):
        chain_graph.homophily_tie(2, 8)
    with pytest.raises(ValueError):
        chain_graph.homophily_tie(2, -1)


def test_tie_one_hop_role_wins():
    # 0->1, 1->0: pred_of_pred(0) = {0}? no: pred(0)={1}, pred(1)={0} -> {0}.
    # node 1 is both pred of 0 and (via cycles) could appear at two hops.
    g = tiny_graph([(0, 1), (1, 0), (1, 2), (2, 1)], n=3)
    tie = g.homophily_tie(0, 4)  # pred + pred_of_pred
    # pred(0) = {1}; pred_of_pred(0) = pred(1) = {0, 2}
    assert tie.members == (0, 1, 2)
    role_of = dict(zip(tie.members, tie.roles))
    assert role_of[0] == ROLE_SELF
    assert role_of[1] == ROLE_PRED  # one-hop role preferred
    assert role_of[2] == "pred_of_pred"


def test_tie_members_match_matrix_oracle():
    rng = np.random.default_rng(42)
    mutual_pairs = two_hop_cycles = 0
    for _ in range(100):
        g = random_graph(rng, max_nodes=200)
        relations = matrix_relation_oracle(g)
        for v in range(g.num_nodes):
            rows = {name: set(np.flatnonzero(m[v]).tolist()) for name, m in relations.items()}
            mutual_pairs += bool(rows["pred"] & rows["succ"])
            two_hop_cycles += v in rows["pred_of_pred"]
            for k in range(NUM_TIE_CONFIGS):
                tie = g.homophily_tie(v, k)
                expected = tie_role_oracle(rows, v, k)
                where = f"n={g.num_nodes} v={v} k={k}"
                assert g.tie_groups(v, k) == tie.groups, where
                assert len(set(tie.members)) == len(tie.members), where
                assert dict(zip(tie.members, tie.roles)) == expected, where
                assert [role for role, _ in tie.groups] == [
                    role for role in _PROMPT_ORDER if role in expected.values()
                ], where
                for role, ids in tie.groups:
                    assert list(ids) == sorted(u for u, r in expected.items() if r == role), where
    assert mutual_pairs > 0 and two_hop_cycles > 0  # the overlap rule was exercised


def test_tie_config_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, max_nodes=80)
        for v in range(0, g.num_nodes, 7):
            m1 = set(g.homophily_tie(v, 1).members)
            m2 = set(g.homophily_tie(v, 2).members)
            m3 = set(g.homophily_tie(v, 3).members)
            assert m1 <= m3 and m2 <= m3


def test_tie_ordering_deterministic():
    rng = np.random.default_rng(3)
    g = random_graph(rng, max_nodes=100)
    for v in range(0, g.num_nodes, 5):
        for k in range(NUM_TIE_CONFIGS):
            a = g.homophily_tie(v, k)
            b = g.homophily_tie(v, k)
            assert a.members == b.members and a.roles == b.roles
            assert a.members[0] == v
            assert list(a.members[1:]) == sorted(a.members[1:])


# --- construction invariants --------------------------------------------------

def test_build_graph_drops_self_loops_and_duplicates():
    g = build_graph(
        keys=["a", "b"],
        edges=[(0, 1), (0, 1), (1, 1)],
        texts=["", ""],
        features=np.zeros((2, 3)),
        labels=[None, None],
        class_names=["x"],
    )
    assert g.num_edges == 1
    assert g.succ(0) == {1}
    assert g.pred(1) == {0}


def set_based_build(n: int, edges: list[tuple[int, int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists as a set of seen edges gives them: the
    algorithm build_graph used before it normalised an edge array."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        succ[u].append(v)
        pred[v].append(u)
    return [sorted(s) for s in succ], [sorted(p) for p in pred]


@pytest.mark.parametrize("seed", range(12))
def test_build_graph_matches_a_set_based_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    m = 0 if seed == 0 else int(rng.integers(0, 4 * n))
    drawn = rng.integers(0, n, size=(m, 2))
    # repeat a third of the pairs, add self-loops, then shuffle the lot
    loops = np.repeat(rng.integers(0, n, size=(m // 5, 1)), 2, axis=1)
    pairs = np.concatenate([drawn, drawn[: m // 3], loops])[rng.permutation(m + m // 3 + m // 5)]
    edges = [(int(u), int(v)) for u, v in pairs]
    g = tiny_graph(edges, n=n)
    succ, pred = set_based_build(n, edges)
    assert g.successors == succ and g.predecessors == pred
    assert g.edges() == sorted({(u, v) for u, v in edges if u != v})
    assert g.num_edges == len(g.edges())
    assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (g.num_edges, 2)
    assert [g.degree(v) for v in range(n)] == [len(s) + len(p) for s, p in zip(succ, pred)]
    from_array = tiny_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n=n)
    assert np.array_equal(from_array.edge_array, g.edge_array)


@pytest.mark.parametrize("bad_id", [-1, 5])
def test_build_graph_rejects_a_node_id_outside_the_graph(bad_id):
    with pytest.raises(ValueError, match="edge node id outside 0..4"):
        tiny_graph([(0, 1), (2, bad_id)], n=5)
    with pytest.raises(ValueError, match="edge node id outside 0..4"):
        tiny_graph([(bad_id, 3)], n=5)


@pytest.mark.parametrize("edges, dtype, message", [
    ([[1, 0], [0, 1]], np.int64, "sorted"),
    ([[0, 1], [0, 1]], np.int64, "unique"),
    ([[0, 0]], np.int64, "self-loops"),
    ([[0, 5]], np.int64, "outside"),
    ([[0, 1]], np.int32, "int64"),
])
def test_graph_rejects_an_edge_array_build_graph_would_not_give(edges, dtype, message):
    with pytest.raises(ValueError, match=message):
        replace(tiny_graph([], n=5), edge_array=np.array(edges, dtype=dtype))


def test_adjacency_roundtrip_consistency():
    rng = np.random.default_rng(9)
    g = random_graph(rng, max_nodes=50)
    a = g.adjacency_matrix()
    edges_from_matrix = {(int(u), int(v)) for u, v in zip(*np.nonzero(a))}
    assert edges_from_matrix == set(g.edges())
