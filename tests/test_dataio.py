from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdtag.dataio import (
    MISSING_TEXT_MARKER,
    ParseError,
    assemble,
    load_embeddings,
    load_graph,
    parse_cites,
    parse_content,
    parse_texts,
    read_dataset,
    save_graph,
)
from crowdtag.graph import build_graph
from crowdtag.synthetic import synthetic_citation_graph, write_dataset_files

from conftest import tiny_graph


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# --- parse_content -----------------------------------------------------------

def test_parse_content_basic(tmp_path):
    p = write(tmp_path, "a.content", "p1 0 1 0 Theory\np2 1 0 0 Systems\n")
    keys, features, labels = parse_content(p)
    assert keys == ["p1", "p2"]
    assert labels[0] == "Theory"
    np.testing.assert_array_equal(features[0], [0.0, 1.0, 0.0])


def test_parse_content_dimension_mismatch(tmp_path):
    p = write(tmp_path, "b.content", "p1 0 1 0 Theory\np2 1 0 0 1 Systems\n")
    with pytest.raises(ParseError, match=":2"):
        parse_content(p)


def test_parse_content_empty_file(tmp_path):
    p = write(tmp_path, "c.content", "")
    with pytest.raises(ParseError):
        parse_content(p)


def test_parse_content_skips_blank_lines(tmp_path):
    p = write(tmp_path, "d.content", "p1 0 1 Theory\n\np2 1 0 Theory\n")
    keys, features, _ = parse_content(p)
    assert len(keys) == 2 and features.shape == (2, 2)


def test_parse_content_non_numeric(tmp_path):
    p = write(tmp_path, "e.content", "p1 0 x Theory\n")
    with pytest.raises(ParseError, match=":1"):
        parse_content(p)


# --- parse_cites -------------------------------------------------------------

def test_parse_cites_basic(tmp_path):
    p = write(tmp_path, "a.cites", "p2\tp1\n")
    cited, citing, blank = parse_cites(p)
    assert (cited, citing) == (["p2"], ["p1"])
    assert blank == 0


def test_parse_cites_blank_lines_counted(tmp_path):
    p = write(tmp_path, "b.cites", "p2\tp1\n\n\np1\tp3\n")
    cited, citing, blank = parse_cites(p)
    assert len(cited) == len(citing) == 2
    assert blank == 2


def test_parse_cites_wrong_field_count(tmp_path):
    p = write(tmp_path, "c.cites", "p2\tp1\np2\n")
    with pytest.raises(ParseError, match=":2"):
        parse_cites(p)


# --- assemble ------------------------------------------------------------------

def two_node_content(tmp_path):
    p = write(tmp_path, "g.content", "p1 0 1 Theory\np2 1 0 Systems\n")
    return parse_content(p)


def test_assemble_edge_semantics(tmp_path):
    content = two_node_content(tmp_path)
    cites = (["p2"], ["p1"])
    graph, counters = assemble(*content, *cites, "citing_to_cited")
    # p1 cites p2: edge p1 -> p2, i.e. 0 -> 1
    assert graph.num_nodes == 2
    assert graph.edges() == [(0, 1)]
    assert counters.edges_added == 1 and counters.reconciles()

    graph_rev, _ = assemble(*content, *cites, "cited_to_citing")
    assert graph_rev.edges() == [(1, 0)]


def test_assemble_unknown_key_skipped(tmp_path):
    content = two_node_content(tmp_path)
    graph, counters = assemble(*content, ["p2", "nope"], ["p1", "p1"])
    assert graph.num_edges == 1
    assert counters.unknown_key == 1 and counters.reconciles()


def test_assemble_self_citation_dropped(tmp_path):
    content = two_node_content(tmp_path)
    graph, counters = assemble(*content, ["p1"], ["p1"])
    assert graph.num_edges == 0
    assert counters.self_loops == 1 and counters.reconciles()


def test_assemble_duplicates_deduplicated(tmp_path):
    content = two_node_content(tmp_path)
    graph, counters = assemble(*content, ["p2"] * 3, ["p1"] * 3)
    assert graph.num_edges == 1
    assert counters.duplicates == 2 and counters.reconciles()


def test_assemble_counts_every_kind_of_dropped_record_at_once(tmp_path):
    p = write(tmp_path, "g.content", "p1 0 A\np2 1 B\np3 0 A\n")
    cited, citing = zip(*[
        ("p2", "p1"), ("p1", "p1"), ("p2", "p1"), ("p9", "p1"), ("p1", "p3"), ("p1", "p1"),
        ("p2", "p1"), ("p1", "p2"), ("p1", "p9")])
    graph, counters = assemble(*parse_content(p), list(cited), list(citing))
    assert graph.edges() == [(0, 1), (1, 0), (2, 0)]
    assert (counters.edges_added, counters.unknown_key, counters.self_loops,
            counters.duplicates) == (3, 2, 2, 2)
    assert counters.reconciles()


def test_content_file_bytes_are_each_feature_as_python_float_repr(tmp_path):
    features = np.array([
        [-1.5, 1e-300, 5e-324, 0.1 + 0.2],
        [1e300, -0.0, -2.5e-8, 123456789.125],
        [-7.0, 1.7976931348623157e308, 3.0e-5, -0.333],
    ])
    graph = build_graph(["a", "b", "c"], [(0, 1), (2, 1)], ["x", "y", "z"], features, [0, 1, 0], ["A", "B"])
    content_p, _, _ = write_dataset_files(graph, str(tmp_path / "g"))
    expected = "".join(
        f"{graph.original_keys[i]}\t"
        + "\t".join(repr(float(x)) for x in graph.features[i])
        + f"\t{graph.class_names[graph.labels[i]]}\n"
        for i in range(graph.num_nodes)
    )
    assert Path(content_p).read_bytes() == expected.encode("utf-8")
    assert parse_content(content_p)[1].tobytes() == features.tobytes()


def test_assemble_memory_per_edge(tmp_path):
    graph = synthetic_citation_graph(5000, 3, avg_out_degree=4.0, feature_dim=1, seed=3)
    content_p, cites_p, _ = write_dataset_files(graph, str(tmp_path / "g"))
    content = parse_content(content_p)
    cited, citing, _ = parse_cites(cites_p)
    cited += cited[:2000]
    citing += citing[:2000]
    tracemalloc.start()
    try:
        assembled, counters = assemble(*content, cited, citing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembled.num_edges == graph.num_edges > 19_000 and counters.duplicates == 2000
    # sets and lists of edge tuples in assemble, build_graph and the graph's
    # validation took about 760 bytes per record
    assert peak / len(cited) <= 400, f"{peak / len(cited):.0f} bytes per cite record"


def test_read_dataset_peak_is_within_three_feature_matrices(tmp_path):
    # Cora's class count and citation density, 5000 nodes x 64 features
    graph = synthetic_citation_graph(5000, 7, avg_out_degree=2.0, feature_dim=64, seed=3)
    content_p, cites_p, _ = write_dataset_files(graph, str(tmp_path / "g"))
    tracemalloc.start()
    try:
        read, counters = read_dataset(content_p, cites_p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.edges() == graph.edges() and counters.reconciles()
    assert read.features.tobytes() == graph.features.tobytes()
    # a small array per node, stacked into a second matrix, took 4.8 times
    ratio = peak / read.features.nbytes
    assert ratio <= 3.0, f"peak {ratio:.2f} times the feature matrix"


def test_assemble_texts_default_and_supplied(tmp_path):
    content = two_node_content(tmp_path)
    graph, _ = assemble(*content, [], [])
    assert graph.texts == [MISSING_TEXT_MARKER] * 2

    graph2, _ = assemble(*content, [], [], texts={"p1": "the first paper"})
    assert graph2.texts[0] == "the first paper"
    assert graph2.texts[1] == MISSING_TEXT_MARKER


def test_assemble_zero_edges_is_not_an_error(tmp_path):
    content = two_node_content(tmp_path)
    graph, _ = assemble(*content, [], [])
    assert graph.num_edges == 0
    assert graph.homophily_tie(0, 0).members == (0,)


def test_assemble_class_names_sorted(tmp_path):
    p = write(tmp_path, "h.content", "a 0 Zeta\nb 1 Alpha\nc 0 Mid\n")
    graph, _ = assemble(*parse_content(p), [], [])
    assert graph.class_names == ["Alpha", "Mid", "Zeta"]
    assert graph.labels == [2, 0, 1]


# --- texts / embeddings ---------------------------------------------------------

def test_parse_texts(tmp_path):
    p = write(tmp_path, "a.texts", "p1\thello world\np2\twith\ttab inside\n")
    texts = parse_texts(p)
    assert texts["p1"] == "hello world"
    assert texts["p2"] == "with\ttab inside"


def test_load_embeddings_replaces_features(tmp_path):
    keys, _, _ = two_node_content(tmp_path)
    p = write(tmp_path, "a.emb", "p1\t1.0,2.0,3.0,4.0\np2\t5.0,6.0,7.0,8.0\n")
    feats = load_embeddings(p, keys)
    assert feats.shape == (2, 4)
    np.testing.assert_array_equal(feats[1], [5.0, 6.0, 7.0, 8.0])


def test_load_embeddings_missing_key(tmp_path):
    keys, _, _ = two_node_content(tmp_path)
    p = write(tmp_path, "b.emb", "p1\t1.0,2.0\n")
    with pytest.raises(ValueError, match="p2"):
        load_embeddings(p, keys)


def test_load_embeddings_dim_mismatch(tmp_path):
    keys, _, _ = two_node_content(tmp_path)
    p = write(tmp_path, "c.emb", "p1\t1.0,2.0\np2\t1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match=":2"):
        load_embeddings(p, keys)


# --- serialization ---------------------------------------------------------------

def test_graph_npz_roundtrip(tmp_path):
    graph = synthetic_citation_graph(n=40, num_classes=3, seed=4)
    path = tmp_path / "graph.npz"
    save_graph(graph, path, config_hash="abc")
    loaded = load_graph(path)
    assert loaded.original_keys == graph.original_keys
    assert loaded.texts == graph.texts
    assert loaded.labels == graph.labels
    assert loaded.class_names == graph.class_names
    assert loaded.edges() == graph.edges()
    assert loaded.features.dtype == np.float64
    assert loaded.features.tobytes() == graph.features.tobytes()
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["edges", "features", "meta"]
        assert npz["edges"].dtype == np.int64
        assert npz["edges"].tolist() == sorted(map(list, graph.edges()))
        meta = json.loads(npz["meta"].tobytes().decode("utf-8"))
    assert meta["schema_version"] == 2 and meta["config_hash"] == "abc"
    assert list(tmp_path.iterdir()) == [path]


def test_graph_npz_roundtrip_zero_width_features_and_unknown_labels(tmp_path):
    graph = tiny_graph([(0, 1), (2, 1)], n=3)
    graph.features = np.zeros((3, 0))
    graph.labels = [0, None, None]
    save_graph(graph, tmp_path / "g.npz")
    loaded = load_graph(tmp_path / "g.npz")
    assert loaded.features.shape == (3, 0)
    assert loaded.labels == [0, None, None]
    assert loaded.edges() == [(0, 1), (2, 1)]


def write_npz(path: Path, graph, **override) -> Path:
    """A graph artifact with some members replaced."""
    save_graph(graph, path)
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    meta = json.loads(members["meta"].tobytes())
    meta.update(override.pop("meta", {}))
    members["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    members.update(override)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return path


def test_graph_npz_rejects_wrong_version(tmp_path, fixture30):
    path = write_npz(tmp_path / "g.npz", fixture30, meta={"schema_version": 999})
    with pytest.raises(ValueError, match="schema"):
        load_graph(path)


@pytest.mark.parametrize("bad_id", [30, -1])
def test_graph_npz_rejects_edge_id_out_of_range(tmp_path, fixture30, bad_id):
    edges = np.array(sorted(fixture30.edges()) + [(0, bad_id)], dtype=np.int64)
    path = write_npz(tmp_path / "g.npz", fixture30, edges=edges)
    with pytest.raises(ValueError, match="edge node id"):
        load_graph(path)


def test_graph_npz_rejects_feature_key_count_mismatch(tmp_path, fixture30):
    path = write_npz(tmp_path / "g.npz", fixture30, features=fixture30.features[:-1])
    with pytest.raises(ValueError, match="30 keys"):
        load_graph(path)


def test_graph_npz_refuses_pickled_member(tmp_path, fixture30):
    texts = np.array(fixture30.texts, dtype=object)
    path = write_npz(tmp_path / "g.npz", fixture30, features=texts)
    with pytest.raises(ValueError, match="allow_pickle"):
        load_graph(path)


# --- dataset-file round trip ------------------------------------------------------

def test_dataset_files_roundtrip(tmp_path):
    graph = synthetic_citation_graph(n=25, num_classes=3, seed=8)
    content_p, cites_p, texts_p = write_dataset_files(graph, str(tmp_path / "toy"))
    rebuilt, counters = read_dataset(content_p, cites_p, texts_p)
    assert rebuilt.num_nodes == graph.num_nodes
    assert set(rebuilt.edges()) == set(graph.edges())
    assert rebuilt.texts == graph.texts
    np.testing.assert_array_equal(rebuilt.features, graph.features)
    assert counters.reconciles()


# --- public Cora (optional, env-gated) ---------------------------------------------

def cora_dir() -> Path | None:
    env = os.environ.get("CORA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent / "data" / "cora")
    for c in candidates:
        if c.is_dir() and (c / "cora.content").exists():
            return c
    return None


def line_count_oracle(path: Path) -> tuple[int, int, set[str]]:
    """Independent count of rows, feature columns, and label set."""
    rows = 0
    labels: set[str] = set()
    columns = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            rows += 1
            labels.add(parts[-1])
            if columns is None:
                columns = len(parts) - 2
    return rows, columns or 0, labels


@pytest.mark.skipif(cora_dir() is None, reason="public Cora files not available (set CORA_DIR)")
def test_public_cora_parses_to_expected_shape():
    d = cora_dir()
    rows, dim, labels = line_count_oracle(d / "cora.content")
    assert (rows, dim, len(labels)) == (2708, 1433, 7)

    keys, features, labels = parse_content(d / "cora.content")
    assert len(keys) == 2708
    assert features[0].size == 1433
    cited, citing, _ = parse_cites(d / "cora.cites")
    graph, counters = assemble(keys, features, labels, cited, citing)
    assert graph.num_nodes == 2708
    assert graph.num_classes == 7
    assert counters.reconciles()
