"""Parsers for citation-network files; the npz graph and guess artifacts.

File formats (public Cora/Citeseer conventions):

* ``.content``: one node per line, whitespace-separated:
  ``key f1 ... fd label``. The feature dimension is inferred from the first
  line and enforced on the rest.
* ``.cites``: two keys per line, ``cited citing``. The direction switch at
  assembly decides whether edges run citing->cited (default) or the reverse.
* texts file (optional): ``key<TAB>utf8 text`` per line.
* embeddings file (optional): ``key<TAB>v1,v2,...,vd`` per line.

The reader is columnar: :func:`parse_content` counts the rows, then writes each
row's values straight into one ``(n, d)`` float64 matrix; keys, labels and cite
ends are lists of strings. :func:`read_dataset` is the one ingest sequence.

The assembled graph is stored as one uncompressed ``.npz`` archive: the
feature matrix and the graph's edge array as binary arrays, plus a small
versioned JSON ``meta`` member with keys, texts, labels and class names.
Features and edges round-trip bit-exactly and every stage loads the artifact
without re-parsing text.

The workers' parsed guesses are a second uncompressed ``.npz``: integer
``nodes``, ``top1`` and ``mass`` arrays, the form ``aggregate.fuse`` takes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .graph import NUM_TIE_CONFIGS, DirectedTAG, build_graph

GRAPH_SCHEMA_VERSION = 2

CITING_TO_CITED = "citing_to_cited"
CITED_TO_CITING = "cited_to_citing"
EDGE_SEMANTICS = (CITING_TO_CITED, CITED_TO_CITING)

# Per-node text used when no texts file is supplied.
MISSING_TEXT_MARKER = "Title/abstract unavailable."


class ParseError(ValueError):
    """Malformed dataset file; the message names the file and 1-based line."""


@dataclass
class AssemblyCounters:
    """Reconciliation counters for edge ingestion.

    ``records == edges_added + unknown_key + self_loops + duplicates`` holds
    exactly after :func:`assemble`.
    """

    records: int = 0
    edges_added: int = 0
    unknown_key: int = 0
    self_loops: int = 0
    duplicates: int = 0

    def reconciles(self) -> bool:
        return self.records == (
            self.edges_added + self.unknown_key + self.self_loops + self.duplicates
        )


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` of a text file; a line that is not UTF-8 raises ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # the decoder reads ahead: find the first raw line that drops bytes
        with open(path, "rb") as fh:
            lineno = next(i for i, raw in enumerate(fh, start=1)
                          if raw.decode("utf-8", "ignore").encode() != raw)
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def parse_content(path: str | Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Parse a ``.content`` file into its keys, one ``(n, d)`` float64 feature
    matrix and its labels; ``d`` is inferred from the first row."""
    rows = sum(not line.isspace() for _, line in _lines(path))
    keys: list[str] = []
    labels: list[str] = []
    seen: set[str] = set()
    for lineno, line in _lines(path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 3:
            raise ParseError(f"{path}:{lineno}: expected key, features and label")
        key, values = fields[0], fields[1:-1]
        if not keys:
            features = np.empty((rows, len(values)))
        elif len(values) != features.shape[1]:
            raise ParseError(f"{path}:{lineno}: expected {features.shape[1]} feature columns, "
                             f"found {len(values)}")
        if key in seen:
            raise ParseError(f"{path}:{lineno}: duplicate node key {key!r}")
        try:
            features[len(keys)] = list(map(float, values))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric feature value ({exc})") from exc
        seen.add(key)
        keys.append(key)
        labels.append(fields[-1])
    if not keys:
        raise ParseError(f"{path}: no records found")
    return keys, features, labels


def parse_cites(path: str | Path) -> tuple[list[str], list[str], int]:
    """Parse a ``.cites`` file into its cited and citing key columns plus the
    count of blank lines; a line with other than two fields is an error."""
    cited: list[str] = []
    citing: list[str] = []
    blank = 0
    distinct: dict[str, str] = {}  # one str object per key, not per mention
    for lineno, line in _lines(path):
        fields = line.split()
        if not fields:
            blank += 1
            continue
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 keys, found {len(fields)}")
        a, b = fields
        cited.append(distinct.setdefault(a, a))
        citing.append(distinct.setdefault(b, b))
    return cited, citing, blank


def _tab_lines(path: str | Path, expected: str) -> Iterator[tuple[int, str, str]]:
    """``(lineno, key, rest)`` of each non-blank ``key<TAB>rest`` line."""
    for lineno, line in _lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(f"{path}:{lineno}: expected {expected}")
        key, rest = line.split("\t", 1)
        yield lineno, key, rest


def parse_texts(path: str | Path) -> dict[str, str]:
    """Parse a ``key<TAB>text`` file."""
    return {key: text for _, key, text in _tab_lines(path, "key<TAB>text")}


def load_embeddings(path: str | Path, keys: list[str]) -> np.ndarray:
    """The ``(len(keys), d)`` matrix of an embeddings file's vectors in the
    order of ``keys``. The file must cover every key (others are ignored) and
    hold one dimension throughout."""
    row_of = {k: i for i, k in enumerate(keys)}
    features = None
    filled = np.zeros(len(keys), dtype=bool)
    for lineno, key, values in _tab_lines(path, "key<TAB>comma-separated floats"):
        try:
            vec = list(map(float, values.split(",")))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad float ({exc})") from exc
        if features is None:
            features = np.empty((len(keys), len(vec)))
        elif len(vec) != features.shape[1]:
            raise ParseError(
                f"{path}:{lineno}: expected dimension {features.shape[1]}, found {len(vec)}")
        row = row_of.get(key)
        if row is not None:
            features[row] = vec
            filled[row] = True
    if not filled.all():
        missing = [keys[i] for i in np.flatnonzero(~filled)]
        shown = ", ".join(missing[:10])
        raise ParseError(f"{path}: missing {len(missing)} node key(s): {shown}")
    return features


def assemble(
    keys: list[str], features: np.ndarray, labels: list[str], cited: list[str], citing: list[str],
    edge_semantics: str = CITING_TO_CITED, texts: dict[str, str] | None = None,
) -> tuple[DirectedTAG, AssemblyCounters]:
    """Assemble a directed graph from the parsed columns; ``features`` is kept,
    not copied.

    Under ``citing_to_cited`` an edge u -> v means "u cites v". Cite records
    naming unknown keys are counted and skipped. Self-citations and duplicate
    edges are counted here and dropped by :func:`build_graph`, so the counters
    reconcile only if its edge array holds exactly the rest.
    """
    if edge_semantics not in EDGE_SEMANTICS:
        raise ValueError(f"unknown edge semantics {edge_semantics!r}")

    key_to_id = {k: i for i, k in enumerate(keys)}
    if len(key_to_id) != len(keys):
        raise ValueError("duplicate node keys")

    class_names, label_ids = np.unique(labels, return_inverse=True)  # names sorted

    # one (m, 2) array of (source, target) ids; -1 marks an unknown key
    m = len(cited)
    ends = (citing, cited) if edge_semantics == CITING_TO_CITED else (cited, citing)
    pairs = np.empty((m, 2), dtype=np.int64)
    for col, column in enumerate(ends):
        pairs[:, col] = np.fromiter(map(key_to_id.get, column, repeat(-1)), np.int64, m)
    pairs = pairs[(pairs >= 0).all(axis=1)]
    src, dst = pairs.T
    loop = src == dst
    counters = AssemblyCounters(
        records=m,
        unknown_key=m - len(pairs),
        self_loops=int(loop.sum()),
        duplicates=int((~loop).sum()) - len(np.unique((src * len(keys) + dst)[~loop])),
    )

    if texts is None:
        node_texts = [MISSING_TEXT_MARKER] * len(keys)
    else:
        node_texts = [texts.get(k, MISSING_TEXT_MARKER) for k in keys]

    graph = build_graph(keys, pairs, node_texts, features, label_ids.tolist(),
                        class_names.tolist())
    counters.edges_added = graph.num_edges
    return graph, counters


def read_dataset(
    content: str | Path, cites: str | Path, texts: str | Path | None = None,
    embeddings: str | Path | None = None, edge_semantics: str = CITING_TO_CITED,
) -> tuple[DirectedTAG, AssemblyCounters]:
    """Read a dataset's files into its graph, with the embeddings as features
    when given; RuntimeError if the edge counters do not reconcile."""
    keys, features, labels = parse_content(content)
    if embeddings:
        del features  # the embeddings replace the .content features
        features = load_embeddings(embeddings, keys)
    cited, citing, _ = parse_cites(cites)
    text_of = parse_texts(texts) if texts else None
    graph, counters = assemble(keys, features, labels, cited, citing, edge_semantics, text_of)
    if not counters.reconciles():
        raise RuntimeError(f"edge counters do not reconcile: {counters}")
    return graph, counters


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temp file beside ``path``; on a clean exit it is moved into
    place with ``os.replace``, so a reader sees the old file or the whole new
    one. On an exception the temp file is unlinked and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_graph(graph: DirectedTAG, path: str | Path, config_hash: str | None = None) -> None:
    """Write the uncompressed ``.npz`` graph artifact, atomically: ``features``
    (float64, n x d), ``edges`` (the graph's edge array: int64, m x 2, unique
    and sorted) and ``meta`` (UTF-8 JSON of the schema version, class names,
    keys, texts, labels and config hash).
    """
    meta = {"schema_version": GRAPH_SCHEMA_VERSION, "class_names": graph.class_names,
            "keys": graph.original_keys, "texts": graph.texts, "labels": graph.labels,
            "config_hash": config_hash}
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, features=np.asarray(graph.features, dtype=np.float64), edges=graph.edge_array,
                 meta=blob)


def load_graph(path: str | Path) -> DirectedTAG:
    """Read a :func:`save_graph` artifact; pickled members are refused. Raises
    ValueError on a wrong schema version, mismatched row counts, an ``edges``
    member that is not int64 of shape (m, 2), or (from :func:`build_graph`)
    an edge id outside ``0..n-1``."""
    # np.load leaks the handle it opens when the zip is torn, so pass it one
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        features, edges = npz["features"], npz["edges"]
        meta = json.loads(npz["meta"].tobytes().decode("utf-8"))
    if meta.get("schema_version") != GRAPH_SCHEMA_VERSION:
        raise ValueError(f"unsupported graph schema version {meta.get('schema_version')!r}")
    keys, texts, labels = meta["keys"], meta["texts"], meta["labels"]
    n = len(keys)
    if features.dtype != np.float64 or features.ndim != 2 or not (
        features.shape[0] == len(texts) == len(labels) == n
    ):
        raise ValueError(f"{path}: features {features.shape}, texts and labels do not fit {n} keys")
    if edges.dtype != np.int64 or edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"{path}: edges must be int64 of shape (m, 2), got {edges.dtype}{edges.shape}")
    return build_graph(keys, edges, texts, features, labels, meta["class_names"])


def save_guesses(path: str | Path, nodes: np.ndarray, top1: np.ndarray, mass: np.ndarray) -> None:
    """Write guess arrays, the ``nodes``, ``top1`` and ``mass`` that
    ``annotate.annotate_graph`` records, as an uncompressed ``.npz``,
    atomically."""
    with atomic_write(path, "wb") as fh:
        np.savez(fh, nodes=nodes, top1=top1, mass=mass)


def load_guesses(
    path: str | Path, num_nodes: int, num_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a :func:`save_guesses` artifact as ``(nodes, top1, mass)``;
    pickled members are refused. Raises ValueError unless it holds exactly
    integer ``nodes`` (n,), distinct and in ``0..num_nodes-1``, ``top1``
    (n, 8) in ``-1..num_classes-1`` and ``mass`` (n, 8, num_classes) >= 0."""
    # np.load leaks the handle it opens when the zip is torn, so pass it one
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        if sorted(npz.files) != ["mass", "nodes", "top1"]:
            raise ValueError(f"{path}: members {sorted(npz.files)}, expected mass, nodes and top1")
        nodes, top1, mass = npz["nodes"], npz["top1"], npz["mass"]
    n = len(nodes) if nodes.ndim == 1 else -1
    if any(a.dtype.kind not in "iu" for a in (nodes, top1, mass)) or (
        top1.shape != (n, NUM_TIE_CONFIGS) or mass.shape != (n, NUM_TIE_CONFIGS, num_classes)
    ):
        raise ValueError(
            f"{path}: nodes {nodes.dtype}{nodes.shape}, top1 {top1.dtype}{top1.shape} and "
            f"mass {mass.dtype}{mass.shape} do not fit {NUM_TIE_CONFIGS} workers x {num_classes} classes"
        )
    if n and (nodes.min() < 0 or nodes.max() >= num_nodes or len(np.unique(nodes)) != n):
        raise ValueError(f"{path}: node ids repeated or outside 0..{num_nodes - 1}")
    if top1.size and (top1.min() < -1 or top1.max() >= num_classes):
        raise ValueError(f"{path}: top-1 class outside -1..{num_classes - 1}")
    if mass.size and mass.min() < 0:
        raise ValueError(f"{path}: negative confidence mass")
    return nodes, top1, mass
