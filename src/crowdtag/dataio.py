"""Parsers for citation-network files; the npz graph and guess artifacts.

File formats (public Cora/Citeseer conventions):

* ``.content``: one node per line, whitespace-separated:
  ``key f1 ... fd label``. The feature dimension is inferred from the first
  line and enforced on the rest.
* ``.cites``: two keys per line, ``cited citing``. The direction switch at
  assembly decides whether edges run citing->cited (default) or the reverse.
* texts file (optional): ``key<TAB>utf8 text`` per line.
* embeddings file (optional): ``key<TAB>v1,v2,...,vd`` per line.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import NUM_TIE_CONFIGS, DirectedTAG, build_graph

GRAPH_SCHEMA_VERSION = 2

CITING_TO_CITED = "citing_to_cited"
CITED_TO_CITING = "cited_to_citing"

# Per-node text used when no texts file is supplied.
MISSING_TEXT_MARKER = "Title/abstract unavailable."


class ParseError(ValueError):
    """Malformed input file; message carries the 1-based line number."""


@dataclass(frozen=True)
class ContentRecord:
    key: str
    features: np.ndarray
    label: str


@dataclass(frozen=True)
class CiteRecord:
    cited: str
    citing: str


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
    skipped_blank_lines: int = 0

    def reconciles(self) -> bool:
        return self.records == (
            self.edges_added + self.unknown_key + self.self_loops + self.duplicates
        )


def parse_content(path: str | Path) -> list[ContentRecord]:
    """Parse a ``.content`` file; dimension inferred from the first line."""
    records: list[ContentRecord] = []
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) < 3:
                raise ParseError(f"{path}:{lineno}: expected key, features and label")
            key, label = fields[0], fields[-1]
            values = fields[1:-1]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} feature columns, found {len(values)}"
                )
            try:
                feats = np.array([float(x) for x in values], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric feature value ({exc})") from exc
            records.append(ContentRecord(key=key, features=feats, label=label))
    if not records:
        raise ParseError(f"{path}: no records found")
    return records


def parse_cites(path: str | Path) -> tuple[list[CiteRecord], int]:
    """Parse a ``.cites`` file.

    Returns the records plus the count of skipped blank lines. Non-blank
    lines with a field count other than two are errors.
    """
    records: list[CiteRecord] = []
    blank = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                blank += 1
                continue
            if len(fields) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 keys, found {len(fields)}")
            records.append(CiteRecord(cited=fields[0], citing=fields[1]))
    return records, blank


def parse_texts(path: str | Path) -> dict[str, str]:
    """Parse a ``key<TAB>text`` file."""
    texts: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError(f"{path}:{lineno}: expected key<TAB>text")
            key, text = line.split("\t", 1)
            texts[key] = text
    return texts


def assemble(
    content: list[ContentRecord],
    cites: list[CiteRecord],
    edge_semantics: str = CITING_TO_CITED,
    texts: dict[str, str] | None = None,
) -> tuple[DirectedTAG, AssemblyCounters]:
    """Assemble a directed graph from parsed records.

    Under ``citing_to_cited`` an edge u -> v means "u cites v". Cite records
    naming unknown keys are counted and skipped. Self-citations and duplicate
    edges are counted here and dropped by :func:`build_graph`, so the counters
    reconcile only if its edge array holds exactly the rest.
    """
    if not content:
        raise ValueError("content record list is empty")
    if edge_semantics not in (CITING_TO_CITED, CITED_TO_CITING):
        raise ValueError(f"unknown edge semantics {edge_semantics!r}")

    keys = [r.key for r in content]
    key_to_id = {k: i for i, k in enumerate(keys)}
    if len(key_to_id) != len(keys):
        raise ValueError("duplicate node keys in content records")

    class_names = sorted({r.label for r in content})
    class_index = {c: i for i, c in enumerate(class_names)}
    labels: list[int | None] = [class_index[r.label] for r in content]
    features = np.stack([r.features for r in content])

    lookup = key_to_id.get
    cited = np.fromiter((lookup(r.cited, -1) for r in cites), np.int64, len(cites))
    citing = np.fromiter((lookup(r.citing, -1) for r in cites), np.int64, len(cites))
    known = (cited >= 0) & (citing >= 0)
    cited, citing = cited[known], citing[known]
    src, dst = (citing, cited) if edge_semantics == CITING_TO_CITED else (cited, citing)
    loop = src == dst
    counters = AssemblyCounters(
        records=len(cites),
        unknown_key=len(cites) - len(src),
        self_loops=int(loop.sum()),
        duplicates=int((~loop).sum()) - len(np.unique((src * len(keys) + dst)[~loop])),
    )

    if texts is None:
        node_texts = [MISSING_TEXT_MARKER] * len(keys)
    else:
        node_texts = [texts.get(k, MISSING_TEXT_MARKER) for k in keys]

    pairs = np.stack([src, dst], axis=1)
    graph = build_graph(keys, pairs, node_texts, features, labels, class_names)
    counters.edges_added = graph.num_edges
    return graph, counters


def load_embeddings(path: str | Path, graph: DirectedTAG) -> np.ndarray:
    """Replace node features with precomputed embeddings.

    The file must cover every node key; dimension uniformity is enforced.
    Returns the new feature matrix (the graph is not mutated).
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError(f"{path}:{lineno}: expected key<TAB>comma-separated floats")
            key, values = line.split("\t", 1)
            try:
                vec = np.array([float(x) for x in values.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float ({exc})") from exc
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected dimension {dim}, found {vec.size}"
                )
            vectors[key] = vec
    missing = [k for k in graph.original_keys if k not in vectors]
    if missing:
        shown = ", ".join(missing[:10])
        raise ValueError(f"embeddings file missing {len(missing)} node key(s): {shown}")
    return np.stack([vectors[k] for k in graph.original_keys])


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
    """Write guess arrays, as ``annotate.annotate_arrays`` and
    ``aggregate.guess_arrays`` give them, as an uncompressed ``.npz``,
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
