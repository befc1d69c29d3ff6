"""Staged pipeline: ingest -> annotate -> aggregate -> filter -> train.

One driver runs every stage from a table of the artifacts each stage reads
and writes. A stage's manifest records the hash of the settings its outputs
depend on (upstream settings reach it through its inputs), the content hash
of each input file and the ``[size, mtime_ns]`` of each output; the stage is
skipped when its manifest equals the one it would write now, so a missing,
malformed or outdated manifest, or a truncated or edited output, re-runs it.
The manifest also records each input's stat stamp (device, inode, size,
mtime, ctime) under ``input_stats``, which the comparison leaves out: an
input whose stamp is unchanged, and whose ctime is older than the manifest,
is not read again, and its recorded hash is reused, so a no-op re-run reads
manifests and stats files only. A touched or copied input is hashed again,
and its stage is still skipped when its content is unchanged. Within one
:func:`run_pipeline` call each input file is hashed at most once, the graph
artifact is loaded once and its structural scores (PageRank, ``c_density``,
degree) are computed once; training forms ``A_hat @ X`` once. Stages after
``annotate`` never perform network I/O and never open the response cache,
which is no stage's output: they read the parsed guesses from ``guesses.npz``.
``annotated_nodes.json`` is a summary (nodes, spend, prompt hashes) that no
stage reads. Every artifact but the append-only cache, and every manifest, is
written atomically (temp file + ``os.replace``). Artifacts carry a schema
version and their stage's settings hash (JSON fields, the graph's npz
``meta`` member, or a leading ``#`` line for CSV), except ``guesses.npz``.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import json
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np

from . import aggregate as agg
from . import annotate as ann
from . import dataio, filtering, gcn
from .graph import NUM_TIE_CONFIGS, DirectedTAG

ARTIFACT_SCHEMA_VERSION = 5

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_BUDGET = 3
EXIT_TRANSPORT = 4


class ConfigError(ValueError):
    """Invalid pipeline configuration; maps to exit code 1."""


class MissingArtifactError(RuntimeError):
    """A required prior-stage artifact is absent; maps to exit code 2."""


class NoPseudoLabelsError(ValueError):
    """No annotated node has a parseable worker response, so there is nothing
    to filter or train on; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class DatasetConfig:
    content: str = ""
    cites: str = ""
    texts: str | None = None
    embeddings: str | None = None
    edge_semantics: str = dataio.CITING_TO_CITED


@dataclass
class AnnotatorConfig:
    mode: str = "oracle"
    endpoint: str = ""
    model: str = "oracle"
    api_key_env: str = ""
    temperature: float = 0.0
    budget_usd: float = 2.5
    price_per_1k_in: float = 0.0005
    price_per_1k_out: float = 0.0015
    cache: str | None = None
    max_inflight: int = 1
    requests_per_second: float | None = None
    retries: int = 3
    backoff_s: float = 1.0
    noise: float = 0.0
    seed: int = 0
    node_cap: int | None = None
    # any subset of the caps; its keys are TruncationPolicy's fields
    truncation: dict = field(default_factory=lambda: asdict(ann.TruncationPolicy()),
                             metadata={"fields": ann.TruncationPolicy})


@dataclass
class FilterConfig:
    gamma: float = 0.02
    lam: float = field(default=0.78, metadata={"key": "lambda"})
    eta: float = 0.15
    k: int | None = None
    kmeans_seed: int = 0
    damping: float = 0.85


@dataclass
class GCNTrainConfig(gcn.GCNConfig):
    val_size: int = 500


@dataclass
class SweepConfig:
    gamma_values: list[float] = field(default_factory=list)
    lambda_values: list[float] = field(default_factory=list)
    seeds: int = 5


@dataclass
class PipelineConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    gcn: GCNTrainConfig = field(default_factory=GCNTrainConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: str = "out"

    def validate(self) -> None:
        """Check every setting's type and range, then the rules that join two settings."""
        _settings(PipelineConfig, self)
        f = self.filter
        if not f.gamma + f.lam <= 1.0 + 1e-12:
            raise ConfigError(f"filter.gamma + filter.lambda must be <= 1, got {f.gamma} + {f.lam}")
        if self.annotator.mode == "llm" and not self.annotator.endpoint:
            raise ConfigError("annotator.endpoint must be set when annotator.mode is llm")


# The range of every numeric setting, and the choices of every enumerated one,
# keyed as a config file spells the setting. In an interval "[" and "]" are
# closed ends, "(" and ")" open ones; NaN lies in none. A grid's range holds
# for each of its values.
RANGES = {
    "dataset.edge_semantics": dataio.EDGE_SEMANTICS,
    "annotator.mode": ("oracle", "llm"),
    "annotator.temperature": "[0, 2]",
    "annotator.budget_usd": "[0, inf)",
    "annotator.price_per_1k_in": "[0, inf)",
    "annotator.price_per_1k_out": "[0, inf)",
    "annotator.max_inflight": "[1, 64]",
    "annotator.requests_per_second": "(0, inf)",
    "annotator.retries": "[0, 10]",
    "annotator.backoff_s": "[0, 60]",
    "annotator.noise": "[0, 1]",
    "annotator.seed": "[0, inf)",
    "annotator.node_cap": "[1, inf)",
    "annotator.truncation.max_neighbors_per_role": "[1, inf)",
    "annotator.truncation.neighbor_text_chars": "[1, inf)",
    "annotator.truncation.center_text_chars": "[1, inf)",
    "filter.gamma": "[0, 1]",
    "filter.lambda": "[0, 1]",
    "filter.eta": "(0, 1]",
    "filter.k": "[1, inf)",
    "filter.kmeans_seed": "[0, inf)",
    "filter.damping": "[0, 1)",
    "gcn.hidden": "[1, inf)",
    "gcn.learning_rate": "(0, inf)",
    "gcn.weight_decay": "[0, inf)",
    "gcn.dropout": "[0, 1)",
    "gcn.epochs": "[1, inf)",
    "gcn.seed": "[0, inf)",
    "gcn.val_size": "[0, inf)",
    "sweep.gamma_values": "[0, 1]",
    "sweep.lambda_values": "[0, 1]",
    "sweep.seeds": "[1, inf)",
}

# The types a setting may have, each as a message names it
_TYPE_NAMES = {int: "an int", float: "a number", str: "a string", list[float]: "a list of numbers"}


def setting_fields(cls) -> dict:
    """``{key: (field, type hint)}`` of config class ``cls``, keyed as a config file spells it."""
    hints = get_type_hints(cls)
    return {f.metadata.get("key", f.name): (f, hints[f.name]) for f in fields(cls)}


def setting_type(hint) -> tuple[object, bool]:
    """``(type, whether it may be unset)`` of a setting's hint; the type is one of ``_TYPE_NAMES``."""
    optional = type(None) in get_args(hint)
    types = [t for t in get_args(hint) if t is not type(None)] if optional else [hint]
    if len(types) != 1 or types[0] not in _TYPE_NAMES:
        raise TypeError(f"no check for a setting of type {hint}")
    return types[0], optional


def _has_type(value, kind) -> bool:
    if kind == list[float]:
        return isinstance(value, list) and all(_has_type(v, float) for v in value)
    # no setting is a bool, and a bool is not a number; an int is a valid float
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _in_range(value, bounds) -> bool:
    if not isinstance(bounds, str):  # no range, or choices
        return bounds is None or value in bounds
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    above = lo <= value if bounds[0] == "[" else lo < value
    return above and (value <= hi if bounds[-1] == "]" else value < hi)


def _check(key: str, hint, value) -> None:
    kind, optional = setting_type(hint)
    bounds = RANGES.get(key)
    values = value if kind == list[float] else [value]
    if value is None and optional or _has_type(value, kind) and all(_in_range(v, bounds) for v in values):
        return
    if isinstance(bounds, tuple):
        want = f"one of {', '.join(bounds)}"
    elif kind is float:
        want = f"in {bounds}"
    else:
        want = _TYPE_NAMES[kind] + (f" in {bounds}" if bounds else "")
    raise ConfigError(f"{key} must be {'unset or ' if optional else ''}{want}, got {value!r}")


def _settings(cls, values, prefix: str = "") -> dict:
    """Keyword arguments of config class ``cls`` from ``values`` (an instance,
    or a JSON object of some of its settings), each setting checked."""
    known = setting_fields(cls)
    if isinstance(values, cls):
        values = {key: getattr(values, f.name) for key, (f, _) in known.items()}
    if not isinstance(values, dict):
        raise ConfigError(f"{prefix[:-1]} must be an object, got {values!r}")
    kwargs = {}
    for key, value in values.items():
        if key not in known:
            raise ConfigError(f"{prefix}{key} is not a setting; one of {', '.join(known)}")
        f, hint = known[key]
        if is_dataclass(hint):
            value = hint(**_settings(hint, value, f"{prefix}{key}."))
        elif "fields" in f.metadata:
            _settings(f.metadata["fields"], value, f"{prefix}{key}.")
        else:
            _check(prefix + key, hint, value)
        kwargs[f.name] = value
    return kwargs


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Read the JSON config file and apply overrides (``None`` changes nothing); validates."""
    doc: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} must hold a JSON object, got {doc!r}")
    for section, values in (overrides or {}).items():
        if isinstance(values, dict):
            current = doc.setdefault(section, {})
            if isinstance(current, dict):  # else the check below names the section
                current.update({k: v for k, v in values.items() if v is not None})
        elif values is not None:
            doc[section] = values
    cfg = PipelineConfig(**_settings(PipelineConfig, doc))
    cfg.validate()
    return cfg


def config_hash(cfg: PipelineConfig, sections: tuple[str, ...]) -> str:
    return _digest({s: asdict(getattr(cfg, s)) for s in sections})


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Artifacts, manifests, locking
# ---------------------------------------------------------------------------

def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


@dataclass
class StagePaths:
    out_dir: Path
    # kept while run_pipeline runs, keyed by the path and its _stamp: the
    # hash of each input file, and each graph artifact loaded
    file_hashes: dict | None = field(default=None, init=False, repr=False)
    graphs: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    @property
    def graph(self) -> Path:
        return self.out_dir / "graph.npz"

    @property
    def cache(self) -> Path:
        return self.out_dir / "annotations.jsonl"

    @property
    def annotated_nodes(self) -> Path:
        return self.out_dir / "annotated_nodes.json"

    @property
    def guesses(self) -> Path:
        return self.out_dir / "guesses.npz"

    @property
    def pseudo_labels(self) -> Path:
        return self.out_dir / "pseudo_labels.csv"

    @property
    def worker_acc(self) -> Path:
        return self.out_dir / "worker_accuracy.csv"

    @property
    def scores(self) -> Path:
        return self.out_dir / "scores.csv"

    @property
    def selected(self) -> Path:
        return self.out_dir / "selected.json"

    @property
    def history(self) -> Path:
        return self.out_dir / "history.csv"

    @property
    def model(self) -> Path:
        return self.out_dir / "model.json"

    @property
    def report(self) -> Path:
        return self.out_dir / "report.json"

    def manifest(self, stage: str) -> Path:
        return self.out_dir / f"manifest_{stage}.json"


@contextmanager
def pipeline_lock(out_dir: Path):
    """One pipeline instance per output directory.

    An exclusive ``flock`` on ``out_dir/.lock``, which records the holder's
    PID. The kernel drops the lock when the holder exits, even on SIGKILL, so
    a leftover file never blocks a later run. The file is never unlinked:
    that would let two runs lock two different inodes under the same name.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    fd = os.open(lock, os.O_CREAT | os.O_RDWR)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"output directory is locked by another run: {lock}") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        os.close(fd)


def _stamp(path: Path) -> list[int]:
    """``[st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns]`` of ``path``.
    A write, a replacement by a copy and a ``touch`` each change it, and an
    edit whose mtime is set back still changes the ctime, which ``utime``
    cannot set."""
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _memoised(
    memo: dict | None, path: Path, read: Callable[[Path], object], stamp: list[int] | None = None
):
    """``read(path)``, kept in ``memo`` when that is set, under the file's
    stamp (``stamp``, or :func:`_stamp` taken now), so a file changed since
    it was read is read again; a read that raises keeps nothing."""
    if memo is None:
        return read(path)
    key = (str(path), *(stamp or _stamp(path)))
    if key not in memo:
        memo[key] = read(path)
    return memo[key]


def _read_manifest(path: Path) -> tuple[object, int]:
    """The decoded manifest at ``path`` and its own ``st_mtime_ns``; ``(None,
    0)`` when it is missing, unreadable, not UTF-8 or not JSON."""
    try:
        with open(path, "rb") as fh:
            mtime_ns = os.fstat(fh.fileno()).st_mtime_ns
            return json.loads(fh.read().decode("utf-8")), mtime_ns
    except (OSError, ValueError):
        return None, 0


def _recorded_hashes(recorded: object, mtime_ns: int) -> dict[str, tuple[list, str]]:
    """path -> (stamp, content hash) for each input a manifest recorded with a
    stamp whose ctime is strictly older than the manifest (git's racy-clean
    rule: a file changed in the tick it was hashed in may keep its stamp)."""
    try:
        stats, hashes = recorded["input_stats"], recorded["inputs"]
        return {p: (stamp, hashes[p]) for p, stamp in stats.items() if stamp[4] < mtime_ns}
    except (KeyError, TypeError, IndexError, AttributeError):
        return {}


def _write_json(path: Path, doc: dict, **dumps_kwargs) -> None:
    with dataio.atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(doc, **dumps_kwargs) + "\n")


def _write_csv(path: Path, cfg_hash: str, header: list[str], rows: list[list]) -> None:
    with dataio.atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write(f"# schema_version={ARTIFACT_SCHEMA_VERSION} config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Read one of our CSV artifacts, skipping ``#`` comment lines."""
    if not path.exists():
        raise MissingArtifactError(f"missing artifact {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader]


def _dataset_files(cfg: PipelineConfig) -> list[Path]:
    """The dataset files ingest reads, which must exist."""
    d = cfg.dataset
    if not d.content or not d.cites:
        raise ConfigError("dataset.content and dataset.cites are required")
    files = [Path(f) for f in (d.content, d.cites, d.texts, d.embeddings) if f]
    for f in files:
        if not f.exists():
            raise ConfigError(f"dataset file not found: {f}")
    return files


# Annotator fields that only pace or cap a run: a finished annotate's outputs
# do not depend on them.
_PACING_FIELDS = (
    "api_key_env", "budget_usd", "max_inflight", "requests_per_second", "retries", "backoff_s"
)


def _annotate_settings(cfg: PipelineConfig) -> dict:
    settings = {"annotator": {k: v for k, v in asdict(cfg.annotator).items() if k not in _PACING_FIELDS}}
    if cfg.annotator.node_cap is not None:  # the cap ranks nodes by the stage-one score
        settings["filter"] = asdict(cfg.filter)
    return settings


# stage: (StagePaths artifacts it reads, artifacts it writes, the settings its
# outputs depend on besides its inputs). The response cache is no stage's
# output: guesses.npz holds all that later stages read.
_STAGE_TABLE = {
    "ingest": ((), ("graph",), lambda cfg: {"dataset": asdict(cfg.dataset)}),
    "annotate": (("graph",), ("guesses", "annotated_nodes"), _annotate_settings),
    "aggregate": (("graph", "guesses"), ("pseudo_labels", "worker_acc"), lambda cfg: {}),
    "filter": (("graph", "pseudo_labels"), ("scores", "selected"), lambda cfg: {"filter": asdict(cfg.filter)}),
    "train": (
        ("graph", "pseudo_labels", "selected"),
        ("history", "model", "report"),
        lambda cfg: {"gcn": asdict(cfg.gcn)},
    ),
}
STAGES = tuple(_STAGE_TABLE)
_PRODUCER = {artifact: stage for stage, (_, writes, _) in _STAGE_TABLE.items() for artifact in writes}


def _require(paths: StagePaths, artifact: str) -> Path:
    """``paths.<artifact>``, which must exist; the error names the stage that writes it."""
    path = getattr(paths, artifact)
    if not path.exists():
        raise MissingArtifactError(f"{path} not found; run the {_PRODUCER[artifact]!r} stage first")
    return path


def _stamps(outputs: list[Path]) -> dict[str, list[int]]:
    """``[size, mtime_ns]`` of each output; a missing one raises FileNotFoundError."""
    return {str(p): [(st := p.stat()).st_size, st.st_mtime_ns] for p in outputs}


def _stage(name: str, sources: Callable[[PipelineConfig], list[Path]] = lambda cfg: []):
    """Make ``body(cfg, paths, cfg_hash, *args)`` the stage ``stage_<name>(cfg,
    paths, *args) -> bool``: it requires the files ``sources`` names and the
    inputs ``_STAGE_TABLE`` lists, returns False when its manifest equals the
    one it would write now, and else runs the body, writes that manifest and
    returns True. ``cfg_hash`` is the hash of the stage's settings.

    The recorded manifest is read first, and each input is stat-ed once
    before it is read. An input whose stamp (:func:`_stamp`) equals the one
    the manifest records for it, and whose ctime is older than the manifest,
    is not read: its recorded content hash is reused. Any other input is
    hashed (once per :func:`run_pipeline` call). The manifest records the
    stamps under ``input_stats``, which the skip decision leaves out, so a
    touched or copied input is hashed again and its stage is still skipped."""
    reads, writes, settings = _STAGE_TABLE[name]

    def wrap(body):
        def stage(cfg: PipelineConfig, paths: StagePaths, *args, **kwargs) -> bool:
            inputs = sources(cfg) + [_require(paths, artifact) for artifact in reads]
            cfg_hash = _digest(settings(cfg))
            mpath = paths.manifest(name)
            recorded, recorded_at = _read_manifest(mpath)
            known = _recorded_hashes(recorded, recorded_at)
            stats = {str(p): _stamp(p) for p in inputs}
            hashes = {}
            for p in inputs:
                stamp, old = stats[str(p)], known.get(str(p))
                if old is not None and old[0] == stamp:
                    hashes[str(p)] = old[1]
                else:
                    hashes[str(p)] = _memoised(paths.file_hashes, p, _file_hash, stamp)
            manifest = {
                "stage": name,
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "config_hash": cfg_hash,
                "inputs": hashes,
            }
            outputs = [getattr(paths, artifact) for artifact in writes]
            if isinstance(recorded, dict):
                recorded.pop("input_stats", None)
                try:
                    if recorded == {**manifest, "outputs": _stamps(outputs)}:
                        return False
                except OSError:  # a missing output is stale
                    pass
            body(cfg, paths, cfg_hash, *args, **kwargs)
            manifest["outputs"] = _stamps(outputs)
            manifest["input_stats"] = stats
            _write_json(mpath, manifest, indent=1, sort_keys=True)
            return True

        stage.__name__ = stage.__qualname__ = body.__name__
        stage.__doc__ = body.__doc__
        return stage

    return wrap


@dataclass
class _LoadedGraph:
    """A loaded graph artifact and the structural scores computed on it, by
    (damping, k-means seed)."""

    graph: DirectedTAG
    _structure: dict = field(default_factory=dict, repr=False)

    def structure(self, f: FilterConfig) -> filtering.StructuralScores:
        """``filtering.structural_scores`` under the settings ``f``, computed once."""
        key = (f.damping, f.kmeans_seed)
        if key not in self._structure:
            self._structure[key] = filtering.structural_scores(
                self.graph, self.graph.features, damping=f.damping, kmeans_seed=f.kmeans_seed
            )
        return self._structure[key]


def _read_graph(path: Path) -> _LoadedGraph:
    """``dataio.load_graph``; an unreadable or malformed artifact (a torn
    write, say) raises MissingArtifactError naming the ingest stage."""
    try:
        return _LoadedGraph(dataio.load_graph(path))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise MissingArtifactError(
            f"{path}: graph artifact unreadable or malformed ({exc}); "
            f"re-run the {_PRODUCER['graph']!r} stage"
        ) from exc


def _load_graph(paths: StagePaths) -> _LoadedGraph:
    """The graph artifact, which must exist; within one :func:`run_pipeline`
    call it is loaded, and each of its structural scores computed, once."""
    return _memoised(paths.graphs, _require(paths, "graph"), _read_graph)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

@_stage("ingest", sources=_dataset_files)
def stage_ingest(cfg: PipelineConfig, paths: StagePaths, cfg_hash: str) -> None:
    """Parse the dataset files and write the assembled graph artifact."""
    graph, _ = dataio.read_dataset(**asdict(cfg.dataset))
    dataio.save_graph(graph, paths.graph, cfg_hash)


def _annotation_order(cfg: PipelineConfig, loaded: _LoadedGraph) -> list[int]:
    """Nodes to annotate: all, or the stage-one top ``node_cap`` re-ranked.

    The stage-one score needs no annotations, so capping by it keeps the
    expensive LLM calls on the nodes the filter will actually consider.
    """
    n = loaded.graph.num_nodes
    cap = cfg.annotator.node_cap
    if cap is None or cap >= n:
        return list(range(n))
    st = loaded.structure(cfg.filter)
    s1 = filtering.stage1_scores(st.pagerank, st.c_density, st.degree, cfg.filter.gamma, cfg.filter.lam)
    return sorted(filtering.select_top_k(np.arange(n), s1, cap))


def _make_client(cfg: PipelineConfig, graph: DirectedTAG) -> ann.Client:
    a = cfg.annotator
    if a.mode == "oracle":
        return ann.SyntheticOracleClient(graph, noise=a.noise, seed=a.seed)
    api_key = os.environ.get(a.api_key_env) if a.api_key_env else None
    return ann.HttpChatClient(
        endpoint=a.endpoint,
        model=a.model,
        api_key=api_key,
        temperature=a.temperature,
        retries=a.retries,
        backoff_s=a.backoff_s,
    )


@_stage("annotate")
def stage_annotate(
    cfg: PipelineConfig, paths: StagePaths, cfg_hash: str, client: ann.Client | None = None
) -> None:
    """Run the eight workers per node against the cache-backed client."""
    loaded = _load_graph(paths)
    graph = loaded.graph
    nodes = _annotation_order(cfg, loaded)
    if client is None:
        client = _make_client(cfg, graph)
    cache_path = Path(cfg.annotator.cache) if cfg.annotator.cache else paths.cache
    if not cache_path.exists():
        ann.ResponseCache.write_header(cache_path, cfg_hash)
    budget = ann.BudgetState(
        limit_usd=cfg.annotator.budget_usd,
        price_per_1k_in=cfg.annotator.price_per_1k_in,
        price_per_1k_out=cfg.annotator.price_per_1k_out,
    )
    policy = ann.TruncationPolicy(**cfg.annotator.truncation)
    try:
        cache = ann.ResponseCache(cache_path)
    except json.JSONDecodeError as exc:
        raise ann.CorruptCacheError(f"{cache_path}: a line before the last is not JSON ({exc})") from exc
    with cache:
        guesses = ann.annotate_graph(
            graph,
            nodes,
            client,
            cache,
            budget,
            model=cfg.annotator.model,
            policy=policy,
            max_inflight=cfg.annotator.max_inflight,
            requests_per_second=cfg.annotator.requests_per_second,
        )
    dataio.save_guesses(paths.guesses, guesses.nodes, guesses.top1, guesses.mass)
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "config_hash": cfg_hash,
        "nodes": nodes,
        "prompt_hashes": guesses.prompt_hashes,
        "spent_usd": budget.spent_usd,
        "workers_per_node": NUM_TIE_CONFIGS,
        "unparseable": int((guesses.top1 < 0).sum()),
    }
    _write_json(paths.annotated_nodes, doc)


@_stage("aggregate")
def stage_aggregate(cfg: PipelineConfig, paths: StagePaths, cfg_hash: str) -> None:
    """Fuse the worker guesses that annotate recorded into pseudo-labels."""
    graph = _load_graph(paths).graph
    try:
        nodes, top1, mass = dataio.load_guesses(paths.guesses, graph.num_nodes, graph.num_classes)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise MissingArtifactError(
            f"{paths.guesses}: recorded guesses unreadable or malformed ({exc}); "
            f"re-run the {_PRODUCER['guesses']!r} stage"
        ) from exc
    node_list = nodes.tolist()
    truth = np.array([-1 if graph.labels[v] is None else graph.labels[v] for v in node_list])
    fused = agg.fuse(top1, mass, truth)
    if not (fused.label >= 0).any():
        per_config = ", ".join(f"{k}: {n}" for k, n in enumerate((top1 < 0).sum(axis=0).tolist()))
        raise NoPseudoLabelsError(
            f"none of the {len(node_list)} annotated node(s) has a parseable worker response "
            f"(unparseable responses by config_k: {per_config}); a response parses when it "
            f"names one of the classes {', '.join(graph.class_names)}"
        )

    rows = [
        [graph.original_keys[v], graph.class_names[label], f"{conf:.6f}", top1.shape[1] - usable]
        for v, label, conf, usable in sorted(
            zip(node_list, fused.label.tolist(), fused.confidence.tolist(), fused.usable.tolist())
        )
        if label >= 0
    ]
    _write_csv(
        paths.pseudo_labels, cfg_hash, ["node_key", "label", "confidence", "unparseable_count"], rows
    )
    acc_rows = []
    if (truth >= 0).any():
        acc_rows = [[k, f"{accuracy:.6f}", n] for k, accuracy, n in fused.accuracy]
    _write_csv(paths.worker_acc, cfg_hash, ["config_k", "accuracy", "n"], acc_rows)
    dropped = len(node_list) - len(rows)
    if dropped:
        print(f"aggregate: dropped {dropped} node(s) with no parseable worker")


def load_pseudo_labels(paths: StagePaths, graph: DirectedTAG) -> tuple[dict[int, int], dict[int, float]]:
    """Pseudo-label table -> (label by node id, confidence by node id). A
    table without rows raises NoPseudoLabelsError: there is nothing to
    filter or train on."""
    path = _require(paths, "pseudo_labels")
    _, rows = read_csv_rows(path)
    if not rows:
        raise NoPseudoLabelsError(
            f"{path} holds no pseudo-labeled node: no annotated node had a parseable worker response"
        )
    class_index = {c: i for i, c in enumerate(graph.class_names)}
    labels: dict[int, int] = {}
    confidence: dict[int, float] = {}
    for key, label, conf, _unparseable in rows:
        v = graph.key_to_id[key]
        labels[v] = class_index[label]
        confidence[v] = float(conf)
    return labels, confidence


def default_k(graph: DirectedTAG, eta: float) -> int:
    """Stage-one size when unset: conventional 20 nodes per class, pre-filter."""
    return math.ceil(20 * graph.num_classes / eta)


def _select(loaded: _LoadedGraph, labels: dict[int, int], confidence: dict[int, float], f: FilterConfig):
    """``filtering.run_filter`` over the pseudo-labeled nodes with the filter
    settings ``f``; returns (stage-one size k, final nodes, scores)."""
    graph = loaded.graph
    k = f.k if f.k is not None else default_k(graph, f.eta)
    final, scores = filtering.run_filter(
        graph,
        graph.features,
        annotated_nodes=sorted(labels),
        confidences=confidence,
        pseudo_label_of=labels,
        gamma=f.gamma,
        lam=f.lam,
        eta=f.eta,
        k=k,
        kmeans_seed=f.kmeans_seed,
        damping=f.damping,
        structure=loaded.structure(f),
    )
    return k, final, scores


@_stage("filter")
def stage_filter(cfg: PipelineConfig, paths: StagePaths, cfg_hash: str) -> None:
    """Two-stage selection over the annotated pool; writes scores + selection."""
    loaded = _load_graph(paths)
    graph = loaded.graph
    labels, confidence = load_pseudo_labels(paths, graph)
    k, final, scores = _select(loaded, labels, confidence, cfg.filter)

    def fmt(x: float) -> str:
        return "" if np.isnan(x) else f"{x:.8f}"

    rows = []
    for i, v in enumerate(scores.node_ids):
        rows.append(
            [
                graph.original_keys[int(v)],
                f"{scores.pagerank[i]:.8f}",
                f"{scores.c_density[i]:.8f}",
                int(scores.degree[i]),
                f"{scores.s1[i]:.8f}",
                fmt(scores.coe[i]),
                fmt(scores.confidence[i]),
                fmt(scores.s2[i]),
                int(scores.selected_stage[i]),
            ]
        )
    _write_csv(
        paths.scores,
        cfg_hash,
        ["node_key", "P", "D", "Deg", "s1", "coe", "conf", "s2", "selected_stage"],
        rows,
    )
    stage1 = [int(v) for v in scores.node_ids[scores.selected_stage >= 1]]
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "config_hash": cfg_hash,
        "k": k,
        "eta": cfg.filter.eta,
        "stage1_nodes": stage1,
        "final_nodes": final,
    }
    _write_json(paths.selected, doc, indent=1)


def train_once(
    graph: DirectedTAG,
    train_nodes: list[int],
    pseudo_labels: dict[int, int],
    gcn_cfg: GCNTrainConfig,
    a_hat: gcn.CSR | None = None,
    ax: np.ndarray | None = None,
    eval_each_epoch: bool = True,
) -> tuple[list[gcn.EpochRecord], float, gcn.GCNModel, float | None]:
    """Train a GCN on pseudo-labeled nodes.

    Returns (history, test accuracy, model, validation accuracy). The seeded
    validation sample is held out of the test set and used only for the
    report. ``a_hat`` and ``ax`` (``a_hat @ graph.features``) are computed
    when not given; every forward shares that one ``ax``. Without
    ``eval_each_epoch`` the history holds losses only (see ``gcn.train``).
    """
    if a_hat is None:
        a_hat = gcn.normalize_adjacency(graph)
    if ax is None:
        ax = a_hat @ graph.features
    train_ids, val_ids, test_ids = gcn.split_nodes(
        graph, train_nodes, val_size=gcn_cfg.val_size, seed=gcn_cfg.seed
    )
    model = gcn.init_model(a_hat, graph.feature_dim, graph.num_classes, gcn_cfg)
    y_train = np.array([pseudo_labels[v] for v in train_ids], dtype=np.intp)
    y_test = np.array([graph.labels[v] for v in test_ids], dtype=np.intp)
    history = gcn.train(
        model, graph.features, train_ids, y_train, test_ids, y_test, ax=ax, eval_each_epoch=eval_each_epoch
    )
    if len(test_ids) == 0:
        raise ValueError("evaluation node set is empty")
    logits = gcn.forward(model, graph.features, ax=ax)  # one eval-mode forward for both accuracies
    test_acc = gcn._accuracy(logits, test_ids, y_test)
    val_acc = None
    if len(val_ids):
        y_val = np.array([graph.labels[v] for v in val_ids], dtype=np.intp)
        val_acc = gcn._accuracy(logits, val_ids, y_val)
    return history, test_acc, model, val_acc


@_stage("train")
def stage_train(cfg: PipelineConfig, paths: StagePaths, cfg_hash: str) -> None:
    """Train the GCN on the selected pseudo-labeled nodes; write the report."""
    graph = _load_graph(paths).graph
    labels, _conf = load_pseudo_labels(paths, graph)
    selected = json.loads(paths.selected.read_text())["final_nodes"]
    history, test_acc, model, val_acc = train_once(graph, selected, labels, cfg.gcn)

    _write_csv(
        paths.history,
        cfg_hash,
        ["epoch", "train_acc", "test_acc", "loss"],
        [
            [r.epoch, f"{r.train_acc:.6f}", f"{r.test_acc:.6f}", f"{r.loss:.8f}"]
            for r in history
        ],
    )
    model_doc = gcn.model_to_json(model)
    model_doc["config_hash"] = cfg_hash
    _write_json(paths.model, model_doc)

    truth_on_train = [
        (labels[v], graph.labels[v]) for v in selected if graph.labels[v] is not None
    ]
    pseudo_acc = (
        sum(1 for p, t in truth_on_train if p == t) / len(truth_on_train)
        if truth_on_train
        else None
    )
    report = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "config_hash": cfg_hash,
        "train_nodes": len(selected),
        "test_accuracy": test_acc,
        "val_accuracy": val_acc,
        "final_train_accuracy": history[-1].train_acc,
        "epochs": len(history),
        "pseudo_label_accuracy_on_train": pseudo_acc,
    }
    _write_json(paths.report, report, indent=1)


def run_pipeline(cfg: PipelineConfig, paths: StagePaths, client: ann.Client | None = None) -> dict[str, bool]:
    """All stages in order; returns which stages actually ran. Each input file
    is hashed at most once per call, however many manifests list it, and the
    graph artifact is loaded, and its structural scores computed, once."""
    paths.file_hashes = {}
    paths.graphs = {}
    try:
        ran = {}
        ran["ingest"] = stage_ingest(cfg, paths)
        ran["annotate"] = stage_annotate(cfg, paths, client=client)
        ran["aggregate"] = stage_aggregate(cfg, paths)
        ran["filter"] = stage_filter(cfg, paths)
        ran["train"] = stage_train(cfg, paths)
        return ran
    finally:
        paths.file_hashes = paths.graphs = None


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def hyperparameter_sweep(
    cfg: PipelineConfig,
    paths: StagePaths,
    gamma_values: list[float],
    lambda_values: list[float],
    seeds: int,
) -> list[dict]:
    """Mean/std test accuracy per (gamma, lambda) cell over ``seeds`` runs.

    Requires cached annotations (the pseudo-label artifact); never queries
    the LLM. The graph is loaded, its structural scores computed and
    ``A_hat @ X`` formed once, for every cell and seed. Each run reads only
    its final test accuracy, so it trains without the per-epoch eval.
    """
    if not gamma_values or len(gamma_values) != len(lambda_values):
        raise ConfigError("sweep.gamma_values and sweep.lambda_values must be set, of equal length")
    sweep = SweepConfig(list(gamma_values), list(lambda_values), seeds)
    cells = [replace(cfg.filter, gamma=g, lam=lam) for g, lam in zip(gamma_values, lambda_values)]
    for f in cells:  # every cell is valid before the first one runs
        replace(cfg, filter=f, sweep=sweep).validate()
    loaded = _load_graph(paths)
    graph = loaded.graph
    labels, confidence = load_pseudo_labels(paths, graph)
    a_hat = gcn.normalize_adjacency(graph)
    ax = a_hat @ graph.features

    results = []
    for f in cells:
        _, final, _ = _select(loaded, labels, confidence, f)
        accs = []
        for s in range(seeds):
            gcn_cfg = replace(cfg.gcn, seed=cfg.gcn.seed + s)
            _, acc, _, _ = train_once(graph, final, labels, gcn_cfg, a_hat=a_hat, ax=ax, eval_each_epoch=False)
            accs.append(acc)
        arr = np.array(accs)
        results.append(
            {
                "gamma": f.gamma,
                "lambda": f.lam,
                "eta": f.eta,
                "mean_acc": float(arr.mean()),
                "std_acc": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                "seeds": seeds,
            }
        )
    return results
