from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import zipfile
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from crowdtag import annotate, cli, dataio, filtering, gcn, pipeline
from crowdtag.aggregate import aggregate_all
from crowdtag.annotate import BudgetState, ResponseCache, TruncationPolicy, annotate_graph
from crowdtag.cli import verify_theorem
from crowdtag.dataio import load_graph
from crowdtag.fixtures import fixture_paths, load_fixture_graph, replay_cache_path
from crowdtag.graph import NUM_TIE_CONFIGS, build_graph
from crowdtag.pipeline import (
    ARTIFACT_SCHEMA_VERSION,
    ConfigError,
    MissingArtifactError,
    PipelineConfig,
    StagePaths,
    load_config,
    read_csv_rows,
    run_pipeline,
)
from crowdtag.synthetic import synthetic_citation_graph, write_dataset_files


def fixture_config(tmp_path: Path, **filter_overrides) -> tuple[Path, Path]:
    content, cites, texts = fixture_paths()
    out_dir = tmp_path / "out"
    doc = {
        "dataset": {"content": str(content), "cites": str(cites), "texts": str(texts)},
        "annotator": {"mode": "oracle", "model": "oracle", "noise": 0.3, "seed": 5},
        "filter": {"gamma": 0.1, "lambda": 0.6, "eta": 0.4, "k": 15, **filter_overrides},
        "gcn": {"epochs": 60, "seed": 0},
        "out_dir": str(out_dir),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path, out_dir


# --- config ---------------------------------------------------------------------

def test_config_defaults_and_validation(tmp_path):
    cfg_path, _ = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    assert cfg.filter.k == 15
    assert cfg.gcn.hidden == 16  # default preserved


def test_config_rejects_bad_weights(tmp_path):
    cfg_path, _ = fixture_config(tmp_path, gamma=0.5, **{"lambda": 0.7})
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_config_rejects_bad_eta(tmp_path):
    cfg_path, _ = fixture_config(tmp_path, eta=1.2)
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"filter": {"gamme": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_cli_validation_exit_code(tmp_path):
    cfg_path, _ = fixture_config(tmp_path, gamma=0.9, **{"lambda": 0.3})
    assert cli.main(["filter", "--config", str(cfg_path)]) == pipeline.EXIT_VALIDATION


@pytest.mark.parametrize("flags", [["--node-cap", "-5"], ["--k", "-3"], ["--k", "0"]])
def test_cli_rejects_a_cap_or_stage_one_size_below_one(tmp_path, capsys, flags):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path), *flags]) == pipeline.EXIT_VALIDATION
    assert "config error" in capsys.readouterr().err
    assert not (out_dir / "graph.npz").exists()  # refused before any stage ran


@pytest.mark.parametrize("section, key, value", [
    ("gcn", "epochs", 0),
    ("gcn", "dropout", 1.0),
    ("gcn", "val_size", -1),
    ("filter", "damping", 1.5),
    ("annotator", "requests_per_second", 0),
    ("dataset", "edge_semantics", "bogus"),
    ("annotator", "budget_usd", float("nan")),
    ("filter", "gamma", float("nan")),
    ("filter", "lambda", float("nan")),
    ("annotator", "truncation", 5),
    ("annotator", "noise", 1.5),
    ("annotator", "noise", -0.1),
    ("annotator", "noise", float("nan")),
    ("annotator", "noise", "0.3"),
    ("annotator", "noise", True),
    ("annotator", "seed", -1),
    ("annotator", "seed", True),
    ("annotator", "seed", 1.5),
    ("gcn", "seed", -1),
    ("gcn", "seed", "3"),
    ("filter", "kmeans_seed", -1),
    ("filter", "kmeans_seed", False),
])
def test_cli_rejects_a_setting_that_would_crash_a_stage(tmp_path, capsys, section, key, value):
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({section: {key: value}}))
    flags = {"--seed": "3", "--noise": "0.3", "--k": "20", "--eta": "0.45", "--gamma": "0.1",
             "--lambda": "0.6"}
    flags.pop(f"--{key}", None)  # a flag would override the config value under test
    args = ["pipeline", "--config", str(cfg_path), "--fixture", "--out-dir", str(out_dir),
            *(word for flag in flags.items() for word in flag)]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    assert f"config error: {section}.{key} must be" in capsys.readouterr().err
    assert not (out_dir / "graph.npz").exists()  # refused before any stage ran


@pytest.mark.parametrize("key, value", [
    ("max_neighbors_per_role", -1),
    ("max_neighbors_per_role", 0),
    ("neighbor_text_chars", -5),
    ("center_text_chars", 0),
    ("center_text_chars", 1.5),
    ("neighbor_text_chars", "600"),
    ("max_neighbors_per_role", True),
    ("max_neighbours_per_role", 5),
])
def test_cli_rejects_a_bad_truncation_setting(tmp_path, capsys, key, value):
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"annotator": {"truncation": {key: value}}}))
    args = ["pipeline", "--config", str(cfg_path), "--fixture", "--out-dir", str(out_dir)]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: annotator.truncation.{key} "), err
    assert "Traceback" not in err
    assert not (out_dir / "graph.npz").exists()  # refused before any stage ran


def test_cli_rejects_a_negative_seed_flag(tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = ["pipeline", "--fixture", "--out-dir", str(out_dir), "--seed", "-1"]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("config error: annotator.seed ")
    assert not (out_dir / "graph.npz").exists()


def test_cli_rejects_a_noise_flag_above_one(tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = ["pipeline", "--fixture", "--out-dir", str(out_dir), "--noise", "2"]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config error: annotator.noise must be in [0, 1], got 2.0"), err
    assert not (out_dir / "graph.npz").exists()


@pytest.mark.parametrize("noise", [0, 1])
def test_an_int_noise_is_accepted(tmp_path, noise):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"annotator": {"noise": noise}}))
    assert load_config(p).annotator.noise == noise


def test_large_seeds_are_accepted(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"annotator": {"seed": 2**40 + 5}, "gcn": {"seed": 0},
                             "filter": {"kmeans_seed": 2**32}}))
    cfg = load_config(p)
    assert (cfg.annotator.seed, cfg.gcn.seed, cfg.filter.kmeans_seed) == (2**40 + 5, 0, 2**32)


def test_partial_truncation_setting_is_accepted(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"annotator": {"truncation": {"max_neighbors_per_role": 1}}}))
    cfg = load_config(cfg_path)
    assert TruncationPolicy(**cfg.annotator.truncation) == TruncationPolicy(max_neighbors_per_role=1)


NAN = float("nan")

# Every setting: its kind, and a value just below and just above its range
# (None where the range has no such end).
SETTINGS = {
    "dataset.content": ("str", None, None),
    "dataset.cites": ("str", None, None),
    "dataset.texts": ("str", None, None),
    "dataset.embeddings": ("str", None, None),
    "dataset.edge_semantics": ("choice", None, None),
    "annotator.mode": ("choice", None, None),
    "annotator.endpoint": ("str", None, None),
    "annotator.model": ("str", None, None),
    "annotator.api_key_env": ("str", None, None),
    "annotator.temperature": ("float", -0.1, 2.5),
    "annotator.budget_usd": ("float", -1, None),
    "annotator.price_per_1k_in": ("float", -1, None),
    "annotator.price_per_1k_out": ("float", -1, None),
    "annotator.cache": ("str", None, None),
    "annotator.max_inflight": ("int", 0, 65),
    "annotator.requests_per_second": ("float", 0, None),
    "annotator.retries": ("int", -1, 11),
    "annotator.backoff_s": ("float", -1, 61),
    "annotator.noise": ("float", -0.1, 1.5),
    "annotator.seed": ("int", -1, None),
    "annotator.node_cap": ("int", 0, None),
    "annotator.truncation": ("object", None, None),
    "annotator.truncation.max_neighbors_per_role": ("int", 0, None),
    "annotator.truncation.neighbor_text_chars": ("int", 0, None),
    "annotator.truncation.center_text_chars": ("int", 0, None),
    "filter.gamma": ("float", -0.1, 1.5),
    "filter.lambda": ("float", -0.1, 1.5),
    "filter.eta": ("float", 0, 1.5),
    "filter.k": ("int", 0, None),
    "filter.kmeans_seed": ("int", -1, None),
    "filter.damping": ("float", -0.1, 1),
    "gcn.hidden": ("int", 0, None),
    "gcn.learning_rate": ("float", 0, None),
    "gcn.weight_decay": ("float", -1, None),
    "gcn.dropout": ("float", -0.1, 1),
    "gcn.epochs": ("int", 0, None),
    "gcn.seed": ("int", -1, None),
    "gcn.val_size": ("int", -1, None),
    "sweep.gamma_values": ("grid", -0.1, 1.5),
    "sweep.lambda_values": ("grid", -0.1, 1.5),
    "sweep.seeds": ("int", 0, None),
    "out_dir": ("str", None, None),
}
WRONG_TYPES = {
    "str": [5, True],
    "choice": [5, "bogus"],
    "int": ["5", 1.5, True, NAN],
    "float": ["0.5", True, NAN],
    "grid": ["0.1", 0.1, ["x"], [True], [NAN]],
    "object": [5, [1]],
}


# more values no stage can take, beside those SETTINGS and WRONG_TYPES make
MORE_BAD_SETTINGS = [("gcn.hidden", -1), ("gcn.epochs", "200"), ("annotator.node_cap", 2.5),
                     ("sweep.seeds", "3"), ("annotator.temperature", "hot"),
                     ("gcn.learning_rate", -1)]


def bad_settings():
    for key, (kind, below, above) in SETTINGS.items():
        values = WRONG_TYPES[kind] + [v for v in (below, above) if v is not None]
        if kind == "grid":
            values[-2:] = [[v] for v in values[-2:]]
        for value in values:
            if (key, value) != ("annotator.max_inflight", 65):  # a pool of 65 threads
                yield pytest.param(key, value, id=f"{key}={value!r}")
    for key, value in MORE_BAD_SETTINGS:
        yield pytest.param(key, value, id=f"{key}={value!r}")


def config_doc(key: str, value) -> dict:
    """A config document that sets only ``key`` (``section.field``) to ``value``."""
    doc: dict = {}
    *sections, name = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    return doc


@pytest.mark.parametrize("key, value", list(bad_settings()))
def test_cli_names_every_bad_setting_before_any_stage_runs(tmp_path, capsys, key, value):
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_doc(key, value)))
    args = ["pipeline", "--config", str(cfg_path)]
    if key != "out_dir":  # the flag would override the value under test
        args += ["--out-dir", str(out_dir)]
    if not key.startswith("dataset."):  # the flag sets the dataset settings
        args.append("--fixture")
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} "), err
    assert "Traceback" not in err
    assert not (out_dir / "graph.npz").exists()  # refused before any stage ran


@pytest.mark.parametrize("doc, named", [
    ({"dataset": 5}, "dataset"),
    ({"annotator": [1]}, "annotator"),
    ({"filter": 5}, "filter"),
    ({"gcn": "epochs"}, "gcn"),
    ({"sweep": None}, "sweep"),
    ([1], "{path}"),
    ("filter", "{path}"),
])
def test_cli_names_a_section_or_file_that_is_not_an_object(tmp_path, capsys, doc, named):
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    args = ["pipeline", "--config", str(cfg_path), "--fixture", "--out-dir", str(out_dir),
            "--k", "20"]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named.format(path=cfg_path)} must "), err
    assert not (out_dir / "graph.npz").exists()


@pytest.mark.parametrize("value", [65, 10**6])
def test_validate_refuses_more_inflight_requests_than_its_range(value):
    cfg = PipelineConfig()
    cfg.annotator.max_inflight = value  # checked without starting a pool of threads
    with pytest.raises(ConfigError, match=r"^annotator\.max_inflight must be an int in \[1, 64\]"):
        cfg.validate()


def test_llm_mode_without_an_endpoint_names_the_endpoint(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"annotator": {"mode": "llm"}}))
    with pytest.raises(ConfigError, match=r"^annotator\.endpoint "):
        load_config(p)


def test_every_setting_has_a_checked_type_and_every_number_a_range():
    def settings(cls, prefix=""):
        for key, (f, hint) in pipeline.setting_fields(cls).items():
            if is_dataclass(hint) or "fields" in f.metadata:
                yield from settings(f.metadata.get("fields", hint), f"{prefix}{key}.")
            else:
                yield prefix + key, hint

    walked = dict(settings(PipelineConfig))
    for key, hint in walked.items():
        kind, _ = pipeline.setting_type(hint)  # TypeError: a type no check knows
        assert kind is str or key in pipeline.RANGES, f"{key} has no range"
    assert set(pipeline.RANGES) <= set(walked)
    # the CLI test above and the README's settings table cover every setting
    assert set(SETTINGS) == set(walked) | {"annotator.truncation"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in SETTINGS if f"| `{key}` |" not in readme] == []


@pytest.mark.parametrize("key", ["price_per_1k_in", "price_per_1k_out"])
@pytest.mark.parametrize("price", [-0.001, NAN])
def test_a_negative_or_nan_price_is_refused_before_any_stage_runs(tmp_path, capsys, key, price):
    # a negative price would lower the spend on every charge, so the cap never binds
    cfg_path, out_dir = fixture_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["annotator"][key] = price
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == pipeline.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"config error: annotator.{key} must be in [0, inf)")
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    ["pipeline", "--k", "abc"],
    ["pipeline", "--fixture", "--no-such-flag"],
    ["sweep", "--sweep-seeds", "two"],
    ["pipeline", "--edge-semantics", "sideways"],
    [],
])
def test_cli_usage_error_exits_1_not_the_missing_artifact_code(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == pipeline.EXIT_VALIDATION
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    ["--gamma-values", "x"],
    ["--gamma-values", "0.1,y", "--lambda-values", "0.6,0.5"],
    ["--gamma-values", "0.1", "--lambda-values", "nan"],
    ["--gamma-values", "-0.1", "--lambda-values", "0.6"],
])
def test_cli_sweep_names_a_bad_grid(tmp_path, capsys, grid):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg_path), *grid]) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep."), err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_quick_start_and_its_rerun_run_without_scipy(tmp_path):
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # from here on, importing scipy raises ImportError\n"
        "from crowdtag import cli\n"
        "args = ['pipeline', '--fixture', '--out-dir', sys.argv[1], '--seed', '3', '--noise', '0.3',\n"
        "        '--k', '20', '--eta', '0.45', '--gamma', '0.1', '--lambda', '0.6']\n"
        "assert cli.main(args) == 0 and cli.main(args) == 0\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(": ran") == 5 and result.stdout.count("skipped (up to date)") == 5


def test_cli_names_annotations_of_which_no_response_parsed(tmp_path, capsys, monkeypatch):
    class OffListClient:  # every answer names a class outside the fixture's list
        def complete(self, prompt):
            return annotate.ClientResponse('[{"answer": "Theory", "confidence": 90}]', 10, 5)

    monkeypatch.setattr(pipeline, "_make_client", lambda cfg, graph: OffListClient())
    out_dir = tmp_path / "out"
    args = ["--fixture", "--out-dir", str(out_dir), "--seed", "3", "--k", "20"]
    for _ in range(2):  # the first run, and a re-run from the recorded guesses
        assert cli.main(["pipeline", *args]) == pipeline.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("no pseudo-labels: none of the 30 annotated node(s) has a parseable "), err
        per_config = ", ".join(f"{k}: 30" for k in range(NUM_TIE_CONFIGS))
        assert f"(unparseable responses by config_k: {per_config})" in err
        assert "Traceback" not in err
        assert not (out_dir / "pseudo_labels.csv").exists()

    # an empty pseudo-label table, as an earlier aggregate left it, stops filter and sweep alike
    paths = StagePaths(out_dir)
    pipeline._write_csv(paths.pseudo_labels, "x", ["node_key", "label", "confidence", "unparseable_count"], [])
    for command in (["filter"], ["sweep", "--gamma-values", "0.1", "--lambda-values", "0.6"]):
        assert cli.main([*command, *args]) == pipeline.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"no pseudo-labels: {paths.pseudo_labels} holds no pseudo-labeled node"), err
        assert "Traceback" not in err


def test_cli_names_training_that_diverged(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["gcn"]["learning_rate"] = 1e300  # in range, and the loss overflows
    cfg_path.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):  # the overflow warnings are expected
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("training diverged: loss became non-finite at epoch "), err
    assert "Traceback" not in err


GOOD_DATASET = {
    "content": "p1 0 1 Theory\np2 1 0 Systems\np3 1 1 Theory\n",
    "cites": "p2\tp1\np3\tp2\n",
    "embeddings": "p1\t1.0,2.0\np2\t3.0,4.0\np3\t5.0,6.0\n",
}


@pytest.mark.parametrize("command", ["ingest", "pipeline"])
@pytest.mark.parametrize("file, text, where", [
    ("content", "p1 0 1 Theory\np2 1 Systems\n", ":2: expected 2 feature columns"),
    ("content", "p1 0 1 Theory\np2 1 zero Systems\n", ":2: non-numeric feature value"),
    ("cites", "p2\tp1\np3\n", ":2: expected 2 keys"),
    ("content", "p1 0 1 Theory\np2 1 0 Systems\np1 1 1 Theory\n", ":3: duplicate node key 'p1'"),
    ("embeddings", "p1\t1.0,2.0\np3\t5.0,6.0\n", ": missing 1 node key(s): p2"),
    ("content", b"p1 0 1 Theory\np2 1 0 Syst\xe8mes\n", ":2: not UTF-8 text"),
], ids=["short-row", "non-numeric", "one-key-cite", "duplicate-key", "embedding-missing",
        "not-utf8"])
def test_cli_names_a_malformed_dataset_file(tmp_path, capsys, command, file, text, where):
    paths = {name: tmp_path / f"data.{name}" for name in GOOD_DATASET}
    for name, good in GOOD_DATASET.items():
        data = text if name == file else good
        paths[name].write_bytes(data if isinstance(data, bytes) else data.encode())
    out_dir = tmp_path / "out"
    args = [command, "--out-dir", str(out_dir), "--content", str(paths["content"]),
            "--cites", str(paths["cites"]), "--embeddings", str(paths["embeddings"])]
    assert cli.main(args) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"dataset error: {paths[file]}{where}"), err
    assert not (out_dir / "graph.npz").exists()


def test_cli_sweep_rejects_fewer_than_one_seed(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    grid = ["--gamma-values", "0.1", "--lambda-values", "0.6"]
    assert cli.main(["sweep", "--config", str(cfg_path), *grid, "--sweep-seeds", "0"]) == 1
    doc = json.loads(cfg_path.read_text())
    doc["sweep"] = {"seeds": 0}
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg_path), *grid]) == 1
    assert capsys.readouterr().err.count("config error") == 2
    assert not (out_dir / "sweep.csv").exists()
    cfg = load_config(cfg_path, {"sweep": {"seeds": 1}})
    with pytest.raises(ConfigError):
        pipeline.hyperparameter_sweep(cfg, StagePaths(out_dir), [0.1], [0.6], seeds=0)


# --- full pipeline on the bundled fixture -------------------------------------------

def test_pipeline_fixture_end_to_end(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    ran = run_pipeline(cfg, paths)
    assert all(ran.values())

    report = json.loads(paths.report.read_text())
    assert report["train_nodes"] == 6  # ceil(15 * 0.4)
    assert 0.0 <= report["test_accuracy"] <= 1.0
    assert report["config_hash"]

    # artifacts carry schema headers
    first = paths.pseudo_labels.read_text().splitlines()[0]
    assert first.startswith(f"# schema_version={ARTIFACT_SCHEMA_VERSION} config_hash=")

    header, rows = read_csv_rows(paths.pseudo_labels)
    assert header == ["node_key", "label", "confidence", "unparseable_count"]
    assert len(rows) == 30

    header, rows = read_csv_rows(paths.worker_acc)
    assert header == ["config_k", "accuracy", "n"]
    assert len(rows) == 8

    header, rows = read_csv_rows(paths.scores)
    assert header == ["node_key", "P", "D", "Deg", "s1", "coe", "conf", "s2", "selected_stage"]
    stage1 = [r for r in rows if int(r[-1]) >= 1]
    final = [r for r in rows if int(r[-1]) == 2]
    assert len(stage1) == 15 and len(final) == 6

    header, rows = read_csv_rows(paths.history)
    assert header == ["epoch", "train_acc", "test_acc", "loss"]
    assert len(rows) == 60


# Digests of the quick start's outputs, recorded before the per-run constants
# (graph, structural scores, A_hat @ X) were shared; sharing changes no byte.
# model.json holds the weights at full precision, so a BLAS that rounds the
# GCN's products differently on another CPU changes it. Its digest was
# recorded again when the training step moved to the receptive field and the
# second propagation to class width: A_hat @ (H @ W2) rounds otherwise than
# (A_hat @ H) @ W2, and the weights moved by at most 4.4e-16.
QUICK_START_DIGESTS = {
    "history.csv": "2e993f254b8190883218be79b16ec4ea272f997651465d5bbd3f251979eafbd8",
    "model.json": "eb6d40cebd3d1fab72c93ef253887a196781fac5dfc7f7c1d5ff31797f846f3a",
    "scores.csv": "b6fe7d1acfc49d87572d76f838c47f5641d3a7c6ba09349f018459a90db706f8",
    "selected.json": "23eea1f1ce520e892ee179786be11c3d332bb83032f07e303b6d8300abeddc15",
    "pseudo_labels.csv": "6118d9ed13430a59208f76088f278439dd5ce32faa47403e706698bdf2120ce0",
}
# The ``edges.npy`` member of the quick start's graph.npz, recorded before
# build_graph became the one place that normalises edges. The whole file is
# not pinned: its ``meta`` holds a settings hash that covers the fixture's path.
QUICK_START_EDGES_DIGEST = "063fbe623caf8d2b26865948de5f9acf9bacf418bbf1018c1ff9a9385f92954e"


def test_quick_start_outputs_keep_their_bytes(tmp_path):
    out_dir = tmp_path / "quickstart"
    args = ["pipeline", "--fixture", "--out-dir", str(out_dir), "--seed", "3", "--noise", "0.3",
            "--k", "20", "--eta", "0.45", "--gamma", "0.1", "--lambda", "0.6"]
    assert cli.main(args) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in QUICK_START_DIGESTS
    }
    assert digests == QUICK_START_DIGESTS
    with zipfile.ZipFile(out_dir / "graph.npz") as archive:
        edges = archive.read("edges.npy")
    assert hashlib.sha256(edges).hexdigest() == QUICK_START_EDGES_DIGEST


def test_two_quick_starts_write_the_same_cache_bytes(tmp_path):
    caches = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        args = ["pipeline", "--fixture", "--out-dir", str(out_dir), "--seed", "3", "--noise", "0.3",
                "--k", "20", "--eta", "0.45", "--gamma", "0.1", "--lambda", "0.6"]
        assert cli.main(args) == 0
        caches.append((out_dir / "annotations.jsonl").read_bytes())
    assert caches[0] == caches[1]
    assert b'"timestamp"' not in caches[0]


def counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper that records each call's arguments."""
    calls: list = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_node_cap_run_loads_the_graph_and_scores_its_structure_once(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    cfg.annotator.node_cap = 20
    paths = StagePaths(out_dir)
    loads = counting(monkeypatch, dataio, "load_graph")
    pageranks = counting(monkeypatch, filtering, "pagerank")
    kmeans_fits = counting(monkeypatch, filtering, "kmeans")
    assert all(run_pipeline(cfg, paths).values())
    assert (len(loads), len(pageranks), len(kmeans_fits)) == (1, 1, 1)
    assert paths.graphs is None  # the memo does not outlive the call
    assert len(json.loads(paths.annotated_nodes.read_text())["nodes"]) == 20

    # a stage called on its own loads the graph itself
    assert pipeline.stage_train(replace(cfg, gcn=replace(cfg.gcn, epochs=3)), paths)
    assert len(loads) == 2


def test_graph_memo_reloads_a_replaced_artifact_and_keeps_no_failed_load(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    assert all(run_pipeline(cfg, paths).values())
    loads = counting(monkeypatch, dataio, "load_graph")

    paths.graphs = {}
    first = pipeline._load_graph(paths)
    assert pipeline._load_graph(paths) is first and len(loads) == 1
    graph = first.graph
    graph.class_names = [name.upper() for name in graph.class_names]
    dataio.save_graph(graph, paths.graph, "replaced")
    second = pipeline._load_graph(paths)
    assert second is not first and len(loads) == 2
    assert second.graph.class_names == graph.class_names
    data = paths.graph.read_bytes()
    paths.graph.write_bytes(data[: len(data) // 2])
    memo = dict(paths.graphs)
    for _ in range(2):  # a torn artifact fails on every load, and is never kept
        with pytest.raises(MissingArtifactError, match="'ingest'"):
            pipeline._load_graph(paths)
    assert paths.graphs == memo and len(loads) == 4
    paths.graphs = None

    # between two run_pipeline calls: the replaced graph is loaded by the second
    cfg.dataset.edge_semantics = dataio.CITED_TO_CITING
    assert all(run_pipeline(cfg, paths).values())
    assert len(loads) == 5
    assert load_graph(paths.graph).successors != load_fixture_graph().successors


def test_sweep_scores_structure_and_propagates_features_once(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    loads = counting(monkeypatch, dataio, "load_graph")
    pageranks = counting(monkeypatch, filtering, "pagerank")
    kmeans_fits = counting(monkeypatch, filtering, "kmeans")
    products = []
    normalize = gcn.normalize_adjacency

    def counting_normalize(graph):
        features = graph.features

        class CountingCSR(gcn.CSR):
            def __matmul__(self, other):
                if other is features:
                    products.append(other.shape)
                return super().__matmul__(other)

        a = normalize(graph)
        return CountingCSR(a.indptr, a.indices, a.data, a.shape)

    monkeypatch.setattr(gcn, "normalize_adjacency", counting_normalize)
    forwards = counting(monkeypatch, gcn, "forward")
    cells = pipeline.hyperparameter_sweep(cfg, paths, [0.0, 0.1], [0.7, 0.6], seeds=2)
    assert len(cells) == 2
    assert (len(loads), len(pageranks), len(kmeans_fits), len(products)) == (1, 1, 1, 1)
    assert len(forwards) == 4  # one per training, after its last epoch: no per-epoch eval
    monkeypatch.undo()
    assert pipeline.hyperparameter_sweep(cfg, paths, [0.0, 0.1], [0.7, 0.6], seeds=2) == cells


def test_ingest_writes_npz_graph_and_no_temp_file(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    assert pipeline.stage_ingest(cfg, paths)
    assert paths.graph.name == "graph.npz"
    assert list(out_dir.glob("*.tmp")) == []
    graph = load_graph(paths.graph)
    fixture = load_fixture_graph()
    assert graph.original_keys == fixture.original_keys
    assert graph.features.tobytes() == fixture.features.tobytes()


def test_pipeline_rerun_skips_all_stages(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    assert all(run_pipeline(cfg, paths).values())
    second = run_pipeline(cfg, paths)
    assert not any(second.values())


def test_manifest_from_another_schema_version_reruns_its_stage(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    manifest = json.loads(paths.manifest("filter").read_text())
    manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION - 1
    paths.manifest("filter").write_text(json.dumps(manifest))
    ran = run_pipeline(cfg, paths)
    assert ran == {"ingest": False, "annotate": False, "aggregate": False,
                   "filter": True, "train": False}
    manifest = json.loads(paths.manifest("filter").read_text())
    assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION


ONLY = {stage: {s: s == stage for s in pipeline.STAGES} for stage in pipeline.STAGES}
NONE = {s: False for s in pipeline.STAGES}


@pytest.mark.parametrize("manifest", [b"\xff\xfe", b"[]", b'{"inputs": []}', "without_outputs"])
def test_malformed_manifest_reruns_only_its_stage(tmp_path, manifest):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    if manifest == "without_outputs":
        doc = json.loads(paths.manifest("filter").read_text())
        del doc["outputs"]
        manifest = json.dumps(doc).encode()
    paths.manifest("filter").write_bytes(manifest)
    assert run_pipeline(cfg, paths) == ONLY["filter"]
    assert run_pipeline(cfg, paths) == NONE


def test_settings_rerun_only_the_stages_whose_outputs_depend_on_them(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    # pacing and caps: a finished annotate's outputs do not depend on them
    a = cfg.annotator
    a.budget_usd, a.max_inflight, a.requests_per_second, a.retries, a.backoff_s = 9.0, 2, 50.0, 7, 0.5
    a.api_key_env = "CROWDTAG_UNUSED_KEY"
    assert run_pipeline(cfg, paths) == NONE
    cfg.gcn.epochs = 30
    assert run_pipeline(cfg, paths) == ONLY["train"]
    assert len(read_csv_rows(paths.history)[1]) == 30


def test_truncated_output_reruns_the_stage_that_wrote_it(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    data = paths.pseudo_labels.read_bytes()
    paths.pseudo_labels.write_bytes(data[: len(data) // 2])
    # filter skips: its input is byte-for-byte what it read before
    assert run_pipeline(cfg, paths) == ONLY["aggregate"]
    assert paths.pseudo_labels.read_bytes() == data


def test_deleting_the_response_cache_reruns_nothing(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    paths.cache.unlink()
    assert run_pipeline(cfg, paths) == NONE


def test_cli_ingest_reruns_over_a_truncated_graph(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    graph_npz = out_dir / "graph.npz"
    data = graph_npz.read_bytes()
    graph_npz.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == "ingest: ran\n"
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0


def test_write_csv_failure_keeps_previous_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("row failed part-way")

    path = tmp_path / "table.csv"
    pipeline._write_csv(path, "h1", ["a", "b"], [[1, 2]])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="part-way"):
        pipeline._write_csv(path, "h2", ["a", "b"], [[3, 4], [5, Unprintable()]])
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_pipeline_config_change_invalidates_downstream(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)

    cfg2 = load_config(cfg_path)
    cfg2.filter.eta = 0.6
    ran = run_pipeline(cfg2, paths)
    assert not ran["ingest"] and not ran["annotate"] and not ran["aggregate"]
    assert ran["filter"] and ran["train"]
    assert json.loads(paths.selected.read_text())["final_nodes"] != []


def test_missing_artifact_errors_name_prior_stage(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    with pytest.raises(MissingArtifactError, match="ingest"):
        pipeline.stage_annotate(cfg, paths)
    pipeline.stage_ingest(cfg, paths)
    with pytest.raises(MissingArtifactError, match="annotate"):
        pipeline.stage_aggregate(cfg, paths)
    with pytest.raises(MissingArtifactError, match="aggregate"):
        pipeline.stage_filter(cfg, paths)
    pipeline.stage_annotate(cfg, paths)
    pipeline.stage_aggregate(cfg, paths)
    with pytest.raises(MissingArtifactError, match="filter"):
        pipeline.stage_train(cfg, paths)


def test_cli_missing_artifact_exit_code(tmp_path):
    cfg_path, _ = fixture_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path)]) == pipeline.EXIT_MISSING_ARTIFACT


def test_cli_pipeline_and_stage_commands(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "train: ran" in out
    assert cli.main(["filter", "--config", str(cfg_path)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_budget_refusal_exit_code(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["annotator"] = {
        "mode": "llm",
        "endpoint": "http://127.0.0.1:1/v1/chat",
        "model": "gpt-x",
        "budget_usd": 0.0,
        "retries": 0,
        "backoff_s": 0.0,
    }
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == pipeline.EXIT_BUDGET


def test_transport_failure_exit_code(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["annotator"] = {
        "mode": "llm",
        "endpoint": "http://127.0.0.1:1/v1/chat",  # nothing listens here
        "model": "gpt-x",
        "budget_usd": 5.0,
        "retries": 0,
        "backoff_s": 0.0,
    }
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == pipeline.EXIT_TRANSPORT


def test_lock_prevents_concurrent_runs(tmp_path):
    out = tmp_path / "out"
    with pipeline.pipeline_lock(out):
        with pytest.raises(RuntimeError, match="locked"):
            with pipeline.pipeline_lock(out):
                pass
    # released afterwards
    with pipeline.pipeline_lock(out):
        pass


def test_lock_left_by_killed_run_does_not_block(tmp_path):
    out = tmp_path / "out"
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys, time; from pathlib import Path; from crowdtag import pipeline\n"
            "with pipeline.pipeline_lock(Path(sys.argv[1])):\n"
            "    print('locked', flush=True); time.sleep(60)",
            str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])},
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        with pytest.raises(RuntimeError, match="locked"):
            with pipeline.pipeline_lock(out):
                pass
    finally:
        holder.kill()  # SIGKILL: no cleanup runs in the holder
        holder.wait()
        holder.stdout.close()
    assert (out / ".lock").read_text() == str(holder.pid)
    with pipeline.pipeline_lock(out):
        assert (out / ".lock").read_text() == str(os.getpid())


# --- replay fixture -------------------------------------------------------------------

def test_replay_from_bundled_cache_without_network():
    class RefusingClient:
        def complete(self, prompt):
            raise AssertionError(f"node {prompt.center} config {prompt.config_k} reached the client")

    g = load_fixture_graph()
    cache = ResponseCache(replay_cache_path())
    annotations = annotate_graph(
        g, [0, 1, 2, 3, 4], RefusingClient(), cache, BudgetState(limit_usd=0.0),
        model="oracle", policy=TruncationPolicy(),
    )
    assert set(annotations.nodes.tolist()) == {0, 1, 2, 3, 4}
    for hashes in annotations.prompt_hashes:
        assert len(hashes) == NUM_TIE_CONFIGS
        assert all(cache.get(h) is not None for h in hashes)
    assert (annotations.top1 >= 0).all()  # every replayed response parses


def test_the_in_memory_reference_path_gives_the_stage_outputs(tmp_path):
    # annotate_graph and aggregate_all over a path-less cache, then run_filter,
    # must give the pseudo-labels and the selection the stages write
    graph = synthetic_citation_graph(n=160, num_classes=5, alpha=0.85, avg_out_degree=2.0,
                                     feature_dim=16, feature_noise=0.6, seed=17)
    files = write_dataset_files(graph, str(tmp_path / "data"))
    cfg = load_config(None, {
        "dataset": dict(zip(("content", "cites", "texts"), files)),
        "annotator": {"mode": "oracle", "noise": 0.3, "seed": 17, "node_cap": 80},
        "filter": {"k": 40},
        "gcn": {"epochs": 2},
        "out_dir": str(tmp_path / "out"),
    })
    paths = StagePaths(cfg.out_dir)
    assert all(run_pipeline(cfg, paths).values())

    # the graph as ingest assembles it: class names sorted, labels renumbered
    names = sorted(graph.class_names)
    labels = [names.index(graph.class_names[y]) for y in graph.labels]
    g = build_graph(graph.original_keys, graph.edges(), graph.texts, graph.features, labels, names)
    a, f = cfg.annotator, cfg.filter
    pr = filtering.pagerank(g, damping=f.damping)
    dens = filtering.c_density(g.features, filtering.kmeans(g.features, k=g.num_classes, seed=f.kmeans_seed))
    deg = np.array([g.degree(v) for v in range(g.num_nodes)], dtype=np.float64)
    s1 = filtering.stage1_scores(pr, dens, deg, f.gamma, f.lam)
    nodes = sorted(filtering.select_top_k(np.arange(g.num_nodes), s1, a.node_cap))

    guesses = annotate_graph(
        g, nodes, annotate.SyntheticOracleClient(g, noise=a.noise, seed=a.seed), ResponseCache(),
        BudgetState(limit_usd=math.inf), model=a.model, policy=TruncationPolicy(**a.truncation),
    )
    pseudo, _ = aggregate_all(guesses, g.class_names)
    conf = {v: f"{p.confidence:.6f}" for v, p in pseudo.items()}
    final, _ = filtering.run_filter(
        g, g.features,
        annotated_nodes=sorted(pseudo),
        confidences={v: float(c) for v, c in conf.items()},
        pseudo_label_of={v: p.label for v, p in pseudo.items()},
        gamma=f.gamma, lam=f.lam, eta=f.eta, k=f.k,
        kmeans_seed=f.kmeans_seed, damping=f.damping,
    )

    assert json.loads(paths.annotated_nodes.read_text())["nodes"] == nodes
    _, rows = read_csv_rows(paths.pseudo_labels)
    assert {key: [label, c] for key, label, c, _ in rows} == {
        g.original_keys[v]: [g.class_names[p.label], conf[v]] for v, p in pseudo.items()
    }
    assert json.loads(paths.selected.read_text())["final_nodes"] == final


def test_aggregate_builds_no_prompts(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    pipeline.stage_ingest(cfg, paths)
    pipeline.stage_annotate(cfg, paths)

    def refuse(*args, **kwargs):
        raise AssertionError("aggregate rebuilt a prompt")

    monkeypatch.setattr(annotate, "build_prompt", refuse)
    monkeypatch.setattr(annotate, "node_prompts", refuse)
    assert pipeline.stage_aggregate(cfg, paths)
    _, rows = read_csv_rows(paths.pseudo_labels)
    assert len(rows) == 30


def test_aggregate_reads_no_cache(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    expected = paths.pseudo_labels.read_text()
    manifest = json.loads(paths.manifest("aggregate").read_text())
    assert set(manifest["inputs"]) == {str(paths.graph), str(paths.guesses)}

    paths.cache.unlink()
    paths.annotated_nodes.unlink()  # a summary no stage reads
    paths.pseudo_labels.unlink()
    assert pipeline.stage_aggregate(cfg, paths)
    assert paths.pseudo_labels.read_text() == expected
    assert not paths.cache.exists()


@pytest.mark.parametrize("corrupt", [
    "truncated", "missing", "narrow_node", "rows_mismatch", "class_count", "top1_too_large",
    "top1_below_minus_one", "float_top1", "text_mass", "negative_mass", "node_out_of_range",
    "repeated_node", "seven_workers", "pickled",
])
def test_aggregate_with_bad_recorded_guesses_raises_missing_artifact(tmp_path, corrupt):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    pipeline.stage_ingest(cfg, paths)
    pipeline.stage_annotate(cfg, paths)
    if corrupt == "truncated":
        data = paths.guesses.read_bytes()
        paths.guesses.write_bytes(data[: len(data) // 2])
    else:
        with np.load(paths.guesses) as npz:
            arrays = dict(npz)
        num_nodes, num_classes = 30, arrays["mass"].shape[2]
        if corrupt == "missing":
            del arrays["mass"]
        elif corrupt == "narrow_node":
            arrays["top1"], arrays["mass"] = arrays["top1"][:, :-1], arrays["mass"][:, :-1]
        elif corrupt == "rows_mismatch":
            arrays["top1"] = arrays["top1"][:-1]
        elif corrupt == "class_count":
            arrays["mass"] = arrays["mass"][:, :, :-1]
        elif corrupt == "top1_too_large":
            arrays["top1"][3, 2] = num_classes
        elif corrupt == "top1_below_minus_one":
            arrays["top1"][3, 2] = -2
        elif corrupt == "float_top1":
            arrays["top1"] = arrays["top1"].astype(np.float64)
        elif corrupt == "text_mass":
            arrays["mass"] = arrays["mass"].astype(str)
        elif corrupt == "negative_mass":
            arrays["mass"][5, 1, 0] = -1
        elif corrupt == "node_out_of_range":
            arrays["nodes"][-1] = num_nodes
        elif corrupt == "repeated_node":
            arrays["nodes"][1] = arrays["nodes"][0]
        elif corrupt == "seven_workers":
            arrays["mass"] = arrays["mass"][:, :-1]  # top1 keeps all eight workers
        else:
            arrays["nodes"] = arrays["nodes"].astype(object)  # np.savez pickles it
        np.savez(paths.guesses, **arrays)
    with pytest.raises(MissingArtifactError, match="annotate"):
        pipeline.stage_aggregate(cfg, paths)


def test_guesses_round_trip_through_the_npz_artifact(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    pipeline.stage_ingest(cfg, paths)
    graph = load_graph(paths.graph)
    results = annotate_graph(
        graph, list(range(graph.num_nodes)),
        annotate.SyntheticOracleClient(graph, noise=0.3, seed=5), ResponseCache(),
        BudgetState(limit_usd=1.0), model="oracle",
    )
    arrays = results.nodes, results.top1, results.mass
    dataio.save_guesses(paths.guesses, *arrays)
    loaded = dataio.load_guesses(paths.guesses, graph.num_nodes, graph.num_classes)
    for want, got in zip(arrays, loaded):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert list(out_dir.glob("*.tmp")) == []

    # the stage writes the same arrays from the same annotations
    assert pipeline.stage_annotate(cfg, paths)
    staged = dataio.load_guesses(paths.guesses, graph.num_nodes, graph.num_classes)
    for want, got in zip(arrays, staged):
        np.testing.assert_array_equal(got, want)


def counting_hashes(monkeypatch) -> list[str]:
    """The name of every file ``pipeline._file_hash`` reads from now on."""
    hashed: list[str] = []
    file_hash = pipeline._file_hash

    def counting_hash(path):
        hashed.append(Path(path).name)
        return file_hash(path)

    monkeypatch.setattr(pipeline, "_file_hash", counting_hash)
    return hashed


def test_rerun_reads_no_unchanged_input(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    hashed = counting_hashes(monkeypatch)
    assert all(run_pipeline(cfg, paths).values())
    # a fresh run hashes each input once, however many stages read it
    assert sorted(hashed) == sorted(
        [Path(f).name for f in fixture_paths()]
        + ["graph.npz", "guesses.npz", "pseudo_labels.csv", "selected.json"]
    )

    hashed.clear()
    assert not any(run_pipeline(cfg, paths).values())
    assert hashed == []
    assert paths.file_hashes is None  # the memo does not outlive the call

    # a stage called on its own reuses the recorded hashes too
    assert not pipeline.stage_filter(cfg, paths)
    assert not pipeline.stage_filter(cfg, paths)
    assert hashed == []


def copied_fixture_config(tmp_path: Path) -> tuple[PipelineConfig, StagePaths, dict[str, Path]]:
    """``fixture_config`` over copies of the fixture's dataset files, which a
    test may edit; returns the config, its paths and the copies by suffix."""
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    data = tmp_path / "data"
    data.mkdir()
    files = {}
    for src in fixture_paths():
        files[src.suffix] = data / src.name
        shutil.copyfile(src, files[src.suffix])
    cfg.dataset = replace(cfg.dataset, content=str(files[".content"]), cites=str(files[".cites"]),
                          texts=str(files[".texts"]))
    return cfg, StagePaths(out_dir), files


def test_same_size_edit_with_its_mtime_set_back_reruns_ingest(tmp_path, monkeypatch):
    cfg, paths, files = copied_fixture_config(tmp_path)
    assert all(run_pipeline(cfg, paths).values())
    content = files[".content"]
    st = content.stat()
    data = content.read_bytes()
    edited = data.replace(b"1.8545659611415597", b"1.8545659611415598", 1)
    assert edited != data and len(edited) == len(data)
    content.write_bytes(edited)
    os.utime(content, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert content.stat().st_mtime_ns == st.st_mtime_ns and content.stat().st_size == st.st_size
    hashed = counting_hashes(monkeypatch)
    assert run_pipeline(cfg, paths)["ingest"]
    assert content.name in hashed


def test_input_replaced_by_a_copy_of_itself_is_hashed_again_and_skips(tmp_path, monkeypatch):
    cfg, paths, files = copied_fixture_config(tmp_path)
    assert all(run_pipeline(cfg, paths).values())
    cites = files[".cites"]
    inode = cites.stat().st_ino
    copy = cites.with_name("copy.cites")
    shutil.copy2(cites, copy)
    os.replace(copy, cites)
    assert cites.stat().st_ino != inode
    hashed = counting_hashes(monkeypatch)
    assert run_pipeline(cfg, paths) == NONE
    assert hashed == [cites.name]


def test_touched_input_is_hashed_again_and_skips(tmp_path, monkeypatch):
    cfg, paths, files = copied_fixture_config(tmp_path)
    assert all(run_pipeline(cfg, paths).values())
    os.utime(files[".texts"])
    hashed = counting_hashes(monkeypatch)
    assert run_pipeline(cfg, paths) == NONE
    assert hashed == [files[".texts"].name]
    hashed.clear()
    # the skipped stage wrote nothing, so its manifest holds the old stamp
    assert run_pipeline(cfg, paths) == NONE
    assert hashed == [files[".texts"].name]


def test_inputs_no_older_than_their_manifest_are_hashed_again_and_skip(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    assert all(run_pipeline(cfg, paths).values())
    os.utime(paths.manifest("train"), ns=(0, 0))  # every input counts as racy
    hashed = counting_hashes(monkeypatch)
    assert run_pipeline(cfg, paths) == NONE
    assert sorted(hashed) == ["graph.npz", "pseudo_labels.csv", "selected.json"]


def test_manifest_without_input_stats_still_skips(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    assert all(run_pipeline(cfg, paths).values())
    doc = json.loads(paths.manifest("filter").read_text())
    del doc["input_stats"]
    paths.manifest("filter").write_text(json.dumps(doc))
    hashed = counting_hashes(monkeypatch)
    assert run_pipeline(cfg, paths) == NONE
    assert sorted(hashed) == ["graph.npz", "pseudo_labels.csv"]
    assert "input_stats" not in json.loads(paths.manifest("filter").read_text())


def test_each_response_parsed_once_and_never_in_aggregate(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    calls: list[str] = []
    stage = ["other"]
    scan, aggregate_stage = annotate._scan, pipeline.stage_aggregate

    def counting_scan(*args, **kwargs):
        calls.append(stage[0])
        return scan(*args, **kwargs)

    def marked_aggregate(*args, **kwargs):
        stage[0] = "aggregate"
        try:
            return aggregate_stage(*args, **kwargs)
        finally:
            stage[0] = "other"

    monkeypatch.setattr(annotate, "_scan", counting_scan)
    monkeypatch.setattr(pipeline, "stage_aggregate", marked_aggregate)
    assert all(run_pipeline(cfg, paths).values())
    doc = json.loads(paths.annotated_nodes.read_text())
    distinct = {h for hashes in doc["prompt_hashes"] for h in hashes}
    assert len(distinct) < NUM_TIE_CONFIGS * len(doc["nodes"])  # the fixture repeats prompts
    assert len(calls) == len(distinct)
    assert "aggregate" not in calls


def test_annotate_stage_closes_the_cache(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    pipeline.stage_ingest(cfg, paths)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert pipeline.stage_annotate(cfg, paths)
        gc.collect()
    assert [str(w.message) for w in caught if str(paths.cache) in str(w.message)] == []


def test_annotate_stage_memory_per_node_is_bounded(tmp_path):
    n = 2000
    graph = synthetic_citation_graph(n, 7, feature_dim=16, avg_out_degree=4.0, seed=1)
    files = write_dataset_files(graph, str(tmp_path / "data"))
    del graph
    cfg = load_config(None, {
        "dataset": dict(zip(("content", "cites", "texts"), files)),
        "annotator": {"mode": "oracle", "noise": 0.3, "seed": 1, "budget_usd": 1000.0},
        "out_dir": str(tmp_path / "out"),
    })
    paths = StagePaths(cfg.out_dir)
    assert pipeline.stage_ingest(cfg, paths)
    classes = load_graph(paths.graph).class_names
    # one answer for every prompt: the oracle's per-request work would
    # dominate the run time under tracemalloc, and holds nothing afterwards
    answer = json.dumps([{"answer": c, "confidence": 100 // len(classes)} for c in classes])

    class Client:
        def complete(self, prompt):
            return annotate.ClientResponse(answer, 10, 10)

    tracemalloc.start()
    try:
        assert pipeline.stage_annotate(cfg, paths, client=Client())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every prompt, cache record and annotation to the end took 24 KiB
    assert peak / n <= 8 * 1024, f"{peak / n / 1024:.1f} KiB per node"


def test_cli_refuses_a_cache_another_run_appends_to(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    cache = tmp_path / "shared.jsonl"
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys\nfrom crowdtag.annotate import ResponseCache\n"
            "with ResponseCache(sys.argv[1]) as cache:\n"
            "    cache.open_for_append()\n"
            "    print('appending', flush=True)\n"
            "    sys.stdin.readline()\n",
            str(cache),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])},
    )
    try:
        assert holder.stdout.readline().strip() == "appending"
        code = cli.main(["pipeline", "--config", str(cfg_path), "--cache", str(cache)])
    finally:
        holder.kill()
        holder.wait()
        holder.stdin.close()
        holder.stdout.close()
    assert code == pipeline.EXIT_VALIDATION
    assert "being appended to by another run" in capsys.readouterr().err
    assert cache.read_text() == ""  # the refused run wrote nothing after the holder's open
    assert cli.main(["pipeline", "--config", str(cfg_path), "--cache", str(cache)]) == 0


@pytest.mark.parametrize("corrupt, surfaces", [
    # prefix and ending intact: the cache opens, and the lookup fails
    (lambda line: line.replace(b'"raw_response": ', b'"raw_response": not json '), "no longer holds"),
    # the line no longer ends its record: opening the cache fails
    (lambda line: line[: len(line) // 2] + b"\n", "not JSON"),
])
def test_cli_names_a_corrupt_cache_and_exits_1(tmp_path, capsys, corrupt, surfaces):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    cache = out_dir / "annotations.jsonl"
    lines = cache.read_bytes().splitlines(keepends=True)
    assert len(lines) > 6
    lines[5] = corrupt(lines[5])
    cache.write_bytes(b"".join(lines))
    (out_dir / "manifest_annotate.json").unlink()
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == pipeline.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"corrupt cache: {cache}: ") and surfaces in err
    assert "Traceback" not in err


def test_cli_torn_graph_artifact_exits_missing_naming_ingest(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    graph_npz = out_dir / "graph.npz"
    data = graph_npz.read_bytes()
    graph_npz.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli.main(["filter", "--config", str(cfg_path)]) == pipeline.EXIT_MISSING_ARTIFACT
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert "'ingest'" in capsys.readouterr().err


def test_out_dir_from_previous_schema_reruns_every_stage_once(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    # what the previous schema left: guesses recorded as JSON lists in
    # annotated_nodes.json, no guesses.npz, and an aggregate manifest that
    # lists annotated_nodes.json as its input
    paths.guesses.unlink()
    doc = json.loads(paths.annotated_nodes.read_text())
    doc["guesses"] = [[[0, 100]] * NUM_TIE_CONFIGS for _ in doc["nodes"]]
    paths.annotated_nodes.write_text(json.dumps(doc))
    for stage in pipeline.STAGES:
        manifest = json.loads(paths.manifest(stage).read_text())
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION - 1
        if stage == "aggregate":
            manifest["inputs"] = {str(paths.graph): manifest["inputs"][str(paths.graph)],
                                  str(paths.annotated_nodes): "0" * 16}
        manifest["outputs"] = [p for p in manifest["outputs"] if p != str(paths.guesses)]
        paths.manifest(stage).write_text(json.dumps(manifest))
    assert all(run_pipeline(cfg, paths).values())
    assert paths.guesses.exists()
    assert "guesses" not in json.loads(paths.annotated_nodes.read_text())
    assert not any(run_pipeline(cfg, paths).values())


# --- node cap ---------------------------------------------------------------------------

def test_annotate_node_cap_limits_pool(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    cfg.annotator.node_cap = 12
    paths = StagePaths(out_dir)
    pipeline.stage_ingest(cfg, paths)
    pipeline.stage_annotate(cfg, paths)
    doc = json.loads(paths.annotated_nodes.read_text())
    assert len(doc["nodes"]) == 12
    # one hash per worker, in config order, each naming a cache record
    cache = ResponseCache(paths.cache)
    assert len(doc["prompt_hashes"]) == len(doc["nodes"])
    for hashes in doc["prompt_hashes"]:
        assert len(hashes) == NUM_TIE_CONFIGS
        assert all(cache.get(h) is not None for h in hashes)
    # one guess row per annotated node, one column per configuration
    num_classes = load_graph(paths.graph).num_classes
    with np.load(paths.guesses) as npz:
        assert npz["nodes"].tolist() == doc["nodes"]
        assert npz["top1"].shape == (12, NUM_TIE_CONFIGS)
        assert npz["mass"].shape == (12, NUM_TIE_CONFIGS, num_classes)
    pipeline.stage_aggregate(cfg, paths)
    _, rows = read_csv_rows(paths.pseudo_labels)
    assert len(rows) == 12


# --- sweep ------------------------------------------------------------------------------

def test_sweep_requires_aggregate_artifact(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    with pytest.raises(MissingArtifactError):
        pipeline.hyperparameter_sweep(cfg, paths, [0.1], [0.6], seeds=2)


def test_sweep_deterministic_and_shaped(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    grid_g = [0.0, 0.1]
    grid_l = [0.7, 0.6]
    a = pipeline.hyperparameter_sweep(cfg, paths, grid_g, grid_l, seeds=2)
    b = pipeline.hyperparameter_sweep(cfg, paths, grid_g, grid_l, seeds=2)
    assert a == b
    assert [r["gamma"] for r in a] == grid_g
    assert all(r["seeds"] == 2 for r in a)
    assert all(0.0 <= r["mean_acc"] <= 1.0 for r in a)


def test_sweep_checks_every_cell_before_the_first_runs(tmp_path, monkeypatch):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    calls = []
    monkeypatch.setattr(filtering, "run_filter", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError):
        pipeline.hyperparameter_sweep(cfg, paths, [0.1, 0.0, 0.9], [0.6, 0.7, 0.3], seeds=1)
    assert calls == []


def test_sweep_single_cell_matches_filter_train(tmp_path):
    cfg_path, out_dir = fixture_config(tmp_path)
    cfg = load_config(cfg_path)
    paths = StagePaths(out_dir)
    run_pipeline(cfg, paths)
    (cell,) = pipeline.hyperparameter_sweep(
        cfg, paths, [cfg.filter.gamma], [cfg.filter.lam], seeds=1
    )
    report = json.loads(paths.report.read_text())
    assert cell["mean_acc"] == pytest.approx(report["test_accuracy"], abs=1e-12)


def test_cli_sweep(tmp_path, capsys):
    cfg_path, out_dir = fixture_config(tmp_path)
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    code = cli.main(
        ["sweep", "--config", str(cfg_path), "--gamma-values", "0.0,0.1",
         "--lambda-values", "0.7,0.6", "--sweep-seeds", "2"]
    )
    assert code == 0
    assert (out_dir / "sweep.csv").exists()
    header, rows = read_csv_rows(out_dir / "sweep.csv")
    assert header == ["gamma", "lambda", "eta", "mean_acc", "std_acc", "seeds"]
    assert len(rows) == 2


# --- theorem CLI ---------------------------------------------------------------------------

def test_verify_theorem_pass(tmp_path):
    out = tmp_path / "t.csv"
    reports, passed = verify_theorem(0.7, 3, 2, 50000, seed=3, out_path=out)
    assert passed
    assert out.exists()
    assert len(reports) == 2


def test_cli_verify_theorem(tmp_path, capsys):
    code = cli.main(
        ["verify-theorem", "--alpha", "0.7", "--classes", "3", "--hops", "2",
         "--samples", "20000", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "theorem_report.csv").exists()


def test_cli_make_fixture(tmp_path, capsys):
    code = cli.main(["make-fixture", "--out-dir", str(tmp_path)])
    assert code == 0
    for bundled in fixture_paths():
        assert (tmp_path / bundled.name).read_bytes() == bundled.read_bytes(), bundled.name


# --- fixture CLI flag ------------------------------------------------------------------------

def test_cli_fixture_flag_runs_pipeline(tmp_path):
    out_dir = tmp_path / "fx"
    code = cli.main(
        ["pipeline", "--fixture", "--out-dir", str(out_dir), "--seed", "3",
         "--k", "15", "--eta", "0.4", "--gamma", "0.1", "--lambda", "0.6",
         "--noise", "0.3"]
    )
    assert code == 0
    assert (out_dir / "report.json").exists()
