"""Bundled fixture dataset: a 30-node synthetic citation graph.

The files live in the package's ``data/`` directory so tests and the CLI
``--fixture`` flag can run the whole pipeline offline. ``write_fixture_files``
regenerates the same files anywhere (the generator is fully seeded).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .dataio import read_dataset
from .graph import DirectedTAG
from .synthetic import synthetic_citation_graph, write_dataset_files

FIXTURE_SEED = 55
FIXTURE_PARAMS = dict(
    n=30,
    num_classes=3,
    alpha=0.75,
    avg_out_degree=3.0,
    feature_dim=8,
    feature_noise=2.5,
    seed=FIXTURE_SEED,
)


def make_fixture_graph() -> DirectedTAG:
    return synthetic_citation_graph(**FIXTURE_PARAMS)


def write_fixture_files(prefix: str | Path) -> tuple[str, str, str]:
    return write_dataset_files(make_fixture_graph(), str(prefix))


def fixture_paths() -> tuple[Path, Path, Path]:
    """(.content, .cites, .texts) paths of the bundled fixture."""
    root = resources.files("crowdtag") / "data"
    return (
        Path(str(root / "fixture30.content")),
        Path(str(root / "fixture30.cites")),
        Path(str(root / "fixture30.texts")),
    )


def replay_cache_path() -> Path:
    """Recorded worker responses for cache-replay tests."""
    return Path(str(resources.files("crowdtag") / "data" / "replay_cache.jsonl"))


def load_fixture_graph() -> DirectedTAG:
    """Read the bundled fixture through the regular dataset reader."""
    graph, _ = read_dataset(*fixture_paths())
    return graph
