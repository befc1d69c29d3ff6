"""Time each pipeline stage on a synthetic Cora-like graph of ``n`` nodes.

Run from the repository root:

    PYTHONPATH=src python scripts/scale_probe.py 25000 /tmp/probe-25k

It builds ``synthetic_citation_graph(n, 7, feature_dim=128,
avg_out_degree=4.0, seed=1)``, writes its dataset files into the output
directory and calls the five stages one by one with the oracle annotator at
noise 0.3 and the default GCN settings (200 epochs), then times a re-run of
all five, which must skip every stage, and a re-run after ``os.utime`` on
every dataset file, which hashes those files again and must skip every stage
too. Last it times a resumed annotate with
every response cached (its manifest removed, so the stage runs again), whose
``guesses.npz`` must equal the first one. It prints each stage's wall time,
the process's peak RSS after it (so the stage that set the peak shows), and
the size of every artifact. One 100k-node probe takes about 7 minutes and
3 GB, so this stays out of the benchmark.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from crowdtag import pipeline as pl
from crowdtag import synthetic


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def guess_arrays(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("nodes", type=int, help="node count of the synthetic graph")
    parser.add_argument("out_dir", type=Path, help="directory for dataset files and artifacts")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    graph = synthetic.synthetic_citation_graph(
        args.nodes, 7, feature_dim=128, avg_out_degree=4.0, seed=1
    )
    files = synthetic.write_dataset_files(graph, str(args.out_dir / "data"))
    del graph
    print(f"{'make dataset':<14} {time.perf_counter() - start:9.2f} s")

    cfg = pl.load_config(None, {
        "dataset": dict(zip(("content", "cites", "texts"), files)),
        "annotator": {"mode": "oracle", "noise": 0.3, "seed": 1, "budget_usd": 1000.0},
        "out_dir": str(args.out_dir / "out"),
    })
    paths = pl.StagePaths(cfg.out_dir)
    print(f"{'stage':<14} {'wall':>9}   {'peak RSS':>10}")
    for name in pl.STAGES:
        start = time.perf_counter()
        if not getattr(pl, f"stage_{name}")(cfg, paths):
            print(f"{name}: skipped, but the out dir was fresh", file=sys.stderr)
            return 1
        print(f"{name:<14} {time.perf_counter() - start:9.2f} s {peak_rss_mib():9.0f} MiB")

    for label, touched in (("re-run", []), ("touched re-run", files)):
        for f in touched:
            os.utime(f)
        start = time.perf_counter()
        ran = pl.run_pipeline(cfg, paths)
        print(f"{label:<14} {time.perf_counter() - start:9.3f} s")
        if any(ran.values()):
            print(f"{label} ran stages: {ran}", file=sys.stderr)
            return 1

    first = guess_arrays(paths.guesses)
    paths.manifest("annotate").unlink()
    start = time.perf_counter()
    pl.stage_annotate(cfg, paths)
    print(f"{'resume':<14} {time.perf_counter() - start:9.2f} s {peak_rss_mib():9.0f} MiB")
    resumed = guess_arrays(paths.guesses)
    if first.keys() != resumed.keys() or any(
        a.dtype != resumed[k].dtype or not np.array_equal(a, resumed[k]) for k, a in first.items()
    ):
        print("resumed annotate wrote other guesses than the first run", file=sys.stderr)
        return 1

    print("artifacts:")
    for path in sorted(Path(cfg.out_dir).iterdir()):
        if path.is_file():
            print(f"  {path.name:<24} {path.stat().st_size / 1e6:10.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
