"""Command-line entry point.

Subcommands mirror the pipeline stages plus `verify-theorem` and `sweep`.
Exit codes: 0 success, 1 validation error (a bad setting, a malformed dataset
file, a response cache that another run is appending to or that is corrupt,
or GCN training that diverged), 2 missing prior artifact, 3 budget refusal,
4 LLM transport failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import fixtures, homophily, pipeline
from .annotate import BudgetExhaustedError, CacheLockedError, CorruptCacheError, TransportError
from .dataio import EDGE_SEMANTICS, ParseError
from .gcn import TrainingDivergedError

# Errors a command reports on stderr, not as a traceback, with the exit code of each
_NAMED_ERRORS = (
    (pipeline.ConfigError, "config error", pipeline.EXIT_VALIDATION),
    (ParseError, "dataset error", pipeline.EXIT_VALIDATION),
    (CacheLockedError, "cache locked", pipeline.EXIT_VALIDATION),
    (CorruptCacheError, "corrupt cache", pipeline.EXIT_VALIDATION),
    (TrainingDivergedError, "training diverged", pipeline.EXIT_VALIDATION),
    (pipeline.MissingArtifactError, "missing artifact", pipeline.EXIT_MISSING_ARTIFACT),
    (BudgetExhaustedError, "budget refusal", pipeline.EXIT_BUDGET),
    (TransportError, "transport failure", pipeline.EXIT_TRANSPORT),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--out-dir", help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, help="base seed (annotator + GCN + splits)")


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--content", help=".content file path")
    parser.add_argument("--cites", help=".cites file path")
    parser.add_argument("--texts", help="optional key<TAB>text file")
    parser.add_argument("--embeddings", help="optional key<TAB>floats file")
    parser.add_argument(
        "--edge-semantics",
        choices=EDGE_SEMANTICS,
        help="direction an edge represents",
    )
    parser.add_argument(
        "--fixture",
        action="store_true",
        help="use the bundled 30-node fixture dataset",
    )


def _add_annotator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", help="chat-completions URL (llm mode)")
    parser.add_argument("--model", help="model name sent in requests")
    parser.add_argument("--api-key-env", help="env var holding the API key")
    parser.add_argument("--cache", help="response cache JSONL path")
    parser.add_argument("--budget-usd", type=float, help="hard dollar limit")
    parser.add_argument("--max-inflight", type=int, help="concurrent request bound")
    parser.add_argument("--noise", type=float, help="oracle mode noise rate")
    parser.add_argument("--node-cap", type=int, help="annotate only the top-N stage-one nodes")
    parser.add_argument(
        "--annotator-mode", choices=["oracle", "llm"], help="worker backend"
    )


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, help="stage-one PageRank weight")
    parser.add_argument("--lambda", dest="lam", type=float, help="stage-one density weight")
    parser.add_argument("--eta", type=float, help="stage-two keep fraction")
    parser.add_argument("--k", type=int, help="stage-one selection size")
    parser.add_argument("--kmeans-seed", type=int, help="k-means init seed")
    parser.add_argument("--damping", type=float, help="PageRank damping factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdtag",
        description="LLM-crowdsourced annotation of directed citation graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("ingest", "parse dataset files into the graph artifact"),
        ("annotate", "run the eight workers per node (cached, budgeted)"),
        ("aggregate", "fuse worker responses into pseudo-labels"),
        ("filter", "two-stage training-set selection"),
        ("train", "train the GCN on the selected nodes"),
        ("pipeline", "run all stages in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        _add_dataset_flags(p)
        _add_annotator_flags(p)
        _add_filter_flags(p)

    p = sub.add_parser("sweep", help="filter+train over a gamma/lambda grid (cache only)")
    _add_common(p)
    _add_dataset_flags(p)
    _add_annotator_flags(p)
    _add_filter_flags(p)
    p.add_argument("--gamma-values", help="comma-separated gamma grid")
    p.add_argument("--lambda-values", help="comma-separated lambda grid")
    p.add_argument("--sweep-seeds", type=int, help="runs per cell")

    p = sub.add_parser("verify-theorem", help="closed-form vs Monte Carlo dominance check")
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")

    p = sub.add_parser("make-fixture", help="write the bundled fixture dataset files")
    p.add_argument("--out-dir", default="fixture30")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    get = lambda name: getattr(args, name, None)  # noqa: E731
    dataset = {
        "content": get("content"),
        "cites": get("cites"),
        "texts": get("texts"),
        "embeddings": get("embeddings"),
        "edge_semantics": get("edge_semantics"),
    }
    if get("fixture"):
        content, cites, texts = fixtures.fixture_paths()
        dataset.update({"content": str(content), "cites": str(cites), "texts": str(texts)})
    annotator = {
        "mode": get("annotator_mode"),
        "endpoint": get("endpoint"),
        "model": get("model"),
        "api_key_env": get("api_key_env"),
        "cache": get("cache"),
        "budget_usd": get("budget_usd"),
        "max_inflight": get("max_inflight"),
        "noise": get("noise"),
        "node_cap": get("node_cap"),
        "seed": get("seed"),
    }
    filt = {
        "gamma": get("gamma"),
        "lambda": get("lam"),
        "eta": get("eta"),
        "k": get("k"),
        "kmeans_seed": get("kmeans_seed"),
        "damping": get("damping"),
    }
    gcn_over = {"seed": get("seed")}
    overrides = {
        "dataset": dataset,
        "annotator": annotator,
        "filter": filt,
        "gcn": gcn_over,
        "sweep": {"seeds": get("sweep_seeds")},
        "out_dir": get("out_dir"),
    }
    return overrides


def write_sweep_csv(path: Path, cfg_hash: str, results: list[dict]) -> None:
    pipeline._write_csv(
        path,
        cfg_hash,
        ["gamma", "lambda", "eta", "mean_acc", "std_acc", "seeds"],
        [
            [r["gamma"], r["lambda"], r["eta"], f"{r['mean_acc']:.6f}", f"{r['std_acc']:.6f}", r["seeds"]]
            for r in results
        ],
    )


def verify_theorem(
    alpha: float,
    num_classes: int,
    hops: int,
    samples: int,
    seed: int,
    out_path: Path | None = None,
) -> tuple[list[homophily.HopReport], bool]:
    """Closed form vs simulation; `passed` means every hop agrees within 3 SE
    and the dominance verdicts match the sign of the analytic gap."""
    params = homophily.HomophilyParams(alpha=alpha, num_classes=num_classes)
    fanout = 8
    # `samples` is the leaf count at the deepest hop
    num_roots = max(1, math.ceil(samples / fanout**hops))
    reports = homophily.simulate_propagation(params, hops, num_roots, fanout, seed)

    passed = True
    for r in reports:
        if abs(r.empirical - r.diagonal) > 3.0 * max(r.std_error, 1e-12):
            passed = False
        if r.dominant != (r.gap > 0):
            passed = False
    if out_path is not None:
        rows = [
            [
                r.hop,
                f"{r.diagonal:.10f}",
                f"{r.off_diagonal:.10f}",
                f"{r.empirical:.6f}",
                f"{r.gap:.10f}",
                "dominant" if r.dominant else "not_dominant",
            ]
            for r in reports
        ]
        pipeline._write_csv(
            out_path,
            f"alpha={alpha},classes={num_classes}",
            ["hop", "closed_diag", "closed_offdiag", "empirical", "gap", "verdict"],
            rows,
        )
    return reports, passed


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "make-fixture":
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = fixtures.write_fixture_files(out / "fixture30")
        print("\n".join(str(p) for p in paths))
        return pipeline.EXIT_OK

    if args.command == "verify-theorem":
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "theorem_report.csv"
        reports, passed = verify_theorem(
            args.alpha, args.classes, args.hops, args.samples, args.seed, report_path
        )
        for r in reports:
            print(
                f"hop {r.hop}: diag {r.diagonal:.4f} offdiag {r.off_diagonal:.4f} "
                f"empirical {r.empirical:.4f} gap {r.gap:.4f} "
                f"{'dominant' if r.dominant else 'not dominant'}"
            )
        print(f"report: {report_path}")
        print("PASS" if passed else "FAIL")
        return pipeline.EXIT_OK if passed else pipeline.EXIT_VALIDATION

    try:
        cfg = pipeline.load_config(args.config, _overrides_from_args(args))
    except pipeline.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return pipeline.EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return pipeline.EXIT_VALIDATION

    paths = pipeline.StagePaths(Path(cfg.out_dir))

    try:
        with pipeline.pipeline_lock(paths.out_dir):
            if args.command == "pipeline":
                ran = pipeline.run_pipeline(cfg, paths)
                for stage, did_run in ran.items():
                    print(f"{stage}: {'ran' if did_run else 'skipped (up to date)'}")
            elif args.command == "sweep":
                gamma_values = (
                    [float(x) for x in args.gamma_values.split(",")]
                    if args.gamma_values
                    else cfg.sweep.gamma_values
                )
                lambda_values = (
                    [float(x) for x in args.lambda_values.split(",")]
                    if args.lambda_values
                    else cfg.sweep.lambda_values
                )
                if not gamma_values:
                    raise pipeline.ConfigError("sweep requires gamma/lambda grids")
                results = pipeline.hyperparameter_sweep(
                    cfg, paths, gamma_values, lambda_values, cfg.sweep.seeds
                )
                sweep_path = paths.out_dir / "sweep.csv"
                write_sweep_csv(
                    sweep_path, pipeline.config_hash(cfg, ("filter", "gcn")), results
                )
                for r in results:
                    print(
                        f"gamma={r['gamma']:.3f} lambda={r['lambda']:.3f}: "
                        f"{100 * r['mean_acc']:.2f} +/- {100 * r['std_acc']:.2f}"
                    )
                print(f"wrote {sweep_path}")
            else:
                did_run = getattr(pipeline, f"stage_{args.command}")(cfg, paths)
                print(f"{args.command}: {'ran' if did_run else 'skipped (up to date)'}")
    except tuple(error for error, _, _ in _NAMED_ERRORS) as exc:
        name, code = next((n, c) for error, n, c in _NAMED_ERRORS if isinstance(exc, error))
        print(f"{name}: {exc}", file=sys.stderr)
        return code
    return pipeline.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
