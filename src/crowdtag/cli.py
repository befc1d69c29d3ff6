"""Command-line entry point.

Subcommands mirror the pipeline stages plus `verify-theorem` and `sweep`.
Exit codes: 0 success, 1 validation error (a bad setting, a command-line
usage error, a malformed dataset file, a response cache that another run is
appending to or that is corrupt, annotations of which no response parsed, or
GCN training that diverged), 2 missing prior artifact, 3 budget refusal, 4
LLM transport failure. Each flag that sets one config setting names it as its
``dest`` (``section.field``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import fixtures, homophily, pipeline
from .annotate import BudgetExhaustedError, CacheLockedError, CorruptCacheError, TransportError
from .dataio import ParseError
from .gcn import TrainingDivergedError

# Errors a command reports on stderr, not as a traceback, with the exit code of each
_NAMED_ERRORS = (
    (pipeline.ConfigError, "config error", pipeline.EXIT_VALIDATION),
    (ParseError, "dataset error", pipeline.EXIT_VALIDATION),
    (CacheLockedError, "cache locked", pipeline.EXIT_VALIDATION),
    (CorruptCacheError, "corrupt cache", pipeline.EXIT_VALIDATION),
    (TrainingDivergedError, "training diverged", pipeline.EXIT_VALIDATION),
    (pipeline.NoPseudoLabelsError, "no pseudo-labels", pipeline.EXIT_VALIDATION),
    (pipeline.MissingArtifactError, "missing artifact", pipeline.EXIT_MISSING_ARTIFACT),
    (BudgetExhaustedError, "budget refusal", pipeline.EXIT_BUDGET),
    (TransportError, "transport failure", pipeline.EXIT_TRANSPORT),
)


def _setting(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that sets the config setting ``key`` (``section.field``); it offers
    the setting's choices, else ``--help`` shows the flag's name as its placeholder."""
    if isinstance(pipeline.RANGES.get(key), tuple):
        kwargs["choices"] = pipeline.RANGES[key]
    else:
        kwargs.setdefault("metavar", flag[2:].replace("-", "_").upper())
    parser.add_argument(flag, dest=key, **kwargs)


def _grid(text: str) -> list[float] | str:
    """A comma-separated grid; text that is not one is kept for the config check to name."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        return text


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--out-dir", help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, help="base seed (annotator + GCN + splits)")
    _setting(parser, "--content", "dataset.content", help=".content file path")
    _setting(parser, "--cites", "dataset.cites", help=".cites file path")
    _setting(parser, "--texts", "dataset.texts", help="optional key<TAB>text file")
    _setting(parser, "--embeddings", "dataset.embeddings", help="optional key<TAB>floats file")
    _setting(parser, "--edge-semantics", "dataset.edge_semantics", help="direction an edge represents")
    parser.add_argument("--fixture", action="store_true", help="use the bundled 30-node fixture dataset")
    _setting(parser, "--endpoint", "annotator.endpoint", help="chat-completions URL (llm mode)")
    _setting(parser, "--model", "annotator.model", help="model name sent in requests")
    _setting(parser, "--api-key-env", "annotator.api_key_env", help="env var holding the API key")
    _setting(parser, "--cache", "annotator.cache", help="response cache JSONL path")
    _setting(parser, "--budget-usd", "annotator.budget_usd", type=float, help="hard dollar limit")
    _setting(parser, "--max-inflight", "annotator.max_inflight", type=int,
             help="concurrent request bound")
    _setting(parser, "--noise", "annotator.noise", type=float, help="oracle mode noise rate")
    _setting(parser, "--node-cap", "annotator.node_cap", type=int,
             help="annotate only the top-N stage-one nodes")
    _setting(parser, "--annotator-mode", "annotator.mode", help="worker backend")
    _setting(parser, "--gamma", "filter.gamma", type=float, help="stage-one PageRank weight")
    _setting(parser, "--lambda", "filter.lambda", type=float, metavar="LAM",
             help="stage-one density weight")
    _setting(parser, "--eta", "filter.eta", type=float, help="stage-two keep fraction")
    _setting(parser, "--k", "filter.k", type=int, help="stage-one selection size")
    _setting(parser, "--kmeans-seed", "filter.kmeans_seed", type=int, help="k-means init seed")
    _setting(parser, "--damping", "filter.damping", type=float, help="PageRank damping factor")


class _Parser(argparse.ArgumentParser):
    """Exits 1, not argparse's 2, on a usage error: exit code 2 means a missing prior artifact."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(pipeline.EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        ("sweep", "filter+train over a gamma/lambda grid (cache only)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        if name == "sweep":
            _setting(p, "--gamma-values", "sweep.gamma_values", type=_grid,
                     help="comma-separated gamma grid")
            _setting(p, "--lambda-values", "sweep.lambda_values", type=_grid,
                     help="comma-separated lambda grid")
            _setting(p, "--sweep-seeds", "sweep.seeds", type=int, help="runs per cell")

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
    """The config settings the flags set; each flag's ``dest`` is its setting's ``section.field``."""
    overrides: dict = {"out_dir": args.out_dir}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot:
            overrides.setdefault(section, {})[key] = value
    for section in ("annotator", "gcn"):
        overrides.setdefault(section, {})["seed"] = args.seed
    if args.fixture:
        fixture = map(str, fixtures.fixture_paths())
        overrides["dataset"].update(zip(("content", "cites", "texts"), fixture))
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
                results = pipeline.hyperparameter_sweep(
                    cfg, paths, cfg.sweep.gamma_values, cfg.sweep.lambda_values, cfg.sweep.seeds
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
