"""End-to-end benchmark of the crowdtag pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cora-cold --seed 1 --seconds 50 --trace 0

One run makes the workload's inputs from the seed (a Cora-like graph, its
dataset files and, for a resumed workload, a pre-filled shared cache), then
starts a fresh process that runs rounds for ``--seconds``: each round times
one set-up of the inputs, one real pipeline with a metered oracle annotator
from an empty out dir, and immediate re-runs of it, with a host-speed probe
between the timed pieces. Times are medians, in seconds at a reference host
speed (see speed.py). It checks the outputs and prints every metric with its
unit; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the pipeline, one re-run and the workload's sweep with
every layer wrapped and reports the per-layer metrics instead; the spans go
to ``.perfbench_work/traces/``. See perfbench/README.md for the workloads,
the metrics and which layer metric should move which end-to-end metric.

Operations counted in ``attempted``: each set-up, each pipeline, each
re-run, the sweep, and each output check. A failed check, a failed stage, a
MemoryError or a killed child each count as one failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import HASH_REFERENCE_S, REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Whole run, child included, must end well inside three minutes.
RUN_LIMIT_S = 170.0
# High enough that no workload is refused.
BUDGET_USD = 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "crowdtag" / "__init__.py").is_file():
        print(f"perfbench: no crowdtag sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        metrics = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.fail("metrics", f"not measured: {', '.join(missing)}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
    for name, m in out.items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    print("env " + json.dumps(run.environment(threads), sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": out}))
    return 0 if correct else 1


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.child: dict = {}
        self.inputs = None
        # medians of the measured (not normalized) seconds
        self.wall: dict = {}
        # set when the workload starts from a pre-filled shared cache
        self.reference: dict | None = None

    # -- bookkeeping -----------------------------------------------------------

    def fail(self, what: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(what, detail)

    # -- phases ----------------------------------------------------------------

    def execute(self) -> dict:
        from inputs import make_inputs

        # Untimed: the child times set-up again between pipeline repeats.
        self.inputs = make_inputs(self.w, self.seed, self.work / "inputs")
        self.attempted += 1
        if self.inputs.shared_cache is not None:
            self.reference = reference_outputs(self.inputs.graph, self.inputs.annotations,
                                               self.w.filter_config())
        self.inputs.graph = self.inputs.annotations = None

        child_spec = {
            "src": str(SRC),
            "work": str(self.work),
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "spans": str(WORK_ROOT / "traces" / f"{self.w.name}-seed{self.seed}.jsonl"),
            "overrides": {
                "dataset": dict(zip(("content", "cites", "texts"), self.inputs.files)),
                "annotator": {
                    "noise": self.w.oracle_noise,
                    "seed": self.seed,
                    "budget_usd": BUDGET_USD,
                    "max_inflight": 1,
                    "node_cap": self.w.node_cap,
                    "cache": str(self.inputs.shared_cache) if self.inputs.shared_cache else None,
                },
                "filter": {"k": self.w.filter_k},
                "gcn": {"epochs": self.w.epochs},
            },
        }
        if self.trace:
            (WORK_ROOT / "traces").mkdir(exist_ok=True)
        spec_file = self.work / "spec.json"
        spec_file.write_text(json.dumps(child_spec))
        if not self.run_child(spec_file):
            return {}

        r = self.child
        self.attempted += len(r["setups"]) + len(r["repeats"]) + len(r["reruns"]) + ("sweep" in r)
        for i, rerun in enumerate(r["reruns"]):
            self.check(f"re-run {i} skipped every stage", not any(rerun["ran"].values()), str(rerun["ran"]))
        try:
            checked = [self.check_outputs(rep) for rep in r["repeats"]]
        except (OSError, KeyError, ValueError) as exc:
            self.fail("reading the outputs", repr(exc))
            return {}
        first = r["repeats"][0]
        spent, nodes, report = checked[0]
        self.check("every repeat made the same requests and spend",
                   all(rep["requests"] == first["requests"] for rep in r["repeats"])
                   and all(c[0] == spent for c in checked))
        if self.trace:
            cells = r["sweep"]
            self.check("sweep covered the grid", len(cells) == len(self.w.sweep_gammas)
                       and all(0.0 < c["mean_acc"] <= 1.0 for c in cells), str(cells))
            layers = dict(r["layers"])
            prompts = layers["annotate.prompts"]
            layers.update({
                "annotate.client_s": first["client_s"],
                "annotate.requests": first["requests"],
                "annotate.tokens_in": first["tokens_in"],
                "annotate.tokens_out": first["tokens_out"],
                "annotate.spend_usd": spent,
                "annotate.cache_hit_rate": (prompts - first["requests"]) / prompts if prompts else 0.0,
                "pipeline.stages_run": sum(first["ran"].values()),
                "gcn.test_accuracy": report["test_accuracy"],
            })
            return layers
        # samples of the first round warm the child up and are left out
        timed = {
            "setup_s": r["setups"][1:],
            "pipeline_s": r["repeats"][1:],
            "rerun_s": [x for x in r["reruns"] if x["round"] > 0],
        }
        for name, pieces in timed.items():
            print(f"perfbench: {name} samples (measured/at reference) "
                  + " ".join(f"{x['s']:.4f}/{x['at_ref']:.4f}" for x in pieces), file=sys.stderr)
        for name in ("probes", "hash_probes"):
            print(f"perfbench: {name} " + " ".join(f"{x:.4f}" for x in r[name]), file=sys.stderr)
        self.wall = {name: statistics.median(x["s"] for x in pieces) for name, pieces in timed.items()}
        self.wall["probe_s"] = statistics.median(r["probes"])
        self.wall["hash_probe_s"] = statistics.median(r["hash_probes"])
        return {
            **{name: statistics.median(x["at_ref"] for x in pieces) for name, pieces in timed.items()},
            "peak_rss_mb": r["peak_rss_mb"],
            "llm_requests": first["requests"],
            "usd_per_node": spent / nodes,
        }

    def run_child(self, spec_file: Path) -> bool:
        cmd = [sys.executable, str(HERE / "child.py"), str(spec_file)]
        limit = RUN_LIMIT_S - (time.perf_counter() - self.started)
        stage_file = self.work / "stage"
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, limit))
        except subprocess.TimeoutExpired:
            stage = stage_file.read_text() if stage_file.exists() else "start"
            self.fail(f"stage {stage}", f"timed out after {limit:.0f} s")
            return False
        result_file = self.work / "result.json"
        if result_file.exists():
            self.child = json.loads(result_file.read_text())
        if "error" in self.child:
            self.fail("child", self.child["error"])
            return False
        if proc.returncode != 0 or not self.child:
            stage = stage_file.read_text() if stage_file.exists() else "start"
            how = f"killed by signal {-proc.returncode}" if proc.returncode < 0 else f"exit {proc.returncode}"
            self.fail(f"stage {stage}", how)
            return False
        return True

    # -- output checks ---------------------------------------------------------

    def check_outputs(self, rep: dict) -> tuple[float, int, dict]:
        """Checks on one pipeline's outputs; returns spent_usd, the annotated
        node count and the report."""
        from crowdtag import pipeline as pl

        out_dir = Path(rep["out_dir"])
        cache_path = Path(rep["cache"]) if rep["cache"] else out_dir / "annotations.jsonl"
        self.check("all five stages ran", all(rep["ran"].values()) and len(rep["ran"]) == 5, str(rep["ran"]))

        annotated = json.loads((out_dir / "annotated_nodes.json").read_text())
        nodes = len(annotated["nodes"])
        expected_nodes = self.w.node_cap or self.w.nodes
        self.check("annotated node count", nodes == expected_nodes, f"{nodes} != {expected_nodes}")

        with open(cache_path, encoding="utf-8") as fh:
            records = [rec for rec in map(json.loads, fh) if "hash" in rec]
        new = records[self.inputs.prefilled:]
        self.check("requests equal new cache records", rep["requests"] == len(new),
                   f"{rep['requests']} requests, {len(new)} new records")
        if self.inputs.prefilled:
            self.check("requests equal prompts missing from the shared cache",
                       rep["requests"] == self.inputs.expected_requests,
                       f"{rep['requests']} != {self.inputs.expected_requests}")
        a = pl.AnnotatorConfig()
        cost = 0.0
        for rec in new:
            cost += rec["tokens_in"] / 1000.0 * a.price_per_1k_in + rec["tokens_out"] / 1000.0 * a.price_per_1k_out
        spent = annotated["spent_usd"]
        self.check("spent_usd equals the price-weighted tokens of the new records",
                   math.isclose(spent, cost, rel_tol=1e-9, abs_tol=1e-12), f"{spent} != {cost}")
        self.check("client tokens equal the new records' tokens",
                   rep["tokens_in"] == sum(rec["tokens_in"] for rec in new)
                   and rep["tokens_out"] == sum(rec["tokens_out"] for rec in new))

        _, rows = pl.read_csv_rows(out_dir / "pseudo_labels.csv")
        selected = json.loads((out_dir / "selected.json").read_text())
        final = selected["final_nodes"]
        want = math.ceil(min(selected["k"], len(rows)) * selected["eta"])
        self.check("len(final_nodes) == ceil(k * eta)", len(final) == want, f"{len(final)} != {want}")
        if self.reference is not None:
            pseudo = {key: [label, conf] for key, label, conf, _ in rows}
            self.check("pseudo-labels equal the in-memory reference", pseudo == self.reference["pseudo"])
            self.check("selected nodes equal the in-memory reference", final == self.reference["final"])

        report = json.loads((out_dir / "report.json").read_text())
        acc = report["test_accuracy"]
        self.check("test accuracy in (0, 1]", 0.0 < acc <= 1.0, str(acc))
        return spent, nodes, report

    def environment(self, threads: int) -> dict:
        import numpy as np
        import scipy

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env = {
            "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "workload": self.w.name,
            "seed": self.seed,
            "probe_reference_s": REFERENCE_S,
            "hash_probe_reference_s": HASH_REFERENCE_S,
        }
        if self.wall:
            env["measured_s"] = self.wall
        if self.trace and "layers" in self.child:
            env["span_cost_s"] = self.child["span_cost_s"]
            env["tracing_overhead_s"] = self.child["layers"]["trace.overhead_s"]
            env["traced_pipeline_s"] = self.child["repeats"][0]["s"]
            env["run_id"] = self.child["run_id"]
        return env


def reference_outputs(g, annotations, f) -> dict:
    """Pseudo-label rows and final selection computed in memory from the
    annotations, as the aggregate and filter stages must write them with
    filter settings ``f``."""
    from crowdtag import aggregate as agg
    from crowdtag import filtering
    from crowdtag import pipeline as pl

    pseudo, _ = agg.aggregate_all(annotations, g.class_names)
    conf = {v: f"{p.confidence:.6f}" for v, p in pseudo.items()}
    k = f.k if f.k is not None else pl.default_k(g, f.eta)
    final, _ = filtering.run_filter(
        g, g.features,
        annotated_nodes=sorted(pseudo),
        confidences={v: float(c) for v, c in conf.items()},
        pseudo_label_of={v: p.label for v, p in pseudo.items()},
        gamma=f.gamma, lam=f.lam, eta=f.eta, k=k,
        kmeans_seed=f.kmeans_seed, damping=f.damping,
    )
    return {
        "pseudo": {g.original_keys[v]: [g.class_names[p.label], conf[v]] for v, p in pseudo.items()},
        "final": final,
    }


if __name__ == "__main__":
    sys.exit(main())
