"""The timed phase of one benchmark run, in a fresh process.

``python3 perfbench/child.py SPEC.json`` runs rounds for ``seconds`` (at
least MIN_ROUNDS). Each round times one set-up of the workload's inputs, one
pipeline from an empty out dir (and a fresh copy of the shared cache if the
workload has one) stage by stage, and RERUNS immediate re-runs of that
pipeline, with a host-speed probe before and after every timed piece (see
speed.py).
Interleaved so, the samples of all three metrics spread over the same
stretch of time. It writes ``result.json`` into the run's work dir. With
tracing on it instead runs one pipeline, one re-run and the workload's sweep
with every layer wrapped, and adds the per-layer metrics.

The stage that is running is kept in the file ``stage`` in the work dir, so
a run that dies (out of memory, killed) is reported against its stage.
"""

from __future__ import annotations

import copy
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from speed import HASH_REFERENCE_S, REFERENCE_S, at_reference, hash_probe, probe

# The same pipeline on a shared 2-vCPU machine varies by +-20% from one
# repeat to the next, so a run reports the median of many.
MIN_ROUNDS = 3
MAX_ROUNDS = 100
RERUNS = 3


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    work = Path(spec["work"])
    stage_file = work / "stage"

    from crowdtag import pipeline as pl

    import tracing
    from bench_client import MeteredOracleClient, as_ingested
    from inputs import make_inputs
    from workloads import WORKLOADS

    w = WORKLOADS[spec["workload"]]
    oracle_graph = as_ingested(w.generate(spec["seed"]), with_features=False)

    def repeat(i: int):
        """Config, out dir and client of pipeline repeat ``i``."""
        overrides = copy.deepcopy(spec["overrides"])
        overrides["out_dir"] = str(work / f"out{i}")
        shared = overrides["annotator"].get("cache")
        if shared:
            overrides["annotator"]["cache"] = str(work / f"cache{i}.jsonl")
            shutil.copyfile(shared, overrides["annotator"]["cache"])
        cfg = pl.load_config(None, overrides)
        client = MeteredOracleClient(oracle_graph, noise=w.oracle_noise, seed=spec["seed"])
        return cfg, pl.StagePaths(cfg.out_dir), client

    tracer = timeline = None
    if not spec["trace"]:
        timeline = Timeline(probe, REFERENCE_S)
    else:
        span_cost = tracing.span_overhead_s()
        tracer = tracing.Tracer()
        tracer.install()
        MeteredOracleClient.complete = tracer.wrap("annotate.client", MeteredOracleClient.complete)

    def marked(stage: str, fn):
        def run(*args, **kwargs):
            stage_file.write_text(stage)
            if timeline is not None and timeline.per_stage:
                return timeline.time(fn, *args, **kwargs)
            return fn(*args, **kwargs)

        return run

    for stage in tracing.STAGES:
        attr = f"stage_{stage}"
        setattr(pl, attr, marked(stage, getattr(pl, attr)))

    def set_up(i: int) -> None:
        """One set-up of the workload's inputs, timed on the timeline."""
        stage_file.write_text("set-up")
        directory = work / f"setup{i}"
        timeline.restart()
        timeline.time(make_inputs, w, spec["seed"], directory)
        result["setups"].append(timeline.pieces[-1])
        shutil.rmtree(directory)

    result: dict = {"setups": [], "repeats": [], "reruns": []}
    try:
        if tracer is None:
            run_untraced(pl, timeline, set_up, repeat, spec["seconds"], result)
            result["probes"] = timeline.probes
        else:
            sweep_s = run_traced(pl, tracer, repeat(0), w, result)
            layers = tracing.layer_metrics(tracer, "pipeline")
            layers["pipeline.rerun_s"] = result["reruns"][0]["s"]
            layers["pipeline.sweep_s"] = sweep_s
            layers["trace.overhead_s"] = span_cost * layers["trace.spans"]
            result["layers"] = layers
            result["span_cost_s"] = span_cost
            result["run_id"] = tracer.run_id
            tracer.dump(spec["spans"])
    except MemoryError:
        result["error"] = f"MemoryError in stage {stage_file.read_text()}"
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result))
    return 3 if "error" in result else 0


class Timeline:
    """Pieces of work timed one after another, with a host-speed probe
    before the first and after each; a piece is converted with the probes on
    either side of it."""

    def __init__(self, probe_fn, reference: float) -> None:
        self.probe_fn = probe_fn
        self.reference = reference
        self.probes: list[float] = []
        self.pieces: list[dict] = []
        # set while a pipeline's stages are timed as pieces of their own
        self.per_stage = False

    def restart(self) -> None:
        """Probes afresh before a piece that does not follow the last one."""
        self.probes.append(self.probe_fn())

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.probes.append(self.probe_fn())
        at_ref = at_reference(seconds, *self.probes[-2:], self.reference)
        self.pieces.append({"s": seconds, "at_ref": at_ref})
        return out


def pipeline_once(pl, cfg, paths, client, result: dict, timeline: Timeline | None = None) -> None:
    """One pipeline; with a timeline, timed stage by stage on it."""
    first = len(timeline.pieces) if timeline else 0
    if timeline:
        timeline.per_stage = True
    start = time.perf_counter()
    try:
        ran = pl.run_pipeline(cfg, paths, client=client)
    finally:
        if timeline:
            timeline.per_stage = False
    piece = {"s": time.perf_counter() - start}
    if timeline:
        stages = timeline.pieces[first:]
        del timeline.pieces[first:]
        piece = {key: sum(p[key] for p in stages) for key in ("s", "at_ref")}
    result["repeats"].append({
        "out_dir": cfg.out_dir,
        "cache": cfg.annotator.cache,
        "ran": ran,
        **piece,
        "requests": client.requests,
        "tokens_in": client.tokens_in,
        "tokens_out": client.tokens_out,
        "client_s": client.seconds,
    })


def run_untraced(pl, timeline: Timeline, set_up, repeat, seconds: float, result: dict) -> None:
    """Rounds of set-up, pipeline and re-runs until ``seconds`` have passed
    since the first started. Earlier rounds drop their graph artifact, which
    no check reads, to bound disk use."""
    clock = time.perf_counter
    start = clock()
    reruns = Timeline(hash_probe, HASH_REFERENCE_S)
    paths = None
    for i in range(MAX_ROUNDS):
        if i >= MIN_ROUNDS and clock() - start >= seconds:
            break
        if paths is not None:
            paths.graph.unlink()
        set_up(i)
        cfg, paths, client = repeat(i)
        timeline.restart()
        pipeline_once(pl, cfg, paths, client, result, timeline)
        reruns.restart()
        for _ in range(RERUNS):
            ran = reruns.time(pl.run_pipeline, cfg, paths, client=client)
            result["reruns"].append({"ran": ran, "round": i, **reruns.pieces[-1]})
    result["hash_probes"] = reruns.probes


def run_traced(pl, tracer, repeat0, w, result: dict) -> float:
    """Pipeline, one re-run and the sweep, each in its own trace phase;
    returns the sweep's wall time."""
    cfg, paths, client = repeat0
    clock = time.perf_counter

    tracer.phase = "pipeline"
    pipeline_once(pl, cfg, paths, client, result)

    tracer.phase = "rerun"
    t0 = clock()
    ran = pl.run_pipeline(cfg, paths, client=client)
    result["reruns"].append({"ran": ran, "s": clock() - t0})

    tracer.phase = "sweep"
    t0 = clock()
    result["sweep"] = pl.hyperparameter_sweep(
        cfg, paths, list(w.sweep_gammas), list(w.sweep_lambdas), w.sweep_seeds
    )
    sweep_s = clock() - t0
    tracer.phase = ""
    return sweep_s


if __name__ == "__main__":
    sys.exit(main())
