"""Benchmark workloads: generator parameters, pipeline settings and the reason
each was chosen.

Both workloads have Cora's classes and citation density (7 classes, about
two citations per paper) on 800 nodes with 128-d Gaussian features, and run
the real pipeline stages with a metered oracle annotator, one request in
flight. One pipeline takes 1.5-3 s on a 2-vCPU machine, so a run times a
dozen or more and reports the median. At Cora's full size (2708 nodes,
1433-d) one pipeline takes 25-38 s there; a run fits only one or two, and
the host's speed drifts by more than the bound between runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # synthetic.synthetic_citation_graph parameters
    nodes: int
    classes: int
    feature_dim: int
    avg_out_degree: float
    alpha: float
    feature_noise: float
    # annotator and pipeline settings
    oracle_noise: float
    node_cap: int | None
    # share of the annotated nodes whose prompts the shared cache holds before
    # the run, as an earlier run interrupted after that share would leave it;
    # 0 means the run annotates from an empty cache in its own out dir
    prefilled_share: float
    epochs: int
    # stage-one size of the filter: about a third of Cora's nodes, as the
    # pipeline's default (934) is of Cora's 2708
    filter_k: int = 280
    # hyperparameter_sweep grid, run in the traced run only
    sweep_gammas: tuple[float, ...] = (0.0, 0.02)
    sweep_lambdas: tuple[float, ...] = (0.8, 0.78)
    sweep_seeds: int = 2

    def generate(self, seed: int):
        """The workload's graph for ``seed``."""
        from crowdtag import synthetic

        return synthetic.synthetic_citation_graph(
            n=self.nodes,
            num_classes=self.classes,
            alpha=self.alpha,
            avg_out_degree=self.avg_out_degree,
            feature_dim=self.feature_dim,
            feature_noise=self.feature_noise,
            seed=seed,
        )

    def filter_config(self):
        """The pipeline's filter settings for this workload."""
        from crowdtag import pipeline as pl

        return pl.FilterConfig(k=self.filter_k)


CORA = dict(
    nodes=800,
    classes=7,
    feature_dim=128,
    avg_out_degree=2.0,
    alpha=0.85,
    feature_noise=0.6,
    oracle_noise=0.3,
    epochs=2,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cora-cold",
            why=(
                "800-node Cora-like graph, every node annotated from an empty cache: cache "
                "appends, graph JSON I/O and the dense-A_hat GCN dominate; structural "
                "scores run once"
            ),
            node_cap=None,
            prefilled_share=0.0,
            **CORA,
        ),
        Workload(
            name="cora-replay",
            why=(
                "node_cap 400 of 800 nodes, resumed from a shared cache holding 80% of its "
                "prompts: cache load and parse dominate annotate; PageRank and k-means "
                "run twice"
            ),
            node_cap=400,
            prefilled_share=0.8,
            **CORA,
        ),
    )
}
