"""crowdtag: LLM-crowdsourced annotation of directed text-attributed graphs.

Pipeline: parse a citation network, query eight structure-aware LLM workers
per node, fuse their guesses into pseudo-labels, select a high-value training
subset with a two-stage filter, and train a GCN on the result. A separate
module verifies the homophily-dominance property of multi-hop label
propagation, both in closed form and by simulation.
"""

# NB: the `annotate` / `aggregate` submodules keep their names; their main
# entry points are re-exported under package-level names that do not shadow
# the modules themselves.
from .aggregate import PseudoLabel, aggregate_all
from .annotate import (
    BudgetState,
    Guesses,
    PromptSpec,
    ResponseCache,
    TruncationPolicy,
    annotate_graph,
    build_prompt,
    parse_response,
)
from .dataio import load_graph, read_dataset, save_graph
from .filtering import c_density, coe, kmeans, pagerank, stage1_scores, stage2_select
from .graph import DirectedTAG, HomophilyTie, build_graph
from .homophily import (
    HomophilyParams,
    build_q,
    dominance_gap,
    eigen_check,
    q_power_closed_form,
    simulate_propagation,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedTAG",
    "HomophilyTie",
    "build_graph",
    "read_dataset",
    "save_graph",
    "load_graph",
    "PromptSpec",
    "Guesses",
    "BudgetState",
    "ResponseCache",
    "TruncationPolicy",
    "build_prompt",
    "annotate_graph",
    "parse_response",
    "PseudoLabel",
    "aggregate_all",
    "pagerank",
    "kmeans",
    "c_density",
    "stage1_scores",
    "stage2_select",
    "coe",
    "HomophilyParams",
    "build_q",
    "q_power_closed_form",
    "dominance_gap",
    "eigen_check",
    "simulate_propagation",
    "__version__",
]
