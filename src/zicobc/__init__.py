"""Training-free architecture scoring with depth-width bias correction,
plus latency-aware evolutionary search and a rank-correlation harness."""

__version__ = "0.1.0"

from .correlation import (
    BenchmarkRecord,
    CorrelationError,
    kendall_tau,
    load_records,
    run_correlation,
    spearman_rho,
)
from .latency import (
    LatencyModelError,
    LatencyTable,
    LatencyTableError,
    estimate,
    load_table,
)
from .network import (
    Genome,
    GenomeError,
    LayerGraph,
    StageGene,
    compile_genome,
    count_macs,
    count_params,
    crossover,
    genome_to_json,
    init_weights,
    layer_macs,
    mutate,
)
from .proxy import (
    GradientStats,
    ProxyError,
    ProxyScore,
    ScoreSettings,
    depth_width_penalty,
    gather_gradient_stats,
    make_batches,
    score_genome,
    zico_bc_score,
    zico_score,
)
from .search import (
    GenomeSpace,
    Individual,
    ParetoArchive,
    SearchConfig,
    crowding_distance,
    non_dominated_sort,
    run_search,
)
from .tensor import Tape, Tensor, seeded_fill

__all__ = [
    "__version__",
    "BenchmarkRecord", "CorrelationError", "kendall_tau", "load_records",
    "run_correlation", "spearman_rho",
    "LatencyModelError", "LatencyTable", "LatencyTableError", "estimate",
    "load_table",
    "Genome", "GenomeError", "LayerGraph", "StageGene",
    "compile_genome", "count_macs", "count_params", "crossover",
    "genome_to_json", "init_weights", "layer_macs", "mutate",
    "GradientStats", "ProxyError", "ProxyScore", "ScoreSettings",
    "depth_width_penalty", "gather_gradient_stats", "make_batches",
    "score_genome", "zico_bc_score", "zico_score",
    "GenomeSpace", "Individual", "ParetoArchive", "SearchConfig",
    "crowding_distance", "non_dominated_sort", "run_search",
    "Tape", "Tensor", "seeded_fill",
]
