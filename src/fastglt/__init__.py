"""Joint graph/weight lottery-ticket search for two-layer GCNs.

The package finds sparse (subgraph, subnetwork) pairs by one-shot pruning
followed by gradual denoising, verifies them by retraining from the
recorded initialization, and ships the iterative/random/one-shot baselines
plus the measurement tooling used to compare them.
"""

from . import workers

# The BLAS and OpenMP pools read their thread variables when numpy loads,
# so they are set before the numerical imports below.
workers.export_thread_env()

from .baselines import run_dense, run_imp, run_oneshot_only, run_random
from .config import ExperimentConfig
from .data import Dataset, generate_sbm, load_bundle, save_bundle
from .denoise import DenoiseSchedule, run_fastglt
from .graph import (edge_degree_scores, hamming_distance,
                    normalize_adjacency)
from .masks import (BinaryMasks, SoftMasks, SparsityPlan,
                    intermediate_sparsity, one_shot_threshold, sparsity)
from .nn import GcnParams, glorot_params

__all__ = [
    "BinaryMasks", "Dataset", "DenoiseSchedule", "ExperimentConfig",
    "GcnParams", "SoftMasks", "SparsityPlan", "edge_degree_scores",
    "generate_sbm", "glorot_params", "hamming_distance",
    "intermediate_sparsity", "load_bundle", "normalize_adjacency",
    "one_shot_threshold", "run_dense", "run_fastglt", "run_imp",
    "run_oneshot_only", "run_random", "save_bundle", "sparsity",
]

__version__ = "0.1.0"
