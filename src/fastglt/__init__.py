"""Joint graph/weight lottery-ticket search for two-layer GCNs.

The package finds sparse (subgraph, subnetwork) pairs by one-shot pruning
followed by gradual denoising, verifies them by retraining from the
recorded initialization, and ships the iterative/random/one-shot baselines
plus the measurement tooling used to compare them.
"""

import importlib
import os

# After a BLAS call the idle OpenBLAS worker busy-waits for 2^28 cycles
# (about 128 ms at 2.1 GHz) on a core that the engine's own workers
# (``fastglt.workers``) could use; 2^4 cycles parks it at once. OpenBLAS
# reads the variable when it loads, so it is set before any numerical
# import, and a value the user has set is kept. The BLAS pool keeps its
# size, so no product changes its bits.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# Public names resolve on first access (PEP 562): ``import fastglt.cli``
# must load no numerical library before the CLI exports its thread caps.
_HOME = {name: module for module, names in [
    ("baselines", "run_dense run_imp run_oneshot_only run_random"),
    ("config", "ExperimentConfig"),
    ("data", "Dataset generate_sbm load_bundle save_bundle"),
    ("denoise", "DenoiseSchedule run_fastglt"),
    ("graph", "edge_degree_scores hamming_distance normalize_adjacency"),
    ("masks", "BinaryMasks SoftMasks SparsityPlan intermediate_sparsity "
              "one_shot_threshold sparsity"),
    ("nn", "GcnParams glorot_params"),
] for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


__version__ = "0.1.0"
