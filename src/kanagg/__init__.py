"""Kolmogorov-Arnold networks with pluggable node aggregation.

Edge activations are trainable B-splines plus a silu residual; each node
reduces its incoming edge values with one of nine aggregation functions
(sum, mean, std, var, median, norm, min, max, multiply). The package also
ships the training stack (reverse-mode gradients, Adam), a tabular
preprocessing pipeline, rank/Wilcoxon statistics, and an experiment harness
comparing the standard summation network against layer-normalized and
mean-aggregated variants.
"""

__version__ = "0.1.0"

from .aggregators import Aggregator
from .splines import KnotGrid, make_grid
from .network import (ConfigError, ForwardTrace, Network, build_network,
                      forward, mean_to_scaled_sum)
from .training import (AdamState, TrainConfig, TrainResult, TrainingDiverged,
                       adam_init, adam_step, backward, evaluate,
                       softmax_cross_entropy, squared_error_on_index, train)
from .data import (Dataset, DatasetManifest, IngestionError, PreprocessError,
                   load_manifest, load_table, preprocess, synthetic_dataset)
from .stats import (WilcoxonResult, average_rank, rank_with_ties,
                    wilcoxon_signed_rank)
from .harness import ExperimentConfig, derive_seed, run_experiment, write_report

__all__ = [
    "Aggregator", "KnotGrid", "make_grid",
    "ConfigError", "ForwardTrace", "Network", "build_network", "forward",
    "mean_to_scaled_sum",
    "AdamState", "TrainConfig", "TrainResult", "TrainingDiverged",
    "adam_init", "adam_step", "backward", "evaluate",
    "softmax_cross_entropy", "squared_error_on_index", "train",
    "Dataset", "DatasetManifest", "IngestionError", "PreprocessError",
    "load_manifest", "load_table", "preprocess", "synthetic_dataset",
    "WilcoxonResult", "average_rank", "rank_with_ties",
    "wilcoxon_signed_rank",
    "ExperimentConfig", "derive_seed", "run_experiment", "write_report",
]
