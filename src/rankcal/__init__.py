"""Confidence-ranking calibration toolkit for small multimodal classifiers."""

import ctypes

from .calibration import (
    RankingRecords,
    chain_objective,
    compute_vrr,
    confidence_increment,
    evaluate_vrr,
)
from .data import (
    CorruptionSpec,
    Dataset,
    SyntheticSpec,
    corrupt_gaussian,
    generate_synthetic,
    load_csv_dataset,
    split,
    write_csv_dataset,
)
from .metrics import MetricsReport, accuracy, aurc, build_report, e_aurc, mean_nll
from .model import (
    ClassifierParams,
    ModelSpec,
    SubsetMask,
    forward_masks,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import (
    TrainConfig,
    evaluate,
    lambda_sweep,
    noise_sweep,
    replicate,
    train,
)

# glibc adapts its heap-trim threshold to the blocks freed so far, so whether a
# call handed its temporaries back to the OS and faulted them in again depended on
# the heap layout a process had reached: a third of an exhaustive evaluate's time.
# Fixed thresholds make every call reuse the same pages (README, "Library use").
try:
    _mallopt = ctypes.CDLL(None).mallopt  # glibc; other C libraries keep their own
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"

__all__ = [
    "ClassifierParams",
    "CorruptionSpec",
    "Dataset",
    "MetricsReport",
    "ModelSpec",
    "RankingRecords",
    "SubsetMask",
    "SyntheticSpec",
    "TrainConfig",
    "accuracy",
    "aurc",
    "build_report",
    "chain_objective",
    "compute_vrr",
    "confidence_increment",
    "corrupt_gaussian",
    "e_aurc",
    "evaluate",
    "evaluate_vrr",
    "forward_masks",
    "generate_synthetic",
    "init_params",
    "lambda_sweep",
    "load_checkpoint",
    "load_csv_dataset",
    "mean_nll",
    "noise_sweep",
    "replicate",
    "save_checkpoint",
    "split",
    "train",
    "write_csv_dataset",
]
