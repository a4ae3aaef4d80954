"""Confidence-ranking calibration toolkit for small multimodal classifiers."""

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
