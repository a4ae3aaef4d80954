"""Training loop, evaluation protocol, and the sweep/replication harnesses.

One training run is fully deterministic: data order, removal chains, and VRR
evaluation all draw from rng streams derived from (seed, stream tag, epoch or
repeat), so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .calibration import (
    REGULARIZER_VARIANTS,
    VrrEvaluation,
    chain_objective,
    chain_presence,
    evaluate_vrr,
    removal_orders,
)
from .data import CorruptionSpec, Dataset, corrupt_gaussian
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyInputError,
    NumericError,
    SpecError,
    SweepError,
    check_section,
)
from .metrics import (
    CSV_SUMMARY_FIELDS,
    MetricsReport,
    ScoredPrediction,
    build_report,
    confidence_by_subset_size,
)
from .model import ClassifierParams, ModelSpec, SubsetMask, derived_spec, forward_masks, init_params
from .numerics import adam_update, init_adam_state, nll_loss

# Stream tags keeping shuffling and removal-order draws independent.
_SHUFFLE_STREAM = 1
_CHAIN_STREAM = 2

# Config key of each TrainConfig field whose name differs from it.
_CONFIG_KEYS = {"lam": "lambda"}


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    epochs: int = 50
    learning_rate: float = 1e-3
    batch_size: int = 32
    lam: float = 0.0
    variant: str = "hinge"
    skip_on_wrong_full: bool = True
    detach_superset: bool = False
    seed: int = 0
    vrr_mode: str = "sampled"
    vrr_repeats: int = 1

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.variant not in REGULARIZER_VARIANTS:
            raise ConfigError(f"unknown regularizer variant {self.variant!r}")
        if self.vrr_mode not in ("sampled", "exhaustive"):
            raise ConfigError(f"unknown vrr_mode {self.vrr_mode!r}")
        if self.vrr_repeats < 1:
            raise ConfigError(f"vrr_repeats must be >= 1, got {self.vrr_repeats}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def _json_fields(cls) -> dict:
        """Config key -> field, for every field but the model spec."""
        return {_CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name != "model"}

    def to_json_dict(self) -> dict:
        """Every training setting under its config key (the model spec excluded)."""
        return {key: getattr(self, f.name) for key, f in self._json_fields().items()}

    @classmethod
    def from_json_dict(cls, obj: dict, model: ModelSpec) -> "TrainConfig":
        """Parse a "train" section; missing keys take their defaults, unknown keys fail."""
        known = cls._json_fields()
        schema = {key: type(f.default) for key, f in known.items()}
        values = check_section("train", obj, schema)
        return cls(model=model, **{known[key].name: value for key, value in values.items()})


@dataclass(frozen=True)
class EpochStats:
    cls_loss: float
    reg_loss: float
    train_accuracy: float


@dataclass
class RunResult:
    params: ClassifierParams
    history: list[EpochStats]
    report: MetricsReport | None = None
    vrr_evaluation: VrrEvaluation | None = None


def _check_dataset(config: TrainConfig, dataset: Dataset) -> None:
    if dataset.modality_dims != config.model.modality_dims:
        raise SpecError(
            f"dataset dims {dataset.modality_dims} != model dims {config.model.modality_dims}"
        )
    if dataset.num_classes != config.model.num_classes:
        raise SpecError(
            f"dataset has {dataset.num_classes} classes, model {config.model.num_classes}"
        )


def train(config: TrainConfig, train_set: Dataset) -> RunResult:
    """Mini-batch Adam over the batched chain objective.

    Each epoch draws one removal order per sample from an rng keyed by
    (seed, epoch) and indexes it by sample id, so a sample's chain does not
    depend on the batch it lands in; one optimizer step is taken per
    mini-batch on the mean of the per-sample gradients.
    """
    config.validate()
    if train_set.num_samples == 0:
        raise EmptyInputError("empty training set")
    _check_dataset(config, train_set)

    params = init_params(config.model, config.seed)
    state = init_adam_state(params.flat.size, learning_rate=config.learning_rate)

    n = train_set.num_samples
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, _SHUFFLE_STREAM, epoch]).permutation(n)
        chains = chain_presence(
            removal_orders(
                np.random.default_rng([config.seed, _CHAIN_STREAM, epoch]),
                n,
                train_set.num_modalities,
            )
        )
        cls_sum = 0.0
        reg_sum = 0.0
        correct = 0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            try:
                result = chain_objective(
                    params,
                    [block[batch] for block in train_set.modalities],
                    train_set.labels[batch],
                    chains[batch],
                    variant=config.variant,
                    lam=config.lam,
                    skip_on_wrong_full=config.skip_on_wrong_full,
                    detach_superset=config.detach_superset,
                )
            except NumericError:
                raise DivergenceError(epoch=epoch, batch=batch_idx, loss=float("nan")) from None
            if not np.isfinite(result.loss):
                raise DivergenceError(epoch=epoch, batch=batch_idx, loss=result.loss)
            cls_sum += result.cls_loss
            reg_sum += result.reg_loss
            correct += int(result.full_correct.sum())
            adam_update(params.flat, result.grads.flat / len(batch), state)
        history.append(
            EpochStats(
                cls_loss=cls_sum / n,
                reg_loss=reg_sum / n,
                train_accuracy=100.0 * correct / n,
            )
        )
    return RunResult(params=params, history=history)


def _full_mask_forward(params: ClassifierParams, dataset: Dataset):
    full = np.ones((1, dataset.num_modalities), dtype=bool)
    return forward_masks(params, dataset.modalities, full)


def score_full_mask(params: ClassifierParams, dataset: Dataset) -> list[ScoredPrediction]:
    """Full-modality predictions scored against the labels."""
    fwd = _full_mask_forward(params, dataset)
    probs = fwd.probs[:, 0]
    return [
        ScoredPrediction(confidence=conf, correct=ok, nll_term=nll)
        for conf, ok, nll in zip(
            fwd.confidence[:, 0].tolist(),
            (fwd.predicted[:, 0] == dataset.labels).tolist(),
            nll_loss(probs, dataset.labels).tolist(),
        )
    ]


def full_mask_accuracy(params: ClassifierParams, dataset: Dataset) -> float:
    correct = int(np.sum(_full_mask_forward(params, dataset).predicted[:, 0] == dataset.labels))
    return 100.0 * correct / dataset.num_samples


def _evaluate(
    params: ClassifierParams, test_set: Dataset, config: TrainConfig
) -> tuple[MetricsReport, VrrEvaluation]:
    if test_set.num_samples == 0:
        raise EmptyInputError("empty test set")
    _check_dataset(config, test_set)
    if derived_spec(params) != config.model:
        raise SpecError("parameter shapes do not match the configured model spec")
    scored = score_full_mask(params, test_set)
    vrr_eval = evaluate_vrr(
        params, test_set, seed=config.seed, mode=config.vrr_mode, repeats=config.vrr_repeats
    )
    report = build_report(scored, vrr_eval.vrr, confidence_by_subset_size(vrr_eval.records))
    return report, vrr_eval


def evaluate(params: ClassifierParams, test_set: Dataset, config: TrainConfig) -> MetricsReport:
    """Full evaluation protocol: full-mask metrics plus VRR and subset confidences."""
    return _evaluate(params, test_set, config)[0]


def run_and_evaluate(
    config: TrainConfig, train_set: Dataset, test_set: Dataset
) -> RunResult:
    result = train(config, train_set)
    result.report, result.vrr_evaluation = _evaluate(result.params, test_set, config)
    return result


@dataclass(frozen=True)
class LambdaSweepRow:
    lam: float
    val_accuracy: float | None
    val_vrr_pct: float | None
    failed: bool = False


@dataclass
class LambdaSweepResult:
    best_lambda: float
    rows: list[LambdaSweepRow]


DEFAULT_LAMBDA_GRID = (1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0)


def _lambda_sweep_cell(
    config: TrainConfig, lam: float, train_set: Dataset, validation_set: Dataset
) -> LambdaSweepRow:
    cfg = replace(config, lam=float(lam))
    try:
        run = train(cfg, train_set)
        report = evaluate(run.params, validation_set, cfg)
    except DivergenceError:
        return LambdaSweepRow(lam=float(lam), val_accuracy=None, val_vrr_pct=None, failed=True)
    return LambdaSweepRow(
        lam=float(lam), val_accuracy=report.accuracy_pct, val_vrr_pct=report.vrr_pct
    )


def lambda_sweep(
    config: TrainConfig,
    grid: Sequence[float],
    train_set: Dataset,
    validation_set: Dataset,
    jobs: int = 1,
) -> LambdaSweepResult:
    """Train once per lambda (shared seed) and pick the best on validation.

    Selection maximizes validation accuracy; ties prefer lower validation VRR,
    then the smaller lambda. Diverged runs are marked failed and excluded.
    Cells are independent; `jobs` > 1 runs them in a process pool with rows
    collected in grid order, so results match the serial run.
    """
    if not grid:
        raise ConfigError("empty lambda grid")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(
                pool.map(
                    _lambda_sweep_cell,
                    [config] * len(grid),
                    grid,
                    [train_set] * len(grid),
                    [validation_set] * len(grid),
                )
            )
    else:
        rows = [_lambda_sweep_cell(config, lam, train_set, validation_set) for lam in grid]
    candidates = [r for r in rows if not r.failed]
    if not candidates:
        raise SweepError("every lambda in the sweep diverged")
    best = min(candidates, key=lambda r: (-r.val_accuracy, r.val_vrr_pct, r.lam))
    return LambdaSweepResult(best_lambda=best.lam, rows=rows)


@dataclass(frozen=True)
class NoiseSweepRow:
    epsilon: float
    targets: SubsetMask
    acc_baseline: float
    acc_cml: float
    delta: float


DEFAULT_NOISE_GRID = (0.1, 0.2, 0.3, 0.5)


def default_target_sets(num_modalities: int) -> list[SubsetMask]:
    """Each single modality, then all modalities at once."""
    targets = [SubsetMask.of([m]) for m in range(num_modalities)]
    targets.append(SubsetMask.full(num_modalities))
    return targets


def noise_sweep(
    params_baseline: ClassifierParams,
    params_cml: ClassifierParams,
    test_set: Dataset,
    epsilons: Sequence[float],
    target_sets: Sequence[SubsetMask],
    seed: int,
) -> list[NoiseSweepRow]:
    """Accuracy of both models on the same corrupted copies of the test set."""
    if params_baseline.spec_signature() != params_cml.spec_signature():
        raise SpecError("models have different parameter shapes")
    if not epsilons or not target_sets:
        raise ConfigError("noise sweep needs at least one epsilon and one target set")
    rows = []
    for e_idx, eps in enumerate(epsilons):
        for t_idx, targets in enumerate(target_sets):
            targets.validate_for(test_set.num_modalities)
            spec = CorruptionSpec(
                target_modalities=targets.present,
                epsilon=float(eps),
                seed=int(np.random.default_rng([seed, e_idx, t_idx]).integers(2**31)),
            )
            corrupted = corrupt_gaussian(test_set, spec)
            acc_a = full_mask_accuracy(params_baseline, corrupted)
            acc_b = full_mask_accuracy(params_cml, corrupted)
            rows.append(
                NoiseSweepRow(
                    epsilon=float(eps),
                    targets=targets,
                    acc_baseline=acc_a,
                    acc_cml=acc_b,
                    delta=acc_b - acc_a,
                )
            )
    return rows


@dataclass
class ReplicateResult:
    means: dict[str, float]
    stds: dict[str, float]
    num_runs: int
    num_failed: int
    per_run: list[dict[str, float]] = field(default_factory=list)


def aggregate_runs(per_run: Sequence[dict[str, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-metric mean and sample standard deviation (n-1 denominator)."""
    if not per_run:
        raise EmptyInputError("no runs to aggregate")
    names = per_run[0].keys()
    means = {name: float(np.mean([r[name] for r in per_run])) for name in names}
    stds = {
        name: float(np.std([r[name] for r in per_run], ddof=1)) if len(per_run) > 1 else 0.0
        for name in names
    }
    return means, stds


def replicate(
    config: TrainConfig,
    train_set: Dataset,
    test_set: Dataset,
    num_seeds: int,
) -> ReplicateResult:
    """Repeat train+evaluate with seeds seed..seed+n-1; mean and sample std."""
    if num_seeds < 2:
        raise ConfigError(f"need at least 2 seeds, got {num_seeds}")
    per_run = []
    failed = 0
    for offset in range(num_seeds):
        cfg = replace(config, seed=config.seed + offset)
        try:
            run = train(cfg, train_set)
            report = evaluate(run.params, test_set, cfg)
        except DivergenceError:
            failed += 1
            continue
        per_run.append({name: getattr(report, name) for name in CSV_SUMMARY_FIELDS})
    if not per_run:
        raise SweepError("every replicate run diverged")
    means, stds = aggregate_runs(per_run)
    return ReplicateResult(
        means=means, stds=stds, num_runs=len(per_run), num_failed=failed, per_run=per_run
    )
