"""Training loop, evaluation protocol, and the sweep/replication harnesses.

One training run is fully deterministic: data order, removal chains, and VRR
evaluation all draw from rng streams derived from (seed, stream tag, epoch or
repeat), so reruns are bit-identical.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .calibration import (
    REGULARIZER_VARIANTS,
    VrrEvaluation,
    chain_presence,
    check_exhaustive,
    evaluate_vrr,
    objective_core,
    removal_orders,
)
from .data import CorruptionSpec, Dataset, corrupt_block
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyInputError,
    NumericError,
    SpecError,
    SweepError,
    check_section,
)
from .metrics import CSV_SUMMARY_FIELDS, MetricsReport, build_report
from .model import ClassifierParams, ModelSpec, SubsetMask, classify_core
from .model import encode_copies, encode_core, init_params
from .numerics import adam_update, init_adam_state, nll_loss

# Stream tags keeping shuffling and removal-order draws independent.
_SHUFFLE_STREAM = 1
_CHAIN_STREAM = 2

# Config key of each TrainConfig field whose name differs from it.
_CONFIG_KEYS = {"lam": "lambda"}

# Test-set rows that one stacked noise-sweep call encodes and classifies at most,
# counted in whole cells (a larger cell runs alone): the sweep's working set is
# that of a full-mask forward of this many rows, or of one cell when it is larger.
NOISE_SWEEP_ROWS = 1 << 10

# Floating-point errors that raise, not warn, in training, evaluation and the noise sweep.
_RAISE_FP = {"over": "raise", "divide": "raise", "invalid": "raise"}


@contextlib.contextmanager
def _fp_errors(what: str):
    """Run the block (or, as a decorator, each call) under _RAISE_FP.

    A floating-point error becomes a NumericError saying that `what` failed, and why.
    """
    with np.errstate(**_RAISE_FP):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericError(f"{what} failed: floating-point {exc}") from None


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
        if self.vrr_mode == "exhaustive":
            check_exhaustive(self.model.num_modalities)
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


def _check_dataset(model: ModelSpec, dataset: Dataset) -> None:
    """Fail unless `dataset` has `model`'s modality dims and class count."""
    if dataset.modality_dims != model.modality_dims:
        raise SpecError(f"dataset dims {dataset.modality_dims} != model dims {model.modality_dims}")
    if dataset.num_classes != model.num_classes:
        raise SpecError(f"dataset has {dataset.num_classes} classes, model {model.num_classes}")


def train(config: TrainConfig, train_set: Dataset) -> RunResult:
    """Mini-batch Adam over the batched chain objective.

    Each epoch draws one removal order per sample from an rng keyed by
    (seed, epoch) and indexes it by sample id, so a sample's chain does not
    depend on the batch it lands in; one optimizer step is taken per
    mini-batch on the mean of the per-sample gradients. The chains become mask
    weights once per epoch; each batch then runs only objective_core.
    A non-finite loss or logit, or a floating-point overflow, division by zero
    or invalid operation stops the run with a DivergenceError naming the epoch
    and batch.
    """
    config.validate()
    if train_set.num_samples == 0:
        raise EmptyInputError("empty training set")
    _check_dataset(config.model, train_set)

    params = init_params(config.model, config.seed)
    num_modalities = train_set.num_modalities
    grads = ClassifierParams(params.spec)
    state = init_adam_state(params.flat.size, learning_rate=config.learning_rate)
    options = (config.variant, config.lam, config.skip_on_wrong_full, config.detach_superset)

    n = train_set.num_samples
    history: list[EpochStats] = []
    # Set once per run: an overflow, division by zero or invalid operation raises, not warns.
    with np.errstate(**_RAISE_FP):
        for epoch in range(config.epochs):
            # The epoch's sample order is gathered once, so every batch is a contiguous slice.
            order = np.random.default_rng([config.seed, _SHUFFLE_STREAM, epoch]).permutation(n)
            chain_rng = np.random.default_rng([config.seed, _CHAIN_STREAM, epoch])
            chains = chain_presence(removal_orders(chain_rng, n, num_modalities))[order]
            weights = chains / chains.sum(axis=-1, keepdims=True)
            features = [block[order] for block in train_set.modalities]
            label_col = np.repeat(train_set.labels[order, None], num_modalities, axis=1)
            cls_sum = 0.0
            reg_sum = 0.0
            correct = 0
            for batch_idx, start in enumerate(range(0, n, config.batch_size)):
                batch = slice(start, start + config.batch_size)
                try:
                    result = objective_core(
                        params,
                        [block[batch] for block in features],
                        weights[batch],
                        label_col[batch],
                        *options,
                        grads,
                    )
                    if not math.isfinite(result.loss):
                        raise DivergenceError(epoch=epoch, batch=batch_idx, loss=result.loss)
                    grads.flat /= len(result.full_correct)
                    adam_update(params.flat, grads.flat, state)
                except NumericError:
                    raise DivergenceError(epoch=epoch, batch=batch_idx, loss=float("nan")) from None
                except FloatingPointError as exc:
                    reason = f"floating-point {exc}"
                    raise DivergenceError(epoch, batch_idx, float("nan"), reason) from None
                cls_sum += result.cls_loss
                reg_sum += result.reg_loss
                correct += np.count_nonzero(result.full_correct)
            history.append(
                EpochStats(
                    cls_loss=cls_sum / n,
                    reg_loss=reg_sum / n,
                    train_accuracy=100.0 * correct / n,
                )
            )
    return RunResult(params=params, history=history)


@_fp_errors("evaluation")
def _evaluate(
    params: ClassifierParams, test_set: Dataset, config: TrainConfig
) -> tuple[MetricsReport, VrrEvaluation]:
    if test_set.num_samples == 0:
        raise EmptyInputError("empty test set")
    _check_dataset(config.model, test_set)
    if params.spec != config.model:
        raise SpecError("parameter shapes do not match the configured model spec")
    # The full-mask metrics read the probabilities of the VRR forward: one forward per evaluation.
    vrr_eval = evaluate_vrr(
        params, test_set, seed=config.seed, mode=config.vrr_mode, repeats=config.vrr_repeats
    )
    probs, labels = vrr_eval.full_probs, test_set.labels
    confidence, correct = vrr_eval.full_confidence, probs.argmax(axis=-1) == labels
    by_size = vrr_eval.mean_confidence_by_subset_size
    report = build_report(confidence, correct, nll_loss(probs, labels), vrr_eval.vrr, by_size)
    return report, vrr_eval


def evaluate(params: ClassifierParams, test_set: Dataset, config: TrainConfig) -> MetricsReport:
    """Full evaluation protocol: full-mask metrics plus VRR and subset confidences.

    A floating-point overflow, division by zero or invalid operation (a true
    class whose probability underflows to zero, say) raises a NumericError
    saying that evaluation failed, and why.
    """
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
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
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


@_fp_errors("noise sweep")
def noise_sweep(
    params_baseline: ClassifierParams,
    params_cml: ClassifierParams,
    test_set: Dataset,
    epsilons: Sequence[float],
    target_sets: Sequence[SubsetMask],
    seed: int,
) -> list[NoiseSweepRow]:
    """Accuracy of both models on the same corrupted copies of the test set.

    Cell (epsilon, target set) draws its copy from data.corrupt_block's streams,
    keyed by (seed, epsilon index, target index). The cells run in chunks of
    at most NOISE_SWEEP_ROWS test rows (at least one cell): each model encodes
    the clean blocks once per sweep and each modality's corrupted copies in
    one stacked call per chunk, then classifies every cell of the chunk in one
    call. Each cell's arithmetic is that of a full-mask forward_masks on its
    copy, so every accuracy is bit for bit the per-cell one. A floating-point
    overflow, division by zero or invalid operation raises a NumericError.
    """
    if params_baseline.spec != params_cml.spec:
        raise SpecError("models have different parameter shapes")
    if test_set.num_samples == 0:
        raise EmptyInputError("empty test set")
    _check_dataset(params_baseline.spec, test_set)
    if not epsilons or not target_sets:
        raise ConfigError("noise sweep needs at least one epsilon and one target set")
    cells = []
    for e_idx, eps in enumerate(epsilons):
        for t_idx, targets in enumerate(target_sets):
            targets.validate_for(test_set.num_modalities)
            cell_seed = int(np.random.default_rng([seed, e_idx, t_idx]).integers(2**31))
            cells.append((targets, CorruptionSpec(targets.present, float(eps), cell_seed)))
    blocks = test_set.modalities
    weights = np.ones((1, len(blocks))) / len(blocks)  # the full mask's weights
    models = (params_baseline, params_cml)
    clean = [encode_core(params, blocks)[1] for params in models]
    step = max(1, NOISE_SWEEP_ROWS // test_set.num_samples)
    correct: tuple[list[int], list[int]] = ([], [])
    for start in range(0, len(cells), step):
        specs = [spec for _, spec in cells[start : start + step]]
        # Per corrupted modality: the chunk's cells that corrupt it, and their stacked copies.
        copies = []
        for m, block in enumerate(blocks):
            idx = [c for c, spec in enumerate(specs) if m in spec.noisy_modalities()]
            if idx:
                copies.append((m, idx, np.stack([corrupt_block(block, specs[c], m) for c in idx])))
        for params, latents, counts in zip(models, clean, correct):
            counts += _chunk_correct(params, weights, latents, copies, len(specs), test_set.labels)
    rows = []
    for (targets, spec), count_a, count_b in zip(cells, *correct):
        acc_a = 100.0 * count_a / test_set.num_samples
        acc_b = 100.0 * count_b / test_set.num_samples
        rows.append(NoiseSweepRow(spec.epsilon, targets, acc_a, acc_b, acc_b - acc_a))
    return rows


def _chunk_correct(params, weights, clean_latents, copies, num_cells: int, labels) -> list[int]:
    """The number of correct full-mask predictions in each of a chunk's cells.

    A cell's latents are the clean (M, N, L) ones with the slots of its
    corrupted modalities replaced; `copies` holds (modality, the chunk cells
    that corrupt it, their stacked copies) per corrupted modality.
    """
    latents = np.repeat(clean_latents[None], num_cells, axis=0)
    for m, idx, stack in copies:
        latents[idx, m] = encode_copies(params, m, stack)
    _, exp, sums = classify_core(params, weights, latents)
    predicted = (exp / sums[..., None]).argmax(axis=-1)[..., 0]
    return (predicted == labels).sum(axis=1).tolist()


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
