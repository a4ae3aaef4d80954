"""Training loop, evaluation protocol, and the lambda and noise sweeps.

One training run is fully deterministic: data order, removal chains, and VRR
evaluation all draw from rng streams derived from (seed, stream tag, epoch),
so reruns are bit-identical. A run is train, which returns the parameters and
the per-epoch history, then evaluate_with_vrr on the test set, which returns
the report and the VrrEvaluation whose records the CLI writes; evaluate
returns the report alone.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .calibration import (
    REGULARIZER_VARIANTS,
    VRR_MODES,
    VrrEvaluation,
    chain_weights,
    check_exhaustive,
    evaluate_vrr,
    label_onehot,
    objective_core,
    removal_orders,
)
from .data import Dataset, corrupt_block
from .errors import AT_LEAST_1, FINITE_NON_NEGATIVE, FINITE_POSITIVE, NON_EMPTY, NON_NEGATIVE
from .errors import DivergenceError, EmptyInputError, Key, NumericError, SpecError
from .errors import Bound, SweepError, check_section, one_of, read_section
from .metrics import MetricsReport, build_report
from .model import ClassifierParams, ModelSpec, forward_core, init_params, mask_weights
from .numerics import adam_update, init_adam_state, nll_loss

# Stream tags keeping shuffling, removal-order and noise-sweep draws independent.
_SHUFFLE_STREAM = 1
_CHAIN_STREAM = 2
_NOISE_STREAM = 4

# Every "train" key: each TrainConfig field but the model spec, under its config key.
TRAIN_SCHEMA = {
    "epochs": Key(int, AT_LEAST_1),
    "learning_rate": Key(float, FINITE_POSITIVE),
    "batch_size": Key(int, AT_LEAST_1),
    "lambda": Key(float, FINITE_NON_NEGATIVE),
    "variant": Key(str, one_of(*REGULARIZER_VARIANTS)),
    "skip_on_wrong_full": Key(bool),
    "seed": Key(int, NON_NEGATIVE),
    "vrr_mode": Key(str, VRR_MODES),
}
# TrainConfig field of each config key whose name differs from it.
_FIELDS = {"lambda": "lam"}

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
    seed: int = 0
    vrr_mode: str = "sampled"

    def __post_init__(self):
        """Fail on a setting of the wrong kind or out of bounds, or on settings that clash.

        Each setting is checked as its TRAIN_SCHEMA key; numpy values become Python ones.
        """
        values = check_section("train", self.to_json_dict(), TRAIN_SCHEMA)
        vars(self).update({_FIELDS.get(key, key): value for key, value in values.items()})
        if self.vrr_mode == "exhaustive":
            check_exhaustive(self.model.num_modalities)

    def to_json_dict(self) -> dict:
        """Every training setting under its config key (the model spec excluded)."""
        return {key: getattr(self, _FIELDS.get(key, key)) for key in TRAIN_SCHEMA}

    @classmethod
    def from_json_dict(cls, obj: dict, model: ModelSpec) -> "TrainConfig":
        """Parse a "train" section; missing keys take their defaults, unknown keys fail."""
        values = read_section("train", obj, TRAIN_SCHEMA)
        return cls(model=model, **{_FIELDS.get(key, key): value for key, value in values.items()})


@dataclass(frozen=True)
class EpochStats:
    cls_loss: float
    reg_loss: float
    train_accuracy: float


@dataclass
class RunResult:
    params: ClassifierParams
    history: list[EpochStats]


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
    mini-batch on the mean of the per-sample gradients. The mask weights
    (chain_weights) and the label one-hot are built once per epoch; each batch
    then runs only objective_core on their slices.
    A non-finite loss or logit, or a floating-point overflow, division by zero
    or invalid operation stops the run with a DivergenceError naming the epoch
    and batch.
    """
    if train_set.num_samples == 0:
        raise EmptyInputError("empty training set")
    _check_dataset(config.model, train_set)

    params = init_params(config.model, config.seed)
    num_modalities = train_set.num_modalities
    grads = ClassifierParams(params.spec)
    state = init_adam_state(params.flat.size, learning_rate=config.learning_rate)
    options = (config.variant, config.lam, config.skip_on_wrong_full)

    n = train_set.num_samples
    history: list[EpochStats] = []
    # Set once per run: an overflow, division by zero or invalid operation raises, not warns.
    with np.errstate(**_RAISE_FP):
        for epoch in range(config.epochs):
            # The epoch's sample order is gathered once, so every batch is a contiguous slice.
            order = np.random.default_rng([config.seed, _SHUFFLE_STREAM, epoch]).permutation(n)
            chain_rng = np.random.default_rng([config.seed, _CHAIN_STREAM, epoch])
            weights = chain_weights(removal_orders(chain_rng, n, num_modalities)[order])
            features = [block[order] for block in train_set.modalities]
            labels = train_set.labels[order]
            onehot = label_onehot(labels, config.model.num_classes, num_modalities)
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
                        labels[batch],
                        onehot[:, start * num_modalities : batch.stop * num_modalities],
                        *options,
                        grads,
                    )
                    if not math.isfinite(result.loss):
                        raise DivergenceError(epoch=epoch, batch=batch_idx, loss=result.loss)
                    grads.flat /= len(result.full_correct)
                    adam_update(params.flat, grads.flat, state)
                except NumericError as exc:
                    raise DivergenceError(epoch, batch_idx, float("nan"), str(exc)) from None
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
def evaluate_with_vrr(
    params: ClassifierParams, test_set: Dataset, config: TrainConfig
) -> tuple[MetricsReport, VrrEvaluation]:
    """evaluate's report with the VrrEvaluation whose forward it read."""
    if test_set.num_samples == 0:
        raise EmptyInputError("empty test set")
    _check_dataset(config.model, test_set)
    if params.spec != config.model:
        raise SpecError("parameter shapes do not match the configured model spec")
    # The full-mask metrics read the probabilities of the VRR forward: one forward per evaluation.
    vrr_eval = evaluate_vrr(params, test_set, seed=config.seed, mode=config.vrr_mode)
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
    return evaluate_with_vrr(params, test_set, config)[0]


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
    except (DivergenceError, NumericError):
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
    then the smaller lambda. A run that diverges, or whose validation fails
    with a NumericError, is marked failed and excluded. Cells are independent;
    `jobs` > 1 runs them in a pool of at most one process per cell, with rows
    collected in grid order, so results match the serial run.
    """
    NON_EMPTY.check("", "grid", grid)
    AT_LEAST_1.check("", "jobs", jobs)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks all max_workers processes at its first submit: no more than the cells.
        with ProcessPoolExecutor(max_workers=min(jobs, len(grid))) as pool:
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
    targets: int  # the target set's bit code (model.mask_names names it)
    acc_baseline: float
    acc_cml: float
    delta: float


DEFAULT_NOISE_GRID = (0.1, 0.2, 0.3, 0.5)


# A list of target sets, each a non-empty list of modality indices: the sweep table's key.
_TARGET_SET = Bound("a non-empty list of modality indices >= 0", lambda v: min(v, default=-1) >= 0)
TARGET_SETS = Key(list[list[int]], _TARGET_SET, NON_EMPTY)


def default_target_sets(num_modalities: int) -> list[list[int]]:
    """Each single modality, then all modalities at once."""
    return [[m] for m in range(num_modalities)] + [list(range(num_modalities))]


def target_codes(target_sets, num_modalities: int, section: str = "") -> list[int]:
    """The bit code of each target set, a list of modality indices (duplicates are one).

    The sets are checked first as <section>.target_sets against TARGET_SETS,
    then each against `num_modalities`, so no code is computed out of range.
    """
    sets = check_section(section, {"target_sets": target_sets}, {"target_sets": TARGET_SETS})
    below = Bound(f"modality indices below {num_modalities}", lambda v: max(v) < num_modalities)
    for i, targets in enumerate(sets["target_sets"]):
        below.check(section, f"target_sets[{i}]", targets)
    return [sum(1 << m for m in set(targets)) for targets in sets["target_sets"]]


@_fp_errors("noise sweep")
def noise_sweep(
    params_baseline: ClassifierParams,
    params_cml: ClassifierParams,
    test_set: Dataset,
    epsilons: Sequence[float],
    target_sets: Sequence[Sequence[int]],
    seed: int,
) -> list[NoiseSweepRow]:
    """Accuracy of both models on the same corrupted copies of the test set.

    Each epsilon must be a finite value >= 0, and each target set a list of
    modality indices (target_codes), both checked before any noise is drawn.
    Cell (epsilon, target set) draws its copy from data.corrupt_block's streams,
    keyed by (seed, epsilon index, target index). Each cell runs one full-mask
    forward_core per model on its copy and counts the rows whose most probable
    class is their label. A floating-point overflow, division by zero or
    invalid operation raises a NumericError.
    """
    if params_baseline.spec != params_cml.spec:
        raise SpecError("models have different parameter shapes")
    if test_set.num_samples == 0:
        raise EmptyInputError("empty test set")
    _check_dataset(params_baseline.spec, test_set)
    NON_EMPTY.check("", "epsilons", epsilons)
    codes = target_codes(target_sets, test_set.num_modalities)
    cells = []  # (target code, epsilon, seed, the modalities that get noise) per cell
    for e_idx, eps in enumerate(map(float, epsilons)):
        FINITE_NON_NEGATIVE.check("", f"epsilons[{e_idx}]", eps)
        for t_idx, code in enumerate(codes):
            # A spawn key, not [seed, 4, e, t]: SeedSequence drops trailing zeros up to
            # its 4-word pool, so cell (0, 0) would be data.split's class-4 stream [seed, 4].
            stream = np.random.SeedSequence(seed, spawn_key=(_NOISE_STREAM, e_idx, t_idx))
            cell_seed = int(np.random.default_rng(stream).integers(2**31))
            noisy = [m for m in range(len(test_set.modalities)) if eps > 0.0 and code >> m & 1]
            cells.append((code, eps, cell_seed, noisy))
    blocks = test_set.modalities
    weights = mask_weights(np.ones((1, len(blocks)), dtype=bool))  # the full mask's weights
    rows = []
    for code, eps, cell_seed, noisy in cells:
        copy = list(blocks)
        for m in noisy:
            copy[m] = corrupt_block(blocks[m], eps, cell_seed, m)
        correct = []
        for params in (params_baseline, params_cml):
            # The divided-out probabilities, not exp: division can round two classes to one value.
            predicted = forward_core(params, copy, weights).mask_probs(0).argmax(axis=-1)
            correct.append(np.count_nonzero(predicted == test_set.labels))
        acc_a, acc_b = (100.0 * count / test_set.num_samples for count in correct)
        rows.append(NoiseSweepRow(eps, code, acc_a, acc_b, acc_b - acc_a))
    return rows
