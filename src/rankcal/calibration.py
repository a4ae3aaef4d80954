"""Confidence-ranking calibration: removal chains, the batched objective, VRR.

The guiding principle: a classifier's confidence should not increase when a
modality is removed. For nested masks T < S the confidence increment
ci = conf(S) - conf(T) should be non-negative; the fraction of sampled pairs
with ci < 0 is the violating ranking rate (VRR). Training adds a hinge
penalty max(0, conf(T) - conf(S)) over the pairs of a randomly sampled
removal chain, weighted by lambda on top of the classification loss.

chain_objective turns a batch's chains into mask weights and runs
objective_core, the arithmetic of one batch (forward_core, the NLL, the penalty
and backward_masks). trainer.train converts a whole epoch's chains at once and
calls objective_core per batch. Nothing here checks its inputs: they come from a
data.Dataset, which checked them when it was built.

Exhaustive VRR reads everything that depends only on the modality count M
from one cached lattice table per M: the mask weights, the pairs' columns and
bit codes, the mask-size groups and the full-set pair block. A call then runs
forward_core on the table's weights and gathers the pairs' confidences.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import write_text
from .errors import CapabilityError, ConfigError, EmptyInputError, SpecError
from .model import ClassifierParams, backward_masks, forward_core, forward_masks
from .numerics import Array

REGULARIZER_VARIANTS = ("hinge", "difference", "none")

EXHAUSTIVE_MODALITY_LIMIT = 5

# Stream tag separating VRR-evaluation rngs from training rngs.
_VRR_STREAM = 3


def check_exhaustive(num_modalities: int) -> None:
    """Fail unless exhaustive VRR can enumerate the lattice of this many modalities."""
    if num_modalities > EXHAUSTIVE_MODALITY_LIMIT:
        raise CapabilityError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_MODALITY_LIMIT} modalities, "
            f"got {num_modalities}"
        )


def removal_orders(rng: np.random.Generator, num_samples: int, num_modalities: int) -> Array:
    """(N, M) removal orders, one uniform random permutation per sample, from one draw."""
    if num_modalities < 1:
        raise SpecError("need at least one modality")
    return rng.random((num_samples, num_modalities)).argsort(axis=1)


def chain_presence(orders) -> Array:
    """(B, M, M) presence of each sample's removal chain.

    Mask 0 is the full set and mask k+1 drops orders[b, k] from mask k, so the
    chain ends at the single modality orders[b, M-1]; consecutive masks
    (k+1, k) are the chain's (T, S) pairs.
    """
    orders = np.asarray(orders)
    if orders.ndim != 2 or orders.shape[1] < 1:
        raise SpecError(f"removal orders {orders.shape} must be (B, M) with M >= 1")
    num_modalities = orders.shape[1]
    if np.any(np.sort(orders, axis=1) != np.arange(num_modalities)):
        raise SpecError("each removal order must be a permutation of the modalities")
    position = orders.argsort(axis=1)  # the inverse permutation: each modality's removal step
    return position[:, None, :] >= np.arange(num_modalities)[None, :, None]


def pair_losses(variant: str, conf_t: Array, conf_s: Array) -> tuple[Array, Array]:
    """Per-pair penalty and its derivative w.r.t. conf_t (w.r.t. conf_s it is the negative).

    hinge is max(0, conf_t - conf_s), with zero loss and zero gradient at
    equality; difference is conf_t - conf_s regardless of sign; none is zero.
    """
    if variant == "hinge":
        active = conf_t > conf_s
        return np.where(active, conf_t - conf_s, 0.0), active.astype(np.float64)
    if variant == "difference":
        return conf_t - conf_s, np.ones_like(conf_t)
    if variant == "none":
        return np.zeros_like(conf_t), np.zeros_like(conf_t)
    raise ConfigError(f"unknown regularizer variant {variant!r}")


@dataclass(frozen=True, eq=False)
class RankingRecords:
    """Nested (T, S) pairs as columns, one entry per pair, ordered by sample.

    Masks are modality bit codes (bit m set when m is present); ci = conf_s - conf_t.
    """

    sample_id: Array
    t_code: Array
    s_code: Array
    conf_t: Array
    conf_s: Array
    ci: Array

    def __len__(self) -> int:
        return len(self.ci)


@dataclass
class ChainObjective:
    """Batch sums of the composite objective, with the gradient of `loss`."""

    loss: float
    cls_loss: float
    reg_loss: float
    grads: ClassifierParams
    confidence: Array
    full_correct: Array


def chain_objective(
    params: ClassifierParams,
    features: Sequence[Array],
    labels,
    presence,
    variant: str = "hinge",
    lam: float = 0.0,
    skip_on_wrong_full: bool = True,
    detach_superset: bool = False,
    out: ClassifierParams | None = None,
) -> ChainObjective:
    """Composite objective summed over a batch, each sample on its own removal chain.

    `features[m]` is the (B, d_m) float64 block of modality m, `labels` the
    (B,) integer labels, and `presence[b]` sample b's chain of K masks (see
    chain_presence); mask 0 is the full set. Per sample, the classification
    loss averages the NLL over the K masks (1/M factor for a full chain); the
    ranking penalty sums the variant's pair loss over the (mask k+1, mask k)
    pairs and is weighted by `lam`. With `skip_on_wrong_full` the penalty is
    dropped (loss and gradients) for samples whose full-mask prediction is
    wrong. Gradients flow through both pair confidences unless
    `detach_superset` stops the conf(S) side. The gradients overwrite `out`
    when it is given.
    """
    presence = np.asarray(presence, dtype=bool)
    weights = presence / presence.sum(axis=-1, keepdims=True)
    label_col = np.repeat(np.asarray(labels)[:, None], presence.shape[1], axis=1)
    options = (variant, lam, skip_on_wrong_full, detach_superset)
    return objective_core(params, list(features), weights, label_col, *options, out)


def objective_core(
    params, blocks, weights, label_col, variant, lam, skip_on_wrong_full, detach_superset, out
) -> ChainObjective:
    """chain_objective on the (B, K, M) mask `weights` (the presence divided by each mask's size).

    `label_col` is (B, K): each row's label, once per mask.
    """
    fwd = forward_core(params, blocks, weights)
    batch, num_masks, num_classes = fwd.exp.shape
    probs = fwd.probs.reshape(-1, num_classes)
    rows = np.arange(len(probs))
    true_class = (rows, label_col.ravel())
    logit_grads = probs.copy()
    logit_grads[true_class] -= 1.0
    logit_grads /= num_masks

    predicted = probs.argmax(axis=-1)  # the value read at the argmax is exactly the max
    confidence = probs[rows, predicted].reshape(batch, num_masks)
    full_correct = predicted[::num_masks] == label_col[:, 0]
    if variant == "none":
        gate = np.zeros(batch)
    else:
        gate = full_correct.astype(np.float64) if skip_on_wrong_full else np.ones(batch)
    pair_loss, d_conf_t = pair_losses(variant, confidence[:, 1:], confidence[:, :-1])
    reg = pair_loss.sum(axis=1) * gate

    if lam > 0.0 and variant != "none":
        d_conf_t = lam * gate[:, None] * d_conf_t
        d_conf = np.zeros_like(confidence)
        d_conf[:, 1:] += d_conf_t
        if not detach_superset:
            d_conf[:, :-1] -= d_conf_t
        # d max_k p_k / d z = p_c * (onehot_c - p), differentiating through the
        # argmax class fixed by this forward pass.
        d_logits = -probs
        d_logits[rows, predicted] = 1.0 - confidence.ravel()
        logit_grads += (d_conf * confidence).reshape(-1, 1) * d_logits

    cls = -np.log(probs[true_class]).reshape(batch, num_masks).sum(axis=1) / num_masks
    return ChainObjective(
        loss=float((cls + lam * reg).sum()),
        cls_loss=float(cls.sum()),
        reg_loss=float(reg.sum()),
        grads=backward_masks(params, fwd, logit_grads, out),
        confidence=confidence,
        full_correct=full_correct,
    )


def compute_vrr(records: RankingRecords) -> float:
    """Fraction of records whose confidence increment is strictly negative."""
    if not len(records):
        raise EmptyInputError("no ranking records")
    return int(np.count_nonzero(records.ci < 0.0)) / len(records)


@dataclass(frozen=True, eq=False)
class _Lattice:
    """What exhaustive VRR needs from the modality count M alone; every array is read-only.

    Column c of the lattice is the mask with bit code c + 1 (bit m set when m
    is present). The pairs are every (S minus one modality, S) with |S| >= 2,
    largest S first, so the first M pairs are the full-set block: S is the
    full set and pair m removes modality m.
    """

    weights: Array  # (2^M - 1, M): each mask's presence divided by its size
    t_col: Array
    s_col: Array
    t_code: Array  # the pairs' bit codes: their columns plus one
    s_code: Array
    groups: tuple[tuple[int, Array], ...]  # (size, columns) in the order the pairs first name them


@functools.cache
def _lattice(num_modalities: int) -> _Lattice:
    """The lattice table of `num_modalities` modalities, built once per process."""
    codes = np.arange(1, 1 << num_modalities)
    presence = (codes[:, None] & (1 << np.arange(num_modalities))) > 0
    weights = presence / presence.sum(axis=-1, keepdims=True)
    pairs = []
    for size in range(num_modalities, 1, -1):
        for s_indices in itertools.combinations(range(num_modalities), size):
            s_code = sum(1 << m for m in s_indices)
            pairs.extend((s_code ^ (1 << m), s_code) for m in s_indices)
    t_code, s_code = np.array(pairs).T.copy()  # one contiguous row each
    named = dict.fromkeys(itertools.chain(*zip(t_code.tolist(), s_code.tolist())))
    groups = tuple(
        (size, np.array([c - 1 for c in named if c.bit_count() == size]))
        for size in range(1, num_modalities + 1)
    )
    table = _Lattice(weights, t_code - 1, s_code - 1, t_code, s_code, groups)
    for array in (weights, table.t_col, table.s_col, t_code, s_code, *(g for _, g in groups)):
        array.flags.writeable = False
    return table


def _distinct_masks(codes: Array, values: Array) -> Array:
    """Per row, each distinct code once, at its first column with its last column's value.

    `codes` and `values` are (N, R); the result is 1-D, row by row, as a dict keyed by
    (row, code) would hold them.
    """
    same = codes[:, :, None] == codes[:, None, :]
    first = ~(same & np.tri(codes.shape[1], k=-1, dtype=bool)).any(axis=2)
    last = codes.shape[1] - 1 - same[:, :, ::-1].argmax(axis=2)
    return np.take_along_axis(values, last, axis=1)[first]


@dataclass
class VrrEvaluation:
    vrr: float
    records: RankingRecords
    attribution: dict[int, int]
    full_probs: Array
    full_confidence: Array
    mean_confidence_by_subset_size: dict[int, float]


def evaluate_vrr(
    params: ClassifierParams,
    dataset,
    seed: int,
    mode: str = "sampled",
    repeats: int = 1,
) -> VrrEvaluation:
    """Dataset-level VRR.

    Sampled mode gives every sample `repeats` removal chains; repeat r takes
    row i of one removal-order draw keyed by (seed, repeat). Exhaustive mode
    classifies every sample on all 2^M - 1 subsets at once and enumerates
    every single-removal pair (allowed up to 5 modalities), reading the masks
    and pairs from the cached lattice table of M modalities. Records are
    ordered by sample. The attribution counts, among violations where S is
    the full set, how often each removed modality caused the confidence
    increase. `full_probs` comes from the same forward as the records: the
    lattice's full-set column, or the head of repeat 0's chains; it is the
    only mask whose class probabilities are divided out. `full_confidence` is
    its max, read like every other confidence from the softmax sums.

    `mean_confidence_by_subset_size` averages, per mask size, the confidence
    of each distinct (sample, mask) that the records name, sample by sample
    and within a sample in the order the records first name the masks. A
    mask that recurs for a sample (over sampled repeats) keeps its first
    position and its last repeat's confidence.
    """
    if mode not in ("sampled", "exhaustive"):
        raise ConfigError(f"unknown VRR mode {mode!r}")
    if dataset.num_samples == 0:
        raise EmptyInputError("empty dataset")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    num_samples, num_modalities = dataset.num_samples, dataset.num_modalities
    bits = 1 << np.arange(num_modalities)

    # Each mode yields, per sample, K masks with their confidences; the (T, S)
    # pairs as column indices shared by all samples, with their bit codes in
    # record order; and each mask size's columns in the order those pairs first
    # name them.
    if mode == "exhaustive":
        check_exhaustive(num_modalities)
        table = _lattice(num_modalities)
        fwd = forward_core(params, dataset.modalities, table.weights)
        full_col = -1
        conf, full_probs = fwd.confidence, fwd.mask_probs(full_col)
        t_col, s_col, groups = table.t_col, table.s_col, table.groups
        # The table's codes tiled once per sample; a row repeat does np.tile's work in one call.
        t_code = table.t_code[None].repeat(num_samples, axis=0).ravel()
        s_code = table.s_code[None].repeat(num_samples, axis=0).ravel()
    else:
        draws, codes = [], []
        for r in range(repeats):
            rng = np.random.default_rng([seed, _VRR_STREAM, r])
            presence = chain_presence(removal_orders(rng, num_samples, num_modalities))
            draws.append(forward_masks(params, dataset.modalities, presence))
            codes.append(presence @ bits)
        conf = np.concatenate([fwd.confidence for fwd in draws], axis=1)
        code = np.concatenate(codes, axis=1)
        full_col = 0  # repeat 0's chains start at the full set
        full_probs = draws[0].mask_probs(full_col)
        starts = num_modalities * np.arange(repeats)[:, None]
        t_col = (starts + np.arange(1, num_modalities)).ravel()
        s_col = t_col - 1
        # take gathers in C order, so each ravel is a view.
        t_code, s_code = code.take(t_col, axis=1).ravel(), code.take(s_col, axis=1).ravel()
        # Chain position k holds a mask of size M - k, in every repeat.
        groups = [
            (size, np.arange(num_modalities - size, conf.shape[1], num_modalities))
            for size in range(1, num_modalities + 1)
        ]

    conf_t, conf_s = conf.take(t_col, axis=1), conf.take(s_col, axis=1)
    ci = conf_s - conf_t
    records = RankingRecords(
        sample_id=np.arange(num_samples).repeat(len(t_col)),
        t_code=t_code,
        s_code=s_code,
        conf_t=conf_t.ravel(),
        conf_s=conf_s.ravel(),
        ci=ci.ravel(),
    )
    vrr = compute_vrr(records)
    by_size = {}
    for size, columns in groups:
        values = conf.take(columns, axis=1)  # C order: sample by sample, as the records run
        if repeats > 1 and mode == "sampled":
            values = _distinct_masks(code.take(columns, axis=1), values)
        by_size[size] = float(values.sum() / values.size)  # np.mean's sum, without its overhead
    if mode == "exhaustive":
        # Pair m of the lattice's full-set block removes modality m.
        counts = np.count_nonzero(ci[:, :num_modalities] < 0.0, axis=0)
    else:
        full = (1 << num_modalities) - 1
        at_full = np.flatnonzero(code[0, s_col] == full)  # the pairs whose S is the full set
        removed = t_code.reshape(ci.shape)[:, at_full][ci[:, at_full] < 0.0] ^ full
        counts = (removed[:, None] == bits).sum(axis=0)
    attribution = dict(enumerate(counts.tolist()))
    full_conf = conf.take(full_col, axis=1)
    return VrrEvaluation(vrr, records, attribution, full_probs, full_conf, by_size)


def write_records_csv(path, records: RankingRecords) -> None:
    """CSV dump: sample_id,t_mask,s_mask,conf_t,conf_s,ci with 9-digit floats."""
    # The name of every bit code up to the largest, as SubsetMask.format writes it (5 -> "0+2").
    bits = range(int(records.s_code.max(initial=0)).bit_length())
    names = np.array(["+".join(str(m) for m in bits if c >> m & 1) for c in range(1 << len(bits))])
    columns = (records.sample_id, names[records.t_code], names[records.s_code])
    columns += (records.conf_t, records.conf_s, records.ci)
    # One %-format over the row-major values and one write; '%.9g' % x is '{:.9g}'.format(x).
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = "%s,%s,%s,%.9g,%.9g,%.9g\n" * len(records.sample_id) % values
    write_text(path, "sample_id,t_mask,s_mask,conf_t,conf_s,ci\n" + rows)
