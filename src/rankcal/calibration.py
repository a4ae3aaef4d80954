"""Confidence-ranking calibration: removal chains, the batched objective, VRR.

The guiding principle: a classifier's confidence should not increase when a
modality is removed. For nested masks T < S the confidence increment
ci = conf(S) - conf(T) should be non-negative; the fraction of sampled pairs
with ci < 0 is the violating ranking rate (VRR). Training adds a hinge
penalty max(0, conf(T) - conf(S)) over the pairs of a randomly sampled
removal chain, weighted by lambda on top of the classification loss.

objective_core is the arithmetic of one batch (forward_core, the NLL, the
penalty and backward_masks) on model.MaskedForward's class-major softmax.
trainer.train takes a whole epoch's mask weights from its removal orders at
once (chain_weights), with their label_onehot, and calls objective_core per
batch on their slices. Nothing here checks its inputs: they come from a
data.Dataset, which checked them when it was built.

Exhaustive VRR reads everything that depends only on the modality count M
from one cached lattice table per M: the mask weights, the pairs' columns and
bit codes, the mask-size groups and the full-set pair block. A call then runs
forward_core on the table's weights and gathers the pairs' confidences.
Records carry their masks as bit codes; write_records_csv names them with
model.mask_names, which formats each distinct code once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .data import write_text
from .errors import CapabilityError, ConfigError, EmptyInputError, SpecError, one_of
from .model import ClassifierParams, backward_masks, forward_core, mask_names, mask_weights
from .numerics import Array

REGULARIZER_VARIANTS = ("hinge", "difference", "none")
VRR_MODES = one_of("sampled", "exhaustive")

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
    """(N, M) removal orders, one uniform random permutation per sample, from one draw.

    The sort is stable, so tied draws keep index order.
    """
    if num_modalities < 1:
        raise SpecError("need at least one modality")
    return rng.random((num_samples, num_modalities)).argsort(axis=1, kind="stable")


def chain_weights(orders: Array) -> Array:
    """(B, M, M) mask weights of each sample's removal chain, from (B, M) removal orders.

    Mask 0 is the full set and mask k+1 drops orders[b, k] from mask k, so the
    chain ends at the single modality orders[b, M-1]; consecutive masks
    (k+1, k) are the chain's (T, S) pairs. Mask k holds M - k modalities, so its
    weights are its presence divided by M - k: model.mask_weights of that
    presence, bit for bit. Each order must be a permutation, as removal_orders
    draws them; nothing checks it.
    """
    num_modalities = orders.shape[1]
    steps = np.arange(num_modalities)
    position = orders.argsort(axis=1, kind="stable")  # each modality's removal step (the inverse)
    return (position[:, None, :] >= steps[:, None]) / (num_modalities - steps)[:, None]


def pair_losses(variant: str, conf_t: Array, conf_s: Array) -> tuple[Array, Array]:
    """Per-pair penalty and its derivative w.r.t. conf_t (w.r.t. conf_s it is the negative).

    hinge is max(0, conf_t - conf_s), with zero loss and zero gradient at
    equality; difference is conf_t - conf_s regardless of sign; none is zero.
    """
    if variant == "hinge":
        diff = conf_t - conf_s
        return np.maximum(diff, 0.0), diff > 0.0  # the derivative as bools: 1 where active
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


def label_onehot(labels: Array, num_classes: int, num_masks: int) -> Array:
    """(C, B*K) float64 one-hot of (B,) labels for K masks each, in MaskedForward.exp's layout."""
    return (labels.repeat(num_masks) == np.arange(num_classes)[:, None]).astype(np.float64)


def objective_core(
    params,
    blocks,
    weights,
    labels,
    onehot,
    variant,
    lam,
    skip_on_wrong_full,
    out,
) -> ChainObjective:
    """Composite objective summed over a batch, each sample on its own chain of K masks.

    `blocks[m]` is the (B, d_m) float64 block of modality m and `weights` the
    (B, K, M) mask weights of each sample's chain (chain_weights, or its first
    K masks); mask 0 is the full set. `labels` is the batch's (B,) labels and
    `onehot` their label_onehot for K masks, or a column slice of one. Per
    sample, the classification loss averages the NLL over the K masks; the
    ranking penalty sums the variant's pair loss over the (mask k+1, mask k)
    pairs and is weighted by `lam`. With `skip_on_wrong_full` the penalty is
    dropped (loss and gradients) for samples whose full-mask prediction is
    wrong. Gradients flow through both pair confidences. They overwrite the
    ClassifierParams `out`, returned as `grads`.
    """
    fwd = forward_core(params, blocks, weights)
    batch, num_masks = fwd.sums.shape
    # (C, B*K) class probabilities, class-major like the one-hot.
    probs = fwd.exp / fwd.sums.reshape(-1)
    logit_grads = probs - onehot
    logit_grads /= num_masks

    predicted = probs.argmax(axis=0)
    # Bit for bit the probability at `predicted` (MaskedForward.confidence).
    confidence = 1.0 / fwd.sums
    full_correct = predicted[::num_masks] == labels
    # The true class's probability: probs * onehot summed over the classes, whose zeros add +0.0.
    true_prob = probs.reshape(-1, batch, num_masks)[labels, np.arange(batch)]
    gate = full_correct.astype(np.float64) if skip_on_wrong_full else np.ones(batch)
    pair_loss, d_conf_t = pair_losses(variant, confidence[:, 1:], confidence[:, :-1])
    reg = np.add.reduce(pair_loss, axis=1) * gate  # ndarray.sum without its Python wrapper

    if lam > 0.0 and variant != "none":
        # Column k + 1 of the zero-padded buffer holds pair k's weighted derivative,
        # which mask k + 1 (T) gains and mask k (S) loses.
        padded = np.zeros((batch, num_masks + 1))
        np.multiply(lam * gate[:, None], d_conf_t, out=padded[:, 1:-1])
        d_conf = padded[:, :-1] - padded[:, 1:]
        # d max_k p_k / d z = p_c * (onehot_c - p), differentiating through the
        # argmax class fixed by this forward pass; the probabilities are read no more.
        d_logits = np.negative(probs, out=probs)
        d_logits[predicted, np.arange(batch * num_masks)] = 1.0 - confidence.ravel()
        d_logits *= (d_conf * confidence).ravel()
        logit_grads += d_logits

    # The NLL's negation folds into the mean's divide, bit for bit.
    cls = np.add.reduce(np.log(true_prob, out=true_prob), axis=1) / -num_masks
    return ChainObjective(
        loss=float(np.add.reduce(cls + lam * reg)),
        cls_loss=float(np.add.reduce(cls)),
        reg_loss=float(np.add.reduce(reg)),
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
    weights = mask_weights(presence)
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


@dataclass
class VrrEvaluation:
    vrr: float
    records: RankingRecords
    attribution: dict[int, int]
    full_probs: Array
    full_confidence: Array
    mean_confidence_by_subset_size: dict[int, float]


def evaluate_vrr(
    params: ClassifierParams, dataset, seed: int, mode: str = "sampled"
) -> VrrEvaluation:
    """Dataset-level VRR.

    Sampled mode classifies each sample on one removal chain, row i of one
    removal-order draw from `seed`'s VRR stream. Exhaustive mode classifies
    every sample on all 2^M - 1 subsets and enumerates every single-removal
    pair (up to 5 modalities), reading masks and pairs from the cached lattice
    table of M modalities. Either mode runs one forward. Records are ordered by
    sample. The attribution counts, among violations where S is the full set,
    each removed modality; in sampled mode those are the chains' first pairs.
    `full_probs` comes from the same forward as the records (the lattice's
    full-set column, or the chains' head); it is the only mask whose class
    probabilities are divided out. `full_confidence` is its max, read like
    every other confidence from the softmax sums.

    `mean_confidence_by_subset_size` averages, per mask size, the confidence
    of each distinct (sample, mask) that the records name, sample by sample
    and within a sample in the order the records first name the masks.
    """
    VRR_MODES.check("", "mode", mode)
    if dataset.num_samples == 0:
        raise EmptyInputError("empty dataset")
    num_samples, num_modalities = dataset.num_samples, dataset.num_modalities

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
        rng = np.random.default_rng([seed, _VRR_STREAM, 0])
        orders = removal_orders(rng, num_samples, num_modalities)
        weights = chain_weights(orders)  # the chains of training, one per sample
        fwd = forward_core(params, dataset.modalities, weights)
        conf, code = fwd.confidence, (weights > 0.0) @ (1 << np.arange(num_modalities))
        full_col = 0  # every chain starts at the full set
        full_probs = fwd.mask_probs(full_col)
        t_col, s_col = np.arange(1, num_modalities), np.arange(num_modalities - 1)
        t_code, s_code = code[:, 1:].ravel(), code[:, :-1].ravel()
        # Chain position k holds a mask of size M - k.
        groups = [(size, [num_modalities - size]) for size in range(1, num_modalities + 1)]

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
        by_size[size] = float(values.sum() / values.size)  # np.mean's sum, without its overhead
    if mode == "exhaustive":
        # Pair m of the lattice's full-set block removes modality m.
        counts = np.count_nonzero(ci[:, :num_modalities] < 0.0, axis=0)
    else:
        # A chain's first pair removes its first modality from the full set.
        counts = np.bincount(orders[ci[:, 0] < 0.0, 0], minlength=num_modalities)
    attribution = dict(enumerate(counts.tolist()))
    full_conf = conf.take(full_col, axis=1)
    return VrrEvaluation(vrr, records, attribution, full_probs, full_conf, by_size)


def write_records_csv(path, records: RankingRecords) -> None:
    """CSV dump: sample_id,t_mask,s_mask,conf_t,conf_s,ci; mask_names masks, 9-digit floats."""
    columns = [records.sample_id.tolist(), mask_names(records.t_code), mask_names(records.s_code)]
    columns += [c.tolist() for c in (records.conf_t, records.conf_s, records.ci)]
    # One %-format over the row-major values and one write; '%.9g' % x is '{:.9g}'.format(x).
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    rows = "%s,%s,%s,%.9g,%.9g,%.9g\n" * len(records.sample_id) % values
    write_text(path, "sample_id,t_mask,s_mask,conf_t,conf_s,ci\n" + rows)
