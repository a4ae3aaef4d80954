"""Per-sample reference model, chain objective, VRR records and CSV I/O: oracles for the batched path.

Plain loops over one sample, one mask, one pair or one cell at a time, written
independently of rankcal's batched forward_core/backward_masks/objective_core,
its columnar VRR records and AURC, and its block CSV reader/writer, so tests
can compare the two. Alongside them are the small oracles that only tests
use: the divided-out softmax, the NLL gradient, the confidence increment, a
sample's label and features, mask parsing, a removal chain's presence, the
argmax of a forward and corrupt_gaussian, the whole-dataset form of
data.corrupt_block.
reference_batch_objective is objective_core as the composition of batched
forward, NLL and backward, written out in plain numpy with the same float
operations in the same order, on the presence of each chain's masks.
reference_train is the training loop as it was before the per-epoch gather and
the reused gradient buffer: each batch calls objective_core, as train does, on
a fresh gradient buffer; since both share that core, only
reference_batch_objective pins the arithmetic.
reference_split is data.split's index sets as sorted Python lists, class by class.
reference_noise_sweep is the noise sweep one cell at a time: one corrupt_gaussian
copy and one full_mask_accuracy forward per model per cell.
row_major_classify is model.forward_core's head and softmax on row-major (rows, C)
logits, as they ran before the softmax went class-major; it takes forward_core's
fused latents. full_mask_accuracy and row_major_lattice (exhaustive VRR's
confidences) read it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from rankcal import trainer
from rankcal.calibration import chain_weights, label_onehot, objective_core, removal_orders
from rankcal.data import Dataset, corrupt_block
from rankcal.errors import DivergenceError, DomainError, NumericError, ParseError, SpecError
from rankcal.model import ClassifierParams, forward_core, init_params, mask_weights
from rankcal.numerics import adam_update, describe_bad, init_adam_state, softmax_parts


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax over the last axis: softmax_parts with the sums divided out.

    The rows go to softmax_parts as class-major (C, rows) logits and come back row-major.
    """
    z = np.asarray(logits, dtype=np.float64)
    exp, sums = softmax_parts(z.reshape(-1, z.shape[-1]).T)
    exp /= sums
    return exp.T.reshape(z.shape)


def row_major_probs(fwd) -> np.ndarray:
    """(B, K, C) class probabilities of a MaskedForward, whose softmax parts are class-major."""
    return (fwd.exp / fwd.sums.reshape(-1)).T.reshape(*fwd.sums.shape, -1)


def nll_logit_grads(fwd, labels) -> np.ndarray:
    """nll_loss_grad of a MaskedForward in its class-major (C, B*K) layout, for backward_masks.

    `labels` broadcasts against the forward's (B, K) masks.
    """
    return nll_loss_grad(row_major_probs(fwd), labels).reshape(-1, len(fwd.exp)).T


def nll_loss_grad(probs, labels) -> np.ndarray:
    """Gradient of the NLL w.r.t. the logits that produced `probs`: probs - onehot.

    `labels` broadcasts against the leading axes of `probs`.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.broadcast_to(np.asarray(labels), p.shape[:-1])
    if ((y < 0) | (y >= p.shape[-1])).any():
        raise IndexError(f"labels {y} out of range for {p.shape[-1]} classes")
    grad = p.reshape(-1, p.shape[-1]).copy()
    grad[np.arange(y.size), y.ravel()] -= 1.0
    return grad.reshape(p.shape)


def _check_confidence(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        raise DomainError(f"{name} must be in [0, 1]; outside: {describe_bad(bad)}")
    return values


def confidence_increment(conf_t, conf_s):
    """conf(S) - conf(T); negative means removing a modality raised confidence."""
    return _check_confidence(conf_s, "conf_s") - _check_confidence(conf_t, "conf_t")


def label_of(dataset, index: int) -> int:
    """Sample `index`'s label as a Python int."""
    return int(dataset.labels[index])


def features_of(dataset, index: int) -> list[np.ndarray]:
    """Sample `index`'s row of each modality, as 1-D vectors."""
    return [block[index] for block in dataset.modalities]


def presence_of_chains(orders) -> np.ndarray:
    """(B, M, M) presence of each sample's removal chain: mask k holds orders[b, k:]."""
    orders = np.asarray(orders)
    batch, num_modalities = orders.shape
    presence = np.zeros((batch, num_modalities, num_modalities), dtype=bool)
    for b in range(batch):
        for k in range(num_modalities):
            presence[b, k, orders[b, k:]] = True
    return presence


def format_mask(code: int) -> str:
    """The present modalities of bit code `code`, ascending and joined by "+": 5 -> "0+2"."""
    return "+".join(str(m) for m in range(code.bit_length()) if code >> m & 1)


def parse_mask(text: str) -> int:
    """The bit code that format_mask writes as `text`, e.g. "0+2" -> 5."""
    return sum(1 << m for m in {int(part) for part in text.split("+")})


def predicted_classes(fwd) -> np.ndarray:
    """(B, K) argmax class of a MaskedForward; exact ties go to the lowest index."""
    return row_major_probs(fwd).argmax(axis=-1)


def corrupt_gaussian(dataset, targets, epsilon: float, seed: int):
    """Add zero-mean Gaussian noise of variance `epsilon` to the `targets` modalities.

    `targets` is a collection of modality indices. Untargeted modalities (and
    the epsilon = 0 case) are bit-identical copies; labels are never touched.
    """
    for m in targets:
        if not 0 <= m < dataset.num_modalities:
            raise SpecError(f"corruption target {m} out of range for {dataset.num_modalities}")
    modalities = [
        corrupt_block(block, epsilon, seed, m) if m in targets and epsilon > 0.0 else block.copy()
        for m, block in enumerate(dataset.modalities)
    ]
    return Dataset(modalities, dataset.labels.copy(), dataset.num_classes)


def _encoders(params):
    """Per modality: its (w1, b1, w2, b2) views."""
    return list(zip(params.w1, params.b1, params.w2, params.b2))


def _zero_grads(params) -> ClassifierParams:
    return ClassifierParams(params.spec)


def _encode(params, feats):
    """Per modality: (x, pre-activation, hidden, latent) of one sample."""
    out = []
    for (w1, b1, w2, b2), x in zip(_encoders(params), feats):
        if x is None:
            out.append(None)
            continue
        x = np.asarray(x, dtype=np.float64)
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        out.append((x, pre, hidden, hidden @ w2 + b2))
    return out


def _classify(params, acts, mask):
    present = sorted(mask)
    fused = acts[present[0]][3].copy()
    for m in present[1:]:
        fused += acts[m][3]
    fused /= len(present)
    logits = fused @ params.head_w + params.head_b
    exp = np.exp(logits - logits.max())
    return fused, exp / exp.sum()


def reference_probs(params, feats, mask) -> np.ndarray:
    """Class probabilities of one sample (a list of 1-D vectors) under one mask."""
    return _classify(params, _encode(params, feats), mask)[1]


def reference_objective(
    params,
    feats,
    label: int,
    masks,
    variant: str = "hinge",
    lam: float = 0.0,
    skip_on_wrong_full: bool = True,
):
    """(total, cls, reg, flat gradient) of one sample on one chain of masks."""
    acts = _encode(params, feats)
    fused, probs = zip(*(_classify(params, acts, mask) for mask in masks))
    num_masks = len(masks)
    predicted = [int(np.argmax(p)) for p in probs]
    conf = [float(p[c]) for p, c in zip(probs, predicted)]

    cls = sum(-np.log(p[label]) for p in probs) / num_masks
    logit_grads = []
    for p in probs:
        g = p.copy()
        g[label] -= 1.0
        logit_grads.append(g / num_masks)

    reg = 0.0
    conf_grads = [0.0] * num_masks
    if variant != "none" and not (skip_on_wrong_full and predicted[0] != label):
        for k in range(num_masks - 1):
            conf_s, conf_t = conf[k], conf[k + 1]
            if variant == "hinge":
                active = conf_t > conf_s
                reg += conf_t - conf_s if active else 0.0
                g_t = 1.0 if active else 0.0
            else:
                reg += conf_t - conf_s
                g_t = 1.0
            conf_grads[k + 1] += g_t
            conf_grads[k] -= g_t
    for k in range(num_masks):
        c = predicted[k]
        d_conf = conf[k] * (np.eye(len(probs[k]))[c] - probs[k])
        logit_grads[k] = logit_grads[k] + lam * conf_grads[k] * d_conf

    grads = _zero_grads(params)
    for k, mask in enumerate(masks):
        g = logit_grads[k]
        grads.head_w += np.outer(fused[k], g)
        grads.head_b += g
        d_latent = params.head_w @ g / len(mask)
        for m in mask:
            x, pre, hidden, _ = acts[m]
            grads.w2[m] += np.outer(hidden, d_latent)
            grads.b2[m] += d_latent
            d_pre = (params.w2[m] @ d_latent) * (pre > 0.0)
            grads.w1[m] += np.outer(x, d_pre)
            grads.b1[m] += d_pre
    return cls + lam * reg, cls, reg, grads.flat


def reference_batch_objective(
    params,
    features,
    labels,
    presence,
    variant: str = "hinge",
    lam: float = 0.0,
    skip_on_wrong_full: bool = True,
):
    """(loss, cls, reg, flat gradient, confidence, full_correct) of a batch of removal chains.

    Every chain starts at the full set, so every encoder runs.
    """
    presence = np.asarray(presence, dtype=bool)
    labels = np.asarray(labels)
    batch, num_masks, num_modalities = presence.shape
    weights = presence / presence.sum(axis=-1, keepdims=True)
    latents = np.zeros((batch, num_modalities, params.head_w.shape[0]))
    blocks, hidden = [], []
    for m, (w1, b1, w2, b2) in enumerate(_encoders(params)):
        blocks.append(np.asarray(features[m], dtype=np.float64))
        hidden.append(np.maximum(blocks[m] @ w1 + b1, 0.0))
        latents[:, m] = hidden[m] @ w2 + b2
    fused = weights @ latents
    logits = fused.reshape(-1, fused.shape[-1]) @ params.head_w + params.head_b
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = (exp / exp.sum(axis=-1, keepdims=True)).reshape(batch, num_masks, -1)

    rows = probs.reshape(-1, probs.shape[-1])
    labels_per_mask = np.broadcast_to(labels[:, None], (batch, num_masks)).ravel()
    true_class = (np.arange(rows.shape[0]), labels_per_mask)
    nll = -np.log(rows[true_class]).reshape(batch, num_masks)
    onehot_grad = rows.copy()
    onehot_grad[true_class] -= 1.0
    logit_grads = onehot_grad.reshape(probs.shape) / num_masks

    confidence = probs.max(axis=-1)
    predicted = probs.argmax(axis=-1)
    full_correct = predicted[:, 0] == labels
    if variant == "none":
        gate = np.zeros(batch)
    else:
        gate = full_correct.astype(np.float64) if skip_on_wrong_full else np.ones(batch)
    conf_t, conf_s = confidence[:, 1:], confidence[:, :-1]
    if variant == "hinge":
        active = conf_t > conf_s
        pair_loss, d_conf_t = np.where(active, conf_t - conf_s, 0.0), active.astype(np.float64)
    elif variant == "difference":
        pair_loss, d_conf_t = conf_t - conf_s, np.ones_like(conf_t)
    else:
        pair_loss, d_conf_t = np.zeros_like(conf_t), np.zeros_like(conf_t)
    reg = pair_loss.sum(axis=1) * gate
    if lam > 0.0 and variant != "none":
        d_conf_t = lam * gate[:, None] * d_conf_t
        d_conf = np.zeros_like(confidence)
        d_conf[:, 1:] += d_conf_t
        d_conf[:, :-1] -= d_conf_t
        d_logits = -rows
        d_logits[np.arange(len(d_logits)), predicted.ravel()] = 1.0 - confidence.ravel()
        logit_grads += (d_conf * confidence)[..., None] * d_logits.reshape(probs.shape)
    cls = nll.sum(axis=1) / num_masks

    g = logit_grads.reshape(-1, probs.shape[-1])
    d_fused = (g @ params.head_w.T).reshape(batch, num_masks, -1)
    d_latents = weights.swapaxes(-1, -2) @ d_fused
    grads = _zero_grads(params)
    for m in range(num_modalities):
        d_latent = d_latents[:, m]
        d_pre = np.where(hidden[m] > 0.0, d_latent @ params.w2[m].T, 0.0)
        grads.w1[m][...] = blocks[m].T @ d_pre
        grads.b1[m] = d_pre.sum(axis=0)
        grads.w2[m] = hidden[m].T @ d_latent
        grads.b2[m] = d_latent.sum(axis=0)
    grads.head_w[...] = fused.reshape(-1, fused.shape[-1]).T @ g
    grads.head_b[...] = g.sum(axis=0)
    loss = float(np.sum(cls + lam * reg))
    return loss, float(cls.sum()), float(reg.sum()), grads.flat, confidence, full_correct


def _code(mask) -> int:
    return sum(1 << m for m in mask)


def reference_vrr(confidence, num_samples: int, num_modalities: int, orders=None):
    """Per-pair VRR loop: (rows, vrr, attribution).

    `confidence(i, mask)` is sample i's confidence under `mask`, a tuple of
    modality indices. With `orders` None every single-removal pair is visited:
    supersets S largest first in combinations order, then the removed modality
    ascending. Otherwise `orders[i]` is sample i's removal order and the pairs
    are its chain's (mask k+1, mask k). Rows are (sample_id, t_code, s_code,
    conf_t, conf_s, ci), ordered by sample, then pair. The attribution counts,
    among violations whose S is the full set, the removed modality.
    """
    modalities = range(num_modalities)
    rows = []
    for i in range(num_samples):
        if orders is None:
            pairs = [
                (tuple(m for m in s if m != removed), s)
                for size in range(num_modalities, 1, -1)
                for s in itertools.combinations(modalities, size)
                for removed in s
            ]
        else:
            chain = [tuple(sorted(orders[i][k:])) for k in modalities]
            pairs = [(chain[k + 1], chain[k]) for k in range(num_modalities - 1)]
        for t, s in pairs:
            conf_t, conf_s = confidence(i, t), confidence(i, s)
            rows.append((i, _code(t), _code(s), conf_t, conf_s, conf_s - conf_t))
    violations = [row for row in rows if row[5] < 0.0]
    full = _code(modalities)
    attribution = {
        m: sum(1 for row in violations if row[2] == full and row[1] ^ row[2] == 1 << m)
        for m in modalities
    }
    return rows, len(violations) / len(rows), attribution


def reference_confidence_lookup(params, dataset):
    """confidence(i, mask) for reference_vrr from reference_probs."""
    return lambda i, mask: float(reference_probs(params, features_of(dataset, i), mask).max())


def reference_confidence_by_subset_size(rows) -> dict[int, float]:
    """The dict walk over per-pair rows that the columnar metric replaces."""
    seen: dict[tuple[int, int], float] = {}
    for sample_id, t_code, s_code, conf_t, conf_s, _ in rows:
        seen[(sample_id, t_code)] = conf_t
        seen[(sample_id, s_code)] = conf_s
    by_size: dict[int, list[float]] = {}
    for (_, code), conf in seen.items():
        by_size.setdefault(bin(code).count("1"), []).append(conf)
    return {size: float(np.mean(confs)) for size, confs in sorted(by_size.items())}


def reference_aurc(confidence, correct) -> float:
    """AURC by a Python sort keyed on (-confidence, index) and a running risk total."""
    confidence, correct = list(map(float, confidence)), list(map(bool, correct))
    order = sorted(range(len(confidence)), key=lambda i: (-confidence[i], i))
    errors = 0
    total = 0.0
    for i, index in enumerate(order, start=1):
        if not correct[index]:
            errors += 1
        total += errors / i
    return total / len(order)


def reference_records_csv(rows) -> str:
    """records.csv text from the per-record f-string formatter."""

    lines = ["sample_id,t_mask,s_mask,conf_t,conf_s,ci\n"]
    for sample_id, t_code, s_code, conf_t, conf_s, ci in rows:
        t_mask, s_mask = format_mask(t_code), format_mask(s_code)
        lines.append(f"{sample_id},{t_mask},{s_mask},{conf_t:.9g},{conf_s:.9g},{ci:.9g}\n")
    return "".join(lines)


def reference_load_modality_csv(path, dim: int) -> np.ndarray:
    """A modality CSV read line by line and cell by cell with float()."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != dim:
                raise ParseError(str(path), lineno, f"expected {dim} columns, got {len(cells)}")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise ParseError(str(path), lineno, f"non-numeric cell in {line!r}") from None
            if not all(math.isfinite(v) for v in row):
                raise ParseError(str(path), lineno, f"non-finite cell in {line!r}")
            rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)


def reference_dataset_csv(dataset) -> dict[str, str]:
    """File name -> text of write_csv_dataset's CSVs, from the per-cell formatter."""
    files = {
        f"modality_{m}.csv": "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in block)
        for m, block in enumerate(dataset.modalities)
    }
    files["labels.csv"] = "".join(f"{int(value)}\n" for value in dataset.labels)
    return files


def reference_train(config, train_set):
    """(params, history) of trainer.train's loop with a fancy gather and a fresh gradient per batch."""
    params = init_params(config.model, config.seed)
    state = init_adam_state(params.flat.size, learning_rate=config.learning_rate)
    n = train_set.num_samples
    history = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, trainer._SHUFFLE_STREAM, epoch]).permutation(n)
        chain_rng = np.random.default_rng([config.seed, trainer._CHAIN_STREAM, epoch])
        weights = chain_weights(removal_orders(chain_rng, n, train_set.num_modalities))
        cls_sum = reg_sum = 0.0
        correct = 0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            labels = train_set.labels[batch]
            num_masks = weights.shape[1]
            try:
                result = objective_core(
                    params,
                    [block[batch] for block in train_set.modalities],
                    weights[batch],
                    labels,
                    label_onehot(labels, config.model.num_classes, num_masks),
                    config.variant,
                    config.lam,
                    config.skip_on_wrong_full,
                    ClassifierParams(config.model),
                )
            except NumericError as exc:
                raise DivergenceError(epoch, batch_idx, float("nan"), str(exc)) from None
            if not np.isfinite(result.loss):
                raise DivergenceError(epoch=epoch, batch=batch_idx, loss=result.loss)
            cls_sum += result.cls_loss
            reg_sum += result.reg_loss
            correct += int(result.full_correct.sum())
            adam_update(params.flat, result.grads.flat / len(batch), state)
        history.append(trainer.EpochStats(cls_sum / n, reg_sum / n, 100.0 * correct / n))
    return params, history


def row_major_classify(params, fused):
    """The (B, K, C) probabilities and (B, K) confidences of (B, K, L) fused latents, row-major.

    The (B*K, L) @ (L, C) head matmul is forward_core's call; the bias add, the
    max-shift, the exponentials and numpy's row sum (left to right under 8
    classes, pairwise from 8 on) run on row-major logits.
    """
    logits = fused.reshape(-1, fused.shape[-1]) @ params.head_w + params.head_b
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    sums = exp.sum(axis=-1, keepdims=True)
    return (exp / sums).reshape(fused.shape[:-1] + (-1,)), (1.0 / sums).reshape(fused.shape[:-1])


def row_major_lattice(params, dataset):
    """Every mask's confidences and the full set's probabilities from row_major_classify.

    The confidences are (N, 2^M - 1), column code - 1 holding the mask with that
    bit code; the full set's probabilities are (N, C).
    """
    num_modalities = dataset.num_modalities
    codes = np.arange(1, 1 << num_modalities)
    presence = (codes[:, None] >> np.arange(num_modalities)) & 1 > 0
    fused = forward_core(params, dataset.modalities, mask_weights(presence)).fused
    probs, confidence = row_major_classify(params, fused)
    return confidence, probs[:, -1]


def full_mask_accuracy(params, dataset) -> float:
    """Percent of rows whose full-mask row_major_classify prediction is their label."""
    full = np.ones((1, dataset.num_modalities), dtype=bool)
    fused = forward_core(params, dataset.modalities, mask_weights(full)).fused
    classes = row_major_classify(params, fused)[0].argmax(axis=-1)[:, 0]
    return 100.0 * int(np.sum(classes == dataset.labels)) / dataset.num_samples


def reference_noise_sweep(params_a, params_b, test_set, epsilons, target_sets, seed):
    """(epsilon, target code, acc_a, acc_b, delta) per cell: one corrupted copy, then two forwards.

    Each target set is a list of modality indices; its code has bit m set for each index m.
    """
    rows = []
    for e_idx, eps in enumerate(epsilons):
        for t_idx, targets in enumerate(target_sets):
            cell_stream = np.random.SeedSequence(
                seed, spawn_key=(trainer._NOISE_STREAM, e_idx, t_idx)
            )
            cell_seed = int(np.random.default_rng(cell_stream).integers(2**31))
            corrupted = corrupt_gaussian(test_set, set(targets), float(eps), cell_seed)
            acc_a = full_mask_accuracy(params_a, corrupted)
            acc_b = full_mask_accuracy(params_b, corrupted)
            code = functools.reduce(operator.or_, (1 << m for m in targets))
            rows.append((float(eps), code, acc_a, acc_b, acc_b - acc_a))
    return rows


def reference_split(dataset, train_fraction: float, seed: int):
    """(train, test) of data.split, its index sets gathered as sorted lists."""
    train_idx, test_idx = [], []
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == k)
        members = members[np.random.default_rng([seed, k]).permutation(members.shape[0])]
        n_train = min(max(int(round(train_fraction * members.shape[0])), 1), members.shape[0] - 1)
        train_idx.extend(members[:n_train].tolist())
        test_idx.extend(members[n_train:].tolist())
    return dataset.take(sorted(train_idx)), dataset.take(sorted(test_idx))
