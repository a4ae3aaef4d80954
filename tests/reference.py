"""Per-sample reference model, chain objective and VRR records: oracles for the batched path.

Plain loops over one sample, one mask and one pair at a time, written
independently of rankcal's batched forward_masks/backward_masks/chain_objective
and its columnar VRR records so tests can compare the two.
"""

from __future__ import annotations

import itertools

import numpy as np

from rankcal.model import ClassifierParams, EncoderParams, SubsetMask


def _encode(params, feats):
    """Per modality: (x, pre-activation, hidden, latent) of one sample."""
    out = []
    for enc, x in zip(params.encoders, feats):
        if x is None:
            out.append(None)
            continue
        x = np.asarray(x, dtype=np.float64)
        pre = x @ enc.w1 + enc.b1
        hidden = np.maximum(pre, 0.0)
        out.append((x, pre, hidden, hidden @ enc.w2 + enc.b2))
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
    detach_superset: bool = False,
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
            if not detach_superset:
                conf_grads[k] -= g_t
    for k in range(num_masks):
        c = predicted[k]
        d_conf = conf[k] * (np.eye(len(probs[k]))[c] - probs[k])
        logit_grads[k] = logit_grads[k] + lam * conf_grads[k] * d_conf

    head_w = np.zeros_like(params.head_w)
    head_b = np.zeros_like(params.head_b)
    encoders = [
        EncoderParams(*(np.zeros_like(a) for a in (e.w1, e.b1, e.w2, e.b2)))
        for e in params.encoders
    ]
    for k, mask in enumerate(masks):
        g = logit_grads[k]
        head_w += np.outer(fused[k], g)
        head_b += g
        d_latent = params.head_w @ g / len(mask)
        for m in mask:
            x, pre, hidden, _ = acts[m]
            enc, genc = params.encoders[m], encoders[m]
            genc.w2 += np.outer(hidden, d_latent)
            genc.b2 += d_latent
            d_pre = (enc.w2 @ d_latent) * (pre > 0.0)
            genc.w1 += np.outer(x, d_pre)
            genc.b1 += d_pre
    grads = ClassifierParams(encoders=encoders, head_w=head_w, head_b=head_b)
    return cls + lam * reg, cls, reg, grads.flat


def _code(mask) -> int:
    return sum(1 << m for m in mask)


def reference_vrr(confidence, num_samples: int, num_modalities: int, orders=None):
    """Per-pair VRR loop: (rows, vrr, attribution).

    `confidence(i, mask)` is sample i's confidence under `mask`, a tuple of
    modality indices. With `orders` None every single-removal pair is visited:
    supersets S largest first in combinations order, then the removed modality
    ascending. Otherwise `orders[r][i]` is sample i's removal order in repeat r
    and the pairs are its chain's (mask k+1, mask k). Rows are
    (sample_id, t_code, s_code, conf_t, conf_s, ci), ordered by sample, then
    repeat, then pair. The attribution counts, among violations whose S is the
    full set, the removed modality.
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
            pairs = []
            for order in orders:
                chain = [tuple(sorted(order[i][k:])) for k in modalities]
                pairs += [(chain[k + 1], chain[k]) for k in range(num_modalities - 1)]
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
    return lambda i, mask: float(reference_probs(params, dataset.features(i), mask).max())


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


def reference_records_csv(rows) -> str:
    """records.csv text from the per-record f-string formatter."""

    def name(code: int) -> str:
        return SubsetMask.of(m for m in range(code.bit_length()) if code >> m & 1).format()

    lines = ["sample_id,t_mask,s_mask,conf_t,conf_s,ci\n"]
    for sample_id, t_code, s_code, conf_t, conf_s, ci in rows:
        lines.append(
            f"{sample_id},{name(t_code)},{name(s_code)},{conf_t:.9g},{conf_s:.9g},{ci:.9g}\n"
        )
    return "".join(lines)
