"""Per-sample reference model and chain objective: the oracle for the batched path.

Plain loops over one sample and one mask at a time, written independently of
rankcal's batched forward_masks/backward_masks/chain_objective so tests can
compare the two.
"""

from __future__ import annotations

import numpy as np

from rankcal.model import ClassifierParams, EncoderParams


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
