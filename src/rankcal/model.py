"""Multimodal classifier over arbitrary nonempty modality subsets.

Each modality gets its own two-layer encoder (affine -> ReLU -> affine); the
latents of the modalities that are actually present are fused by an arithmetic
mean and fed to a shared linear head. Removing a modality is a zero fusion
weight in the mask, never zero-filled features, so the same parameters serve
every subset. Outside the numeric path a subset is an int bit code, bit m set
when modality m is present; a spec holds 2 to 63 modalities, so every code
fits an int64. mask_names names codes for records.csv and sweep_noise.csv.

One batched path serves training, evaluation and the noise sweep: forward_core
encodes every modality of a batch of rows once and classifies it under K masks
at a time, given as mask weights, each mask's presence divided by its size,
and backward_masks returns the matching parameter gradients. Neither checks its
inputs: the feature blocks come from a data.Dataset, which checked them when it
was built, and the callers check the model spec against the data once per run.
Every caller builds its weights itself: training and sampled VRR straight from
removal orders (calibration.chain_weights), training once per epoch, and
exhaustive VRR and the noise sweep from presence (mask_weights).
A ClassifierParams carries the ModelSpec it was built for and holds every
parameter as a view into one flat vector, laid out as param_shapes lists, the
one statement of the shapes; a checkpoint stores that vector as it is. Every
encoder has the spec's hidden and latent sizes, so each encoder layer's
parameters are stacked over the modalities and the cores run a layer for all
of them in one numpy call; only the first-layer matmul, whose input dims
differ, runs once per modality.

The forward's classifier half (fusion, head, softmax) is class-major: the
logits, exponentials, probabilities and logit gradients are (C, B*K), one row
per class, and all of them are C-contiguous. Two traps: the head matmul must
stay row-major, (B*K, L) @ (L, C), since that BLAS call fixes the bits (its
transpose picks another OpenBLAS kernel at latent 64); and the transposing bias
add must ask for C order, or it returns F order with the same bits and every
later reduce strides across memory. backward_masks copies the logit gradients
back to row-major once per batch for the head's backward.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import AT_LEAST_1, AT_LEAST_2, Bound, CapabilityError, DimensionError, Key
from .errors import StateError, check_section, one_of, read_section
from .numerics import Array, softmax_parts

CHECKPOINT_MAGIC = "rankcal-checkpoint v2"

# The largest parameter vector init_params allocates: 1 GiB, 2**27 float64 values.
MAX_PARAM_BYTES = 1 << 30

# Subsets are int64 bit codes (bit m set when modality m is present); bit 63 is the sign.
_MODALITY_COUNT = Bound("2 to 63 entries", lambda v: 2 <= len(v) <= 63)
# Every ModelSpec key, in a config "model" section and a checkpoint header.
SPEC_SCHEMA = {
    "modality_dims": Key(list[int], AT_LEAST_1, _MODALITY_COUNT),
    "hidden_dim": Key(int, AT_LEAST_1),
    "latent_dim": Key(int, AT_LEAST_1),
    "num_classes": Key(int, AT_LEAST_2),
}
_HEADER_SCHEMA = {
    "spec": Key(dict), "arrays": Key(list[list[int]]), "dtype": Key(str, one_of("<f8"))
}


@dataclass(frozen=True)
class ModelSpec:
    modality_dims: tuple[int, ...]
    hidden_dim: int
    latent_dim: int
    num_classes: int

    def __post_init__(self):
        """Fail on a value of the wrong kind or out of bounds; numpy values become Python ones."""
        values = check_section("model", vars(self), SPEC_SCHEMA)
        vars(self).update(values, modality_dims=tuple(values["modality_dims"]))  # past frozen

    @property
    def num_modalities(self) -> int:
        return len(self.modality_dims)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "modality_dims": list(self.modality_dims)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSpec":
        """Parse a spec object; a key that is absent or of the wrong kind fails as spec.<key>."""
        return cls(**read_section("spec", obj, SPEC_SCHEMA, required=SPEC_SCHEMA))


def mask_names(codes) -> list[str]:
    """The name of each modality bit code (bit m set when m is present): its indices joined
    by "+", so 5 is "0+2". Each distinct code is formatted once, whatever its bit length."""
    codes = codes.tolist() if hasattr(codes, "tolist") else list(codes)
    names = {c: "+".join(str(m) for m in range(c.bit_length()) if c >> m & 1) for c in set(codes)}
    return [names[c] for c in codes]


def param_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """The shapes of a ClassifierParams' views, in the order they tile `flat`.

    Each modality's first-layer weights `w1[m]` (d_m, H), then `b1` (M, H),
    `w2` (M, H, L) and `b2` (M, L) stacked over the modalities, then the head
    weights (L, C) and bias (C,). A checkpoint's header lists them.
    """
    num, hidden, latent = spec.num_modalities, spec.hidden_dim, spec.latent_dim
    stacked = [(num, hidden), (num, hidden, latent), (num, latent)]  # b1, w2, b2
    head = [(latent, spec.num_classes), (spec.num_classes,)]
    return [(d, hidden) for d in spec.modality_dims] + stacked + head


class ClassifierParams:
    """A model's spec and every parameter array as a view into one flat float64 buffer.

    The views tile `flat` in param_shapes order, so one numpy call runs a
    layer for every modality. `arrays()` yields them per modality instead
    (w1, b1, w2, b2; then the head), the order init_params draws its weights
    in. An in-place write to `flat` shows through every named array and vice
    versa; rebinding a named attribute would break that link.
    """

    def __init__(self, spec: ModelSpec, flat: Array | None = None):
        """Views into `flat` itself (no copy), laid out as above; all zeros without `flat`."""
        shapes = param_shapes(spec)
        sizes = [math.prod(shape) for shape in shapes]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            expected = f"float64({sum(sizes)},)"
            raise DimensionError(f"flat parameters must be {expected}: {flat.dtype}{flat.shape}")
        starts = itertools.accumulate(sizes, initial=0)
        views = [flat[i : i + n].reshape(shape) for i, n, shape in zip(starts, sizes, shapes)]
        self.spec, self.flat, self.w1 = spec, flat, views[:-5]
        self.b1, self.w2, self.b2, self.head_w, self.head_b = views[-5:]

    def arrays(self) -> Iterator[Array]:
        """All parameter arrays per modality (w1, b1, w2, b2), then the head weights and bias."""
        for m, w1 in enumerate(self.w1):
            yield w1
            yield self.b1[m]
            yield self.w2[m]
            yield self.b2[m]
        yield self.head_w
        yield self.head_b


def init_params(spec: ModelSpec, seed: int) -> ClassifierParams:
    """Uniform Xavier weights in +-sqrt(6 / (fan_in + fan_out)); zero biases.

    A spec whose parameters need more than MAX_PARAM_BYTES fails before any allocation.
    """
    size = sum(math.prod(s) for s in param_shapes(spec))
    if 8 * size > MAX_PARAM_BYTES:
        raise CapabilityError(
            f"model spec {spec.to_json_dict()} needs {8 * size} bytes of parameters, "
            f"over the limit of {MAX_PARAM_BYTES}"
        )
    rng = np.random.default_rng(seed)
    params = ClassifierParams(spec)
    for weights in params.arrays():
        if weights.ndim == 2:
            limit = np.sqrt(6.0 / sum(weights.shape))
            weights[...] = rng.uniform(-limit, limit, size=weights.shape)
    return params


@dataclass
class MaskedForward:
    """Activations of a batch of rows under K masks; what backward_masks needs.

    `weights` (the presence divided by each mask's size) is (K, M) when every
    row shares its masks and (B, K, M) when each row has its own. `hidden` is the stacked
    (M, B, H) encoder activations of every modality, used by a mask or not.

    The softmax is kept as its two parts: `exp`, the max-shifted exponentials
    of the logits, and `sums`, their (B, K) sums. `exp` is class-major and
    C-contiguous (C, B*K), column b*K + k holding row b under mask k (see the
    module docstring). objective_core divides out every class probability;
    mask_probs divides out one mask's.
    """

    features: list[Array]
    hidden: Array
    weights: Array
    fused: Array
    exp: Array
    sums: Array

    def mask_probs(self, k: int) -> Array:
        """(B, C) class probabilities under mask k alone."""
        return (self.exp.reshape(-1, *self.sums.shape)[..., k] / self.sums[:, k]).T

    @property
    def confidence(self) -> Array:
        """(B, K) probability of the predicted class, bit for bit probs.max(-1).

        The predicted class's exponential is exactly 1.0, so its probability is 1.0 / sums.
        """
        return 1.0 / self.sums


def mask_weights(presence) -> Array:
    """Mean-fusion weights of boolean masks: each mask's presence divided by its size."""
    return presence / presence.sum(axis=-1, keepdims=True)


def forward_core(params: ClassifierParams, blocks: list[Array], weights) -> MaskedForward:
    """Encode each modality once for all rows, then mean-fuse and classify per mask.

    `blocks[m]` is the (B, d_m) float64 block of modality m, and `weights` the
    mask_weights of (K, M) or (B, K, M) boolean masks, each with at least one
    modality. A modality outside a mask gets a zero fusion weight there, so for
    finite parameters its latent adds exactly zero to that mask's fused latent.
    The head runs as one row-major (B*K, L) matmul (see the module docstring
    for the layout's traps).
    """
    hidden = np.empty((len(blocks), len(blocks[0]), params.b1.shape[1]))
    for m, x in enumerate(blocks):  # one matmul per modality: the input dims differ
        np.matmul(x, params.w1[m], out=hidden[m])
    hidden += params.b1[:, None]
    np.maximum(hidden, 0.0, out=hidden)
    latents = np.matmul(hidden, params.w2)
    latents += params.b2[:, None]
    fused = np.matmul(weights, latents.swapaxes(-3, -2))
    rows = np.matmul(fused.reshape(-1, fused.shape[-1]), params.head_w)
    logits = np.add(rows.T, params.head_b[:, None], order="C")
    exp, sums = softmax_parts(logits)
    return MaskedForward(blocks, hidden, weights, fused, exp, sums.reshape(fused.shape[:-1]))


def backward_masks(
    params: ClassifierParams, fwd: MaskedForward, logit_grads: Array, out: ClassifierParams
) -> ClassifierParams:
    """Exact parameter gradients of sum(logit_grads * logits) over every row and mask.

    `logit_grads` is float64 in fwd.exp's class-major (C, B*K) layout; one
    row-major copy keeps the head's matmuls and bias sum in their bit order
    (see the module docstring for the layout and its traps).
    Each modality collects its latent gradient over every mask containing it
    before one encoder backward pass; a modality that no mask uses gets zero
    gradients. The gradients overwrite every array of `out`, which it returns,
    so one buffer serves every batch.
    The ReLU mask is a multiply, a third of np.where's in-loop cost, whose -0.0
    gradients sum to +0.0 in b1 and w1 as np.where's +0.0 do (see _hidden_grads).
    """
    batch, num_masks = fwd.sums.shape
    g = np.ascontiguousarray(logit_grads.T)
    np.matmul(fwd.fused.reshape(-1, fwd.fused.shape[-1]).T, g, out=out.head_w)
    np.add.reduce(g, axis=0, out=out.head_b)  # ndarray.sum without its Python wrapper
    d_fused = np.matmul(g, params.head_w.T).reshape(batch, num_masks, -1)
    d_latents = np.matmul(fwd.weights.swapaxes(-1, -2), d_fused)
    d_latents = d_latents.transpose(1, 0, 2)
    np.matmul(fwd.hidden.transpose(0, 2, 1), d_latents, out=out.w2)
    np.add.reduce(d_latents, axis=1, out=out.b2)
    d_pre = _hidden_grads(fwd.hidden, d_latents, params.w2)
    np.add.reduce(d_pre, axis=1, out=out.b1)
    for m, x in enumerate(fwd.features):  # one matmul per modality: the input dims differ
        np.matmul(x.T, d_pre[m], out=out.w1[m])
    return out


def _hidden_grads(hidden: Array, d_latents: Array, w2: Array) -> Array:
    """Gradient at the stacked (M, B, H) pre-activations from the (M, B, L) latent gradients.

    The ReLU subgradient at exactly zero is zero; no input gradient is needed.
    The mask is a multiply in place, about a third of np.where's cost inside
    the training loop. It leaves -0.0 where np.where wrote +0.0 (an inactive
    unit with a negative upstream gradient), a sign that no gradient shows:
    numpy's add.reduce for b1 and the BLAS accumulators for w1 start at +0.0.
    """
    d_pre = np.matmul(d_latents, w2.transpose(0, 2, 1))
    return np.multiply(d_pre, hidden > 0.0, out=d_pre)


def save_checkpoint(path, params: ClassifierParams) -> None:
    """Write magic line, JSON header, then `params.flat` as raw little-endian float64.

    The header holds `params.spec`, its param_shapes and the dtype `<f8`; the
    payload is `flat` as it is in memory, so a round trip is bit-exact.
    """
    header = {
        "spec": params.spec.to_json_dict(),
        "arrays": param_shapes(params.spec),
        "dtype": "<f8",
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True, allow_nan=False).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def load_checkpoint(path) -> tuple[ModelSpec, ClassifierParams]:
    """The spec and parameters that save_checkpoint wrote; `params.spec` is that spec.

    A file of another version, or whose header disagrees with itself or its payload, fails.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n").decode("ascii", errors="replace")
        if magic != CHECKPOINT_MAGIC:
            raise StateError(f"{path}: not a checkpoint file (magic {magic!r})")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            header = check_section("header", header, _HEADER_SCHEMA, required=_HEADER_SCHEMA)
            spec = ModelSpec.from_json_dict(header["spec"])
        except (ValueError, RecursionError) as exc:  # RecursionError: a header nested too deeply
            raise StateError(f"{path}: {exc}") from None
        shapes = [tuple(s) for s in header["arrays"]]
        payload = fh.read()
    if shapes != param_shapes(spec):
        raise StateError(f"{path}: array shapes {shapes} do not match the spec")
    if len(payload) != 8 * sum(math.prod(s) for s in shapes):
        raise StateError(f"{path}: payload of {len(payload)} bytes does not match the header")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise StateError(f"{path}: non-finite parameter values")
    return spec, ClassifierParams(spec, values.astype(np.float64))
