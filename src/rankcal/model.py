"""Multimodal classifier over arbitrary nonempty modality subsets.

Each modality gets its own two-layer encoder (affine -> ReLU -> affine); the
latents of the modalities that are actually present are fused by an arithmetic
mean and fed to a shared linear head. Removing a modality is true absence via
the mask, never zero-filling, so the same parameters serve every subset.

One batched path serves training and evaluation: forward_masks encodes a batch
of rows once and classifies it under K masks at a time, given as a presence
tensor, and backward_masks returns the matching parameter gradients. Neither
checks its inputs: the feature blocks come from a data.Dataset, which checked
them when it was built, and the callers check the model spec against the data
once per run. forward_masks only turns the presence into mask weights for
forward_core, which takes the weights directly so training converts them once
per epoch. forward_core is its encoder half (encode_core) followed by its
classifier half (classify_core); the noise sweep calls the halves itself, on
stacked copies.
A ClassifierParams carries the ModelSpec it was built for, the one statement of
its shapes, and holds every parameter as a view into one flat vector. Every
encoder has the spec's hidden and latent sizes, so each encoder layer's
parameters are stacked over the modalities and the cores run a layer for all
of them in one numpy call; only the first-layer matmul, whose input dims
differ, runs once per modality.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapabilityError, DimensionError, MaskError, SpecError, StateError
from .errors import check_section
from .numerics import Array, softmax_parts

CHECKPOINT_MAGIC = "rankcal-checkpoint v1"

# The largest parameter vector init_params allocates: 1 GiB, 2**27 float64 values.
MAX_PARAM_BYTES = 1 << 30

# JSON kind of every ModelSpec key, in a config "model" section and a checkpoint header.
SPEC_SCHEMA = {"modality_dims": list[int], "hidden_dim": int, "latent_dim": int, "num_classes": int}
_HEADER_SCHEMA = {"spec": dict, "arrays": list[list[int]], "dtype": str}


@dataclass(frozen=True)
class ModelSpec:
    modality_dims: tuple[int, ...]
    hidden_dim: int
    latent_dim: int
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "modality_dims", tuple(int(d) for d in self.modality_dims))
        if len(self.modality_dims) < 2:
            raise SpecError("need at least 2 modalities")
        if any(d < 1 for d in self.modality_dims):
            raise SpecError(f"modality dims must be >= 1, got {self.modality_dims}")
        if self.hidden_dim < 1 or self.latent_dim < 1:
            raise SpecError("hidden_dim and latent_dim must be >= 1")
        if self.num_classes < 2:
            raise SpecError("need at least 2 classes")

    @property
    def num_modalities(self) -> int:
        return len(self.modality_dims)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "modality_dims": list(self.modality_dims)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSpec":
        """Parse a spec object; every key is required and errors name it as spec.<key>."""
        return cls(**check_section("spec", obj, SPEC_SCHEMA, required=SPEC_SCHEMA))


@dataclass(frozen=True)
class SubsetMask:
    """Nonempty set of modality indices presented to the model."""

    present: frozenset[int]

    def __post_init__(self):
        if not self.present:
            raise MaskError("mask must contain at least one modality")
        if any((not isinstance(i, (int, np.integer))) or i < 0 for i in self.present):
            raise MaskError(f"mask indices must be non-negative integers: {self.present}")
        object.__setattr__(self, "present", frozenset(int(i) for i in self.present))

    @classmethod
    def of(cls, indices) -> "SubsetMask":
        return cls(frozenset(indices))

    @classmethod
    def full(cls, num_modalities: int) -> "SubsetMask":
        return cls(frozenset(range(num_modalities)))

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.present))

    def validate_for(self, num_modalities: int) -> None:
        if any(i >= num_modalities for i in self.present):
            raise MaskError(f"mask {self.format()} out of range for {num_modalities} modalities")

    def format(self) -> str:
        return "+".join(str(i) for i in self.sorted_indices())


class ClassifierParams:
    """A model's spec and every parameter array as a view into one flat float64 buffer.

    `flat` holds each modality's first-layer weights `w1[m]` (d_m, H) in
    order, then the stacked `b1` (M, H), `w2` (M, H, L) and `b2` (M, L), then
    the head weights and bias, so one numpy call runs a layer for every
    modality. `arrays()` keeps declaration order (per modality w1, b1, w2, b2;
    then the head), which is also the checkpoint order. An in-place write to
    `flat` shows through every named array and vice versa; rebinding a named
    attribute would break that link.
    """

    def __init__(self, spec: ModelSpec, flat: Array | None = None):
        """Views into `flat` itself (no copy), laid out as above; all zeros without `flat`."""
        num, hidden, latent = spec.num_modalities, spec.hidden_dim, spec.latent_dim
        shapes = [(d, hidden) for d in spec.modality_dims]
        shapes += [(num, hidden), (num, hidden, latent), (num, latent)]
        shapes += [(latent, spec.num_classes), (spec.num_classes,)]
        sizes = [math.prod(shape) for shape in shapes]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            expected = f"float64({sum(sizes)},)"
            raise DimensionError(f"flat parameters must be {expected}: {flat.dtype}{flat.shape}")
        starts = itertools.accumulate(sizes, initial=0)
        views = [flat[i : i + n].reshape(shape) for i, n, shape in zip(starts, sizes, shapes)]
        self.spec, self.flat, self.w1 = spec, flat, views[:num]
        self.b1, self.w2, self.b2, self.head_w, self.head_b = views[num:]

    def arrays(self) -> Iterator[Array]:
        """All parameter arrays in declaration order (also the checkpoint order)."""
        for m, w1 in enumerate(self.w1):
            yield w1
            yield self.b1[m]
            yield self.w2[m]
            yield self.b2[m]
        yield self.head_w
        yield self.head_b


def param_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """The shapes of ClassifierParams(spec).arrays(), in declaration order, without allocating."""
    hidden, latent = spec.hidden_dim, spec.latent_dim
    rest = ((hidden,), (hidden, latent), (latent,))  # b1, w2 and b2 of every encoder
    encoders = [s for d in spec.modality_dims for s in ((d, hidden), *rest)]
    return encoders + [(latent, spec.num_classes), (spec.num_classes,)]


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
    row shares its masks and (B, K, M) when each row has its own. `hidden` is
    the stacked (M, B, H) encoder activations. A modality that no mask uses
    has a None `features` entry and a zero `hidden` slot; its latent is zero
    too, so its parameters never reach the logits.

    The softmax is kept as its two parts: `exp`, the (B, K, C) max-shifted
    exponentials of the logits, and `sums`, their (B, K) sums. The class
    probabilities are divided out only when read.
    """

    features: list[Array | None]
    hidden: Array
    weights: Array
    fused: Array
    exp: Array
    sums: Array

    @property
    def probs(self) -> Array:
        """(B, K, C) class probabilities, divided out on each read."""
        return self.exp / self.sums[..., None]

    def mask_probs(self, k: int) -> Array:
        """(B, C) class probabilities under mask k alone."""
        return self.exp[:, k] / self.sums[:, k, None]

    @property
    def confidence(self) -> Array:
        """(B, K) probability of the predicted class, bit for bit probs.max(-1).

        The predicted class's exponential is exactly 1.0, so its probability is 1.0 / sums.
        """
        return 1.0 / self.sums


def forward_masks(
    params: ClassifierParams, features: Sequence[Array | None], presence
) -> MaskedForward:
    """Encode each modality once for all rows, then mean-fuse and classify per mask.

    `features[m]` is the (B, d_m) float64 block of modality m, and `presence`
    the (K, M) or (B, K, M) boolean masks, each with at least one modality.
    A modality that no mask contains is skipped, never zero-filled; its block
    may be None.
    """
    presence = np.asarray(presence, dtype=bool)
    used = presence.reshape(-1, presence.shape[-1]).any(axis=0)
    blocks = [x if u else None for x, u in zip(features, used)]
    return forward_core(params, blocks, presence / presence.sum(axis=-1, keepdims=True))


def forward_core(params: ClassifierParams, blocks: list[Array | None], weights) -> MaskedForward:
    """forward_masks on mask weights: the presence divided by each mask's size.

    `blocks[m]` is None for a modality that no mask uses. It is encode_core
    followed by classify_core.
    """
    hidden, latents = encode_core(params, blocks)
    fused, exp, sums = classify_core(params, weights, latents)
    return MaskedForward(blocks, hidden, weights, fused, exp, sums)


def encode_core(params: ClassifierParams, blocks: list[Array | None]) -> tuple[Array, Array]:
    """The encoder half of forward_core: stacked (M, B, H) hidden activations, (M, B, L) latents.

    The hidden and latent slots of a modality that no mask uses stay zero: no
    operation reads its parameters.
    """
    used = [m for m, x in enumerate(blocks) if x is not None]
    hidden = np.zeros((len(blocks), len(blocks[used[0]]), params.b1.shape[1]))
    for m in used:  # one matmul per modality: the input dims differ
        np.matmul(blocks[m], params.w1[m], out=hidden[m])
    if len(used) == len(blocks):
        return hidden, _encoder_layers(hidden, params.b1, params.w2, params.b2)
    live = hidden[used]
    latents = np.zeros(hidden.shape[:2] + params.b2.shape[1:])
    latents[used] = _encoder_layers(live, params.b1[used], params.w2[used], params.b2[used])
    hidden[used] = live
    return hidden, latents


def encode_copies(params: ClassifierParams, m: int, copies: Array) -> Array:
    """The (k, B, L) latents of k stacked (k, B, d_m) copies of modality m's block.

    One numpy call per layer runs every copy, and each copy goes through the
    same BLAS calls as encode_core's slot m, so its latents are encode_core's bit for bit.
    """
    one = slice(m, m + 1)  # modality m's layers, broadcast over the copies
    return _encoder_layers(copies @ params.w1[m], params.b1[one], params.w2[one], params.b2[one])


def classify_core(params: ClassifierParams, weights, latents: Array) -> tuple[Array, Array, Array]:
    """The classifier half of forward_core: mean fusion, the head and the softmax parts.

    `latents` is (..., M, B, L) and `weights` (K, M) or (B, K, M). Returns the
    (..., B, K, L) fused latents, the (..., B, K, C) max-shifted exponentials
    and their (..., B, K) sums. Each leading index is a separate stack whose
    head runs as its own (B*K, L) matmul, so stacking changes no bit.
    """
    fused = weights @ latents.swapaxes(-3, -2)
    shape = fused.shape
    logits = fused.reshape(shape[:-3] + (-1, shape[-1])) @ params.head_w + params.head_b
    exp, sums = softmax_parts(logits)
    return fused, exp.reshape(shape[:-1] + (-1,)), sums.reshape(shape[:-1])


def _encoder_layers(hidden: Array, b1: Array, w2: Array, b2: Array) -> Array:
    """Bias and ReLU in place on the stacked (M, B, H) `hidden`; returns the (M, B, L) latents."""
    hidden += b1[:, None]
    np.maximum(hidden, 0.0, out=hidden)
    latents = hidden @ w2
    latents += b2[:, None]
    return latents


def backward_masks(
    params: ClassifierParams,
    fwd: MaskedForward,
    logit_grads: Array,
    out: ClassifierParams | None = None,
) -> ClassifierParams:
    """Exact parameter gradients of sum(logit_grads * logits) over every row and mask.

    `logit_grads` is float64 with fwd.exp's size. Each modality collects its
    latent gradient over every mask containing it before one encoder backward
    pass; the slot of a modality that no mask uses gets +0.0 without any
    operation reading its parameters. The gradients overwrite every array of
    `out` when it is given (so one buffer serves every batch) and go to a new
    ClassifierParams otherwise.
    """
    batch, num_masks, num_classes = fwd.exp.shape
    if out is None:
        out = ClassifierParams(params.spec, np.empty_like(params.flat))
    g = logit_grads.reshape(-1, num_classes)
    np.matmul(fwd.fused.reshape(-1, fwd.fused.shape[-1]).T, g, out=out.head_w)
    g.sum(axis=0, out=out.head_b)
    d_fused = (g @ params.head_w.T).reshape(batch, num_masks, -1)
    d_latents = (fwd.weights.swapaxes(-1, -2) @ d_fused).transpose(1, 0, 2)
    np.matmul(fwd.hidden.transpose(0, 2, 1), d_latents, out=out.w2)
    d_latents.sum(axis=1, out=out.b2)
    used = [m for m, x in enumerate(fwd.features) if x is not None]
    if len(used) == len(fwd.features):
        d_pre = _hidden_grads(fwd.hidden, d_latents, params.w2)
    else:
        d_pre = np.zeros_like(fwd.hidden)
        d_pre[used] = _hidden_grads(fwd.hidden[used], d_latents[used], params.w2[used])
    d_pre.sum(axis=1, out=out.b1)
    for m, x in enumerate(fwd.features):  # one matmul per modality: the input dims differ
        if x is None:
            out.w1[m][...] = out.b1[m] = out.w2[m] = out.b2[m] = 0.0
        else:
            np.matmul(x.T, d_pre[m], out=out.w1[m])
    return out


def _hidden_grads(hidden: Array, d_latents: Array, w2: Array) -> Array:
    """Gradient at the stacked (M, B, H) pre-activations from the (M, B, L) latent gradients.

    The ReLU subgradient at exactly zero is zero; no input gradient is needed.
    """
    return np.where(hidden > 0.0, d_latents @ w2.transpose(0, 2, 1), 0.0)


def save_checkpoint(path, params: ClassifierParams) -> None:
    """Write magic line, JSON header (with `params.spec`), then raw little-endian float64 arrays.

    Arrays follow in declaration order (per modality: w1, b1, w2, b2; then the
    head weights and bias), each C-contiguous. Round-trips are bit-exact.
    """
    header = {
        "spec": params.spec.to_json_dict(),
        "arrays": [list(a.shape) for a in params.arrays()],
        "dtype": "<f8",
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True, allow_nan=False).encode("ascii") + b"\n")
        fh.writelines(a.astype("<f8").tobytes() for a in params.arrays())


def load_checkpoint(path) -> tuple[ModelSpec, ClassifierParams]:
    """The spec and parameters that save_checkpoint wrote; `params.spec` is that spec."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n").decode("ascii", errors="replace")
        if magic != CHECKPOINT_MAGIC:
            raise StateError(f"{path}: not a checkpoint file (magic {magic!r})")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            header = check_section("header", header, _HEADER_SCHEMA, required=("spec", "arrays"))
            spec = ModelSpec.from_json_dict(header["spec"])
        except ValueError as exc:
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
    # The file holds the arrays in declaration order; `flat` stacks the encoder layers.
    params = ClassifierParams(spec, np.empty(values.size))
    start = 0
    for view in params.arrays():
        view[...] = values[start : start + view.size].reshape(view.shape)
        start += view.size
    return spec, params
