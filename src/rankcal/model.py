"""Multimodal classifier over arbitrary nonempty modality subsets.

Each modality gets its own two-layer encoder (affine -> ReLU -> affine); the
latents of the modalities that are actually present are fused by an arithmetic
mean and fed to a shared linear head. Removing a modality is true absence via
the mask, never zero-filling, so the same parameters serve every subset.

One batched path serves training and evaluation: forward_masks encodes a batch
of rows once and classifies it under K masks at a time, given as a presence
tensor, and backward_masks returns the matching parameter gradients. Each is a
boundary around a core: prepare_masks and the shape check of backward_masks
check and convert the inputs, and forward_core/backward_core do only the
arithmetic, so a caller that has checked its inputs once can call them per batch.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, MaskError, SpecError, StateError, check_section
from .numerics import Array, softmax

CHECKPOINT_MAGIC = "rankcal-checkpoint v1"

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
        return {
            "modality_dims": list(self.modality_dims),
            "hidden_dim": self.hidden_dim,
            "latent_dim": self.latent_dim,
            "num_classes": self.num_classes,
        }

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

    @classmethod
    def parse(cls, text: str) -> "SubsetMask":
        try:
            return cls.of(int(part) for part in text.split("+"))
        except ValueError as exc:
            raise MaskError(f"cannot parse mask {text!r}") from exc


@dataclass
class EncoderParams:
    w1: Array
    b1: Array
    w2: Array
    b2: Array


class ClassifierParams:
    """Every parameter array as a view into one flat float64 buffer.

    `flat` holds the arrays in declaration order (per modality w1, b1, w2, b2;
    then the head weights and bias), which is also the checkpoint order. An
    in-place write to `flat` shows through every named array and vice versa;
    rebinding a named attribute would break that link.
    """

    def __init__(self, encoders: Sequence[EncoderParams], head_w, head_b):
        arrays = [a for e in encoders for a in (e.w1, e.b1, e.w2, e.b2)] + [head_w, head_b]
        flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
        self._bind(flat, [np.shape(a) for a in arrays])

    @classmethod
    def from_flat(cls, shapes: Sequence[tuple[int, ...]], flat: Array) -> "ClassifierParams":
        """Views of `shapes` into `flat` itself (no copy)."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat: Array, shapes: Sequence[tuple[int, ...]]) -> None:
        if flat.dtype != np.float64 or flat.ndim != 1:
            raise DimensionError(f"flat parameters must be 1-D float64: {flat.dtype}{flat.shape}")
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) != flat.size or len(shapes) < 6 or len(shapes) % 4 != 2:
            raise DimensionError(f"flat vector of size {flat.size} does not match shapes {shapes}")
        starts = itertools.accumulate(sizes, initial=0)
        views = [flat[i : i + size].reshape(shape) for i, size, shape in zip(starts, sizes, shapes)]
        self.flat = flat
        self.encoders = [EncoderParams(*views[i : i + 4]) for i in range(0, len(views) - 2, 4)]
        self.head_w, self.head_b = views[-2:]

    @property
    def num_modalities(self) -> int:
        return len(self.encoders)

    def arrays(self) -> Iterator[Array]:
        """All parameter arrays in declaration order (also the checkpoint order)."""
        for enc in self.encoders:
            yield enc.w1
            yield enc.b1
            yield enc.w2
            yield enc.b2
        yield self.head_w
        yield self.head_b

    def spec_signature(self) -> tuple:
        return tuple(a.shape for a in self.arrays())


def derived_spec(params: ClassifierParams) -> ModelSpec:
    """Reconstruct the ModelSpec implied by parameter shapes."""
    return ModelSpec(
        modality_dims=tuple(e.w1.shape[0] for e in params.encoders),
        hidden_dim=params.encoders[0].w1.shape[1],
        latent_dim=params.head_w.shape[0],
        num_classes=params.head_w.shape[1],
    )


def param_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Parameter array shapes in declaration order."""
    shapes: list[tuple[int, ...]] = []
    for d in spec.modality_dims:
        shapes += [(d, spec.hidden_dim), (spec.hidden_dim,), (spec.hidden_dim, spec.latent_dim)]
        shapes.append((spec.latent_dim,))
    return shapes + [(spec.latent_dim, spec.num_classes), (spec.num_classes,)]


def init_params(spec: ModelSpec, seed: int) -> ClassifierParams:
    """Uniform Xavier weights in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(spec)
    params = ClassifierParams.from_flat(shapes, np.zeros(sum(math.prod(s) for s in shapes)))
    for weights in params.arrays():
        if weights.ndim == 2:
            limit = np.sqrt(6.0 / sum(weights.shape))
            weights[...] = rng.uniform(-limit, limit, size=weights.shape)
    return params


def presence_matrix(masks: Sequence[SubsetMask], num_modalities: int) -> Array:
    """(K, M) boolean matrix: row k marks the modalities of masks[k]."""
    presence = np.zeros((len(masks), num_modalities), dtype=bool)
    for k, mask in enumerate(masks):
        mask.validate_for(num_modalities)
        presence[k, list(mask.present)] = True
    return presence


@dataclass
class MaskedForward:
    """Activations of a batch of rows under K masks; what backward_masks needs.

    `weights` (the presence divided by each mask's size) is (K, M) when every
    row shares its masks and (B, K, M) when each row has its own. Encoders
    that no mask uses are not run; their `features` and `hidden` entries are None.
    """

    features: list[Array | None]
    hidden: list[Array | None]
    weights: Array
    fused: Array
    probs: Array

    @property
    def predicted(self) -> Array:
        """(B, K) argmax class; exact ties go to the lowest index."""
        return self.probs.argmax(axis=-1)

    @property
    def confidence(self) -> Array:
        """(B, K) probability of the predicted class."""
        return self.probs.max(axis=-1)


def prepare_masks(
    params: ClassifierParams, features: Sequence[Array | None], presence
) -> tuple[list[Array | None], Array]:
    """The checks of forward_masks: the float64 feature blocks and the mask weights.

    A block is None for a modality that no mask uses; the weights are the
    presence divided by each mask's size, (K, M) or (B, K, M) like it.
    """
    num_modalities = params.num_modalities
    if len(features) != num_modalities:
        raise DimensionError(f"expected {num_modalities} modality blocks, got {len(features)}")
    presence = np.asarray(presence, dtype=bool)
    if presence.ndim not in (2, 3) or presence.shape[-1] != num_modalities:
        raise DimensionError(
            f"presence {presence.shape} must be (K, {num_modalities}) or (B, K, {num_modalities})"
        )
    if presence.shape[-2] == 0:
        raise MaskError(f"presence {presence.shape} holds no masks")
    if presence.ndim == 3 and presence.shape[0] == 0:
        raise DimensionError(f"presence {presence.shape} has no rows")
    sizes = presence.sum(axis=-1, keepdims=True)
    if not sizes.all():
        raise MaskError("every mask must contain at least one modality")
    used = presence.reshape(-1, num_modalities).any(axis=0)

    blocks: list[Array | None] = [None] * num_modalities
    rows = None
    for m in used.nonzero()[0]:
        if features[m] is None:
            raise DimensionError(f"modality {m} is in a mask but has no features")
        x = blocks[m] = np.asarray(features[m], dtype=np.float64)
        x_dim = params.encoders[m].w1.shape[0]
        if x.ndim != 2 or x.shape[1] != x_dim or x.shape[0] == 0:
            raise DimensionError(f"modality {m}: features {x.shape} are not (B>=1, {x_dim})")
        rows = x.shape[0] if rows is None else rows
        if x.shape[0] != rows:
            raise DimensionError(f"modality {m} has {x.shape[0]} rows, not {rows}")
    if presence.ndim == 3 and presence.shape[0] != rows:
        raise DimensionError(f"presence has {presence.shape[0]} rows, features {rows}")
    return blocks, presence / sizes


def forward_masks(
    params: ClassifierParams, features: Sequence[Array | None], presence
) -> MaskedForward:
    """Encode each modality once for all rows, then mean-fuse and classify per mask.

    `features[m]` is the (B, d_m) block of modality m; it may be None when no
    mask contains m, since absent modalities are skipped, never zero-filled.
    """
    return forward_core(params, *prepare_masks(params, features, presence))


def forward_core(params: ClassifierParams, blocks: list[Array | None], weights) -> MaskedForward:
    """forward_masks without its checks, on prepare_masks's output; softmax still checks."""
    hidden: list[Array | None] = [None] * len(blocks)
    latents = None
    for m, x in enumerate(blocks):
        if x is None:
            continue
        enc = params.encoders[m]
        if latents is None:
            latents = np.zeros((x.shape[0], len(blocks), enc.w2.shape[1]))
        hidden[m] = np.maximum(x @ enc.w1 + enc.b1, 0.0)
        np.add(hidden[m] @ enc.w2, enc.b2, out=latents[:, m])
    fused = weights @ latents
    batch, num_masks, latent_dim = fused.shape
    logits = fused.reshape(-1, latent_dim) @ params.head_w + params.head_b
    probs = softmax(logits).reshape(batch, num_masks, -1)
    return MaskedForward(blocks, hidden, weights, fused, probs)


def backward_masks(
    params: ClassifierParams, fwd: MaskedForward, logit_grads, out: ClassifierParams | None = None
) -> ClassifierParams:
    """Exact parameter gradients of sum(logit_grads * logits) over every row and mask.

    Each modality collects its latent gradient over every mask containing it
    before one encoder backward pass; encoders that no mask used get zeros.
    The gradients overwrite every array of `out` when it is given (so one
    buffer serves every batch) and go to a new ClassifierParams otherwise.
    """
    g = np.asarray(logit_grads, dtype=np.float64)
    if g.shape != fwd.probs.shape:
        raise StateError(f"logit gradients {g.shape} do not match the forward {fwd.probs.shape}")
    return backward_core(params, fwd, g, out)


def backward_core(
    params: ClassifierParams, fwd: MaskedForward, logit_grads: Array, out: ClassifierParams | None
) -> ClassifierParams:
    """backward_masks without its checks: `logit_grads` is float64 with fwd.probs's size."""
    batch, num_masks, num_classes = fwd.probs.shape
    if out is None:
        out = ClassifierParams.from_flat(params.spec_signature(), np.empty_like(params.flat))
    out.flat.fill(0.0)  # encoders that no mask used keep these zeros
    g = logit_grads.reshape(-1, num_classes)
    np.matmul(fwd.fused.reshape(-1, fwd.fused.shape[-1]).T, g, out=out.head_w)
    g.sum(axis=0, out=out.head_b)
    d_fused = (g @ params.head_w.T).reshape(batch, num_masks, -1)
    d_latents = fwd.weights.swapaxes(-1, -2) @ d_fused
    for m, (enc, genc) in enumerate(zip(params.encoders, out.encoders)):
        hidden = fwd.hidden[m]
        if hidden is None:
            continue
        d_latent = d_latents[:, m]
        np.matmul(hidden.T, d_latent, out=genc.w2)
        d_latent.sum(axis=0, out=genc.b2)
        # The ReLU subgradient at exactly zero is zero; no input gradient is needed.
        d_pre = np.where(hidden > 0.0, d_latent @ enc.w2.T, 0.0)
        np.matmul(fwd.features[m].T, d_pre, out=genc.w1)
        d_pre.sum(axis=0, out=genc.b1)
    return out


def save_checkpoint(path, spec: ModelSpec, params: ClassifierParams) -> None:
    """Write magic line, JSON header, then raw little-endian float64 arrays.

    Arrays follow in declaration order (per modality: w1, b1, w2, b2; then the
    head weights and bias), each C-contiguous. Round-trips are bit-exact.
    """
    header = {
        "spec": spec.to_json_dict(),
        "arrays": [list(a.shape) for a in params.arrays()],
        "dtype": "<f8",
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelSpec, ClassifierParams]:
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
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise StateError(f"{path}: non-finite parameter values")
    return spec, ClassifierParams.from_flat(shapes, flat)
