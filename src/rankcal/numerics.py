"""The softmax parts, the NLL loss and the Adam optimizer.

Everything operates on float64 numpy arrays, batched over rows. Apart from
adam_update, which steps its parameters and state in place, every function is
pure: identical calls give bit-identical results.

softmax_parts is class-major: its (..., C, N) logits hold one row of N values
per class, so the class maximum and sum are one reduce each. numpy sums fewer
than 8 values left to right, as that reduce adds the class rows, and more in
pairwise blocks, so from 8 classes on the sums come from a row-major copy. The
sums are the row-major exp.sum(axis=-1) bit for bit either way. model.py's
docstring gives the two traps in building such logits: the head matmul's form
and the bias add's memory order.

A Workspace holds every batch-sized array of one training step for one batch
shape. The step's functions take it as their last argument and write each
temporary into its array with out=. calibration.objective_core and
model.backward_masks need one; the others default to ALLOCATE, which has no
arrays, so numpy allocates each temporary as the call needs it. Both give the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError

Array = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# numpy sums fewer values than this left to right and more in pairwise blocks.
_PAIRWISE_BLOCK = 8


def describe_bad(bad: Array) -> str:
    """One line for a boolean mask of bad entries: how many, and the first one's index."""
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"{int(bad.sum())} of {bad.size}, the first at index {first}"


@dataclass(frozen=True, eq=False)
class Workspace:
    """The batch-sized arrays of one training step, for B rows under K masks each.

    for_batch allocates them once; every step of that shape then rewrites the
    same arrays, so whatever a step returns that views them (a MaskedForward,
    a ChainObjective's confidence) is overwritten by the next step. A field
    left None is allocated afresh by the call that needs it: ALLOCATE, the
    default of the forward and softmax functions, leaves all of them None
    (`padded`, `rows` and `columns` serve only objective_core).
    Shapes use M modalities, hidden size H, latent size L and C classes.
    """

    hidden: Array | None = None  # (M, B, H) encoder activations
    latents: Array | None = None  # (M, B, L)
    fused: Array | None = None  # (B, K, L) fused latents
    head_rows: Array | None = None  # (B*K, C) head output, before the bias
    logits: Array | None = None  # (C, B*K) class-major logits; softmax_parts exponentiates in place
    shift: Array | None = None  # (B*K,) each column's largest logit
    finite: Array | None = None  # (C, B*K) bool: which logits are finite
    sums: Array | None = None  # (B*K,) the exponentials' sums
    probs: Array | None = None  # (C, B*K) probabilities, then the confidences' logit gradients
    logit_grads: Array | None = None  # (C, B*K), the transpose of a row-major (B*K, C) array
    predicted: Array | None = None  # (B*K,) argmax class
    confidence: Array | None = None  # (B, K)
    padded: Array | None = None  # (B, K + 1) chain gradient; columns 0 and K stay zero
    d_fused: Array | None = None  # (B*K, L)
    d_latents: Array | None = None  # (B, M, L)
    d_pre: Array | None = None  # (M, B, H) pre-activation gradients
    active: Array | None = None  # (M, B, H) bool ReLU mask
    rows: Array | None = None  # arange(B), to index the rows
    columns: Array | None = None  # arange(B*K), to index the class-major columns

    @classmethod
    def for_batch(cls, spec, batch: int, num_masks: int) -> "Workspace":
        """Every array of a step of `batch` rows under `num_masks` masks of a model.ModelSpec."""
        num, hidden, latent = spec.num_modalities, spec.hidden_dim, spec.latent_dim
        classes, width = spec.num_classes, batch * num_masks  # width: the B*K columns
        return cls(
            hidden=np.empty((num, batch, hidden)),
            latents=np.empty((num, batch, latent)),
            fused=np.empty((batch, num_masks, latent)),
            head_rows=np.empty((width, classes)),
            logits=np.empty((classes, width)),
            shift=np.empty(width),
            finite=np.empty((classes, width), dtype=bool),
            sums=np.empty(width),
            probs=np.empty((classes, width)),
            logit_grads=np.empty((width, classes)).T,
            predicted=np.empty(width, dtype=np.intp),
            confidence=np.empty((batch, num_masks)),
            padded=np.zeros((batch, num_masks + 1)),
            d_fused=np.empty((width, latent)),
            d_latents=np.empty((batch, num, latent)),
            d_pre=np.empty((num, batch, hidden)),
            active=np.empty((num, batch, hidden), dtype=bool),
            rows=np.arange(batch),
            columns=np.arange(width),
        )


ALLOCATE = Workspace()


def softmax_parts(logits, workspace: Workspace = ALLOCATE) -> tuple[Array, Array]:
    """The max-shifted exponentials of class-major (..., C, N) logits and their (..., N) sums.

    softmax is the exponentials divided by their sums. The largest logit's
    exponential is exp(0) = 1.0 exactly, so 1.0 / sums is bit for bit the
    largest probability: correctly rounded division is monotone. The sums are
    bit for bit the row-major exp.sum(axis=-1) (see the module docstring).
    `exp` keeps the memory order of `logits`: give it C-contiguous rows. With
    a workspace, `exp` is its `logits` array, so logits that live there are
    exponentiated in place.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2 or z.shape[-2] < 2:
        raise DimensionError("softmax needs at least 2 logits")
    # ndarray.all without its Python wrapper
    if not np.logical_and.reduce(np.isfinite(z, out=workspace.finite), axis=None):
        raise NumericError(f"non-finite logits: {describe_bad(~np.isfinite(z))}")
    shift = np.maximum.reduce(z, axis=-2, out=workspace.shift)
    exp = np.subtract(z, shift[..., None, :], out=workspace.logits)
    np.exp(exp, out=exp)
    if z.shape[-2] < _PAIRWISE_BLOCK:
        return exp, np.add.reduce(exp, axis=-2, out=workspace.sums)
    rows = np.ascontiguousarray(exp.swapaxes(-1, -2))
    return exp, np.add.reduce(rows, axis=-1, out=workspace.sums)


def nll_loss(probs: Array, labels: Array) -> Array:
    """Negative log-likelihood of the true class per row: `probs` is (N, C), `labels` (N,)."""
    return -np.log(probs[np.arange(len(labels)), labels])


@dataclass
class AdamState:
    """Optimizer state over a flat parameter vector; adam_update advances it in place."""

    first_moment: Array
    second_moment: Array
    step_count: int
    learning_rate: float
    # Two work vectors of the moments' size, so a step allocates no temporaries.
    scratch: tuple[Array, Array] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def init_adam_state(num_params: int, learning_rate: float) -> AdamState:
    """Zero moments for `num_params` parameters; the betas and epsilon are the ADAM_* constants."""
    return AdamState(np.zeros(num_params), np.zeros(num_params), 0, learning_rate)


def adam_update(params: Array, grads: Array, state: AdamState) -> None:
    """One bias-corrected Adam step, applied in place to `params` and `state`.

    `params`, `grads` and the state's moments are float64 vectors of one length.
    """
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    step, denom = state.scratch
    # The textbook expression's operations in its order, written into the scratch vectors.
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grads, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grads, out=step), grads, out=step)
    np.multiply(state.learning_rate, np.divide(m, 1.0 - ADAM_BETA1**t, out=step), out=step)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=denom), out=denom)
    denom += ADAM_EPSILON
    params -= np.divide(step, denom, out=step)
