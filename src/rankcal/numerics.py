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


def softmax_parts(logits) -> tuple[Array, Array]:
    """The max-shifted exponentials of class-major (..., C, N) logits and their (..., N) sums.

    softmax is the exponentials divided by their sums. The largest logit's
    exponential is exp(0) = 1.0 exactly, so 1.0 / sums is bit for bit the
    largest probability: correctly rounded division is monotone. The sums are
    bit for bit the row-major exp.sum(axis=-1) (see the module docstring).
    `exp` keeps the memory order of `logits`: give it C-contiguous rows.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2 or z.shape[-2] < 2:
        raise DimensionError("softmax needs at least 2 logits")
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite logits: {describe_bad(~np.isfinite(z))}")
    exp = z - np.maximum.reduce(z, axis=-2)[..., None, :]
    np.exp(exp, out=exp)
    if z.shape[-2] < _PAIRWISE_BLOCK:
        return exp, np.add.reduce(exp, axis=-2)
    return exp, np.ascontiguousarray(exp.swapaxes(-1, -2)).sum(axis=-1)


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
