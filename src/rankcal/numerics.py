"""The softmax parts, the NLL loss and the Adam optimizer.

Everything operates on row-major float64 numpy arrays, batched over rows.
Apart from adam_update, which steps its parameters and state in place, every
function is pure: identical calls give bit-identical results.

softmax_parts sums the classes with a running add over the class columns
under 8 classes, and with numpy's own sum from 8 on. numpy adds fewer than 8
values left to right and more in pairwise blocks, so the sums are
exp.sum(axis=-1) bit for bit either way.
"""

from __future__ import annotations

import functools
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
    """The max-shifted exponentials of the logits and their sums over the last axis.

    softmax is the exponentials divided by their sums. The largest logit's
    exponential is exp(0) = 1.0 exactly, so 1.0 / sums is bit for bit the
    largest probability: correctly rounded division is monotone.
    The sums are bit for bit exp.sum(axis=-1) (see the module docstring).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] < 2:
        raise DimensionError("softmax needs at least 2 logits")
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite logits: {describe_bad(~np.isfinite(z))}")
    # A running maximum over the class slices: np.max over a short last axis is slow per row.
    exp = z - functools.reduce(np.maximum, z.T).T[..., None]
    np.exp(exp, out=exp)
    if z.shape[-1] < _PAIRWISE_BLOCK:
        # The same additions in the same order, but numpy's sum runs them row by row.
        return exp, functools.reduce(np.add, exp.T).T
    return exp, exp.sum(axis=-1)


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
