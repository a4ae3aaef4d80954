"""Softmax, the NLL loss and the Adam optimizer.

Everything operates on row-major float64 numpy arrays, batched over rows.
Apart from adam_update, which steps its parameters and state in place, every
function is pure: identical calls give bit-identical results.
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


def _as_vector(values, name: str) -> Array:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def describe_bad(bad: Array) -> str:
    """One line for a boolean mask of bad entries: how many, and the first one's index."""
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"{int(bad.sum())} of {bad.size}, the first at index {first}"


def softmax_parts(logits) -> tuple[Array, Array]:
    """The max-shifted exponentials of the logits and their sums over the last axis.

    softmax is the exponentials divided by their sums. The largest logit's
    exponential is exp(0) = 1.0 exactly, so 1.0 / sums is bit for bit the
    largest probability: correctly rounded division is monotone.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] < 2:
        raise DimensionError("softmax needs at least 2 logits")
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite logits: {describe_bad(~np.isfinite(z))}")
    # A running maximum over the class slices: np.max over a short last axis is slow per row.
    exp = z - functools.reduce(np.maximum, z.T).T[..., None]
    np.exp(exp, out=exp)
    return exp, exp.sum(axis=-1)


def softmax(logits) -> Array:
    """Max-subtracted softmax over the last axis (one distribution per row)."""
    exp, sums = softmax_parts(logits)
    exp /= sums[..., None]
    return exp


def _true_class_index(probs, labels) -> tuple[Array, tuple[Array, Array]]:
    """`probs` as one row per distribution, and the (row, label) index of each true class."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.broadcast_to(np.asarray(labels), p.shape[:-1])
    if ((y < 0) | (y >= p.shape[-1])).any():
        raise IndexError(f"labels {y} out of range for {p.shape[-1]} classes")
    return p.reshape(-1, p.shape[-1]), (np.arange(y.size), y.ravel())


def nll_loss(probs, labels) -> Array:
    """Negative log-likelihood of the true class, per row of `probs`.

    `labels` broadcasts against the leading axes of `probs`.
    """
    rows, true_class = _true_class_index(probs, labels)
    return -np.log(rows[true_class]).reshape(np.shape(probs)[:-1])


def nll_loss_grad(probs, labels) -> Array:
    """Gradient of nll_loss w.r.t. the logits that produced `probs`: probs - onehot."""
    rows, true_class = _true_class_index(probs, labels)
    grad = rows.copy()
    grad[true_class] -= 1.0
    return grad.reshape(np.shape(probs))


@dataclass
class AdamState:
    """Optimizer state over a flat parameter vector; adam_update advances it in place."""

    first_moment: Array
    second_moment: Array
    step_count: int
    learning_rate: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPSILON
    # Two work vectors of the moments' size, so a step allocates no temporaries.
    scratch: tuple[Array, Array] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def init_adam_state(
    num_params: int,
    learning_rate: float = 1e-3,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    epsilon: float = ADAM_EPSILON,
) -> AdamState:
    return AdamState(
        first_moment=np.zeros(num_params),
        second_moment=np.zeros(num_params),
        step_count=0,
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_update(params: Array, grads, state: AdamState) -> None:
    """One bias-corrected Adam step, applied in place to `params` and `state`."""
    g = _as_vector(grads, "grads")
    if params.ndim != 1 or params.shape != g.shape or params.shape != state.first_moment.shape:
        raise DimensionError(
            f"params {params.shape}, grads {g.shape}, state {state.first_moment.shape} disagree"
        )
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    step, denom = state.scratch
    # The textbook expression's operations in its order, written into the scratch vectors.
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, g, out=step)
    v *= state.beta2
    v += np.multiply(np.multiply(1.0 - state.beta2, g, out=step), g, out=step)
    np.multiply(state.learning_rate, np.divide(m, 1.0 - state.beta1**t, out=step), out=step)
    np.sqrt(np.divide(v, 1.0 - state.beta2**t, out=denom), out=denom)
    denom += state.epsilon
    params -= np.divide(step, denom, out=step)
