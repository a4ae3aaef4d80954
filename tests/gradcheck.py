"""Central finite-difference check of analytic gradients, for the gradient tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from rankcal.errors import DimensionError, NumericError


def _as_vector(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    passed: bool
    num_checked: int
    worst_index: int


def grad_check(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params,
    tolerance: float = 1e-4,
    step: float = 1e-5,
    max_checked: int = 10_000,
    seed: int = 0,
) -> GradCheckResult:
    """Compare an analytic gradient against central finite differences.

    `objective(params) -> (loss, grad)` must be deterministic. Every parameter
    is probed; above `max_checked` parameters a seeded random subsample is
    used. The relative error per parameter is
    |analytic - numeric| / max(1, |analytic| + |numeric|).
    """
    theta = _as_vector(params, "params").copy()
    loss0, analytic = objective(theta)
    analytic = _as_vector(analytic, "gradient").copy()
    if not np.isfinite(loss0) or not np.all(np.isfinite(analytic)):
        raise NumericError("objective returned non-finite loss or gradient")
    if analytic.shape != theta.shape:
        raise DimensionError(f"gradient {analytic.shape} does not match params {theta.shape}")

    n = theta.shape[0]
    if n > max_checked:
        indices = np.random.default_rng(seed).choice(n, size=max_checked, replace=False)
        indices.sort()
    else:
        indices = np.arange(n)

    max_err = 0.0
    worst = -1
    for idx in indices:
        saved = theta[idx]
        theta[idx] = saved + step
        loss_plus = objective(theta)[0]
        theta[idx] = saved - step
        loss_minus = objective(theta)[0]
        theta[idx] = saved
        if not np.isfinite(loss_plus) or not np.isfinite(loss_minus):
            raise NumericError(f"non-finite loss while probing parameter {idx}")
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        err = abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]) + abs(numeric))
        if err > max_err:
            max_err = err
            worst = int(idx)
    return GradCheckResult(
        max_rel_error=max_err,
        passed=max_err <= tolerance,
        num_checked=len(indices),
        worst_index=worst,
    )
