"""Evaluation metrics and report assembly.

AURC uses the discrete risk-coverage average: sort predictions by descending
confidence (ties broken by original index, never by correctness), let r(i) be
the error rate among the top i, and average r(i) over i = 1..n. E-AURC
subtracts the AURC of the optimal reordering of the same correctness multiset
(all correct first), so it is always >= 0.

Reports carry raw values plus the conventional reporting scales:
NLL x10, AURC and E-AURC x1000, VRR as a percentage.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import Array

NLL_SCALE = 10.0
AURC_SCALE = 1000.0
VRR_SCALE = 100.0


def accuracy(correct: Array) -> float:
    """Percentage of correct predictions."""
    return 100.0 * int(np.count_nonzero(correct)) / len(correct)


def _mean(values: Array) -> float:
    """np.mean's value for a float64 column (the same sum and divide), without its wrapper."""
    return float(values.sum() / len(values))


def _risk_coverage_average(errors_in_order: Array) -> float:
    # cumsum adds left to right, as a running Python total would; np.sum would not.
    risk = np.cumsum(errors_in_order) / np.arange(1, len(errors_in_order) + 1)
    return float(np.cumsum(risk)[-1] / len(errors_in_order))


def aurc(confidence, correct) -> float:
    """Area under the discrete risk-coverage curve (lower is better)."""
    order = np.argsort(-np.asarray(confidence), kind="stable")  # ties keep their original order
    return _risk_coverage_average(~np.asarray(correct, dtype=bool)[order])


def e_aurc(aurc_value: float, correct) -> float:
    """AURC in excess of the best achievable ordering (all correct first).

    `aurc_value` is aurc(confidence, correct) for this `correct`, so a report
    computes one AURC for both values.
    """
    num_correct = int(np.count_nonzero(correct))
    optimal = _risk_coverage_average(np.arange(len(correct)) >= num_correct)
    excess = aurc_value - optimal
    assert excess >= -1e-12, f"E-AURC below zero beyond float noise: {excess}"
    return max(excess, 0.0)


def mean_abs_conf_shift(conf_a, conf_b) -> float:
    """Mean |conf_a - conf_b| of two models' confidence columns on the same predictions."""
    return float(np.abs(conf_a - conf_b).mean())


@dataclass(frozen=True)
class MetricsReport:
    accuracy_pct: float
    nll_raw: float
    nll_scaled: float
    aurc_raw: float
    aurc_scaled: float
    e_aurc_raw: float
    e_aurc_scaled: float
    vrr_raw: float
    vrr_pct: float
    mean_confidence_full: float
    mean_confidence_by_subset_size: dict[int, float]

    def to_json_dict(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["mean_confidence_by_subset_size"] = {
            str(size): conf for size, conf in sorted(self.mean_confidence_by_subset_size.items())
        }
        return obj


def build_report(
    confidence,
    correct,
    nll,
    vrr: float,
    mean_conf_by_size: dict[int, float],
) -> MetricsReport:
    """Assemble a report from per-prediction columns, applying the reporting scales.

    `confidence`, `correct` and `nll` are nonempty 1-D columns of one length,
    `confidence` and `nll` float64, as evaluation produces them.
    """
    nll_value = _mean(nll)
    aurc_value = aurc(confidence, correct)
    e_aurc_value = e_aurc(aurc_value, correct)
    return MetricsReport(
        accuracy_pct=accuracy(correct),
        nll_raw=nll_value,
        nll_scaled=nll_value * NLL_SCALE,
        aurc_raw=aurc_value,
        aurc_scaled=aurc_value * AURC_SCALE,
        e_aurc_raw=e_aurc_value,
        e_aurc_scaled=e_aurc_value * AURC_SCALE,
        vrr_raw=vrr,
        vrr_pct=vrr * VRR_SCALE,
        mean_confidence_full=_mean(confidence),
        mean_confidence_by_subset_size=dict(mean_conf_by_size),
    )

