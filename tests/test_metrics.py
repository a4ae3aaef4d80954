from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from rankcal import metrics
from rankcal.data import json_text
from rankcal.metrics import (
    MetricsReport,
    accuracy,
    aurc,
    build_report,
    e_aurc,
    mean_abs_conf_shift,
)


def report(confidence, correct, nll, vrr=0.0, by_size=None) -> MetricsReport:
    """build_report on float64 columns, as evaluation passes them."""
    columns = np.asarray(confidence, dtype=np.float64), np.asarray(correct, dtype=bool)
    nll = np.asarray(nll, dtype=np.float64)
    return build_report(*columns, nll, vrr=vrr, mean_conf_by_size=by_size or {1: 0.5})


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.ones(5, dtype=bool)) == 100.0

    def test_one_of_four(self):
        assert accuracy(np.array([True, False, False, False])) == 25.0

    def test_none_correct(self):
        assert accuracy(np.zeros(3, dtype=bool)) == 0.0


class TestMeanNll:
    """The report's nll_raw: the mean of the per-prediction NLL column."""

    @staticmethod
    def mean_nll(nll) -> float:
        return report(np.full(len(nll), 0.5), np.ones(len(nll), dtype=bool), nll).nll_raw

    def test_single_half(self):
        assert self.mean_nll([math.log(2.0)]) == pytest.approx(math.log(2.0))

    def test_confident_goes_to_zero(self):
        assert self.mean_nll(np.full(2, 1e-15)) < 1e-14

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(1)
        nll = rng.uniform(0, 3, 37)
        naive = sum(nll.tolist()) / len(nll)
        assert abs(self.mean_nll(nll) - naive) < 1e-12


class TestAurc:
    def test_all_correct_is_zero(self):
        assert aurc([0.9, 0.5], [True, True]) == 0.0

    def test_hand_example_good_ranking(self):
        # top-1 risk 0, top-2 risk 1/2 -> mean 0.25
        assert aurc([0.9, 0.8], [True, False]) == 0.25

    def test_hand_example_bad_ranking(self):
        # top-1 risk 1, top-2 risk 1/2 -> mean 0.75
        assert aurc([0.9, 0.8], [False, True]) == 0.75

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        confs = rng.permutation(np.linspace(0.1, 0.99, 25))
        correct = rng.integers(2, size=25).astype(bool)
        assert aurc(confs, correct) == aurc(0.5 * confs**3 + 0.1, correct)

    def test_permutation_invariance_distinct_confidences(self):
        rng = np.random.default_rng(3)
        confs = np.linspace(0.2, 0.9, 15)
        correct = rng.integers(2, size=15).astype(bool)
        order = rng.permutation(15)
        assert aurc(confs[order], correct[order]) == aurc(confs, correct)
        shuffled = e_aurc(aurc(confs[order], correct[order]), correct[order])
        assert shuffled == e_aurc(aurc(confs, correct), correct)

    def test_tie_break_by_original_index(self):
        # equal confidences: the earlier element is ranked first
        assert aurc([0.8, 0.8], [False, True]) == 0.75
        assert aurc([0.8, 0.8], [True, False]) == 0.25

    def test_bit_equal_to_sorted_key_loop_with_ties(self):
        from reference import reference_aurc

        rng = np.random.default_rng(8)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            # few distinct levels, so most cases have tied confidences
            confs = rng.integers(1, int(rng.integers(2, 6)), size=n) / 5.0
            correct = rng.integers(2, size=n).astype(bool)
            value = reference_aurc(confs, correct)
            optimal = reference_aurc(np.zeros(n), np.sort(correct)[::-1])
            assert aurc(confs, correct) == value
            assert e_aurc(aurc(confs, correct), correct) == max(value - optimal, 0.0)


class TestEAurc:
    def test_all_correct_zero(self):
        correct = np.ones(4, dtype=bool)
        assert e_aurc(aurc(np.full(4, 0.9), correct), correct) == 0.0

    def test_hand_example(self):
        assert e_aurc(aurc([0.9, 0.8], [False, True]), [False, True]) == 0.5

    def test_perfectly_ranked_zero(self):
        correct = [True, True, False, False]
        assert e_aurc(aurc([0.9, 0.8, 0.5, 0.4], correct), correct) == 0.0

    def test_non_negative_on_random_fixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            confs, correct = rng.uniform(0.2, 1.0, n), rng.integers(2, size=n).astype(bool)
            assert e_aurc(aurc(confs, correct), correct) >= 0.0


class TestMeanAbsConfShift:
    def test_identical_columns_zero(self):
        conf = np.random.default_rng(0).uniform(0.5, 1.0, 6)
        assert mean_abs_conf_shift(conf, conf.copy()) == 0.0

    def test_hand_example(self):
        conf_a = np.array([0.8, 0.6, 0.9])
        conf_b = np.array([0.7, 0.9, 0.9])
        assert mean_abs_conf_shift(conf_a, conf_b) == pytest.approx(0.4 / 3, abs=1e-15)


class TestBuildReport:
    def make_report(self) -> MetricsReport:
        by_size = {1: 0.5, 2: 0.85}
        nll = [2.049, 2.049]
        return report([0.9, 0.8], [True, False], nll, vrr=0.2338, by_size=by_size)

    def test_scales(self):
        report = self.make_report()
        assert report.vrr_pct == pytest.approx(23.38, abs=1e-9)
        assert f"{report.vrr_pct:.2f}" == "23.38"
        assert report.nll_scaled == pytest.approx(20.49, abs=1e-9)
        assert f"{report.nll_scaled:.2f}" == "20.49"
        assert report.aurc_scaled == pytest.approx(report.aurc_raw * 1000)
        assert report.e_aurc_scaled == pytest.approx(report.e_aurc_raw * 1000)

    def test_scale_arithmetic_example(self):
        confs, correct = [0.9] * 9 + [0.95], [True] * 9 + [False]
        scaled = report(confs, correct, [0.1] * 10, by_size={2: 0.9})
        assert scaled.aurc_scaled == pytest.approx(scaled.aurc_raw * 1000)
        # 0.0114 raw -> 11.4 scaled is plain arithmetic
        assert 0.0114 * 1000 == pytest.approx(11.4)

    @pytest.mark.parametrize("n", [1, 7, 8, 130, 1000])
    def test_matches_the_public_functions_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        confidence, correct, nll = rng.random(n), rng.random(n) < 0.7, rng.exponential(size=n)
        built = report(confidence, correct, nll, vrr=0.1)
        assert built.accuracy_pct == accuracy(correct)
        assert built.nll_raw == float(np.mean(nll))
        assert built.aurc_raw == aurc(confidence, correct)
        assert built.e_aurc_raw == e_aurc(aurc(confidence, correct), correct)
        assert built.mean_confidence_full == float(np.mean(confidence))

    def test_one_aurc_per_report(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "aurc", lambda *args: calls.append(args) or aurc(*args))
        rng = np.random.default_rng(3)
        built = report(rng.random(48), rng.random(48) < 0.7, rng.exponential(size=48), vrr=0.1)
        assert len(calls) == 1
        assert built.e_aurc_raw > 0.0  # the excess is read from that one AURC

    def test_json_is_strict(self):
        # Before, an infinite NLL was written as the invalid JSON token Infinity.
        infinite = dataclasses.replace(self.make_report(), nll_raw=np.inf)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            json_text(infinite.to_json_dict())
