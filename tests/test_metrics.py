from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from rankcal import metrics
from rankcal.data import Dataset
from rankcal.errors import EmptyInputError, SpecError, StateError
from rankcal.metrics import (
    MetricsReport,
    accuracy,
    aurc,
    build_report,
    e_aurc,
    format_mean_std,
    mean_abs_conf_shift,
    report_csv_header,
    report_csv_row,
)
from rankcal.model import ModelSpec, init_params


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
        assert e_aurc(confs[order], correct[order]) == e_aurc(confs, correct)

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
            assert e_aurc(confs, correct) == max(value - optimal, 0.0)


class TestEAurc:
    def test_all_correct_zero(self):
        assert e_aurc(np.full(4, 0.9), np.ones(4, dtype=bool)) == 0.0

    def test_hand_example(self):
        assert e_aurc([0.9, 0.8], [False, True]) == 0.5

    def test_perfectly_ranked_zero(self):
        assert e_aurc([0.9, 0.8, 0.5, 0.4], [True, True, False, False]) == 0.0

    def test_non_negative_on_random_fixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            assert e_aurc(rng.uniform(0.2, 1.0, n), rng.integers(2, size=n).astype(bool)) >= 0.0


class TestMeanAbsConfShift:
    SPEC = ModelSpec(modality_dims=(3, 2), hidden_dim=4, latent_dim=3, num_classes=2)

    def dataset(self, n: int = 6, seed: int = 0) -> Dataset:
        rng = np.random.default_rng(seed)
        return Dataset(
            modalities=[rng.standard_normal((n, d)) for d in self.SPEC.modality_dims],
            labels=rng.integers(0, 2, size=n),
            num_classes=2,
        )

    def test_identical_models_zero(self):
        params = init_params(self.SPEC, seed=0)
        assert mean_abs_conf_shift(params, params, self.dataset()) == 0.0

    def test_matches_naive_loop(self):
        from reference import reference_probs

        params_a = init_params(self.SPEC, seed=1)
        params_b = init_params(self.SPEC, seed=2)
        dataset = self.dataset()
        total = 0.0
        for i in range(dataset.num_samples):
            ca = reference_probs(params_a, dataset.features(i), (0, 1)).max()
            cb = reference_probs(params_b, dataset.features(i), (0, 1)).max()
            total += abs(ca - cb)
        naive = total / dataset.num_samples
        assert mean_abs_conf_shift(params_a, params_b, dataset) == pytest.approx(naive, rel=1e-12)

    def test_hand_example_point_one(self):
        params_a = init_params(self.SPEC, seed=0)
        params_b = init_params(self.SPEC, seed=0)
        params_a.flat[:] = 0.0
        params_b.flat[:] = 0.0
        params_a.head_b[...] = np.log([0.8, 0.2])
        params_b.head_b[...] = np.log([0.7, 0.3])
        dataset = self.dataset(n=1)
        shift = mean_abs_conf_shift(params_a, params_b, dataset)
        assert shift == pytest.approx(0.1, abs=1e-12)

    def test_spec_mismatch_rejected(self):
        other = ModelSpec(modality_dims=(3, 2), hidden_dim=5, latent_dim=3, num_classes=2)
        with pytest.raises(SpecError):
            mean_abs_conf_shift(
                init_params(self.SPEC, seed=0),
                init_params(other, seed=0),
                self.dataset(),
            )

    def test_empty_dataset_rejected(self):
        params = init_params(self.SPEC, seed=0)
        with pytest.raises(EmptyInputError):
            mean_abs_conf_shift(params, params, self.dataset(n=0))


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
        assert built.e_aurc_raw == e_aurc(confidence, correct)
        assert built.mean_confidence_full == float(np.mean(confidence))

    def test_one_aurc_per_report(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "aurc", lambda *args: calls.append(args) or aurc(*args))
        rng = np.random.default_rng(3)
        built = report(rng.random(48), rng.random(48) < 0.7, rng.exponential(size=48), vrr=0.1)
        assert len(calls) == 1
        assert built.e_aurc_raw > 0.0  # the excess is read from that one AURC

    def test_missing_constituent_rejected(self):
        preds = ([0.9], [True], [0.5])
        with pytest.raises(StateError):
            build_report(None, None, None, vrr=0.1, mean_conf_by_size={})
        with pytest.raises(StateError):
            build_report(*preds, vrr=None, mean_conf_by_size={})
        with pytest.raises(StateError):
            build_report(*preds, vrr=0.1, mean_conf_by_size=None)

    def test_json_round_trip(self):
        report = self.make_report()
        assert MetricsReport.from_json_dict(report.to_json_dict()) == report

    def test_json_is_strict(self):
        # Before, an infinite NLL was written as the invalid JSON token Infinity.
        infinite = dataclasses.replace(self.make_report(), nll_raw=np.inf)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            infinite.to_json()

    def test_csv_row(self):
        report = self.make_report()
        header = report_csv_header()
        row = report_csv_row(report)
        assert header.split(",")[0] == "accuracy_pct"
        assert len(row.split(",")) == len(header.split(","))
        assert float(row.split(",")[0]) == 50.0


class TestFormatMeanStd:
    def test_paper_style_cell(self):
        assert format_mean_std(23.38, 1.39) == "23.38±1.39"

    def test_rounding(self):
        assert format_mean_std(15.0, 7.0710678) == "15.00±7.07"
