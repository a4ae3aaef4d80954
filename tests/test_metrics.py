from __future__ import annotations

import math

import numpy as np
import pytest

from rankcal.calibration import RankingRecords
from rankcal.data import Dataset
from rankcal.errors import EmptyInputError, SpecError, StateError
from rankcal.metrics import (
    MetricsReport,
    ScoredPrediction,
    accuracy,
    aurc,
    build_report,
    confidence_by_subset_size,
    e_aurc,
    error_rate,
    format_mean_std,
    mean_abs_conf_shift,
    mean_nll,
    report_csv_header,
    report_csv_row,
)
from rankcal.model import ModelSpec, SubsetMask, init_params


def pred(confidence: float, correct: bool, nll: float = 0.5) -> ScoredPrediction:
    return ScoredPrediction(confidence=confidence, correct=correct, nll_term=nll)


def random_preds(rng: np.random.Generator, n: int) -> list[ScoredPrediction]:
    return [
        pred(float(rng.uniform(0.2, 1.0)), bool(rng.integers(2)), float(rng.uniform(0, 3)))
        for _ in range(n)
    ]


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([pred(0.9, True)] * 5) == 100.0

    def test_one_of_four(self):
        preds = [pred(0.9, True), pred(0.8, False), pred(0.7, False), pred(0.6, False)]
        assert accuracy(preds) == 25.0

    def test_none_correct(self):
        assert accuracy([pred(0.9, False)] * 3) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            accuracy([])

    def test_accuracy_plus_error_rate_is_hundred_exactly(self):
        rng = np.random.default_rng(0)
        for n in (3, 7, 13):
            preds = random_preds(rng, n)
            assert accuracy(preds) + error_rate(preds) == 100.0


class TestMeanNll:
    def test_single_half(self):
        assert mean_nll([pred(0.5, True, nll=math.log(2.0))]) == pytest.approx(math.log(2.0))

    def test_confident_goes_to_zero(self):
        assert mean_nll([pred(1.0, True, nll=1e-15)] * 2) < 1e-14

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(1)
        preds = random_preds(rng, 37)
        naive = sum(p.nll_term for p in preds) / len(preds)
        assert abs(mean_nll(preds) - naive) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mean_nll([])


class TestAurc:
    def test_all_correct_is_zero(self):
        assert aurc([pred(0.9, True), pred(0.5, True)]) == 0.0

    def test_hand_example_good_ranking(self):
        # top-1 risk 0, top-2 risk 1/2 -> mean 0.25
        assert aurc([pred(0.9, True), pred(0.8, False)]) == 0.25

    def test_hand_example_bad_ranking(self):
        # top-1 risk 1, top-2 risk 1/2 -> mean 0.75
        assert aurc([pred(0.9, False), pred(0.8, True)]) == 0.75

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        confs = rng.permutation(np.linspace(0.1, 0.99, 25))
        correct = rng.integers(2, size=25).astype(bool)
        preds = [pred(float(c), bool(ok)) for c, ok in zip(confs, correct)]
        squashed = [pred(float(0.5 * c**3 + 0.1), bool(ok)) for c, ok in zip(confs, correct)]
        assert aurc(preds) == aurc(squashed)

    def test_permutation_invariance_distinct_confidences(self):
        rng = np.random.default_rng(3)
        confs = np.linspace(0.2, 0.9, 15)
        correct = rng.integers(2, size=15).astype(bool)
        preds = [pred(float(c), bool(ok)) for c, ok in zip(confs, correct)]
        order = rng.permutation(15)
        shuffled = [preds[i] for i in order]
        assert aurc(shuffled) == aurc(preds)
        assert e_aurc(shuffled) == e_aurc(preds)

    def test_tie_break_by_original_index(self):
        # equal confidences: the earlier element is ranked first
        assert aurc([pred(0.8, False), pred(0.8, True)]) == 0.75
        assert aurc([pred(0.8, True), pred(0.8, False)]) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aurc([])


class TestEAurc:
    def test_all_correct_zero(self):
        assert e_aurc([pred(0.9, True)] * 4 ) == 0.0

    def test_hand_example(self):
        assert e_aurc([pred(0.9, False), pred(0.8, True)]) == 0.5

    def test_perfectly_ranked_zero(self):
        preds = [pred(0.9, True), pred(0.8, True), pred(0.5, False), pred(0.4, False)]
        assert e_aurc(preds) == 0.0

    def test_non_negative_on_random_fixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            preds = random_preds(rng, int(rng.integers(1, 40)))
            assert e_aurc(preds) >= 0.0


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
        masks = [SubsetMask.full(2), SubsetMask.of([0])]
        assert mean_abs_conf_shift(params, params, self.dataset(), masks) == 0.0

    def test_matches_naive_loop(self):
        from reference import reference_probs

        params_a = init_params(self.SPEC, seed=1)
        params_b = init_params(self.SPEC, seed=2)
        dataset = self.dataset()
        masks = [SubsetMask.full(2), SubsetMask.of([1])]
        total = 0.0
        for i in range(dataset.num_samples):
            for mask in masks:
                ca = reference_probs(params_a, dataset.features(i), mask.present).max()
                cb = reference_probs(params_b, dataset.features(i), mask.present).max()
                total += abs(ca - cb)
        naive = total / (dataset.num_samples * len(masks))
        assert mean_abs_conf_shift(params_a, params_b, dataset, masks) == pytest.approx(
            naive, rel=1e-12
        )

    def test_hand_example_point_one(self):
        params_a = init_params(self.SPEC, seed=0)
        params_b = init_params(self.SPEC, seed=0)
        params_a.flat[:] = 0.0
        params_b.flat[:] = 0.0
        params_a.head_b[...] = np.log([0.8, 0.2])
        params_b.head_b[...] = np.log([0.7, 0.3])
        dataset = self.dataset(n=1)
        shift = mean_abs_conf_shift(params_a, params_b, dataset, [SubsetMask.full(2)])
        assert shift == pytest.approx(0.1, abs=1e-12)

    def test_spec_mismatch_rejected(self):
        other = ModelSpec(modality_dims=(3, 2), hidden_dim=5, latent_dim=3, num_classes=2)
        with pytest.raises(SpecError):
            mean_abs_conf_shift(
                init_params(self.SPEC, seed=0),
                init_params(other, seed=0),
                self.dataset(),
                [SubsetMask.full(2)],
            )


class TestConfidenceBySubsetSize:
    def test_groups_and_dedupes(self):
        # pair 2 repeats pair 1's sample and masks (e.g. another chain): no double count
        records = RankingRecords(
            sample_id=np.array([0, 0, 0]),
            t_code=np.array([0b01, 0b01, 0b10]),
            s_code=np.array([0b11, 0b11, 0b11]),
            conf_t=np.array([0.6, 0.6, 0.4]),
            conf_s=np.array([0.8, 0.8, 0.8]),
            ci=np.array([0.2, 0.2, 0.4]),
        )
        by_size = confidence_by_subset_size(records)
        assert by_size[1] == pytest.approx(0.5)
        assert by_size[2] == pytest.approx(0.8)


class TestBuildReport:
    def make_report(self) -> MetricsReport:
        preds = [pred(0.9, True, nll=2.049), pred(0.8, False, nll=2.049)]
        return build_report(preds, vrr=0.2338, mean_conf_by_size={1: 0.5, 2: 0.85})

    def test_scales(self):
        report = self.make_report()
        assert report.vrr_pct == pytest.approx(23.38, abs=1e-9)
        assert f"{report.vrr_pct:.2f}" == "23.38"
        assert report.nll_scaled == pytest.approx(20.49, abs=1e-9)
        assert f"{report.nll_scaled:.2f}" == "20.49"
        assert report.aurc_scaled == pytest.approx(report.aurc_raw * 1000)
        assert report.e_aurc_scaled == pytest.approx(report.e_aurc_raw * 1000)

    def test_scale_arithmetic_example(self):
        preds = [pred(0.9, True, nll=0.1)] * 9 + [pred(0.95, False, nll=0.1)]
        report = build_report(preds, vrr=0.0, mean_conf_by_size={2: 0.9})
        assert report.aurc_scaled == pytest.approx(report.aurc_raw * 1000)
        # 0.0114 raw -> 11.4 scaled is plain arithmetic
        assert 0.0114 * 1000 == pytest.approx(11.4)

    def test_missing_constituent_rejected(self):
        with pytest.raises(StateError):
            build_report(None, vrr=0.1, mean_conf_by_size={})
        with pytest.raises(StateError):
            build_report([pred(0.9, True)], vrr=None, mean_conf_by_size={})
        with pytest.raises(StateError):
            build_report([pred(0.9, True)], vrr=0.1, mean_conf_by_size=None)

    def test_json_round_trip(self):
        report = self.make_report()
        assert MetricsReport.from_json_dict(report.to_json_dict()) == report

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
