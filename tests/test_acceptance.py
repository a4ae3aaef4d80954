"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

The multi-seed experiment (criteria 3-5 and 7) trains a 3-modality classifier
on synthetic data whose first modality is far more separable than the others,
so an unregularized model over-relies on it. Run with `pytest -s` to see the
verdict lines as they happen; they are also shown for any failing test.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rankcal.calibration import chain_weights, label_onehot, objective_core
from rankcal.data import (
    SyntheticSpec,
    generate_synthetic,
    json_text,
    load_csv_dataset,
    split,
    standardize_apply,
    standardize_fit,
    write_csv_dataset,
)
from rankcal.errors import ParseError
from rankcal.metrics import aurc, e_aurc
from rankcal.model import ClassifierParams, ModelSpec, init_params
from rankcal.trainer import TrainConfig, evaluate_with_vrr, lambda_sweep, noise_sweep, train

from gradcheck import grad_check
from reference import features_of, reference_probs


def verdict(name: str, passed: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


# --- criteria 3-5 and 7: the shared five-seed experiment ---------------------

SEPARATIONS = (6.0, 3.0, 2.5)
STRONGEST_MODALITY = 0
NUM_SEEDS = 5
SWEEP_GRID = (1.0, 5.0, 10.0, 20.0)


@dataclass
class Run:
    """What `rankcal train` computes: train's parameters, then evaluate_with_vrr's results."""

    params: object
    report: object
    vrr_evaluation: object


def run_and_score(config: TrainConfig, train_set, test_set) -> Run:
    params = train(config, train_set).params
    return Run(params, *evaluate_with_vrr(params, test_set, config))


@dataclass
class SeedPair:
    seed: int
    acc_base: float
    acc_cml: float
    vrr_base: float
    vrr_cml: float
    conf_full_base: float
    conf_full_cml: float
    conf_subset_base: float
    conf_subset_cml: float
    noise_acc_base: dict[float, float]
    noise_acc_cml: dict[float, float]


@dataclass
class Experiment:
    best_lambda: float
    pairs: list[SeedPair]
    runtime_seconds: float
    train_set: object
    test_set: object
    config: TrainConfig
    baseline_seed0_json: str = ""


def _pooled_subset_confidence(records, num_modalities: int) -> float:
    full = (1 << num_modalities) - 1
    columns = (records.sample_id, records.t_code, records.s_code, records.conf_t, records.conf_s)
    seen: dict[tuple[int, int], float] = {}
    for sample_id, t_code, s_code, conf_t, conf_s in zip(*(c.tolist() for c in columns)):
        if t_code != full:
            seen[(sample_id, t_code)] = conf_t
        if s_code != full:
            seen[(sample_id, s_code)] = conf_s
    return float(np.mean(list(seen.values())))


@pytest.fixture(scope="module")
def experiment() -> Experiment:
    started = time.time()
    data_spec = SyntheticSpec(
        num_classes=4,
        modality_dims=(6, 6, 6),
        samples_per_class=(150,) * 4,
        class_separation=SEPARATIONS,
        noise_std=(1.0, 1.0, 1.0),
        seed=2024,
    )
    dataset = generate_synthetic(data_spec)
    trainval, test_set = split(dataset, 0.7, seed=0)
    train_set, val_set = split(trainval, 0.8, seed=1)
    stats = standardize_fit(train_set)
    train_set = standardize_apply(train_set, stats)
    val_set = standardize_apply(val_set, stats)
    test_set = standardize_apply(test_set, stats)

    model = ModelSpec(modality_dims=(6, 6, 6), hidden_dim=24, latent_dim=12, num_classes=4)
    config = TrainConfig(
        model=model, epochs=120, learning_rate=2e-3, batch_size=32, seed=0, variant="hinge"
    )

    # Lambda selection over the protocol grid's lower range: on this saturated
    # desk-scale fixture the accuracy tie-break would otherwise always pick
    # the strongest regularizer; strengths beyond 20 are exercised separately
    # by the collapse criterion.
    sweep = lambda_sweep(config, SWEEP_GRID, train_set, val_set)

    pairs = []
    baseline_seed0_json = ""
    for seed in range(NUM_SEEDS):
        run_base = run_and_score(replace(config, lam=0.0, seed=seed), train_set, test_set)
        run_cml = run_and_score(
            replace(config, lam=sweep.best_lambda, seed=seed), train_set, test_set
        )
        if seed == 0:
            baseline_seed0_json = json_text(run_base.report.to_json_dict())
        noise = noise_sweep(
            run_base.params,
            run_cml.params,
            test_set,
            epsilons=[0.1, 0.5],
            target_sets=[[STRONGEST_MODALITY]],
            seed=777,
        )
        pairs.append(
            SeedPair(
                seed=seed,
                acc_base=run_base.report.accuracy_pct,
                acc_cml=run_cml.report.accuracy_pct,
                vrr_base=run_base.report.vrr_pct,
                vrr_cml=run_cml.report.vrr_pct,
                conf_full_base=run_base.report.mean_confidence_full,
                conf_full_cml=run_cml.report.mean_confidence_full,
                conf_subset_base=_pooled_subset_confidence(run_base.vrr_evaluation.records, 3),
                conf_subset_cml=_pooled_subset_confidence(run_cml.vrr_evaluation.records, 3),
                noise_acc_base={row.epsilon: row.acc_baseline for row in noise},
                noise_acc_cml={row.epsilon: row.acc_cml for row in noise},
            )
        )
    return Experiment(
        best_lambda=sweep.best_lambda,
        pairs=pairs,
        runtime_seconds=time.time() - started,
        train_set=train_set,
        test_set=test_set,
        config=config,
        baseline_seed0_json=baseline_seed0_json,
    )


def test_criterion_1_composite_gradient():
    started = time.time()
    spec = ModelSpec(modality_dims=(4, 5, 6), hidden_dim=7, latent_dim=5, num_classes=4)
    params = init_params(spec, seed=3)
    flat0 = params.flat.copy()
    rng = np.random.default_rng(42)
    feats = [rng.standard_normal((1, d)) for d in spec.modality_dims]
    weights = chain_weights(np.array([[2, 1, 0]]))
    label = np.array([2])
    onehot = label_onehot(label, spec.num_classes, 3)
    grads = ClassifierParams(spec)

    def objective(flat):
        params.flat[:] = flat
        out = objective_core(params, feats, weights, label, onehot, "hinge", 10.0, False, grads)
        return out.loss, out.grads.flat

    result = grad_check(objective, flat0, tolerance=1e-4)
    elapsed = time.time() - started
    verdict(
        "criterion 1: composite gradient",
        result.passed and elapsed < 10.0,
        f"max rel error {result.max_rel_error:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


def test_criterion_2_metric_oracles():
    good = ([0.9, 0.8], [True, False])
    bad = ([0.9, 0.8], [False, True])
    aurc_ok = aurc(*good) == 0.25 and aurc(*bad) == 0.75
    e_aurc_ok = e_aurc(aurc(*bad), bad[1]) == 0.5 and e_aurc(aurc(*good), good[1]) == 0.0

    spec = ModelSpec(modality_dims=(3, 4, 2), hidden_dim=6, latent_dim=4, num_classes=3)
    params = init_params(spec, seed=5)
    rng = np.random.default_rng(6)
    from rankcal.data import Dataset

    fixture = Dataset(
        modalities=[rng.standard_normal((50, d)) for d in spec.modality_dims],
        labels=rng.integers(0, 3, size=50),
        num_classes=3,
    )
    from rankcal.calibration import evaluate_vrr

    result = evaluate_vrr(params, fixture, seed=0, mode="exhaustive")
    violations = 0
    total = 0
    for i in range(fixture.num_samples):
        feats = features_of(fixture, i)
        for size in range(3, 1, -1):
            for s_idx in itertools.combinations(range(3), size):
                conf_s = reference_probs(params, feats, s_idx).max()
                for t_idx in itertools.combinations(s_idx, size - 1):
                    conf_t = reference_probs(params, feats, t_idx).max()
                    total += 1
                    violations += conf_s - conf_t < 0
    vrr_ok = result.vrr == violations / total and len(result.records) == 9 * 50

    rng = np.random.default_rng(7)
    min_e_aurc = float("inf")
    for _ in range(1000):
        size = int(rng.integers(1, 30))
        pairs = [(float(rng.uniform(0.1, 1.0)), bool(rng.integers(2))) for _ in range(size)]
        confidence, correct = zip(*pairs)
        min_e_aurc = min(min_e_aurc, e_aurc(aurc(confidence, correct), correct))
    verdict(
        "criterion 2: metric oracles",
        aurc_ok and e_aurc_ok and vrr_ok and min_e_aurc >= 0.0,
        f"AURC fixtures {aurc_ok}, E-AURC fixtures {e_aurc_ok}, brute-force VRR {vrr_ok}, "
        f"min E-AURC over 1000 fixtures {min_e_aurc:.2e}",
    )


def test_criterion_3_vrr_reduction(experiment):
    vrr_base = float(np.mean([p.vrr_base for p in experiment.pairs]))
    vrr_cml = float(np.mean([p.vrr_cml for p in experiment.pairs]))
    relative_cut = (vrr_base - vrr_cml) / vrr_base
    verdict(
        "criterion 3: VRR reduction",
        vrr_base > 5.0 and relative_cut >= 0.25 and experiment.runtime_seconds < 300.0,
        f"baseline VRR {vrr_base:.2f}%, CML (lambda={experiment.best_lambda:g}) "
        f"{vrr_cml:.2f}%, relative cut {relative_cut:.1%}, "
        f"experiment took {experiment.runtime_seconds:.0f}s",
    )


def test_criterion_4_accuracy_non_degradation(experiment):
    acc_base = float(np.mean([p.acc_base for p in experiment.pairs]))
    acc_cml = float(np.mean([p.acc_cml for p in experiment.pairs]))
    verdict(
        "criterion 4: accuracy non-degradation",
        acc_cml >= acc_base - 0.5,
        f"baseline {acc_base:.2f}%, CML {acc_cml:.2f}%",
    )


def test_criterion_5_noise_robustness(experiment):
    acc_base_heavy = float(np.mean([p.noise_acc_base[0.5] for p in experiment.pairs]))
    acc_cml_heavy = float(np.mean([p.noise_acc_cml[0.5] for p in experiment.pairs]))
    growth = sum(
        1
        for p in experiment.pairs
        if (p.noise_acc_cml[0.5] - p.noise_acc_base[0.5])
        >= (p.noise_acc_cml[0.1] - p.noise_acc_base[0.1])
    )
    verdict(
        "criterion 5: noise robustness",
        acc_cml_heavy >= acc_base_heavy and growth >= 4,
        f"eps=0.5 accuracy baseline {acc_base_heavy:.2f}% vs CML {acc_cml_heavy:.2f}%, "
        f"gap grows with eps in {growth}/{NUM_SEEDS} seeds",
    )


def test_criterion_6_difference_loss_collapse(experiment):
    cfg = replace(experiment.config, epochs=260)
    run_plain = run_and_score(
        replace(cfg, lam=0.0, variant="none"), experiment.train_set, experiment.test_set
    )
    run_hinge = run_and_score(
        replace(cfg, lam=30.0, variant="hinge"), experiment.train_set, experiment.test_set
    )
    run_diff = run_and_score(
        replace(cfg, lam=30.0, variant="difference"), experiment.train_set, experiment.test_set
    )
    singleton_hinge = run_hinge.report.mean_confidence_by_subset_size[1]
    singleton_diff = run_diff.report.mean_confidence_by_subset_size[1]
    shift = abs(
        run_hinge.report.mean_confidence_full - run_plain.report.mean_confidence_full
    )
    verdict(
        "criterion 6: difference-loss collapse",
        singleton_diff <= 0.6 * singleton_hinge and shift <= 0.05,
        f"singleton confidence {singleton_diff:.3f} (difference) vs {singleton_hinge:.3f} "
        f"(hinge), ratio {singleton_diff / singleton_hinge:.2f} (<= 0.6); hinge full-mask "
        f"shift {shift:.4f} (<= 0.05)",
    )


def test_criterion_7_ranking_confidence_consequence(experiment):
    satisfied = 0
    for p in experiment.pairs:
        close = abs(p.conf_full_base - p.conf_full_cml) <= 0.02
        lower_vrr_is_cml = p.vrr_cml < p.vrr_base
        lower_subset_is_cml = p.conf_subset_cml < p.conf_subset_base
        if close and (lower_vrr_is_cml == lower_subset_is_cml):
            satisfied += 1
    verdict(
        "criterion 7: lower VRR implies lower subset confidence",
        satisfied >= 4,
        f"{satisfied}/{NUM_SEEDS} seed pairs close in full-mask confidence and ordered "
        "consistently",
    )


def test_criterion_8_determinism(experiment):
    rerun = run_and_score(
        replace(experiment.config, lam=0.0, seed=0), experiment.train_set, experiment.test_set
    )
    identical = json_text(rerun.report.to_json_dict()) == experiment.baseline_seed0_json
    verdict(
        "criterion 8: determinism",
        identical,
        "rerun of the seed-0 baseline produced bit-identical metrics JSON",
    )


def test_criterion_9_ingestion_round_trip(tmp_path):
    spec = SyntheticSpec(
        num_classes=3,
        modality_dims=(4, 2),
        samples_per_class=(8, 8, 8),
        class_separation=(2.0, 1.0),
        noise_std=(1.0, 1.0),
        seed=11,
    )
    dataset = generate_synthetic(spec)
    manifest = write_csv_dataset(dataset, tmp_path / "ds")
    loaded = load_csv_dataset(manifest)
    exact = np.array_equal(loaded.labels, dataset.labels)
    for orig, back in zip(dataset.modalities, loaded.modalities):
        rounded = np.array([[float(f"{v:.9g}") for v in row] for row in orig])
        exact = exact and np.array_equal(back, rounded)

    (tmp_path / "bad_rows").mkdir()
    (tmp_path / "bad_rows" / "m0.csv").write_text("1.0\n2.0\n3.0\n")
    (tmp_path / "bad_rows" / "labels.csv").write_text("0\n1\n")
    (tmp_path / "bad_rows" / "manifest.json").write_text(
        '{"num_classes": 2, "modalities": [{"path": "m0.csv", "dim": 1},'
        ' {"path": "m0.csv", "dim": 1}], "labels": "labels.csv"}'
    )
    try:
        load_csv_dataset(tmp_path / "bad_rows" / "manifest.json")
        row_mismatch_ok = False
    except ParseError:
        row_mismatch_ok = True

    (tmp_path / "bad_label").mkdir()
    (tmp_path / "bad_label" / "m0.csv").write_text("1.0\n2.0\n")
    (tmp_path / "bad_label" / "labels.csv").write_text("0\n2\n")
    (tmp_path / "bad_label" / "manifest.json").write_text(
        '{"num_classes": 2, "modalities": [{"path": "m0.csv", "dim": 1},'
        ' {"path": "m0.csv", "dim": 1}], "labels": "labels.csv"}'
    )
    try:
        load_csv_dataset(tmp_path / "bad_label" / "manifest.json")
        bad_label_ok = False
    except ParseError as exc:
        bad_label_ok = exc.line == 2

    verdict(
        "criterion 9: ingestion round trip",
        exact and row_mismatch_ok and bad_label_ok,
        f"round trip exact at 9 significant digits: {exact}; row-count mismatch raises: "
        f"{row_mismatch_ok}; out-of-range label raises with line: {bad_label_ok}",
    )
