from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from rankcal import calibration, data, model, trainer
from rankcal.data import Dataset, SyntheticSpec, generate_synthetic, split
from rankcal.errors import (
    CapabilityError,
    ConfigError,
    DivergenceError,
    DomainError,
    EmptyInputError,
    SpecError,
    SweepError,
)
from rankcal.metrics import accuracy, aurc, e_aurc
from rankcal.model import ModelSpec, init_params
from rankcal.trainer import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_NOISE_GRID,
    TrainConfig,
    default_target_sets,
    evaluate,
    lambda_sweep,
    noise_sweep,
    run_and_evaluate,
    train,
)

from reference import full_mask_accuracy, label_of, reference_noise_sweep, reference_probs
from reference import reference_train

MODEL = ModelSpec(modality_dims=(4, 3), hidden_dim=8, latent_dim=4, num_classes=2)


def make_sets(separation=(6.0, 6.0), per_class=50, seed=0):
    spec = SyntheticSpec(
        num_classes=2,
        modality_dims=(4, 3),
        samples_per_class=(per_class, per_class),
        class_separation=separation,
        noise_std=(1.0, 1.0),
        seed=seed,
    )
    return split(generate_synthetic(spec), 0.8, seed=seed)


def config(**overrides) -> TrainConfig:
    defaults = dict(model=MODEL, epochs=5, learning_rate=1e-2, batch_size=16, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def count_forwards(monkeypatch) -> list:
    """Patch forward_core wherever it is called; each call appends to the returned list."""
    calls = []
    forward_core = model.forward_core

    def counting(*args, **kwargs):
        calls.append(1)
        return forward_core(*args, **kwargs)

    for module in (model, calibration, trainer):
        monkeypatch.setattr(module, "forward_core", counting)
    return calls


class TestTrainConfig:
    """A TrainConfig checks itself when it is built, so one that exists is valid."""

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match=r"^train\.epochs: expected an int >= 1, got 0$"):
            config(epochs=0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError, match=r"^train\.lambda: "):
            config(lam=-0.5)

    def test_zero_batch_rejected(self):
        with pytest.raises(ConfigError, match=r"^train\.batch_size: "):
            config(batch_size=0)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match=r"^train\.variant: "):
            config(variant="quadratic")

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match=r"^train\.epochs: "):
            dataclasses.replace(config(), epochs=0)

    def test_vrr_repeats_is_an_unknown_key(self):
        # Sampled VRR draws one chain per sample; the key, once 1 by default, is gone.
        with pytest.raises(ConfigError, match=r"^train\.vrr_repeats: unknown key$"):
            TrainConfig.from_json_dict({"vrr_repeats": 1}, MODEL)

    def test_detach_superset_is_an_unknown_key(self):
        # The chain gradient always flows through both pair confidences; the key is gone.
        with pytest.raises(ConfigError, match=r"^train\.detach_superset: unknown key$"):
            TrainConfig.from_json_dict({"detach_superset": False}, MODEL)

    def test_numpy_scalars_build_as_python_values(self, tmp_path):
        cfg = config(
            epochs=np.int64(3),
            learning_rate=np.float32(1e-3),
            lam=np.float64(2.5),
            skip_on_wrong_full=np.bool_(False),
            seed=np.uint8(4),
        )
        obj = cfg.to_json_dict()
        kinds = {key: type(value) for key, value in obj.items()}
        assert (kinds["epochs"], kinds["learning_rate"], kinds["lambda"]) == (int, float, float)
        assert obj["skip_on_wrong_full"] is False and kinds["seed"] is int
        data.write_json(tmp_path / "train.json", obj)
        assert TrainConfig.from_json_dict(data.read_json(tmp_path / "train.json"), MODEL) == cfg

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("skip_on_wrong_full", "no", r"train\.skip_on_wrong_full: expected bool, got 'no'"),
            ("skip_on_wrong_full", 1, r"train\.skip_on_wrong_full: expected bool, got 1"),
            ("epochs", 2.0, r"train\.epochs: expected int, got 2\.0"),
            ("epochs", "5", r"train\.epochs: expected int, got '5'"),
            ("epochs", True, r"train\.epochs: expected int, got True"),
            ("lam", "1", r"train\.lambda: expected float, got '1'"),
            ("variant", 3, r"train\.variant: expected str, got 3"),
        ],
    )
    def test_wrong_kind_rejected_when_built(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config(**{field: value})

    def test_exhaustive_mode_over_the_modality_limit_rejected(self):
        spec = ModelSpec(modality_dims=(2,) * 6, hidden_dim=4, latent_dim=2, num_classes=2)
        with pytest.raises(CapabilityError, match="capped at 5 modalities, got 6"):
            config(model=spec, vrr_mode="exhaustive")

    def test_json_round_trip_keeps_config_keys(self):
        cfg = config(lam=2.5, variant="difference", skip_on_wrong_full=False, vrr_mode="exhaustive")
        obj = cfg.to_json_dict()
        assert sorted(obj) == sorted(
            ["epochs", "learning_rate", "batch_size", "lambda", "variant", "skip_on_wrong_full",
             "seed", "vrr_mode"]
        )
        assert obj["lambda"] == 2.5
        assert TrainConfig.from_json_dict(obj, MODEL) == cfg

    def test_json_missing_keys_take_defaults(self):
        assert TrainConfig.from_json_dict({}, MODEL) == TrainConfig(model=MODEL)
        assert TrainConfig.from_json_dict({"lambda": 10}, MODEL).lam == 10.0


class TestTrain:
    def test_lambda_zero_matches_variant_none_bitwise(self):
        train_set, _ = make_sets()
        a = train(config(lam=0.0, variant="hinge"), train_set)
        b = train(config(lam=0.0, variant="none"), train_set)
        assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_deterministic_rerun(self):
        train_set, _ = make_sets()
        cfg = config(lam=5.0, epochs=3)
        a = train(cfg, train_set)
        b = train(cfg, train_set)
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert a.history == b.history

    def test_history_length_is_epochs(self):
        train_set, _ = make_sets()
        result = train(config(epochs=4), train_set)
        assert len(result.history) == 4

    def test_learns_separable_data(self):
        train_set, _ = make_sets(separation=(6.0, 6.0))
        result = train(config(epochs=50), train_set)
        assert result.history[-1].train_accuracy > 95.0

    def test_hinge_regularizer_nonnegative_and_trends_down(self):
        train_set, _ = make_sets(separation=(5.0, 1.0))
        result = train(config(lam=10.0, epochs=30), train_set)
        reg = [h.reg_loss for h in result.history]
        assert all(r >= 0.0 for r in reg)
        assert reg[-1] <= reg[0]

    def test_empty_train_set_rejected(self):
        empty = Dataset(
            modalities=[np.zeros((0, 4)), np.zeros((0, 3))],
            labels=np.zeros(0, dtype=np.int64),
            num_classes=2,
        )
        with pytest.raises(EmptyInputError):
            train(config(), empty)

    def test_dims_mismatch_rejected(self):
        train_set, _ = make_sets()
        bad = ModelSpec(modality_dims=(5, 3), hidden_dim=8, latent_dim=4, num_classes=2)
        with pytest.raises(SpecError):
            train(config(model=bad), train_set)

    def test_divergence_reported_with_location(self):
        train_set, _ = make_sets()
        # the huge step drives the true-class probability to exactly 0, so the
        # NLL becomes inf and divergence detection must fire
        with np.errstate(divide="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                train(config(learning_rate=1e12, epochs=10), train_set)
        assert excinfo.value.epoch >= 0
        assert excinfo.value.batch >= 0


class TestTrainMatchesReferenceLoop:
    """train gathers once per epoch and writes every batch temporary into a per-run
    workspace; the bytes must not change."""

    MODEL3 = ModelSpec(modality_dims=(4, 3, 2), hidden_dim=8, latent_dim=4, num_classes=3)

    @staticmethod
    def train_set(num_classes: int = 3) -> Dataset:
        spec = SyntheticSpec(
            num_classes=num_classes,
            modality_dims=(4, 3, 2),
            samples_per_class=(25,) * num_classes,
            class_separation=(4.0, 2.0, 1.0),
            noise_std=(1.0, 1.0, 1.0),
            seed=5,
        )
        return generate_synthetic(spec)

    @staticmethod
    def history_bytes(history) -> bytes:
        return np.array([dataclasses.astuple(stats) for stats in history]).tobytes()

    # 25 samples a class: batches of 16 leave a ragged last batch (11 rows at 3 classes);
    # "all" is one batch of every row, and "all-but-one" leaves a 1-row last batch.
    # From 8 classes on, softmax_parts sums each column from a row-major copy.
    # At lambda 0 the objective skips the penalty, so the reused workspace's padded
    # buffer is never written and the gradient holds the class term alone.
    @pytest.mark.parametrize("num_classes", [3, 8, 11])
    @pytest.mark.parametrize("batch_size", [16, "all", "all-but-one"])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("skip_on_wrong_full", [True, False])
    @pytest.mark.parametrize("variant", calibration.REGULARIZER_VARIANTS)
    def test_params_and_history_byte_identical(
        self, variant, skip_on_wrong_full, lam, batch_size, num_classes
    ):
        train_set = self.train_set(num_classes)
        n = train_set.num_samples
        cfg = config(
            model=dataclasses.replace(self.MODEL3, num_classes=num_classes),
            epochs=3,
            batch_size={"all": n, "all-but-one": n - 1}.get(batch_size, batch_size),
            lam=lam,
            variant=variant,
            skip_on_wrong_full=skip_on_wrong_full,
            seed=4,
        )
        result = train(cfg, train_set)
        params, history = reference_train(cfg, train_set)
        assert result.params.flat.tobytes() == params.flat.tobytes()
        assert self.history_bytes(result.history) == self.history_bytes(history)

    def test_divergence_at_the_same_epoch_and_batch(self):
        cfg = config(model=self.MODEL3, learning_rate=1e12, epochs=10, lam=5.0)
        train_set = self.train_set()
        errors = []
        for run in (train, reference_train):
            with np.errstate(divide="ignore"), pytest.raises(DivergenceError) as excinfo:
                run(cfg, train_set)
            errors.append(excinfo.value)
        new, old = errors
        assert (new.epoch, new.batch) == (old.epoch, old.batch)
        assert (new.epoch, new.batch) != (0, 0)  # one Adam step ran on the reused buffer first
        # The reference logs a zero probability into an infinite loss; train stops at that log.
        assert old.loss == np.inf and str(new).startswith("floating-point divide by zero")


class TestWorkspace:
    """train builds one Workspace per batch shape per run; every batch of that shape reuses it."""

    def test_consecutive_batches_write_the_same_buffers(self, monkeypatch):
        results = []

        def recording(*args):
            results.append(calibration.objective_core(*args))
            return results[-1]

        monkeypatch.setattr(trainer, "objective_core", recording)
        train(config(epochs=1, batch_size=16), make_sets()[0])  # 80 rows: 5 batches of 16
        assert len(results) == 5
        assert np.shares_memory(results[0].confidence, results[1].confidence)

    # 80 rows: batches of 16 divide them, 30 leaves a ragged 20, and 100 is one batch of 80.
    @pytest.mark.parametrize("batch_size, sizes", [(16, [16]), (30, [20, 30]), (100, [80])])
    def test_at_most_one_workspace_per_batch_shape(self, monkeypatch, batch_size, sizes):
        built = []
        for_batch = trainer.Workspace.for_batch

        def counting(spec, batch, num_masks):
            built.append((batch, num_masks))
            return for_batch(spec, batch, num_masks)

        monkeypatch.setattr(trainer.Workspace, "for_batch", counting)
        train(config(epochs=3, batch_size=batch_size), make_sets()[0])
        assert sorted(built) == [(size, MODEL.num_modalities) for size in sizes]


class TestTrainBoundary:
    """The data is checked when its Dataset is built; train then runs no check per batch."""

    def test_out_of_range_label_fails_before_the_first_batch(self):
        train_set, _ = make_sets()
        labels = train_set.labels.copy()
        labels[[6, 9]] = [2, 5]
        with pytest.raises(DomainError) as excinfo:
            dataclasses.replace(train_set, labels=labels)
        assert str(excinfo.value) == "label 2 at row 6 is outside [0, 2)"

    def test_integer_features_train_like_their_float_copies(self):
        train_set, _ = make_sets()
        ints = [np.rint(4 * block).astype(np.int64) for block in train_set.modalities]
        as_int = dataclasses.replace(train_set, modalities=ints)
        as_float = dataclasses.replace(train_set, modalities=[b.astype(np.float64) for b in ints])
        cfg = config(epochs=2, lam=5.0)
        a, b = train(cfg, as_int), train(cfg, as_float)
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert a.history == b.history


class TestEvaluate:
    def test_constant_model(self):
        train_set, test_set = make_sets()
        params = init_params(MODEL, seed=0)
        params.flat[:] = 0.0
        report = evaluate(params, test_set, config())
        # constant output predicts class 0 everywhere on a balanced test set
        assert report.accuracy_pct == pytest.approx(50.0)
        assert report.vrr_pct == 0.0
        assert report.mean_confidence_full == pytest.approx(0.5)

    def test_scales_present(self):
        train_set, test_set = make_sets()
        result = train(config(epochs=3), train_set)
        report = evaluate(result.params, test_set, config())
        assert report.vrr_pct == pytest.approx(report.vrr_raw * 100)
        assert report.nll_scaled == pytest.approx(report.nll_raw * 10)
        assert report.aurc_scaled == pytest.approx(report.aurc_raw * 1000)
        assert report.e_aurc_scaled == pytest.approx(report.e_aurc_raw * 1000)

    def test_matches_naive_reimplementation_on_fixture(self):
        train_set, test_set = make_sets(per_class=25)
        fixture = test_set.take(range(10))
        cfg = config(epochs=3)
        result = train(cfg, train_set)
        report = evaluate(result.params, fixture, cfg)

        probs = [reference_probs(result.params, fixture.features(i), [0, 1]) for i in range(10)]
        labels = [label_of(fixture, i) for i in range(10)]
        confidence = np.array([p.max() for p in probs])
        correct = np.array([int(np.argmax(p)) == y for p, y in zip(probs, labels)])
        nll = np.array([-np.log(p[y]) for p, y in zip(probs, labels)])
        assert report.accuracy_pct == accuracy(correct)
        assert report.nll_raw == pytest.approx(np.mean(nll), rel=1e-12)
        assert report.aurc_raw == pytest.approx(aurc(confidence, correct), rel=1e-12)
        assert report.e_aurc_raw == pytest.approx(e_aurc(confidence, correct), abs=1e-15)

    def test_spec_mismatch_rejected(self):
        train_set, test_set = make_sets()
        other = ModelSpec(modality_dims=(4, 3), hidden_dim=9, latent_dim=4, num_classes=2)
        params = init_params(other, seed=0)
        with pytest.raises(SpecError):
            evaluate(params, test_set, config())

    def test_subset_size_confidences_cover_all_sizes(self):
        train_set, test_set = make_sets()
        result = run_and_evaluate(config(epochs=2), train_set, test_set)
        assert sorted(result.report.mean_confidence_by_subset_size) == [1, 2]

    @pytest.mark.parametrize("mode, seed", [("exhaustive", 0), ("sampled", 0), ("sampled", 1)])
    def test_one_forward_per_evaluate(self, monkeypatch, mode, seed):
        calls = count_forwards(monkeypatch)
        _, test_set = make_sets(per_class=5)
        evaluate(init_params(MODEL, seed=0), test_set, config(vrr_mode=mode, seed=seed))
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, seed", [("exhaustive", 3), ("sampled", 3), ("sampled", 6)])
    def test_full_probs_match_the_full_mask_records(self, mode, seed):
        train_set, test_set = make_sets(per_class=10)
        params = train(config(epochs=2), train_set).params
        result = calibration.evaluate_vrr(params, test_set, seed=seed, mode=mode)
        records, conf = result.records, result.full_probs.max(axis=-1)
        assert result.full_probs.shape == (test_set.num_samples, MODEL.num_classes)
        full = records.s_code == (1 << MODEL.num_modalities) - 1
        ids = records.sample_id[full]
        assert np.array_equal(np.unique(ids), np.arange(test_set.num_samples))
        assert records.conf_s[full].tobytes() == conf[ids].tobytes()

    @pytest.mark.parametrize("mode, seed", [("exhaustive", 3), ("sampled", 3), ("sampled", 6)])
    def test_full_confidence_is_the_full_probs_max(self, mode, seed):
        train_set, test_set = make_sets(per_class=10)
        params = train(config(epochs=2), train_set).params
        result = calibration.evaluate_vrr(params, test_set, seed=seed, mode=mode)
        assert result.full_confidence.tobytes() == result.full_probs.max(axis=-1).tobytes()


class TestBenchmarkContract:
    """The lattice benchmark rebinds trainer.evaluate_vrr and counts records with len()."""

    def test_evaluate_calls_the_module_global(self, monkeypatch):
        assert trainer.evaluate_vrr is calibration.evaluate_vrr
        calls = []

        def counting(*args, **kwargs):
            result = calibration.evaluate_vrr(*args, **kwargs)
            calls.append(len(result.records))
            return result

        monkeypatch.setattr(trainer, "evaluate_vrr", counting)
        _, test_set = make_sets(per_class=5)
        evaluate(init_params(MODEL, seed=0), test_set, config())
        assert calls == [test_set.num_samples]

    def test_exhaustive_record_count_five_modalities(self):
        spec = ModelSpec(modality_dims=(2, 3, 2, 1, 2), hidden_dim=4, latent_dim=3, num_classes=3)
        rng = np.random.default_rng(0)
        n = 7
        dataset = Dataset(
            modalities=[rng.standard_normal((n, d)) for d in spec.modality_dims],
            labels=rng.integers(0, 3, size=n),
            num_classes=3,
        )
        result = calibration.evaluate_vrr(init_params(spec, 0), dataset, seed=0, mode="exhaustive")
        assert len(result.records) == n * sum(math.comb(5, s) * s for s in range(2, 6)) == n * 75


class TestLambdaSweep:
    def test_grid_of_zero(self):
        train_set, test_set = make_sets(per_class=20)
        result = lambda_sweep(config(epochs=2), [0.0], train_set, test_set)
        assert result.best_lambda == 0.0
        assert len(result.rows) == 1

    def test_duplicate_lambdas_identical_rows(self):
        train_set, test_set = make_sets(per_class=20)
        result = lambda_sweep(config(epochs=2), [5.0, 5.0], train_set, test_set)
        assert result.rows[0] == result.rows[1]

    def test_empty_grid_rejected(self):
        train_set, test_set = make_sets(per_class=20)
        with pytest.raises(ConfigError):
            lambda_sweep(config(), [], train_set, test_set)

    def test_process_pool_matches_the_serial_run(self):
        train_set, test_set = make_sets(per_class=20)
        grid = [0.0, 5.0, 50.0]
        serial = lambda_sweep(config(epochs=1), grid, train_set, test_set)
        pooled = lambda_sweep(config(epochs=1), grid, train_set, test_set, jobs=2)
        assert pooled.rows == serial.rows
        assert pooled.best_lambda == serial.best_lambda

    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        import concurrent.futures

        class SerialPool:
            """Records max_workers and maps in this process: no process starts."""

            workers = []

            def __init__(self, max_workers):
                self.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        train_set, test_set = make_sets(per_class=20)
        grid = [0.0, 5.0, 50.0]
        pooled = lambda_sweep(config(epochs=1), grid, train_set, test_set, jobs=64)
        assert SerialPool.workers == [3]
        assert pooled.rows == lambda_sweep(config(epochs=1), grid, train_set, test_set).rows

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_non_positive_jobs_rejected_naming_jobs(self, jobs):
        train_set, test_set = make_sets(per_class=20)
        with pytest.raises(ConfigError, match=f"^jobs: expected an int >= 1, got {jobs}$"):
            lambda_sweep(config(epochs=1), [1.0], train_set, test_set, jobs=jobs)

    def test_default_grid_matches_protocol(self):
        assert DEFAULT_LAMBDA_GRID == (1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0)

    def test_tie_break_prefers_lower_vrr_then_smaller_lambda(self, monkeypatch):
        import rankcal.trainer as trainer_mod

        rows = iter(
            [
                (85.0, 10.0),
                (85.0, 4.0),
                (85.0, 4.0),
            ]
        )

        def fake_cell(cfg, lam, train_set, validation_set):
            acc, vrr = next(rows)
            return trainer_mod.LambdaSweepRow(lam=float(lam), val_accuracy=acc, val_vrr_pct=vrr)

        monkeypatch.setattr(trainer_mod, "_lambda_sweep_cell", fake_cell)
        result = trainer_mod.lambda_sweep(config(), [1.0, 5.0, 10.0], None, None)
        assert result.best_lambda == 5.0

    def test_all_failed_raises_sweep_error(self, monkeypatch):
        import rankcal.trainer as trainer_mod

        def fake_cell(cfg, lam, train_set, validation_set):
            return trainer_mod.LambdaSweepRow(
                lam=float(lam), val_accuracy=None, val_vrr_pct=None, failed=True
            )

        monkeypatch.setattr(trainer_mod, "_lambda_sweep_cell", fake_cell)
        with pytest.raises(SweepError):
            trainer_mod.lambda_sweep(config(), [1.0, 2.0], None, None)


class TestNoiseSweep:
    def test_epsilon_zero_row_equals_clean(self):
        train_set, test_set = make_sets(per_class=20)
        params_a = train(config(epochs=2), train_set).params
        params_b = train(config(epochs=2, lam=10.0), train_set).params
        rows = noise_sweep(
            params_a, params_b, test_set, [0.0, 0.2], [[0]], seed=0
        )
        assert rows[0].acc_baseline == full_mask_accuracy(params_a, test_set)
        assert rows[0].acc_cml == full_mask_accuracy(params_b, test_set)

    @staticmethod
    def sweep_case(num_modalities: int, num_rows: int):
        """Two briefly trained models and a test set of `num_rows` rows over M modalities."""
        dims = tuple(range(2, 2 + num_modalities))
        spec = SyntheticSpec(
            num_classes=3,
            modality_dims=dims,
            samples_per_class=(90, 80, 70),
            class_separation=(3.0, 1.5, 1.0, 0.5)[:num_modalities],
            noise_std=(1.0,) * num_modalities,
            seed=num_modalities,
        )
        train_set, test_set = split(generate_synthetic(spec), 0.15, seed=1)
        cfg = config(model=ModelSpec(dims, hidden_dim=6, latent_dim=3, num_classes=3), epochs=1)
        params_a = train(cfg, train_set).params
        params_b = train(dataclasses.replace(cfg, lam=5.0, seed=1), train_set).params
        return params_a, params_b, test_set.take(np.arange(num_rows))

    # N = 1 runs every matmul as a vector product; 201 puts several cells in one chunk.
    @pytest.mark.parametrize("num_rows", [1, 7, 201])
    @pytest.mark.parametrize("num_modalities", [2, 3, 4])
    def test_rows_equal_the_per_cell_oracle(self, num_modalities, num_rows):
        params_a, params_b, test_set = self.sweep_case(num_modalities, num_rows)
        targets = default_target_sets(num_modalities) + [[0, num_modalities - 1]]
        epsilons = [0.0, 0.05, 0.3, 1.5, 8.0]
        rows = noise_sweep(params_a, params_b, test_set, epsilons, targets, seed=11)
        want = reference_noise_sweep(params_a, params_b, test_set, epsilons, targets, seed=11)
        got = [(r.epsilon, r.targets, r.acc_baseline, r.acc_cml, r.delta) for r in rows]
        assert got == want

    @pytest.mark.parametrize("seed", [0, 3])
    def test_no_cell_shares_a_stream_with_training_evaluation_or_data(self, monkeypatch, seed):
        # Before, cell (e, t) drew from [seed, e, t]: cell (1, 0) was epoch 0's shuffle stream.
        epochs, vrr_repeats, epsilons, targets = 120, 5, [0.0] * 8, default_target_sets(4)
        cells = []

        class Recorded(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cells.append(self)

        monkeypatch.setattr(np.random, "SeedSequence", Recorded)
        spec = ModelSpec((2, 2, 2, 2), hidden_dim=3, latent_dim=2, num_classes=2)
        test_set = Dataset([np.zeros((2, 2))] * 4, np.array([0, 1]), 2)
        params = init_params(spec, seed=1)
        noise_sweep(params, params, test_set, epsilons, targets, seed=seed)
        monkeypatch.undo()
        assert len(cells) == len(epsilons) * len(targets)
        state = lambda entropy: tuple(np.random.SeedSequence(entropy).generate_state(4))
        others = {state(seed), state([seed, data._VALIDATION_STREAM])}  # init_params, validation
        others |= {state([seed, k]) for k in range(16)}  # data.split's class streams
        for tag, count in (
            (trainer._SHUFFLE_STREAM, epochs),
            (trainer._CHAIN_STREAM, epochs),
            (calibration._VRR_STREAM, vrr_repeats),
        ):
            others |= {state([seed, tag, i]) for i in range(count)}
        drawn = {tuple(cell.generate_state(4)) for cell in cells}
        assert len(drawn) == len(cells) and not drawn & others

    # One row makes every matmul a vector product; 1,100 rows repeat the 200 rows, each copy
    # with noise of its own.
    @pytest.mark.parametrize("num_rows", [1, 30, 1100])
    def test_rows_equal_the_oracle_at_any_test_set_size(self, num_rows):
        params_a, params_b, test_set = self.sweep_case(3, 200)
        test_set = test_set.take(np.arange(num_rows) % test_set.num_samples)
        args = (params_a, params_b, test_set, [0.0, 0.2, 0.7], default_target_sets(3))
        rows = noise_sweep(*args, seed=4)
        got = [(r.epsilon, r.targets, r.acc_baseline, r.acc_cml, r.delta) for r in rows]
        assert got == reference_noise_sweep(*args, seed=4)

    @pytest.mark.parametrize("epsilons, num_targets", [([0.3], 1), ([0.0, 0.2, 0.7], 4)])
    def test_one_forward_per_model_and_cell(self, monkeypatch, epsilons, num_targets):
        params_a, params_b, test_set = self.sweep_case(3, 30)
        targets = default_target_sets(3)[:num_targets]
        calls = count_forwards(monkeypatch)
        noise_sweep(params_a, params_b, test_set, epsilons, targets, seed=4)
        assert len(calls) == 2 * len(epsilons) * len(targets)

    # The oracle classifies row-major; from 8 classes on its sums are pairwise.
    @pytest.mark.parametrize("num_classes", [8, 11])
    def test_wide_head_rows_equal_the_row_major_oracle(self, num_classes):
        spec = ModelSpec((3, 4, 2), hidden_dim=32, latent_dim=64, num_classes=num_classes)
        params_a, params_b = init_params(spec, seed=1), init_params(spec, seed=2)
        rng = np.random.default_rng(num_classes)
        blocks = [rng.standard_normal((150, d)) for d in spec.modality_dims]
        test_set = Dataset(blocks, rng.integers(0, num_classes, size=150), num_classes)
        args = (params_a, params_b, test_set, [0.0, 0.3, 2.0], default_target_sets(3))
        rows = noise_sweep(*args, seed=5)
        got = [(r.epsilon, r.targets, r.acc_baseline, r.acc_cml, r.delta) for r in rows]
        assert got == reference_noise_sweep(*args, seed=5)

    def test_table_shape(self):
        train_set, test_set = make_sets(per_class=20)
        params = train(config(epochs=1), train_set).params
        rows = noise_sweep(
            params,
            params,
            test_set,
            [0.1, 0.2, 0.3],
            [[0], [1]],
            seed=0,
        )
        assert len(rows) == 6
        assert all(r.delta == 0.0 for r in rows)

    def test_default_grids(self):
        assert DEFAULT_NOISE_GRID == (0.1, 0.2, 0.3, 0.5)
        assert default_target_sets(2) == [[0], [1], [0, 1]]

    def test_empty_test_set_rejected(self):
        params = init_params(MODEL, 0)
        empty = make_sets(per_class=20)[1].take([])
        with pytest.raises(EmptyInputError, match="empty test set"):
            noise_sweep(params, params, empty, [0.1], [[0]], seed=0)

    @pytest.mark.parametrize(
        "epsilons, bad", [([0.1, -1.0], 1), ([float("nan")], 0), ([0.2, 0.3, float("inf")], 2)]
    )
    def test_bad_epsilon_rejected_naming_it_before_any_noise(self, monkeypatch, epsilons, bad):
        drawn = []
        monkeypatch.setattr(trainer, "corrupt_block", lambda *args: drawn.append(args))
        params, test_set = init_params(MODEL, 0), make_sets(per_class=20)[1]
        want = rf"^epsilons\[{bad}\]: expected a finite value >= 0, got {epsilons[bad]!r}$"
        with pytest.raises(ConfigError, match=want):
            noise_sweep(params, params, test_set, epsilons, [[0]], seed=0)
        assert drawn == []

    @pytest.mark.parametrize(
        "target_sets, message",
        [
            ([[-1]], r"target_sets\[0\]: expected a non-empty list of modality indices >= 0"),
            ([[0], []], r"target_sets\[1\]: expected a non-empty list of modality indices >= 0"),
            ([[1], [0, 7]], r"target_sets\[1\]: expected modality indices below 2, got \[0, 7\]"),
            ([[0, 0.5]], r"target_sets\[0\]\[1\]: expected int, got 0\.5$"),
            # Checked before any code is computed: 1 << 10**30 would not finish.
            ([[10**30]], r"target_sets\[0\]: expected modality indices below 2"),
        ],
    )
    def test_bad_target_set_rejected_naming_it_before_any_noise(
        self, monkeypatch, target_sets, message
    ):
        drawn = []
        monkeypatch.setattr(trainer, "corrupt_block", lambda *args: drawn.append(args))
        params, test_set = init_params(MODEL, 0), make_sets(per_class=20)[1]
        with pytest.raises(ConfigError, match=f"^{message}"):
            noise_sweep(params, params, test_set, [0.1], target_sets, seed=0)
        assert drawn == []

    def test_repeated_or_numpy_indices_are_the_same_target(self):
        params, test_set = init_params(MODEL, 0), make_sets(per_class=20)[1]
        once, twice, array = (
            noise_sweep(params, params, test_set, [0.0, 0.4], [targets], seed=2)
            for targets in ([0], [0, 0], np.array([0]))
        )
        assert once == twice == array
        assert [type(row.targets) for row in array] == [int, int]
        assert model.mask_names([row.targets for row in array]) == ["0", "0"]

    @pytest.mark.parametrize("key", ["epsilons", "target_sets"])
    def test_empty_grid_rejected_naming_it(self, key):
        params = init_params(MODEL, 0)
        grids = {"epsilons": [0.1], "target_sets": [[0]], key: []}
        with pytest.raises(ConfigError, match=rf"^{key}: expected a non-empty list, got \[\]$"):
            noise_sweep(params, params, make_sets(per_class=20)[1], seed=0, **grids)

    def test_dataset_dims_mismatch_rejected(self):
        other = ModelSpec(modality_dims=(4, 5), hidden_dim=8, latent_dim=4, num_classes=2)
        params = init_params(other, 0)
        with pytest.raises(SpecError, match=r"dataset dims \(4, 3\) != model dims \(4, 5\)"):
            noise_sweep(params, params, make_sets()[1], [0.1], [[0]], seed=0)

    def test_spec_mismatch_rejected(self):
        train_set, test_set = make_sets(per_class=20)
        other = ModelSpec(modality_dims=(4, 3), hidden_dim=9, latent_dim=4, num_classes=2)
        with pytest.raises(SpecError):
            noise_sweep(
                init_params(MODEL, 0),
                init_params(other, 0),
                test_set,
                [0.1],
                [[0]],
                seed=0,
            )
