from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from rankcal import cli, trainer
from rankcal.cli import main
from rankcal.data import Dataset, SyntheticSpec, generate_synthetic, load_csv_dataset
from rankcal.data import write_csv_dataset


# A manifest whose modality entry lacks its dim; the check fails before any CSV is read.
BAD_MANIFEST = {"num_classes": 2, "modalities": [{"path": "m0.csv"}], "labels": "labels.csv"}

SYNTHETIC = {
    "num_classes": 2,
    "modality_dims": [4, 3],
    "samples_per_class": 30,
    "class_separation": [4.0, 2.0],
    "noise_std": 1.0,
    "seed": 3,
}


def config_with_test_row(tmp_path: Path, modality: int, row, **overrides) -> Path:
    """A config without split, scored on SYNTHETIC as a test manifest whose row 0 of
    `modality` is replaced by `row`."""
    dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
    dataset.modalities[modality][0] = row
    write_csv_dataset(dataset, tmp_path / "test")
    overrides["data"] = {"test_manifest": "test/manifest.json", **overrides.get("data", {})}
    cfg = write_config(tmp_path / "config.json", **overrides)
    written = json.loads(cfg.read_text())
    del written["split"]
    cfg.write_text(json.dumps(written))
    return cfg


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "data": {"synthetic": dict(SYNTHETIC)},
        "split": {"train_fraction": 0.8, "seed": 0},
        "model": {"hidden_dim": 8, "latent_dim": 4},
        "train": {
            "epochs": 3,
            "learning_rate": 0.01,
            "batch_size": 16,
            "lambda": 5.0,
            "variant": "hinge",
            "seed": 0,
        },
        "output_dir": "out",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        out = capsys.readouterr().out
        assert "class 0: 30 samples" in out
        dataset = load_csv_dataset(tmp_path / "ds" / "manifest.json")
        assert dataset.num_samples == 60
        assert dataset.modality_dims == (4, 3)

    def test_regenerate_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        for name in ("manifest.json", "modality_0.csv", "modality_1.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unwritable_out_dir_no_partial_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out_dir = blocker / "nested"
        assert main(["generate", "--config", str(cfg), "--out", str(out_dir)]) != 0
        assert not out_dir.exists()
        assert "error:" in capsys.readouterr().err

    def test_manifest_config_cannot_generate(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {"manifest": "missing.json"}}))
        assert main(["generate", "--config", str(cfg_path)]) != 0


class TestTrainCommand:
    def test_run_directory_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        for name in ("config.json", "history.csv", "metrics.json", "checkpoint.bin", "records.csv"):
            assert (run_dir / name).exists(), name
        out = capsys.readouterr().out
        assert "acc=" in out and "vrr=" in out and "nll=" in out and "aurc=" in out
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,cls_loss,cml_loss,train_acc"
        assert len(history) == 1 + 3

    def test_rerun_identical_metrics(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        # config snapshots differ only in the single timestamp metadata key
        snap_a = json.loads((a / "config.json").read_text())
        snap_b = json.loads((b / "config.json").read_text())
        snap_a.pop("meta")
        snap_b.pop("meta")
        assert snap_a == snap_b

    def test_missing_manifest_fails_naming_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"data": {"manifest": "nowhere/manifest.json"}, "train": {"epochs": 1}})
        )
        assert main(["train", "--config", str(cfg_path)]) != 0
        assert "manifest.json" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir), "--seed", "9"]) == 0
        snapshot = json.loads((run_dir / "config.json").read_text())
        assert snapshot["resolved_train"]["seed"] == 9

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        monkeypatch.setenv("CML_SEED", "11")
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = json.loads((run_dir / "config.json").read_text())
        assert snapshot["resolved_train"]["seed"] == 11

    def test_non_numeric_env_seed_fails_naming_variable(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "config.json")
        monkeypatch.setenv("CML_SEED", "abc")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "CML_SEED" in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_csv_cell_fails_naming_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "gen.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        csv = tmp_path / "ds" / "modality_1.csv"
        lines = csv.read_text().splitlines()
        lines[2] = ",".join(["nan"] + lines[2].split(",")[1:])
        csv.write_text("\n".join(lines) + "\n")
        train_cfg = tmp_path / "train.json"
        obj = json.loads(cfg.read_text())
        obj["data"] = {"manifest": "ds/manifest.json"}
        train_cfg.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "modality_1.csv:3:" in err

    @pytest.mark.parametrize(
        "train, message",
        [
            ({"lamda": 10.0}, "train.lamda: unknown key"),
            ({"epochs": "3"}, "train.epochs: expected int"),
            ({"epochs": 2.5}, "train.epochs: expected int"),
            ({"lambda": True}, "train.lambda: expected float"),
            ({"skip_on_wrong_full": "false"}, "train.skip_on_wrong_full: expected bool"),
            ({"variant": 1}, "train.variant: expected str"),
        ],
    )
    def test_bad_train_key_fails_naming_it(self, tmp_path, capsys, train, message):
        cfg = write_config(tmp_path / "config.json", train=train)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"model": {"hiden_dim": 8}}, "model.hiden_dim: unknown key"),
            ({"split": {"sed": 3}}, "split.sed: unknown key"),
            ({"data": {"synthetic": {}, "manifests": "x"}}, "data.manifests: unknown key"),
            (
                {"data": {"synthetic": {"num_classes": 2, "noise_sdt": 5}}},
                "data.synthetic.noise_sdt: unknown key",
            ),
            (
                {"data": {"synthetic": {"num_classes": 2, "modality_dims": [4, 3]}}},
                "data.synthetic.samples_per_class: missing key",
            ),
            ({"model": [8]}, "model: expected a JSON object"),
            ({"model": {"hidden_dim": "x"}}, "model.hidden_dim: expected int, got 'x'"),
            ({"model": {"modality_dims": [4, "3"]}}, "model.modality_dims[1]: expected int"),
            ({"split": {"train_fraction": "0.8"}}, "split.train_fraction: expected float"),
            ({"split": {"seed": 1.5}}, "split.seed: expected int, got 1.5"),
            ({"data": {"manifest": 3}}, "data.manifest: expected str, got 3"),
            (
                {"data": {"synthetic": {**SYNTHETIC, "num_classes": "x"}}},
                "data.synthetic.num_classes: expected int, got 'x'",
            ),
            (
                {"data": {"synthetic": {**SYNTHETIC, "samples_per_class": [30, "x"]}}},
                "data.synthetic.samples_per_class[1]: expected int, got 'x'",
            ),
            (
                {"data": {"synthetic": {**SYNTHETIC, "class_separation": "4"}}},
                "data.synthetic.class_separation: expected float | list[float], got '4'",
            ),
            ({"trian": {"lambda": 10.0, "epochs": 1}}, "trian: unknown key"),
            ({"output_dir": 3}, "output_dir: expected str, got 3"),
            ({"standardize": "no"}, "standardize: expected bool, got 'no'"),
        ],
    )
    def test_bad_section_key_fails_naming_it(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "config.json", **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err
        assert not (tmp_path / "run").exists()

    def test_jobs_only_on_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        with pytest.raises(SystemExit):
            main(["train", "--config", str(cfg), "--jobs", "2"])

    @pytest.mark.parametrize("command", ["generate", "compare"])
    def test_seed_only_on_the_commands_that_train(self, tmp_path, command):
        cfg = write_config(tmp_path / "config.json")
        with pytest.raises(SystemExit):
            main([command, "--config", str(cfg), "--seed", "99"])

    def test_generate_reads_no_env_seed(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "config.json")
        monkeypatch.setenv("CML_SEED", "abc")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        assert capsys.readouterr().err == ""

    def test_exactly_one_data_source_required(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {}}))
        assert main(["train", "--config", str(cfg_path)]) != 0
        assert "exactly one" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_run_with_itself_zero_deltas(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        compare_cfg = write_config(
            tmp_path / "compare.json",
            compare={"baseline_run": str(run_dir), "cml_run": str(run_dir)},
        )
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out_dir)]) == 0
        comparison = json.loads((out_dir / "comparison.json").read_text())
        assert comparison["vrr_delta_pct"] == 0.0
        assert comparison["accuracy_delta_pct"] == 0.0
        assert comparison["mean_abs_conf_shift_full"] == 0.0

    def test_deltas_match_run_metrics_and_curve_rows(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", train={"lambda": 0.0}, output_dir="run_a")
        cfg_b = write_config(tmp_path / "b.json", train={"lambda": 10.0}, output_dir="run_b")
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b)]) == 0
        compare_cfg = write_config(
            tmp_path / "compare.json",
            compare={"baseline_run": "run_a", "cml_run": "run_b"},
        )
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out_dir)]) == 0
        comparison = json.loads((out_dir / "comparison.json").read_text())
        metrics_a = json.loads((tmp_path / "run_a" / "metrics.json").read_text())
        metrics_b = json.loads((tmp_path / "run_b" / "metrics.json").read_text())
        assert comparison["vrr_delta_pct"] == pytest.approx(
            metrics_b["vrr_pct"] - metrics_a["vrr_pct"]
        )
        assert comparison["accuracy_delta_pct"] == pytest.approx(
            metrics_b["accuracy_pct"] - metrics_a["accuracy_pct"]
        )
        curve = (out_dir / "confidence_by_subset_size.csv").read_text().splitlines()
        assert curve[0] == "subset_size,conf_baseline,conf_cml"
        assert len(curve) == 1 + 2  # one row per subset size 1..M

    def test_non_finite_checkpoint_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        checkpoint = run_dir / "checkpoint.bin"
        raw = bytearray(checkpoint.read_bytes())
        raw[-8:] = np.float64(np.nan).tobytes()
        checkpoint.write_bytes(bytes(raw))
        compare_cfg = write_config(
            tmp_path / "compare.json",
            compare={"baseline_run": str(run_dir), "cml_run": str(run_dir)},
        )
        capsys.readouterr()
        assert main(["compare", "--config", str(compare_cfg), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{checkpoint}: non-finite parameter values" in err

    @staticmethod
    def compare_error(tmp_path, capsys, run_dir: Path) -> str:
        """The single stderr line of a compare of `run_dir` with itself that must exit 1."""
        compare_cfg = write_config(
            tmp_path / "compare.json",
            compare={"baseline_run": str(run_dir), "cml_run": str(run_dir)},
        )
        capsys.readouterr()
        assert main(["compare", "--config", str(compare_cfg), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        return err

    def test_incomplete_checkpoint_header_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        checkpoint = run_dir / "checkpoint.bin"
        magic, header, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        del header["spec"]["hidden_dim"]
        checkpoint.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert f"{checkpoint}: spec.hidden_dim: missing key" in err

    def test_snapshot_without_resolved_train_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        del obj["resolved_train"]
        snapshot.write_text(json.dumps(obj))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert f"{snapshot}: missing key 'resolved_train'" in err

    def test_spec_mismatch_fails(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", output_dir="run_a")
        cfg_b = write_config(
            tmp_path / "b.json", model={"hidden_dim": 6, "latent_dim": 4}, output_dir="run_b"
        )
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b)]) == 0
        compare_cfg = write_config(
            tmp_path / "compare.json",
            compare={"baseline_run": "run_a", "cml_run": "run_b"},
        )
        assert main(["compare", "--config", str(compare_cfg), "--out", str(tmp_path / "c")]) != 0


class TestSweepCommand:
    def test_lambda_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "config.json",
            split={"val_fraction": 0.25},
            sweep={"kind": "lambda", "lambda_grid": [0.0, 5.0]},
            train={"epochs": 2},
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep_lambda.csv").read_text().splitlines()
        assert lines[0] == "lambda,val_acc,val_vrr"
        assert len(lines) == 3
        best = json.loads((out_dir / "sweep_lambda.json").read_text())
        assert best["best_lambda"] in (0.0, 5.0)

    def test_lambda_sweep_without_val_fraction_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", sweep={"kind": "lambda", "lambda_grid": [1.0]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split.val_fraction: missing key")
        assert not out.exists()

    def test_lambda_sweep_never_reads_the_test_split(self, tmp_path):
        """A poisoned test manifest leaves sweep_lambda.csv byte-identical."""
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset, tmp_path / "train")
        rng = np.random.default_rng(0)
        clean = dataset.take(np.arange(20))
        poisoned = Dataset(
            [1e6 * rng.standard_normal(block.shape) for block in clean.modalities],
            1 - clean.labels,
            clean.num_classes,
        )
        tables = []
        for name, test_set in (("clean", clean), ("poisoned", poisoned)):
            write_csv_dataset(test_set, tmp_path / name)
            cfg = write_config(
                tmp_path / f"{name}.json",
                split={"val_fraction": 0.25, "seed": 4},
                sweep={"kind": "lambda", "lambda_grid": [0.0, 5.0, 50.0]},
                train={"epochs": 2},
            )
            sources = {"manifest": "train/manifest.json", "test_manifest": f"{name}/manifest.json"}
            written = json.loads(cfg.read_text())
            del written["split"]["train_fraction"]  # a test manifest leaves it unread
            cfg.write_text(json.dumps({**written, "data": sources}))
            out = tmp_path / f"sweep_{name}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            tables.append((out / "sweep_lambda.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_empty_grid_fails(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "config.json",
            split={"val_fraction": 0.25},
            sweep={"kind": "lambda", "lambda_grid": []},
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) != 0
        assert "empty" in capsys.readouterr().err

    def test_noise_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "config.json",
            sweep={"kind": "noise", "epsilons": [0.0, 0.5], "target_sets": [[0], [1]]},
            train={"epochs": 2, "lambda": 5.0},
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep_noise.csv").read_text().splitlines()
        assert lines[0] == "param,acc_baseline,acc_cml,delta"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("eps=0;on=0")

    def test_missing_kind_fails(self, tmp_path):
        cfg = write_config(tmp_path / "config.json", sweep={})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) != 0

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            # JSON Infinity and NaN parse as floats and pass the section's float check.
            ([float("inf")], "sweep.epsilons[0]: expected a finite value >= 0, got inf"),
            ([0.1, float("nan")], "sweep.epsilons[1]: expected a finite value >= 0, got nan"),
            ([0.1, 0.2, -0.5], "sweep.epsilons[2]: expected a finite value >= 0, got -0.5"),
        ],
    )
    def test_bad_epsilon_fails_naming_it(self, tmp_path, capsys, epsilons, message):
        cfg = write_config(tmp_path / "config.json", sweep={"kind": "noise", "epsilons": epsilons})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "sweep_noise.csv").exists()

    def test_noise_sweep_on_an_empty_test_manifest_fails(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset.take([]), tmp_path / "empty")
        cfg = write_config(
            tmp_path / "config.json",
            data={"test_manifest": "empty/manifest.json"},
            sweep={"kind": "noise", "epsilons": [0.1]},
        )
        written = json.loads(cfg.read_text())
        del written["split"]  # a test manifest without split.val_fraction leaves it unread
        cfg.write_text(json.dumps(written))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: empty test set"]
        assert not (out / "sweep_noise.csv").exists()

    def test_noise_sweep_with_runs_of_other_modality_dims_fails(self, tmp_path, capsys):
        other = {"synthetic": {**SYNTHETIC, "modality_dims": [5, 3]}}
        run_cfg = write_config(tmp_path / "run.json", data=other, train={"epochs": 1})
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        cfg = write_config(
            tmp_path / "config.json",
            sweep={"kind": "noise", "baseline_run": "run", "cml_run": "run"},
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: dataset dims (4, 3) != model dims (5, 3)"]
        assert not (out / "sweep_noise.csv").exists()


class TestNumericBoundary:
    """Overflow, a log of zero and oversized models exit 1 with one line.

    No warning, traceback or run directory comes before or after it.
    """

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # Adam's second moment overflows; without raising, the run wrote a different model.
            ({"train": {"lambda": 1e308}}, "error: floating-point overflow encountered in"),
            # The matmuls overflow; without raising, numpy warnings came before the error line.
            ({"train": {"learning_rate": 1e300}}, "error: floating-point overflow encountered in"),
            # A probability underflows to zero; without raising, numpy warned before the error line.
            ({"train": {"learning_rate": 1e3}}, "error: floating-point divide by zero encountered"),
            ({"model": {"hidden_dim": 10**12}}, "bytes of parameters, over the limit of"),
        ],
    )
    def test_train_fails_with_one_line(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "config.json", **overrides)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        if "epoch" in message or "floating" in message:
            assert " at epoch " in err[0] and ", batch " in err[0]
        assert not out.exists()

    def test_evaluation_failure_is_one_line(self, tmp_path, capsys):
        # A finite test value drives a true-class probability to zero. Before, numpy
        # warned, the run exited 0 and metrics.json held "nll_raw": Infinity.
        cfg = config_with_test_row(tmp_path, 0, [1.7e308, 0.0, 0.0, 0.0])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: evaluation failed: floating-point divide by zero encountered in log"
        ]
        assert not out.exists()

    def test_noise_sweep_failure_is_one_line(self, tmp_path, capsys):
        # Before, four numpy overflow and invalid-value warnings came before the error line.
        cfg = config_with_test_row(
            tmp_path, 0, 1.7e308, standardize=False, sweep={"kind": "noise", "epsilons": [0.1]}
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: noise sweep failed: floating-point overflow encountered in matmul"]
        assert not (out / "sweep_noise.csv").exists()

    def test_json_files_are_strict(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._write_json(path, {"nll_raw": float("inf")})
        assert not path.exists()


class TestCommandSections:
    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            (
                "compare",
                {"compare": {"baseline_run": 3, "cml_run": "run"}},
                "compare.baseline_run: expected str, got 3",
            ),
            ("compare", {"compare": {"cml_run": "run"}}, "compare.baseline_run: missing key"),
            (
                "compare",
                {"compare": {"baseline_run": "run", "cml_run": "run", "test_manfest": "x"}},
                "compare.test_manfest: unknown key",
            ),
            (
                "sweep",
                {"sweep": {"kind": "noise", "epsilons": ["x"]}},
                "sweep.epsilons[0]: expected float, got 'x'",
            ),
            (
                "sweep",
                {"sweep": {"kind": "noise", "target_sets": [[0], "1"]}},
                "sweep.target_sets[1]: expected list[int], got '1'",
            ),
            (
                "sweep",
                {"sweep": {"kind": "noise", "baseline_run": "run"}},
                "sweep.cml_run: missing key (sweep.baseline_run given)",
            ),
            (
                "sweep",
                {"sweep": {"kind": "noise", "cml_run": "run"}},
                "sweep.baseline_run: missing key (sweep.cml_run given)",
            ),
            (
                "sweep",
                {
                    "sweep": {
                        "kind": "lambda",
                        "lambda_grid": [1.0],
                        "baseline_run": "nonexistent_run",
                        "epsilons": [0.3],
                    }
                },
                'sweep.baseline_run: unknown key for kind "lambda"',
            ),
            (
                "sweep",
                {"sweep": {"kind": "noise", "lambda_grid": [1.0]}},
                'sweep.lambda_grid: unknown key for kind "noise"',
            ),
            (
                "train",
                {"data": {"test_manifest": "bad_manifest.json"}},
                "bad_manifest.json:1: manifest.modalities[0].dim: missing key",
            ),
        ],
    )
    def test_bad_key_fails_naming_it(self, tmp_path, capsys, command, overrides, message):
        (tmp_path / "bad_manifest.json").write_text(json.dumps(BAD_MANIFEST))
        cfg = write_config(tmp_path / "config.json", **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_train_fraction_with_a_test_manifest_fails_naming_it(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset, tmp_path / "test")
        cfg = write_config(
            tmp_path / "config.json",
            data={"test_manifest": "test/manifest.json"},
            split={"train_fraction": 0.1},
        )
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split.train_fraction: not used with")
        assert not out.exists()

    def test_split_seed_with_a_test_manifest_and_no_val_fraction_fails_naming_it(
        self, tmp_path, capsys
    ):
        # Nothing is split, so the seed would train the same model as any other seed.
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset, tmp_path / "test")
        cfg = write_config(tmp_path / "config.json", data={"test_manifest": "test/manifest.json"})
        written = json.loads(cfg.read_text())
        written["split"] = {"seed": 1}
        cfg.write_text(json.dumps(written))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split.seed: not used with")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["-4", "0"])
    def test_non_positive_jobs_fail_naming_the_flag(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "config.json", sweep={"kind": "lambda", "lambda_grid": [1.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: --jobs must be >= 1, got {jobs}"]
        assert not out.exists()

    def test_neither_split_nor_test_manifest_fails_naming_split(self, tmp_path, capsys):
        # Without the check, the model was scored on the rows it trained on.
        cfg = write_config(tmp_path / "config.json")
        written = json.loads(cfg.read_text())
        del written["split"]
        cfg.write_text(json.dumps(written))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split: missing key")
        assert not out.exists()

    def test_compare_without_split_or_a_test_manifest_fails_naming_split(self, tmp_path, capsys):
        run_cfg = write_config(tmp_path / "run.json", train={"epochs": 1})
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path / "config.json", compare={"baseline_run": "run", "cml_run": "run"})
        written = json.loads(cfg.read_text())
        del written["split"]
        cfg.write_text(json.dumps(written))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split: missing key")
        assert not out.exists()

    def test_overflowing_feature_fails_naming_it(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        block = dataset.modalities[1].copy()
        block[:3, 0] = [1e308, -1e308, 0.0]
        modalities = [dataset.modalities[0], block]
        write_csv_dataset(
            Dataset(modalities=modalities, labels=dataset.labels, num_classes=2), tmp_path / "ds"
        )
        cfg = write_config(tmp_path / "config.json", data={"manifest": "ds/manifest.json"})
        written = json.loads(cfg.read_text())
        del written["data"]["synthetic"]
        cfg.write_text(json.dumps(written))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: modality 1: feature 0 cannot be standardized")
        assert not out.exists()

    def test_overflowing_test_value_fails_naming_it(self, tmp_path, capsys):
        # Before, numpy warned about the overflow and the error then blamed a
        # non-finite feature, although the raw value is finite.
        # Modality 1's training std is about 1e-11, so 1e300 over it overflows.
        synthetic = {**SYNTHETIC, "noise_std": [1.0, 1e-11]}
        cfg = config_with_test_row(tmp_path, 1, [1e300, 0.0, 0.0], data={"synthetic": synthetic})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error: modality 1: feature 0 at row 0 cannot be standardized (value 1e+300, "
        )
        assert not out.exists()

    def test_empty_training_manifest_fails_with_one_line(self, tmp_path, capsys):
        # Without the check, numpy warned five times and the error blamed a test-set row.
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset.take([]), tmp_path / "empty")
        write_csv_dataset(dataset, tmp_path / "test")
        cfg = write_config(
            tmp_path / "config.json",
            data={"manifest": "empty/manifest.json", "test_manifest": "test/manifest.json"},
        )
        written = json.loads(cfg.read_text())
        del written["data"]["synthetic"], written["split"]
        cfg.write_text(json.dumps(written))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot standardize on an empty dataset"
        ]
        assert not out.exists()

    def test_exhaustive_vrr_over_the_modality_limit_fails_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran before the limit was checked")

        monkeypatch.setattr(trainer, "objective_core", no_batch)
        synthetic = {**SYNTHETIC, "modality_dims": [2] * 6, "class_separation": 2.0}
        cfg = write_config(
            tmp_path / "config.json",
            data={"synthetic": synthetic},
            train={"vrr_mode": "exhaustive"},
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: exhaustive enumeration capped at 5 modalities, got 6"]
        assert not out.exists()


class TestParser:
    """main builds its argparse parser once per process and reuses it."""

    def test_three_calls_build_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfg = write_config(tmp_path / "config.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
        with pytest.raises(SystemExit):
            main(["bogus"])
        cli._parser.cache_clear()
        assert len(built) == 5  # the parser and its 4 subparsers; 15 when built per call

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["train"], "the following arguments are required: --config"),
        ],
    )
    def test_usage_errors_after_a_successful_call(self, tmp_path, capsys, argv, message):
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as fresh:
            main(argv)
        fresh_err = capsys.readouterr().err
        cfg = write_config(tmp_path / "config.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as reused:
            main(argv)
        err = capsys.readouterr().err
        assert fresh.value.code == reused.value.code == 2
        assert err == fresh_err
        assert err.startswith("usage: rankcal") and message in err

    def test_help_after_a_successful_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: rankcal") and "{generate,train,compare,sweep}" in out
