from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankcal import calibration, cli, data, errors, model, trainer
from rankcal.cli import main
from rankcal.data import Dataset, SyntheticSpec, generate_synthetic, load_csv_dataset
from rankcal.data import standardize_apply, standardize_fit, write_csv_dataset
from rankcal.model import load_checkpoint

from reference import reference_probs


# The error of a manifest whose files hold no rows.
ZERO_ROWS = "0 rows; need at least 1"

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

# Training keys that are gone, each with the value a run written before then records: sampled
# VRR draws one chain per sample, and the chain gradient always reaches both pair confidences.
REMOVED_TRAIN_KEYS = [("vrr_repeats", 1), ("detach_superset", False)]


def config_with_test_row(tmp_path: Path, modality: int, row, **overrides) -> Path:
    """A config without split, scored on SYNTHETIC as a test manifest whose row 0 of
    `modality` is replaced by `row`."""
    dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
    dataset.modalities[modality][0] = row
    write_csv_dataset(dataset, tmp_path / "test")
    overrides["data"] = {"test_manifest": "test/manifest.json", **overrides.get("data", {})}
    return write_config(tmp_path / "config.json", split=None, **overrides)


def run_pair_section(command: str) -> dict:
    """The compare or noise-sweep section over TestCompareCommand.train_pair's runs."""
    runs = {"baseline_run": "run_a", "cml_run": "run_b"}
    return {"compare": runs} if command == "compare" else {"sweep": {"kind": "noise", **runs}}


def prepared_fingerprint(config_path: Path) -> dict:
    """data.fingerprint of the test set that `config_path` prepares."""
    return data.fingerprint(cli._prepare(cli._load_config(config_path)[1], config_path.parent).test)


def fingerprint_error(run_dir: Path, ours: dict) -> str:
    """The error line of a run whose resolved_test is not `ours`."""
    snapshot = run_dir / "config.json"
    theirs = json.loads(snapshot.read_text())["resolved_test"]
    shown = [f"{fp['rows']} rows (sha256 {fp['sha256'][:12]})" for fp in (theirs, ours)]
    return f"error: {snapshot}: resolved_test: {shown[0]}, but this config's test set is {shown[1]}"


def write_config(path: Path, **overrides) -> Path:
    """A small training config with `overrides` merged in; an override of None drops its key."""
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
        if value is None:
            del cfg[key]
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
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
        assert main(["generate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: data.synthetic: expected a JSON object to generate, got none"
        ]


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

    @staticmethod
    def wide_config(path: Path, num_modalities: int) -> Path:
        """A tiny config over `num_modalities` one-dimensional synthetic modalities."""
        synthetic = {**SYNTHETIC, "modality_dims": [1] * num_modalities, "class_separation": 3.0}
        return write_config(
            path,
            data={"synthetic": {**synthetic, "samples_per_class": 4}},
            split={"train_fraction": 0.5},
            model={"hidden_dim": 2, "latent_dim": 2},
            train={"epochs": 1},
        )

    # Before, the int64 code of the full set wrapped to -1 at 64 modalities.
    def test_63_modalities_write_the_full_set(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = self.wide_config(tmp_path / "config.json", 63)
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        rows = [line.split(",") for line in (run_dir / "records.csv").read_text().splitlines()]
        full = "+".join(map(str, range(63)))
        heads = [row for row in rows[1:] if row[2] == full]  # each chain starts at the full set
        assert len(heads) == 4 and len(rows) == 1 + 4 * 62
        assert all(len(row[1].split("+")) == 62 for row in heads)

    def test_64_modalities_fail_naming_the_key_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(trainer, "train", no_training)
        run_dir = tmp_path / "run"
        cfg = self.wide_config(tmp_path / "config.json", 64)
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: model.modality_dims: expected 2 to 63 entries, got [")
        assert not run_dir.exists()

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

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_negative_env_seed_fails_naming_variable_before_reading_data(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Before, this was reported as train.seed, a config key the user had not set.
        def no_data(*args, **kwargs):
            raise AssertionError("data was read before CML_SEED was checked")

        monkeypatch.setattr(data, "generate_synthetic", no_data)
        monkeypatch.setenv("CML_SEED", "-3")
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: CML_SEED: expected an int >= 0, got -3"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "name, text",
        [
            ("--seed", "1_0"),
            ("--seed", " 1_0 "),
            ("--seed", " 10"),
            ("--seed", "+3"),
            ("--seed", "\u0663"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
            pytest.param("--seed", "1" * 5000, id="--seed-5000-digits"),  # past int()'s limit
            ("CML_SEED", "1_000"),
            ("CML_SEED", "7\n"),
            ("CML_SEED", "\uff17"),  # FULLWIDTH DIGIT SEVEN
            ("CML_SEED", ""),
        ],
    )
    def test_seed_override_of_other_text_than_digits_fails_naming_it(
        self, tmp_path, capsys, monkeypatch, command, name, text
    ):
        # Before, int() read 1_000 as 1000 and ' 1_0 ' as 10, and an empty CML_SEED was ignored.
        monkeypatch.delenv("CML_SEED", raising=False)
        flags = ["--seed", text] if name == "--seed" else []
        if name == "CML_SEED":
            monkeypatch.setenv("CML_SEED", text)
        cfg = write_config(tmp_path / "config.json", split={"val_fraction": 0.25})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
        message = f"error: {name}: expected an int of digits 0-9, got {text!r}"
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

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
            ({"model": {"num_classes": 3}}, "model.num_classes: expected 2 as in the data, got 3"),
            (
                {"model": {"modality_dims": [4, 3, 2]}},
                "model.modality_dims: expected (4, 3) as in the data, got (4, 3, 2)",
            ),
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

    def test_both_data_sources_fail_naming_them(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", data={"manifest": "ds/manifest.json"})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: data: expected exactly one of 'manifest', 'synthetic', "
            "got ['manifest', 'synthetic']"
        ]


class TestCompareCommand:
    @staticmethod
    def train_pair(tmp_path, **overrides) -> Path:
        """Train run_a (lambda 0) and run_b (lambda 10); the config comparing them.

        `overrides` go into all three configs.
        """
        for run, lam in (("run_a", 0.0), ("run_b", 10.0)):
            cfg = write_config(
                tmp_path / f"{run}.json", train={"lambda": lam}, output_dir=run, **overrides
            )
            assert main(["train", "--config", str(cfg)]) == 0
        compare = {"baseline_run": "run_a", "cml_run": "run_b"}
        return write_config(tmp_path / "compare.json", compare=compare, **overrides)

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

    @pytest.mark.parametrize("modes", [("sampled", "exhaustive"), ("exhaustive", "sampled")])
    def test_runs_of_two_vrr_modes_fail_naming_the_cml_run(self, tmp_path, capsys, modes):
        # Before, compare exited 0 with a sampled VRR subtracted from an exhaustive one.
        for run, lam, mode in zip(("run_a", "run_b"), (0.0, 10.0), modes):
            train = {"lambda": lam, "vrr_mode": mode}
            cfg = write_config(tmp_path / f"{run}.json", train=train, output_dir=run)
            assert main(["train", "--config", str(cfg)]) == 0
        compare_cfg = write_config(tmp_path / "compare.json", **run_pair_section("compare"))
        capsys.readouterr()
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 1
        snapshot = tmp_path / "run_b" / "config.json"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {snapshot}: resolved_train.vrr_mode: '{modes[1]}', but the baseline run's "
            f"is '{modes[0]}'; VRRs of two modes do not subtract"
        ]
        assert not out.exists()

    def test_deltas_match_run_metrics_and_curve_rows(self, tmp_path):
        compare_cfg = self.train_pair(tmp_path)
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

    @pytest.mark.parametrize("dtype", [">f8", "int8"])
    def test_checkpoint_of_another_dtype_fails_naming_it(self, tmp_path, capsys, dtype):
        # Before, the header's dtype was never read: byte-swapped values loaded as they were.
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        checkpoint = run_dir / "checkpoint.bin"
        magic, header, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = {**json.loads(header), "dtype": dtype}
        checkpoint.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert err == f"error: {checkpoint}: header.dtype: expected one of '<f8', got '{dtype}'\n"

    def test_checkpoint_header_of_another_kind_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        checkpoint = run_dir / "checkpoint.bin"
        magic, _, payload = checkpoint.read_bytes().split(b"\n", 2)
        checkpoint.write_bytes(b"\n".join([magic, b"[1, 2]", payload]))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert err == f"error: {checkpoint}: header: expected a JSON object, got [1, 2]\n"
        assert not (tmp_path / "c").exists()

    def test_checkpoint_header_nested_too_deeply_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        checkpoint = run_dir / "checkpoint.bin"
        magic, _, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = b'{"spec": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        checkpoint.write_bytes(b"\n".join([magic, header, payload]))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert err.startswith(f"error: {checkpoint}: maximum recursion depth exceeded")
        assert not (tmp_path / "c").exists()

    # A run written before resolved_test was recorded fails too: no other check stands in.
    @pytest.mark.parametrize("key", ["resolved_train", "resolved_test"])
    def test_snapshot_without_resolved_train_fails_naming_it(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        del obj[key]
        snapshot.write_text(json.dumps(obj))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert f"{snapshot}: missing key '{key}'" in err

    # Before, the resolved_train case read "error: train.epochs: ..." and named no file.
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("resolved_train", "epochs", 0, "train.epochs: expected an int >= 1, got 0"),
            ("resolved_test", "rows", "12", "resolved_test.rows: expected int, got '12'"),
        ],
    )
    def test_bad_resolved_train_value_fails_naming_the_snapshot(
        self, tmp_path, capsys, section, key, value, message
    ):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        obj[section][key] = value
        snapshot.write_text(json.dumps(obj))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert err == f"error: {snapshot}: {message}\n"
        assert not (tmp_path / "c").exists()

    def test_snapshot_section_of_another_kind_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        obj["resolved_test"] = 5
        snapshot.write_text(json.dumps(obj))
        err = self.compare_error(tmp_path, capsys, run_dir)
        assert err == f"error: {snapshot}: resolved_test: expected a JSON object, got 5\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    @pytest.mark.parametrize(
        "dims, resolved, message",
        [
            pytest.param(
                [2] * 6, {}, "exhaustive enumeration capped at 5 modalities, got 6", id="modalities"
            ),
        ],
    )
    def test_snapshot_breaking_an_exhaustive_rule_fails_naming_it(
        self, tmp_path, capsys, command, dims, resolved, message
    ):
        # Before, a snapshot's train settings skipped the rules across keys: compare exited 0
        # (or failed in evaluation naming no file), and the noise sweep exited 0.
        synthetic = {**SYNTHETIC, "modality_dims": dims, "class_separation": 2.0}
        cfg = write_config(tmp_path / "config.json", data={"synthetic": synthetic})
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        obj["resolved_train"] |= {"vrr_mode": "exhaustive", **resolved}
        snapshot.write_text(json.dumps(obj))
        runs = {"baseline_run": "run", "cml_run": "run"}
        sections = {"compare": {"compare": runs}, "sweep": {"sweep": {"kind": "noise", **runs}}}
        data_section = {"synthetic": synthetic}
        cfg = write_config(tmp_path / "config.json", data=data_section, **sections[command])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {snapshot}: {message}"]
        assert not out.exists()

    # A run written while a training key existed records it in resolved_train.
    @pytest.mark.parametrize("command", ["compare", "sweep"])
    @pytest.mark.parametrize("key, value", REMOVED_TRAIN_KEYS)
    def test_snapshot_with_a_removed_key_fails_naming_it(
        self, tmp_path, capsys, key, value, command
    ):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        obj = json.loads(snapshot.read_text())
        obj["resolved_train"][key] = value
        snapshot.write_text(json.dumps(obj))
        runs = {"baseline_run": "run", "cml_run": "run"}
        sections = {"compare": {"compare": runs}, "sweep": {"sweep": {"kind": "noise", **runs}}}
        cfg = write_config(tmp_path / "config.json", **sections[command])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {snapshot}: train.{key}: unknown key"]
        assert not out.exists()

    def test_snapshot_of_invalid_json_fails_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        snapshot = run_dir / "config.json"
        snapshot.write_text("{bad")
        err = self.compare_error(tmp_path, capsys, run_dir)
        message = "invalid JSON (Expecting property name enclosed in double quotes)"
        assert err == f"error: {snapshot}:1: {message}\n"
        assert not (tmp_path / "c").exists()

    def test_spec_mismatch_fails(self, tmp_path, capsys):
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
        capsys.readouterr()
        out = tmp_path / "c"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: runs have different model specs"]
        assert not out.exists()

    def test_empty_test_manifest_fails(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset.take([]), tmp_path / "empty")
        # The runs share the compare config's protocol: no split, all of SYNTHETIC to train on.
        write_csv_dataset(dataset, tmp_path / "test")
        self.train_pair(tmp_path, data={"test_manifest": "test/manifest.json"}, split=None)
        compare_cfg = write_config(
            tmp_path / "compare.json",
            data={"test_manifest": "empty/manifest.json"},
            split=None,
            compare={"baseline_run": "run_a", "cml_run": "run_b"},
        )
        capsys.readouterr()
        out = tmp_path / "c"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 1
        manifest = tmp_path / "empty" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}:1: {ZERO_ROWS}"]
        assert not out.exists()

    def test_one_forward_per_model(self, tmp_path, monkeypatch):
        compare_cfg = self.train_pair(tmp_path)
        calls = []
        forward_core = model.forward_core

        def counting(*args, **kwargs):
            calls.append(1)
            return forward_core(*args, **kwargs)

        for module in (model, calibration, trainer):
            monkeypatch.setattr(module, "forward_core", counting)
        assert main(["compare", "--config", str(compare_cfg), "--out", str(tmp_path / "c")]) == 0
        assert len(calls) == 2

    def test_conf_shift_matches_the_per_sample_oracle(self, tmp_path):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict({**SYNTHETIC, "seed": 9}))
        write_csv_dataset(dataset, tmp_path / "test")
        sources = {"data": {"test_manifest": "test/manifest.json"}, "split": None}
        compare_cfg = self.train_pair(tmp_path, **sources)
        out = tmp_path / "c"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 0
        shift = json.loads((out / "comparison.json").read_text())["mean_abs_conf_shift_full"]
        # The runs saw the test rows standardized on their train rows, all of SYNTHETIC.
        stats = standardize_fit(generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC)))
        test_set = standardize_apply(load_csv_dataset(tmp_path / "test" / "manifest.json"), stats)
        (_, params_a), (_, params_b) = (
            load_checkpoint(tmp_path / run / "checkpoint.bin") for run in ("run_a", "run_b")
        )
        total = 0.0
        for i in range(test_set.num_samples):
            row = [block[i] for block in test_set.modalities]
            conf_a = reference_probs(params_a, row, (0, 1)).max()
            conf_b = reference_probs(params_b, row, (0, 1)).max()
            total += abs(conf_a - conf_b)
        assert shift > 0.0
        assert shift == pytest.approx(total / test_set.num_samples, rel=1e-12)

    def test_reports_match_the_runs_own_metrics_on_a_test_manifest(self, tmp_path):
        # compare builds the test set as train did, standardized on the same train rows.
        dataset = generate_synthetic(SyntheticSpec.from_json_dict({**SYNTHETIC, "seed": 9}))
        write_csv_dataset(dataset, tmp_path / "test")
        sources = {"data": {"test_manifest": "test/manifest.json"}, "split": None}
        compare_cfg = self.train_pair(tmp_path, **sources)
        out = tmp_path / "c"
        assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        for side, run in (("baseline", "run_a"), ("cml", "run_b")):
            assert comparison[side] == json.loads((tmp_path / run / "metrics.json").read_text())

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    @pytest.mark.parametrize(
        "overrides, rows",
        [
            ({"split": {"seed": 1}}, 12),
            ({"split": {"val_fraction": 0.25}}, 12),  # standardized on fewer train rows
            ({"standardize": False}, 12),
            ({"data": {"test_manifest": "test/manifest.json"}, "split": None}, 60),
            ({"data": {"synthetic": {**SYNTHETIC, "seed": 4}}}, 12),
        ],
    )
    def test_runs_of_another_test_protocol_fail_at_the_fingerprint(
        self, tmp_path, capsys, command, overrides, rows
    ):
        # Before this check, both scored the runs on the rows their own config picked and exited 0.
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset, tmp_path / "test")
        self.train_pair(tmp_path)
        cfg = write_config(tmp_path / "other.json", **run_pair_section(command), **overrides)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        ours = prepared_fingerprint(cfg)
        assert ours["rows"] == rows
        assert capsys.readouterr().err.splitlines() == [fingerprint_error(tmp_path / "run_a", ours)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_test_manifest_edited_after_training_fails_at_the_fingerprint(
        self, tmp_path, capsys, command
    ):
        # Before, the config keys matched the runs', so both scored the edited rows and exited 0.
        dataset = generate_synthetic(SyntheticSpec.from_json_dict({**SYNTHETIC, "seed": 9}))
        write_csv_dataset(dataset, tmp_path / "test")
        sources = {"data": {"test_manifest": "test/manifest.json"}, "split": None}
        self.train_pair(tmp_path, **sources)
        block = tmp_path / "test" / "modality_0.csv"
        cell, rest = block.read_text().split(",", 1)
        block.write_text(f"{float(cell) + 1.0},{rest}")
        cfg = write_config(tmp_path / "other.json", **run_pair_section(command), **sources)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        ours = prepared_fingerprint(cfg)
        assert ours["rows"] == 60
        assert capsys.readouterr().err.splitlines() == [fingerprint_error(tmp_path / "run_a", ours)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_other_settings_that_keep_the_test_rows_are_accepted(self, tmp_path, command):
        # Unstandardized, a validation carve-out changes the train rows but not the test rows.
        # Before, both commands refused this config naming split.val_fraction.
        self.train_pair(tmp_path, standardize=False)
        overrides = {"standardize": False, "split": {"val_fraction": 0.25}}
        cfg = write_config(tmp_path / "other.json", **run_pair_section(command), **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        if command == "compare":
            comparison = json.loads((out / "comparison.json").read_text())
            for side, run in (("baseline", "run_a"), ("cml", "run_b")):
                assert comparison[side] == json.loads((tmp_path / run / "metrics.json").read_text())


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

    @staticmethod
    def failing_evaluation(monkeypatch, lams):
        """Make trainer.evaluate raise as an overflowing forward does, for each lambda in `lams`."""
        evaluate = trainer.evaluate

        def flaky(params, test_set, config):
            if config.lam in lams:
                raise errors.NumericError("evaluation failed: floating-point overflow")
            return evaluate(params, test_set, config)

        monkeypatch.setattr(trainer, "evaluate", flaky)

    def test_cell_failing_in_evaluation_is_a_failed_row(self, tmp_path, monkeypatch):
        # Before, the NumericError aborted the whole sweep with exit 1.
        self.failing_evaluation(monkeypatch, {1.0})
        cfg = write_config(
            tmp_path / "config.json",
            split={"val_fraction": 0.25},
            sweep={"kind": "lambda", "lambda_grid": [1.0, 5.0]},
            train={"epochs": 1},
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep_lambda.csv").read_text().splitlines()
        assert lines[1] == "1,failed,failed" and not lines[2].endswith("failed")
        assert json.loads((out / "sweep_lambda.json").read_text()) == {"best_lambda": 5.0}

    def test_every_cell_failing_in_evaluation_fails_the_sweep(self, tmp_path, capsys, monkeypatch):
        self.failing_evaluation(monkeypatch, {1.0, 5.0})
        cfg = write_config(
            tmp_path / "config.json",
            split={"val_fraction": 0.25},
            sweep={"kind": "lambda", "lambda_grid": [1.0, 5.0]},
            train={"epochs": 1},
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: every lambda in the sweep diverged"]
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

    @pytest.mark.parametrize(
        "sweep, message",
        [
            # Before, the pair was trained first and the error named no key.
            ({"kind": "noise", "target_sets": []}, "sweep.target_sets: expected a non-empty list"),
            (
                {"kind": "noise", "target_sets": [[-1]]},
                "sweep.target_sets[0]: expected a non-empty list of modality indices >= 0, "
                "got [-1]",
            ),
            (
                {"kind": "noise", "target_sets": [[0], []]},
                "sweep.target_sets[1]: expected a non-empty list of modality indices >= 0, got []",
            ),
            (
                {"kind": "noise", "target_sets": [[1], [7]]},
                "sweep.target_sets[1]: expected modality indices below 2, got [7]",
            ),
            # The range is checked before any code is computed: 1 << 10**30 would not finish.
            (
                {"kind": "noise", "target_sets": [[10**30]]},
                f"sweep.target_sets[0]: expected modality indices below 2, got [{10**30}]",
            ),
            ({"kind": "noise", "epsilons": []}, "sweep.epsilons: expected a non-empty list"),
            ({"kind": "lambda", "lambda_grid": []}, "sweep.lambda_grid: expected a non-empty list"),
        ],
    )
    def test_bad_grid_or_target_fails_naming_it_before_training(
        self, tmp_path, capsys, monkeypatch, sweep, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the sweep section was checked")

        monkeypatch.setattr(trainer, "train", no_training)
        cfg = write_config(tmp_path / "config.json", split={"val_fraction": 0.25}, sweep=sweep)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()

    def test_run_snapshot_of_invalid_json_fails_naming_it(self, tmp_path, capsys):
        run_cfg = write_config(tmp_path / "run.json", train={"epochs": 1})
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        snapshot = tmp_path / "run" / "config.json"
        snapshot.write_text("{bad")
        capsys.readouterr()
        cfg = write_config(
            tmp_path / "config.json",
            sweep={"kind": "noise", "baseline_run": "run", "cml_run": "run"},
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {snapshot}:1: invalid JSON (")
        assert not out.exists()

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

    def test_duplicate_target_indices_write_the_same_table(self, tmp_path):
        tables = []
        for targets in ([[0]], [[0, 0]]):
            sweep = {"kind": "noise", "epsilons": [0.0, 0.5], "target_sets": targets}
            cfg = write_config(tmp_path / "config.json", sweep=sweep, train={"epochs": 1})
            out_dir = tmp_path / f"sweep{len(targets[0])}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
            tables.append((out_dir / "sweep_noise.csv").read_bytes())
        assert tables[0] == tables[1] and b"eps=0.5;on=0," in tables[0]

    def test_noise_sweep_labels_each_epsilon_to_nine_digits(self, tmp_path):
        # At six digits, 0.1 and 0.10000001 shared a label and 1234567 read 1.23457e+06.
        sweep = {"kind": "noise", "epsilons": [0.1, 0.10000001, 1234567.0], "target_sets": [[0]]}
        cfg = write_config(tmp_path / "config.json", sweep=sweep, train={"epochs": 1})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep_noise.csv").read_text().splitlines()[1:]
        labels = [line.split(",")[0] for line in lines]
        assert labels == ["eps=0.1;on=0", "eps=0.10000001;on=0", "eps=1234567;on=0"]

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
            split=None,  # a test manifest without split.val_fraction leaves it unread
            sweep={"kind": "noise", "epsilons": [0.1]},
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = tmp_path / "empty" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}:1: {ZERO_ROWS}"]
        assert not (out / "sweep_noise.csv").exists()

    def test_noise_sweep_with_runs_of_other_modality_dims_fails(self, tmp_path, capsys):
        # Other dims make other test rows: the fingerprint check stops the sweep before the
        # dims check in noise_sweep is reached.
        for name, dims in (("other", [5, 3]), ("ds", [4, 3])):
            spec = SyntheticSpec.from_json_dict({**SYNTHETIC, "modality_dims": dims})
            write_csv_dataset(generate_synthetic(spec), tmp_path / name)
        run_cfg = write_config(
            tmp_path / "run.json", data={"manifest": "other/manifest.json"}, train={"epochs": 1}
        )
        cfg = write_config(
            tmp_path / "config.json",
            data={"manifest": "ds/manifest.json"},
            sweep={"kind": "noise", "baseline_run": "run", "cml_run": "run"},
        )
        for path in (run_cfg, cfg):
            written = json.loads(path.read_text())
            del written["data"]["synthetic"]
            path.write_text(json.dumps(written))
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        ours = prepared_fingerprint(cfg)
        assert capsys.readouterr().err.splitlines() == [fingerprint_error(tmp_path / "run", ours)]
        assert not out.exists()


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
            # Before, numpy warned about the overflow before the error line.
            (
                {"data": {"synthetic": {**SYNTHETIC, "noise_std": 1e308}}},
                "error: data.synthetic overflows float64: modality 0: non-finite feature at row 0",
            ),
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
            data.write_json(path, {"nll_raw": float("inf")})
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
                # Removed: it scored unstandardized rows. data.test_manifest names a test set.
                "compare",
                {"compare": {"baseline_run": "run", "cml_run": "run", "test_manifest": "x"}},
                "compare.test_manifest: unknown key",
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
                "sweep",
                {"sweep": {"kind": "noise"}, "train": {"lambda": 0}},
                "train.lambda: expected a value > 0 for a noise sweep without runs, got 0.0",
            ),
            (
                "train",
                {"data": {"test_manifest": "bad_manifest.json"}},
                "bad_manifest.json:1: manifest.modalities[0].dim: missing key",
            ),
            (
                "train",
                {"data": {"test_manifest": "list_manifest.json"}},
                "list_manifest.json:1: manifest: expected a JSON object, got []",
            ),
        ],
    )
    def test_bad_key_fails_naming_it(self, tmp_path, capsys, command, overrides, message):
        (tmp_path / "bad_manifest.json").write_text(json.dumps(BAD_MANIFEST))
        (tmp_path / "list_manifest.json").write_text("[]")
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
        assert err.splitlines() == [f"error: --jobs: expected an int >= 1, got {jobs}"]
        assert not out.exists()

    # Before, int() read ' 1_0 ' as 10, '+2' as 2 and ARABIC-INDIC DIGIT THREE as 3,
    # and argparse failed 'abc' with its usage text and exit 2.
    @pytest.mark.parametrize("jobs", [" 1_0 ", "+2", "\u0663", "abc"])
    def test_jobs_of_other_text_than_digits_fail_naming_the_flag(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "config.json", sweep={"kind": "lambda", "lambda_grid": [1.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: --jobs: expected an int of digits 0-9, got {jobs!r}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, flags, message",
        [
            # Before, training started and the error blamed a divergence at epoch 0.
            (
                "train",
                {"train": {"learning_rate": float("nan")}},
                [],
                "train.learning_rate: expected a finite value > 0, got nan",
            ),
            (
                "train",
                {"train": {"lambda": float("inf")}},
                [],
                "train.lambda: expected a finite value >= 0, got inf",
            ),
            # Before, a non-finite cell was written as a failed row and the sweep exited 0.
            (
                "sweep",
                {"sweep": {"kind": "lambda", "lambda_grid": [1, float("nan"), 5]}},
                [],
                "sweep.lambda_grid[1]: expected a finite value >= 0, got nan",
            ),
            (
                "sweep",
                {"sweep": {"kind": "lambda", "lambda_grid": [1, float("inf")]}},
                [],
                "sweep.lambda_grid[1]: expected a finite value >= 0, got inf",
            ),
            # Before, the first cell trained and the error did not name the key.
            (
                "sweep",
                {"sweep": {"kind": "lambda", "lambda_grid": [1, -2]}},
                [],
                "sweep.lambda_grid[1]: expected a finite value >= 0, got -2.0",
            ),
            # Before, the flag was never read.
            (
                "sweep",
                {"sweep": {"kind": "noise"}},
                ["--jobs", "3"],
                '--jobs: not used by sweep kind "noise"',
            ),
            # Before, these blamed a non-finite feature at row 0 of modality 0.
            (
                "train",
                {"data": {"synthetic": {**SYNTHETIC, "class_separation": float("nan")}}},
                [],
                "data.synthetic.class_separation: expected a finite value >= 0, got nan",
            ),
            (
                "generate",
                {"data": {"synthetic": {**SYNTHETIC, "noise_std": [1.0, float("inf")]}}},
                [],
                "data.synthetic.noise_std[1]: expected a finite value >= 0, got inf",
            ),
            # Before, these range errors came from library classes and named no section.
            ("train", {"train": {"epochs": 0}}, [], "train.epochs: expected an int >= 1, got 0"),
            ("train", {"train": {"seed": -3}}, [], "train.seed: expected an int >= 0, got -3"),
            (
                "train",
                {"model": {"hidden_dim": 0}},
                [],
                "model.hidden_dim: expected an int >= 1, got 0",
            ),
            (
                "train",
                {"data": {"synthetic": {**SYNTHETIC, "num_classes": 1}}},
                [],
                "data.synthetic.num_classes: expected an int >= 2, got 1",
            ),
            (
                "train",
                {"data": {"synthetic": {**SYNTHETIC, "modality_dims": [4]}}},
                [],
                "data.synthetic.modality_dims: expected at least 2 entries, got [4]",
            ),
            (
                "train",
                {"data": {"synthetic": {**SYNTHETIC, "noise_std": float("inf")}}},
                [],
                "data.synthetic.noise_std: expected a finite value >= 0, got inf",
            ),
            (
                "train",
                {"data": {"synthetic": {**SYNTHETIC, "samples_per_class": 0}}},
                [],
                "data.synthetic.samples_per_class: expected an int >= 1, got 0",
            ),
            (
                "train",
                {"split": {"train_fraction": 1.5}},
                [],
                "split.train_fraction: expected a value in (0, 1), got 1.5",
            ),
            (
                "train",
                {"split": {"val_fraction": 0}},
                [],
                "split.val_fraction: expected a value in (0, 1), got 0.0",
            ),
            # Before, a negative override was reported as train.seed, which the user had not set.
            ("train", {}, ["--seed", "-1"], "--seed: expected an int >= 0, got -1"),
            ("sweep", {}, ["--seed", "-1"], "--seed: expected an int >= 0, got -1"),
        ],
    )
    def test_non_finite_setting_fails_naming_it_before_training(
        self, tmp_path, capsys, monkeypatch, command, overrides, flags, message
    ):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran before the setting was checked")

        def no_data(*args, **kwargs):
            raise AssertionError("data was read before the setting was checked")

        monkeypatch.setattr(trainer, "objective_core", no_batch)
        monkeypatch.setattr(data, "generate_synthetic", no_data)
        split = {"val_fraction": 0.25, **overrides.get("split", {})}
        cfg = write_config(tmp_path / "config.json", **{**overrides, "split": split})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
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
        # Without a check, numpy warned five times and the error blamed a test-set row;
        # then the standardization named no file.
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
        manifest = tmp_path / "empty" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}:1: {ZERO_ROWS}"]
        assert not out.exists()

    def test_one_modality_manifest_fails_naming_it(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        manifest = write_csv_dataset(dataset, tmp_path / "test")
        written = json.loads(manifest.read_text())
        del written["modalities"][1]
        manifest.write_text(json.dumps(written))
        cfg = write_config(tmp_path / "config.json", data={"test_manifest": "test/manifest.json"})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        message = f"error: {manifest}:1: need at least 2 modalities"
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_zero_row_source_to_split_fails_naming_its_manifest(self, tmp_path, capsys):
        # Before, this read "error: class 0 has 0 samples; need at least 2 to split".
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset.take([]), tmp_path / "empty")
        cfg = write_config(tmp_path / "config.json", data={"manifest": "empty/manifest.json"})
        written = json.loads(cfg.read_text())
        del written["data"]["synthetic"]
        cfg.write_text(json.dumps(written))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = tmp_path / "empty" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}:1: {ZERO_ROWS}"]
        assert not out.exists()

    def test_zero_row_test_manifest_fails_before_training(self, tmp_path, capsys, monkeypatch):
        # Before, the whole model trained and then the line read "error: empty test set".
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the test set was checked")

        monkeypatch.setattr(trainer, "train", no_training)
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset.take([]), tmp_path / "empty")
        cfg = write_config(
            tmp_path / "config.json", data={"test_manifest": "empty/manifest.json"}, split=None
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = tmp_path / "empty" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}:1: {ZERO_ROWS}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "test_data, standardize, message",
        [
            pytest.param(
                {"modality_dims": [4, 2]},
                True,
                "modality_dims (4, 2), but (4, 3) in the source data",
                id="dims",
            ),
            pytest.param(
                {"modality_dims": [4, 2]},
                False,
                "modality_dims (4, 2), but (4, 3) in the source data",
                id="dims-unstandardized",
            ),
            pytest.param(
                {"num_classes": 3}, True, "num_classes 3, but 2 in the source data", id="classes"
            ),
            pytest.param(
                {"modality_dims": [4, 3, 2], "class_separation": 2.0},
                True,
                "modality_dims (4, 3, 2), but (4, 3) in the source data",
                id="modalities",
            ),
        ],
    )
    def test_test_manifest_unlike_the_source_fails_naming_it(
        self, tmp_path, capsys, monkeypatch, test_data, standardize, message
    ):
        # Before: a numpy traceback, a "standardization stats" error, or a model trained in
        # full and then an error naming no file.
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran before the test set was checked")

        monkeypatch.setattr(trainer, "objective_core", no_batch)
        test_set = generate_synthetic(SyntheticSpec.from_json_dict({**SYNTHETIC, **test_data}))
        write_csv_dataset(test_set, tmp_path / "test")
        cfg = write_config(
            tmp_path / "config.json",
            data={"test_manifest": "test/manifest.json"},
            split=None,
            standardize=standardize,
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = tmp_path / "test" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: {message}"]
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

    @pytest.mark.parametrize("command", ["train", "compare", "sweep"])
    @pytest.mark.parametrize("key, value", REMOVED_TRAIN_KEYS)
    def test_removed_train_key_is_an_unknown_key(
        self, tmp_path, capsys, monkeypatch, key, value, command
    ):
        # A removed key is refused before any data is read.
        def no_data(*args, **kwargs):
            raise AssertionError("data was read before the key was checked")

        monkeypatch.setattr(data, "generate_synthetic", no_data)
        runs = {"baseline_run": "a", "cml_run": "b"}
        sections = {"compare": {"compare": runs}, "sweep": {"sweep": {"kind": "noise", **runs}}}
        cfg = write_config(
            tmp_path / "config.json", train={key: value}, **sections.get(command, {})
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: train.{key}: unknown key"]
        assert not out.exists()


class TestParseOnce:
    """Each command parses its config once; a run snapshot's sections are not parsed."""

    @staticmethod
    def count_parses(monkeypatch) -> Counter:
        """Counts of cli's check_section calls by section name, and of "SyntheticSpec" parses."""
        counts = Counter()
        check_section, parse_spec = cli.check_section, SyntheticSpec.from_json_dict.__func__

        def counting_check(name, *args, **kwargs):
            counts[name] += 1
            return check_section(name, *args, **kwargs)

        def counting_parse(cls, obj):
            counts["SyntheticSpec"] += 1
            return parse_spec(cls, obj)

        monkeypatch.setattr(cli, "check_section", counting_check)
        monkeypatch.setattr(SyntheticSpec, "from_json_dict", classmethod(counting_parse))
        return counts

    # Before: 2 parses for train, and 6 for compare and for a noise sweep over two runs, then 3
    # while each run snapshot's data, split and standardize keys went through the tables.
    @pytest.mark.parametrize("command, parses", [("train", 1), ("compare", 1), ("sweep", 1)])
    def test_config_and_each_snapshot_are_parsed_once(self, tmp_path, monkeypatch, command, parses):
        TestCompareCommand.train_pair(tmp_path)
        runs = {"baseline_run": "run_a", "cml_run": "run_b"}
        sections = {"compare": {"compare": runs}, "sweep": {"sweep": {"kind": "noise", **runs}}}
        cfg = write_config(tmp_path / "config.json", **sections.get(command, {}))
        counts = self.count_parses(monkeypatch)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (counts["SyntheticSpec"], counts["split"]) == (parses, parses)

    @staticmethod
    def count_bounds_checks(monkeypatch) -> Counter:
        """Counts of errors.check_bounds calls by section name, in every module that imports it."""
        counts = Counter()
        check_bounds = errors.check_bounds

        def counting_check(name, *args, **kwargs):
            counts[name] += 1
            return check_bounds(name, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("rankcal") and getattr(module, "check_bounds", None) is check_bounds:
                monkeypatch.setattr(module, "check_bounds", counting_check)
        return counts

    # Two layers: the tables before any data is read, then each config class once when it is
    # built. compare reads its config through the tables, builds a model spec from its data
    # ("model": the table, the class, one per checkpoint) and checks each snapshot's
    # resolved_train once. Before: train checked "train" 3 times and "data.synthetic" 2; compare
    # checked "train" 5 times, "data.synthetic" 6, and each checkpoint's spec twice (once as
    # "spec"); then "", "data", "data.synthetic" and "split" 3 times each while each snapshot's
    # protocol keys went through the tables.
    @pytest.mark.parametrize(
        "command, checks",
        [
            (
                "train",
                {"": 1, "data": 1, "data.synthetic": 1, "split": 1, "model": 2, "train": 2},
            ),
            (
                "compare",
                {
                    **{"": 1, "data": 1, "data.synthetic": 1, "split": 1},
                    **{"model": 1 + 1 + 2, "train": 3, "compare": 1, "header": 2},
                },
            ),
        ],
    )
    def test_each_layer_checks_the_bounds_once(self, tmp_path, monkeypatch, command, checks):
        TestCompareCommand.train_pair(tmp_path)
        runs = {"baseline_run": "run_a", "cml_run": "run_b"}
        sections = {"compare": runs} if command == "compare" else {}
        cfg = write_config(tmp_path / "config.json", **sections)
        counts = self.count_bounds_checks(monkeypatch)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert dict(counts) == checks


class TestErrorBase:
    def test_a_bug_keeps_its_traceback(self, tmp_path, monkeypatch):
        # Before, main caught every ValueError, so an error from a bug exited 1 like bad input.
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "cmd_train", broken)
        cfg = write_config(tmp_path / "config.json")
        with pytest.raises(ValueError, match="^operands could not be broadcast together$"):
            main(["train", "--config", str(cfg)])

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested"),
            pytest.param('{"split": {"seed": ' + "1" * 5000 + "}}", id="long-int"),
        ],
    )
    def test_json_past_the_parser_limits_fails_with_one_line(self, tmp_path, capsys, text):
        # Before, these left json as a RecursionError or a plain ValueError.
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: cannot read JSON (")

    def test_config_of_another_kind_than_an_object_fails_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[]")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        message = f"error: {cfg}: config must be a JSON object"
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "run").exists()

    def test_every_error_type_derives_from_the_base(self):
        types = [v for v in vars(errors).values() if isinstance(v, type)]
        types = [t for t in types if issubclass(t, Exception)]
        assert errors.ConfigError in types and errors.ParseError in types
        assert all(issubclass(t, errors.RankcalError) for t in types)


class TestUndecodableBytes:
    """Every text file the CLI reads fails on a bad byte with one line naming the file and line."""

    @pytest.mark.parametrize(
        "path, byte",
        [
            pytest.param("config.json", b"\xc3", id="config"),
            pytest.param("run/config.json", b"\xff", id="run-snapshot"),
            pytest.param("ds/manifest.json", b"\xff", id="manifest"),
            pytest.param("ds/modality_1.csv", b"\xc3", id="modality-csv"),
            pytest.param("ds/labels.csv", b"\xff", id="labels-csv"),
        ],
    )
    def test_fails_naming_file_and_line(self, tmp_path, capsys, path, byte):
        dataset = generate_synthetic(SyntheticSpec.from_json_dict(SYNTHETIC))
        write_csv_dataset(dataset, tmp_path / "ds")
        cfg = write_config(tmp_path / "config.json", train={"epochs": 1})
        command = "train"
        if path.startswith("run/"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
            compare = {"baseline_run": "run", "cml_run": "run"}
            cfg = write_config(tmp_path / "config.json", compare=compare)
            command = "compare"
        elif path.startswith("ds/"):
            sources = {"data": {"test_manifest": "ds/manifest.json"}, "split": None}
            cfg = write_config(tmp_path / "config.json", train={"epochs": 1}, **sources)
        path = tmp_path / path
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:3] + byte + lines[2][3:]
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        encoding = "UTF-8" if path.suffix == ".json" else "ASCII"
        message = f"error: {path}:3: not {encoding} (byte 0x{byte.hex()})"
        assert capsys.readouterr().err.splitlines() == [message]
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
