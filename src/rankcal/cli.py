"""Config-driven command line: generate | train | compare | sweep.

All experiment parameters live in one JSON config; the flags only pick the
config file, output directory, (for train and sweep) seed override, and (for
sweep) lambda-sweep parallelism, so a run is reproducible from the config
alone. For the two commands that train, `CML_SEED` in the environment (or
--seed, which wins) overrides the configured training seed; generate and
compare read neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import calibration, data, trainer
from .errors import ConfigError, NumericError, StateError, check_section
from .metrics import mean_abs_conf_shift
from .model import SPEC_SCHEMA, ClassifierParams, ModelSpec, SubsetMask
from .model import load_checkpoint, save_checkpoint

DEFAULT_HIDDEN_DIM = 128
DEFAULT_LATENT_DIM = 64

CHECKPOINT_NAME = "checkpoint.bin"
CONFIG_SNAPSHOT_NAME = "config.json"
HISTORY_NAME = "history.csv"
METRICS_NAME = "metrics.json"
RECORDS_NAME = "records.csv"

# JSON kind of every top-level config key; each section is then checked by its reader.
_CONFIG_SCHEMA = {
    **dict.fromkeys(("data", "split", "model", "train", "compare", "sweep"), dict),
    "standardize": bool,
    "output_dir": str,
}
_COMPARE_SCHEMA = {"baseline_run": str, "cml_run": str, "test_manifest": str}
_SWEEP_SCHEMA = {
    "kind": str,
    "lambda_grid": list[float],
    "epsilons": list[float],
    "target_sets": list[list[int]],
    "baseline_run": str,
    "cml_run": str,
}
_SPLIT_SCHEMA = {"train_fraction": float, "seed": int, "val_fraction": float}
# The keys that each sweep kind reads.
_SWEEP_KEYS = {
    "lambda": ("kind", "lambda_grid"),
    "noise": ("kind", "epsilons", "target_sets", "baseline_run", "cml_run"),
}


def _load_config(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = check_section("", cfg, _CONFIG_SCHEMA)
    data_section = check_section(
        "data", cfg.get("data", {}), {"synthetic": dict, "manifest": str, "test_manifest": str}
    )
    if ("synthetic" in data_section) == ("manifest" in data_section):
        raise ConfigError("config data section needs exactly one of 'synthetic' or 'manifest'")
    return cfg


def _resolve(base: Path, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else base / path


@dataclass
class PreparedData:
    train: data.Dataset
    test: data.Dataset
    model_spec: ModelSpec
    # The split.val_fraction carve-out of the train split; None without that key.
    val: data.Dataset | None = None


def _load_source_dataset(cfg: dict, base: Path) -> data.Dataset:
    section = cfg["data"]
    if "synthetic" in section:
        return data.generate_synthetic(data.SyntheticSpec.from_json_dict(section["synthetic"]))
    return data.load_csv_dataset(_resolve(base, section["manifest"]))


def _prepare(cfg: dict, base: Path) -> PreparedData:
    """Load or generate, split, carve out validation, and (by default) standardize on train."""
    dataset = _load_source_dataset(cfg, base)
    split_cfg = check_section("split", cfg.get("split", {}), _SPLIT_SCHEMA)
    test_manifest = cfg["data"].get("test_manifest")
    if test_manifest is not None:
        train_set = dataset
        test_set = data.load_csv_dataset(_resolve(base, test_manifest))
        if "train_fraction" in split_cfg:
            raise ConfigError(
                "split.train_fraction: not used with data.test_manifest, which trains on "
                "every row of the source data"
            )
        if "seed" in split_cfg and "val_fraction" not in split_cfg:
            raise ConfigError(
                "split.seed: not used with data.test_manifest without split.val_fraction, "
                "since nothing is split"
            )
    elif "split" in cfg:
        train_set, test_set = data.split(
            dataset,
            train_fraction=split_cfg.get("train_fraction", 0.75),
            seed=split_cfg.get("seed", 0),
        )
    else:
        raise ConfigError(
            "split: missing key (without data.test_manifest the test rows come from this "
            "split; name a manifest as data.test_manifest to score its rows instead)"
        )
    val_set = None
    if "val_fraction" in split_cfg:
        train_set, val_set = data.split_validation(
            train_set, split_cfg["val_fraction"], seed=split_cfg.get("seed", 0)
        )
    if cfg.get("standardize", True):
        stats = data.standardize_fit(train_set)
        train_set = data.standardize_apply(train_set, stats)
        test_set = data.standardize_apply(test_set, stats)
        if val_set is not None:
            val_set = data.standardize_apply(val_set, stats)

    defaults = {
        "modality_dims": train_set.modality_dims,
        "hidden_dim": DEFAULT_HIDDEN_DIM,
        "latent_dim": DEFAULT_LATENT_DIM,
        "num_classes": train_set.num_classes,
    }
    model_cfg = check_section("model", cfg.get("model", {}), SPEC_SCHEMA)
    model_spec = ModelSpec(**(defaults | model_cfg))
    if model_spec.modality_dims != train_set.modality_dims:
        raise ConfigError(
            f"configured modality_dims {model_spec.modality_dims} do not match the data "
            f"{train_set.modality_dims}"
        )
    if model_spec.num_classes != train_set.num_classes:
        raise ConfigError(
            f"configured num_classes {model_spec.num_classes} does not match the data "
            f"{train_set.num_classes}"
        )
    return PreparedData(train=train_set, test=test_set, model_spec=model_spec, val=val_set)


def _build_train_config(cfg: dict, model_spec: ModelSpec, seed_override: int | None) -> trainer.TrainConfig:
    config = trainer.TrainConfig.from_json_dict(cfg.get("train", {}), model_spec)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    config.validate()
    return config


def _write_json(path: Path, obj: dict) -> None:
    """Write `obj` as strict JSON; a NaN or infinity fails before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _out_dir(cfg: dict, base: Path, override: str | None, default: str) -> Path:
    if override is not None:
        return Path(override)
    return _resolve(base, cfg.get("output_dir", default))


def cmd_generate(config_path: Path, out_override: str | None) -> int:
    cfg = _load_config(config_path)
    if "synthetic" not in cfg["data"]:
        raise ConfigError("generate needs a data.synthetic section")
    spec = data.SyntheticSpec.from_json_dict(cfg["data"]["synthetic"])
    dataset = data.generate_synthetic(spec)
    out = _out_dir(cfg, config_path.parent, out_override, "dataset")
    manifest = data.write_csv_dataset(dataset, out)
    counts = dataset.class_counts()
    print(f"wrote {manifest}")
    for k, count in enumerate(counts):
        print(f"class {k}: {count} samples")
    return 0


def _write_run_dir(
    run_dir: Path,
    cfg: dict,
    config: trainer.TrainConfig,
    result: trainer.RunResult,
) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dict(cfg)
    snapshot["resolved_train"] = config.to_json_dict()
    # The timestamp is the single non-reproducible key in the run directory.
    snapshot["meta"] = {"written_at": datetime.now(timezone.utc).isoformat()}
    _write_json(run_dir / CONFIG_SNAPSHOT_NAME, snapshot)
    with open(run_dir / HISTORY_NAME, "w", encoding="ascii", newline="\n") as fh:
        fh.write("epoch,cls_loss,cml_loss,train_acc\n")
        for epoch, stats in enumerate(result.history):
            fh.write(
                f"{epoch},{stats.cls_loss:.9g},{stats.reg_loss:.9g},{stats.train_accuracy:.9g}\n"
            )
    with open(run_dir / METRICS_NAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.report.to_json())
    save_checkpoint(run_dir / CHECKPOINT_NAME, result.params)
    calibration.write_records_csv(run_dir / RECORDS_NAME, result.vrr_evaluation.records)


def cmd_train(config_path: Path, out_override: str | None, seed_override: int | None) -> int:
    cfg = _load_config(config_path)
    prepared = _prepare(cfg, config_path.parent)
    config = _build_train_config(cfg, prepared.model_spec, seed_override)
    result = trainer.run_and_evaluate(config, prepared.train, prepared.test)
    run_dir = _out_dir(cfg, config_path.parent, out_override, "run")
    _write_run_dir(run_dir, cfg, config, result)
    report = result.report
    print(
        f"acc={report.accuracy_pct:.2f} vrr={report.vrr_pct:.2f} "
        f"nll={report.nll_scaled:.2f} aurc={report.aurc_scaled:.2f}"
    )
    print(f"run directory: {run_dir}")
    return 0


def _load_run(run_dir: Path) -> tuple[ClassifierParams, trainer.TrainConfig]:
    spec, params = load_checkpoint(run_dir / CHECKPOINT_NAME)
    snapshot_path = run_dir / CONFIG_SNAPSHOT_NAME
    with open(snapshot_path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict) or "resolved_train" not in snapshot:
        raise StateError(f"{snapshot_path}: missing key 'resolved_train'")
    return params, trainer.TrainConfig.from_json_dict(snapshot["resolved_train"], spec)


def cmd_compare(config_path: Path, out_override: str | None) -> int:
    cfg = _load_config(config_path)
    compare_cfg = check_section(
        "compare", cfg.get("compare", {}), _COMPARE_SCHEMA, required=("baseline_run", "cml_run")
    )
    base = config_path.parent
    params_a, config_a = _load_run(_resolve(base, compare_cfg["baseline_run"]))
    params_b, config_b = _load_run(_resolve(base, compare_cfg["cml_run"]))
    if params_a.spec != params_b.spec:
        raise ConfigError("runs have different model specs")
    if "test_manifest" in compare_cfg:
        test_set = data.load_csv_dataset(_resolve(base, compare_cfg["test_manifest"]))
    else:
        test_set = _prepare(cfg, base).test
    report_a = trainer.evaluate(params_a, test_set, config_a)
    report_b = trainer.evaluate(params_b, test_set, config_b)
    shift = mean_abs_conf_shift(params_a, params_b, test_set)
    comparison = {
        "baseline": report_a.to_json_dict(),
        "cml": report_b.to_json_dict(),
        "vrr_delta_pct": report_b.vrr_pct - report_a.vrr_pct,
        "accuracy_delta_pct": report_b.accuracy_pct - report_a.accuracy_pct,
        "mean_abs_conf_shift_full": shift,
    }
    out = _out_dir(cfg, base, out_override, "compare")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "comparison.json", comparison)
    sizes = sorted(
        set(report_a.mean_confidence_by_subset_size) | set(report_b.mean_confidence_by_subset_size)
    )
    with open(out / "confidence_by_subset_size.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("subset_size,conf_baseline,conf_cml\n")
        for size in sizes:
            conf_a = report_a.mean_confidence_by_subset_size.get(size, float("nan"))
            conf_b = report_b.mean_confidence_by_subset_size.get(size, float("nan"))
            fh.write(f"{size},{conf_a:.9g},{conf_b:.9g}\n")
    print(
        f"vrr_delta={comparison['vrr_delta_pct']:.2f} "
        f"acc_delta={comparison['accuracy_delta_pct']:.2f} "
        f"conf_shift={shift:.6f}"
    )
    print(f"comparison directory: {out}")
    return 0


def _parse_target_sets(raw, num_modalities: int) -> list[SubsetMask]:
    if raw is None:
        return trainer.default_target_sets(num_modalities)
    masks = []
    for entry in raw:
        mask = SubsetMask.of(entry)
        mask.validate_for(num_modalities)
        masks.append(mask)
    return masks


def cmd_sweep(
    config_path: Path, out_override: str | None, seed_override: int | None, jobs: int
) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    cfg = _load_config(config_path)
    sweep_cfg = check_section("sweep", cfg.get("sweep", {}), _SWEEP_SCHEMA)
    kind = sweep_cfg.get("kind")
    if kind not in _SWEEP_KEYS:
        raise ConfigError("sweep section needs kind: 'lambda' or 'noise'")
    unread = [key for key in sweep_cfg if key not in _SWEEP_KEYS[kind]]
    if unread:
        raise ConfigError(f'sweep.{unread[0]}: unknown key for kind "{kind}"')
    for i, eps in enumerate(sweep_cfg.get("epsilons", [])):
        if not 0 <= eps < math.inf:
            raise ConfigError(f"sweep.epsilons[{i}]: expected a finite value >= 0, got {eps!r}")
    runs = [key for key in ("baseline_run", "cml_run") if key in sweep_cfg]
    if kind == "noise" and len(runs) == 1:
        (missing,) = {"baseline_run", "cml_run"} - set(runs)
        raise ConfigError(f"sweep.{missing}: missing key (sweep.{runs[0]} given)")
    if kind == "lambda" and "val_fraction" not in cfg.get("split", {}):
        raise ConfigError(
            'split.val_fraction: missing key (sweep kind "lambda" picks lambda on this '
            "carve-out of the train split, never on the test split)"
        )
    prepared = _prepare(cfg, config_path.parent)
    config = _build_train_config(cfg, prepared.model_spec, seed_override)
    out = _out_dir(cfg, config_path.parent, out_override, "sweep")
    out.mkdir(parents=True, exist_ok=True)

    if kind == "lambda":
        grid = sweep_cfg.get("lambda_grid", list(trainer.DEFAULT_LAMBDA_GRID))
        result = trainer.lambda_sweep(config, grid, prepared.train, prepared.val, jobs=jobs)
        with open(out / "sweep_lambda.csv", "w", encoding="ascii", newline="\n") as fh:
            fh.write("lambda,val_acc,val_vrr\n")
            for row in result.rows:
                if row.failed:
                    fh.write(f"{row.lam:.9g},failed,failed\n")
                else:
                    fh.write(f"{row.lam:.9g},{row.val_accuracy:.9g},{row.val_vrr_pct:.9g}\n")
        _write_json(out / "sweep_lambda.json", {"best_lambda": result.best_lambda})
        print(f"best_lambda={result.best_lambda:g}")
        return 0

    epsilons = sweep_cfg.get("epsilons", list(trainer.DEFAULT_NOISE_GRID))
    if not epsilons:
        raise ConfigError("empty epsilon grid")
    target_sets = _parse_target_sets(sweep_cfg.get("target_sets"), prepared.test.num_modalities)
    base = config_path.parent
    if runs:
        params_a, _ = _load_run(_resolve(base, sweep_cfg["baseline_run"]))
        params_b, _ = _load_run(_resolve(base, sweep_cfg["cml_run"]))
    else:
        if config.lam <= 0:
            raise ConfigError(
                "noise sweep without baseline_run/cml_run needs train.lambda > 0 to train the "
                "regularized model"
            )
        params_a = trainer.train(replace(config, lam=0.0), prepared.train).params
        params_b = trainer.train(config, prepared.train).params
    rows = trainer.noise_sweep(
        params_a,
        params_b,
        prepared.test,
        epsilons=epsilons,
        target_sets=target_sets,
        seed=config.seed,
    )
    with open(out / "sweep_noise.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("param,acc_baseline,acc_cml,delta\n")
        for row in rows:
            param = f"eps={row.epsilon:g};on={row.targets.format()}"
            fh.write(f"{param},{row.acc_baseline:.9g},{row.acc_cml:.9g},{row.delta:.9g}\n")
    print(f"wrote {out / 'sweep_noise.csv'} ({len(rows)} rows)")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main` call.

    Building it costs about a millisecond (gettext and terminal-size lookups in
    each add_argument), which in-process callers would otherwise pay per call.
    parse_args keeps no state on it; nothing may modify it after it is built.
    """
    parser = argparse.ArgumentParser(
        prog="rankcal",
        description="Train and evaluate confidence-ranking-calibrated multimodal classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "write a synthetic dataset as CSV files plus a manifest"),
        ("train", "train one model and write a run directory"),
        ("compare", "compare a baseline run with a regularized run"),
        ("sweep", "run a lambda or noise sweep"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the experiment config JSON")
        cmd.add_argument("--out", default=None, help="output directory override")
        if name in ("train", "sweep"):  # the commands that train
            cmd.add_argument("--seed", type=int, default=None, help="training seed override")
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="parallel lambda-sweep cells")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    config_path = Path(args.config)
    try:
        if args.command == "generate":
            return cmd_generate(config_path, args.out)
        if args.command == "compare":
            return cmd_compare(config_path, args.out)
        seed_override = args.seed
        env_seed = os.environ.get("CML_SEED")
        if seed_override is None and env_seed:
            try:
                seed_override = int(env_seed)
            except ValueError:
                raise ConfigError(f"CML_SEED must be an integer, got {env_seed!r}") from None
        if args.command == "train":
            return cmd_train(config_path, args.out, seed_override)
        return cmd_sweep(config_path, args.out, seed_override, args.jobs)
    # Every rankcal.errors type derives from one of these.
    except (NumericError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
