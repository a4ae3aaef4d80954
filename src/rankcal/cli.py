"""Config-driven command line: generate | train | compare | sweep.

All experiment parameters live in one JSON config; the flags only pick the
config file, output directory, (for train and sweep) seed override, and (for
sweep) lambda-sweep parallelism, so a run is reproducible from the config
alone. For the two commands that train, `CML_SEED` in the environment (or
--seed, which wins) overrides the configured training seed; generate and
compare read neither.

A config is checked in two layers: its tables, once per section in
_parse_sections before any data is read, then each config class, once when it
is built. Checks run in this order: tables, rules across keys, data, model
against data, train settings, runs. A run records a fingerprint of its test
rows as resolved_test, and compare and the noise sweep score it only on a
test set with that fingerprint.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import calibration, data, trainer
from .errors import AT_LEAST_1, FINITE_NON_NEGATIVE, NON_EMPTY, NON_NEGATIVE, OPEN_FRACTION, PATH
from .errors import Bound, ConfigError, Key, RankcalError, SpecError, StateError
from .errors import check_section, one_of, read_section
from .metrics import mean_abs_conf_shift
from .model import SPEC_SCHEMA, ClassifierParams, ModelSpec, load_checkpoint, mask_names
from .model import save_checkpoint

DEFAULT_HIDDEN_DIM = 128
DEFAULT_LATENT_DIM = 64

CHECKPOINT_NAME = "checkpoint.bin"
CONFIG_SNAPSHOT_NAME = "config.json"
HISTORY_NAME = "history.csv"
METRICS_NAME = "metrics.json"
RECORDS_NAME = "records.csv"

# The keys that each sweep kind reads.
_SWEEP_KEYS = {
    "lambda": ("kind", "lambda_grid"),
    "noise": ("kind", "epsilons", "target_sets", "baseline_run", "cml_run"),
}
# The table of the top-level keys.
_CONFIG_SCHEMA = {
    **dict.fromkeys(("data", "split", "model", "train", "compare", "sweep"), Key(dict)),
    "standardize": Key(bool),
    "output_dir": Key(str, PATH),
}
# The table of every section below the top level; the library classes' are their own.
SECTIONS = {
    "data": {"synthetic": Key(dict), "manifest": Key(str, PATH), "test_manifest": Key(str, PATH)},
    "data.synthetic": data.SYNTHETIC_SCHEMA,
    "split": {
        "train_fraction": Key(float, OPEN_FRACTION),
        "seed": Key(int, NON_NEGATIVE),
        "val_fraction": Key(float, OPEN_FRACTION),
    },
    "model": SPEC_SCHEMA,
    "train": trainer.TRAIN_SCHEMA,
    "compare": {"baseline_run": Key(str, PATH), "cml_run": Key(str, PATH)},
    "sweep": {
        "kind": Key(str, one_of(*_SWEEP_KEYS)),
        "lambda_grid": Key(list[float], FINITE_NON_NEGATIVE, NON_EMPTY),
        "epsilons": Key(list[float], FINITE_NON_NEGATIVE, NON_EMPTY),
        "target_sets": trainer.TARGET_SETS,
        "baseline_run": Key(str, PATH),
        "cml_run": Key(str, PATH),
    },
}
_SPLIT_DEFAULTS = {"train_fraction": 0.75, "seed": 0}
# The keys that the compare and sweep commands require of their own section.
_REQUIRED = {"compare": ("baseline_run", "cml_run"), "sweep": ("kind",)}
_ONE_SOURCE = Bound("exactly one of 'manifest', 'synthetic'", lambda keys: len(keys) == 1)
# A noise sweep without runs trains its own pair: the baseline at lambda 0, the CML model at this.
_PAIR_LAMBDA = Bound("a value > 0 for a noise sweep without runs", lambda lam: lam > 0)


def _parse_sections(raw: dict, command: str = "") -> dict:
    """`raw` (a config) checked against the tables.

    The one place that checks a section: later steps read the values it returns.
    An absent section stays absent, but `command`'s own needs its _REQUIRED keys.
    data.synthetic becomes a SyntheticSpec; model and train are built once the data is read.
    """
    cfg = check_section("", raw, _CONFIG_SCHEMA)
    for name in ("data", "split", "model", "train", "compare", "sweep"):
        if name in cfg or name == command:
            required = _REQUIRED[name] if name == command else ()
            cfg[name] = check_section(name, cfg.get(name, {}), SECTIONS[name], required)
    if "synthetic" in cfg.get("data", {}):
        cfg["data"]["synthetic"] = data.SyntheticSpec.from_json_dict(cfg["data"]["synthetic"])
    return cfg


def _load_config(path: Path, command: str = "") -> tuple[dict, dict]:
    """The config as read (for the run snapshot) and its sections, checked before any data."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = data.read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = _parse_sections(raw, command)
    _ONE_SOURCE.check("", "data", sorted(cfg.get("data", {}).keys() & {"manifest", "synthetic"}))
    return raw, cfg


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


def _prepare(cfg: dict, base: Path) -> PreparedData:
    """Load or generate, split, carve out validation, and (by default) standardize on train."""
    source = cfg["data"]
    if "synthetic" in source:
        dataset = data.generate_synthetic(source["synthetic"])
    else:
        dataset = data.load_csv_dataset(_resolve(base, source["manifest"]))
    split_cfg = cfg.get("split", {})
    test_manifest = source.get("test_manifest")
    if test_manifest is not None:
        train_set = dataset
        test_path = _resolve(base, test_manifest)
        test_set = data.load_csv_dataset(test_path)
        for key in ("modality_dims", "num_classes"):
            ours, source = getattr(test_set, key), getattr(dataset, key)
            if ours != source:
                raise SpecError(f"{test_path}: {key} {ours}, but {source} in the source data")
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
        split_cfg = _SPLIT_DEFAULTS | split_cfg
        train_set, test_set = data.split(
            dataset, train_fraction=split_cfg["train_fraction"], seed=split_cfg["seed"]
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
    model_spec = ModelSpec(**(defaults | cfg.get("model", {})))
    for key in ("modality_dims", "num_classes"):
        if getattr(model_spec, key) != defaults[key]:
            got = getattr(model_spec, key)
            raise ConfigError(f"model.{key}: expected {defaults[key]} as in the data, got {got}")
    return PreparedData(train=train_set, test=test_set, model_spec=model_spec, val=val_set)


def _build_train_config(cfg: dict, model_spec: ModelSpec, seed_override: int | None) -> trainer.TrainConfig:
    override = {} if seed_override is None else {"seed": seed_override}
    return trainer.TrainConfig.from_json_dict(cfg.get("train", {}) | override, model_spec)


def _out_dir(cfg: dict, base: Path, override: str | None, default: str) -> Path:
    if override is not None:
        return Path(override)
    return _resolve(base, cfg.get("output_dir", default))


def cmd_generate(config_path: Path, out_override: str | None) -> int:
    cfg = _load_config(config_path)[1]
    if "synthetic" not in cfg["data"]:
        raise ConfigError("data.synthetic: expected a JSON object to generate, got none")
    dataset = data.generate_synthetic(cfg["data"]["synthetic"])
    out = _out_dir(cfg, config_path.parent, out_override, "dataset")
    manifest = data.write_csv_dataset(dataset, out)
    counts = dataset.class_counts()
    print(f"wrote {manifest}")
    for k, count in enumerate(counts):
        print(f"class {k}: {count} samples")
    return 0


def _write_run_dir(run_dir: Path, snapshot: dict, result: trainer.RunResult) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    # The timestamp is the single non-reproducible key in the run directory.
    snapshot["meta"] = {"written_at": datetime.now(timezone.utc).isoformat()}
    data.write_json(run_dir / CONFIG_SNAPSHOT_NAME, snapshot)
    history = "".join(
        f"{epoch},{stats.cls_loss:.9g},{stats.reg_loss:.9g},{stats.train_accuracy:.9g}\n"
        for epoch, stats in enumerate(result.history)
    )
    data.write_text(run_dir / HISTORY_NAME, "epoch,cls_loss,cml_loss,train_acc\n" + history)
    data.write_json(run_dir / METRICS_NAME, result.report.to_json_dict())
    save_checkpoint(run_dir / CHECKPOINT_NAME, result.params)
    calibration.write_records_csv(run_dir / RECORDS_NAME, result.vrr_evaluation.records)


def cmd_train(config_path: Path, out_override: str | None, seed_override: int | None) -> int:
    raw, cfg = _load_config(config_path)
    prepared = _prepare(cfg, config_path.parent)
    config = _build_train_config(cfg, prepared.model_spec, seed_override)
    result = trainer.run_and_evaluate(config, prepared.train, prepared.test)
    run_dir = _out_dir(cfg, config_path.parent, out_override, "run")
    snapshot = raw | {"resolved_train": config.to_json_dict()}
    snapshot["resolved_test"] = data.fingerprint(prepared.test)
    _write_run_dir(run_dir, snapshot, result)
    report = result.report
    print(
        f"acc={report.accuracy_pct:.2f} vrr={report.vrr_pct:.2f} "
        f"nll={report.nll_scaled:.2f} aurc={report.aurc_scaled:.2f}"
    )
    print(f"run directory: {run_dir}")
    return 0


def _load_run(run_dir: Path, ours: dict) -> tuple[ClassifierParams, trainer.TrainConfig]:
    """A run's parameters and settings, once its snapshot's resolved_test is `ours`.

    `ours` is the data.fingerprint of the command's own test set, so a command
    never scores the run on other rows than the ones it was scored on in training.
    """
    spec, params = load_checkpoint(run_dir / CHECKPOINT_NAME)
    snapshot_path = run_dir / CONFIG_SNAPSHOT_NAME
    snapshot = data.read_json(snapshot_path)
    for key in ("resolved_train", "resolved_test"):
        if not isinstance(snapshot, dict) or key not in snapshot:
            raise StateError(f"{snapshot_path}: missing key '{key}'")
    try:
        config = trainer.TrainConfig.from_json_dict(snapshot["resolved_train"], spec)
        schema = data.FINGERPRINT_SCHEMA
        theirs = read_section("resolved_test", snapshot["resolved_test"], schema, schema)
    except RankcalError as exc:
        raise StateError(f"{snapshot_path}: {exc}") from None
    if theirs != ours:
        shown = [f"{fp['rows']} rows (sha256 {fp['sha256'][:12]})" for fp in (theirs, ours)]
        raise StateError(
            f"{snapshot_path}: resolved_test: {shown[0]}, but this config's test set is {shown[1]}"
        )
    return params, config


def cmd_compare(config_path: Path, out_override: str | None) -> int:
    cfg = _load_config(config_path, "compare")[1]
    base, runs = config_path.parent, cfg["compare"]
    test_set = _prepare(cfg, base).test
    ours = data.fingerprint(test_set)
    params_a, config_a = _load_run(_resolve(base, runs["baseline_run"]), ours)
    params_b, config_b = _load_run(_resolve(base, runs["cml_run"]), ours)
    if params_a.spec != params_b.spec:
        raise ConfigError("runs have different model specs")
    report_a, vrr_a = trainer.evaluate_with_vrr(params_a, test_set, config_a)
    report_b, vrr_b = trainer.evaluate_with_vrr(params_b, test_set, config_b)
    # The full-mask confidences of each model's evaluation forward: no forward of its own.
    shift = mean_abs_conf_shift(vrr_a.full_confidence, vrr_b.full_confidence)
    comparison = {
        "baseline": report_a.to_json_dict(),
        "cml": report_b.to_json_dict(),
        "vrr_delta_pct": report_b.vrr_pct - report_a.vrr_pct,
        "accuracy_delta_pct": report_b.accuracy_pct - report_a.accuracy_pct,
        "mean_abs_conf_shift_full": shift,
    }
    out = _out_dir(cfg, base, out_override, "compare")
    out.mkdir(parents=True, exist_ok=True)
    data.write_json(out / "comparison.json", comparison)
    conf_a = report_a.mean_confidence_by_subset_size
    conf_b = report_b.mean_confidence_by_subset_size
    curve = "subset_size,conf_baseline,conf_cml\n" + "".join(
        f"{size},{conf_a[size]:.9g},{conf_b[size]:.9g}\n" for size in sorted(conf_a)
    )
    data.write_text(out / "confidence_by_subset_size.csv", curve)
    print(
        f"vrr_delta={comparison['vrr_delta_pct']:.2f} "
        f"acc_delta={comparison['accuracy_delta_pct']:.2f} "
        f"conf_shift={shift:.6f}"
    )
    print(f"comparison directory: {out}")
    return 0


def cmd_sweep(
    config_path: Path, out_override: str | None, seed_override: int | None, jobs: int | None
) -> int:
    if jobs is not None:
        AT_LEAST_1.check("", "--jobs", jobs)
    cfg = _load_config(config_path, "sweep")[1]
    sweep_cfg = cfg["sweep"]
    kind = sweep_cfg["kind"]
    unread = [key for key in sweep_cfg if key not in _SWEEP_KEYS[kind]]
    if unread:
        raise ConfigError(f'sweep.{unread[0]}: unknown key for kind "{kind}"')
    if kind == "noise" and jobs is not None:
        raise ConfigError('--jobs: not used by sweep kind "noise"')
    runs = [key for key in ("baseline_run", "cml_run") if key in sweep_cfg]
    if kind == "noise" and len(runs) == 1:
        (missing,) = {"baseline_run", "cml_run"} - set(runs)
        raise ConfigError(f"sweep.{missing}: missing key (sweep.{runs[0]} given)")
    if kind == "noise" and not runs:
        lam = cfg.get("train", {}).get("lambda", trainer.TrainConfig.lam)
        _PAIR_LAMBDA.check("train", "lambda", lam)
    if kind == "lambda" and "val_fraction" not in cfg.get("split", {}):
        raise ConfigError(
            'split.val_fraction: missing key (sweep kind "lambda" picks lambda on this '
            "carve-out of the train split, never on the test split)"
        )
    prepared = _prepare(cfg, config_path.parent)
    config = _build_train_config(cfg, prepared.model_spec, seed_override)
    # Made only once the results are in, so a run that fails leaves no directory.
    out = _out_dir(cfg, config_path.parent, out_override, "sweep")

    if kind == "lambda":
        grid = sweep_cfg.get("lambda_grid", list(trainer.DEFAULT_LAMBDA_GRID))
        result = trainer.lambda_sweep(config, grid, prepared.train, prepared.val, jobs=jobs or 1)
        out.mkdir(parents=True, exist_ok=True)
        table = "".join(
            f"{row.lam:.9g},failed,failed\n"
            if row.failed
            else f"{row.lam:.9g},{row.val_accuracy:.9g},{row.val_vrr_pct:.9g}\n"
            for row in result.rows
        )
        data.write_text(out / "sweep_lambda.csv", "lambda,val_acc,val_vrr\n" + table)
        data.write_json(out / "sweep_lambda.json", {"best_lambda": result.best_lambda})
        print(f"best_lambda={result.best_lambda:g}")
        return 0

    num_modalities = prepared.test.num_modalities
    target_sets = sweep_cfg.get("target_sets") or trainer.default_target_sets(num_modalities)
    trainer.target_codes(target_sets, num_modalities, "sweep")  # the range, before any training
    base = config_path.parent
    if runs:
        ours = data.fingerprint(prepared.test)
        params_a, _ = _load_run(_resolve(base, sweep_cfg["baseline_run"]), ours)
        params_b, _ = _load_run(_resolve(base, sweep_cfg["cml_run"]), ours)
    else:
        params_a = trainer.train(replace(config, lam=0.0), prepared.train).params
        params_b = trainer.train(config, prepared.train).params
    rows = trainer.noise_sweep(
        params_a,
        params_b,
        prepared.test,
        epsilons=sweep_cfg.get("epsilons", list(trainer.DEFAULT_NOISE_GRID)),
        target_sets=target_sets,
        seed=config.seed,
    )
    out.mkdir(parents=True, exist_ok=True)
    table = "".join(
        f"eps={row.epsilon:.9g};on={name},"
        f"{row.acc_baseline:.9g},{row.acc_cml:.9g},{row.delta:.9g}\n"
        for row, name in zip(rows, mask_names([row.targets for row in rows]))
    )
    data.write_text(out / "sweep_noise.csv", "param,acc_baseline,acc_cml,delta\n" + table)
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
            cmd.add_argument(
                "--jobs", type=int, default=None, help="parallel lambda-sweep cells (default 1)"
            )
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
        if seed_override is not None:
            NON_NEGATIVE.check("", "CML_SEED" if args.seed is None else "--seed", seed_override)
        if args.command == "train":
            return cmd_train(config_path, args.out, seed_override)
        return cmd_sweep(config_path, args.out, seed_override, args.jobs)
    # Bad input, a failed run or a file system error; any other error is a bug: it propagates.
    except (RankcalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
