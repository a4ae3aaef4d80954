"""Golden byte manifest: sha256 of one CLI pass, noise-sweep rows, a training grid and VRR.

The pass is generate, train (lambda 0 and lambda 10), compare and a noise
sweep at the benchmark's fixture size. `config.json`'s `written_at` value is
blanked before hashing: it is the one non-reproducible byte range of a run
directory. The noise-sweep rows come from `trainer.noise_sweep` for 2 to 4
modalities, with epsilon 0 and the full target set among the cells.
The training grid hashes `params.flat` and `history` of `trainer.train` over
every regularizer variant x skip_on_wrong_full x detach_superset, with ragged
mini-batches and with one batch per epoch, plus one run whose tiny-scale
modality keeps Adam's epsilon in play. The VRR entries hash everything
`calibration.evaluate_vrr` returns, sampled (1 and 3 repeats) and exhaustive,
for 3 and 4 modalities with 3 classes on trained parameters, plus one
exhaustive entry at 5 modalities and 6 classes, the shape of the benchmark's
lattice evaluation.

The hashes hold for the numpy and BLAS versions that wrote them; test_golden.py
fails, naming both versions, when it runs under others. A change that alters a
stream on purpose rewrites the manifest and says why in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from rankcal import calibration, cli, data, model, trainer

MANIFEST = Path(__file__).with_name("golden_hashes.json")

_WRITTEN_AT = re.compile(rb'"written_at": "[^"]*"')

_TRAIN = {"epochs": 1, "learning_rate": 2e-3, "batch_size": 32, "variant": "hinge", "seed": 3}
_SOURCE = {
    "data": {"manifest": "dataset/manifest.json"},
    "split": {"train_fraction": 0.7, "seed": 5},
    "model": {"hidden_dim": 24, "latent_dim": 12},
}
CLI_CONFIGS = {
    "generate": {
        "data": {
            "synthetic": {
                "num_classes": 4,
                "modality_dims": [6, 6, 6],
                "samples_per_class": 150,
                "class_separation": [6.0, 3.0, 2.5],
                "noise_std": 1.0,
                "seed": 7,
            }
        },
        "output_dir": "dataset",
    },
    "train_base": {**_SOURCE, "train": {**_TRAIN, "lambda": 0.0}, "output_dir": "run_base"},
    "train_cml": {**_SOURCE, "train": {**_TRAIN, "lambda": 10.0}, "output_dir": "run_cml"},
    "compare": {
        **_SOURCE,
        "compare": {"baseline_run": "run_base", "cml_run": "run_cml"},
        "output_dir": "compare",
    },
    "sweep": {
        **_SOURCE,
        "train": {**_TRAIN, "lambda": 10.0},
        "sweep": {"kind": "noise", "baseline_run": "run_base", "cml_run": "run_cml"},
        "output_dir": "sweep",
    },
}
COMMANDS = (
    ("generate", "generate"),
    ("train", "train_base"),
    ("train", "train_cml"),
    ("compare", "compare"),
    ("sweep", "sweep"),
)

SWEEP_EPSILONS = (0.0, 0.1, 0.5, 2.0)


def versions() -> dict[str, str]:
    """The numpy and BLAS versions in this process, as the manifest records them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name}


def cli_pass_hashes(work_dir: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file one CLI pass writes under `work_dir`."""
    for name, config in CLI_CONFIGS.items():
        (work_dir / f"{name}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    for command, config in COMMANDS:
        argv = [command, "--config", str(work_dir / f"{config}.json")]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rankcal {' '.join(argv)} exited {code}: {log.getvalue()}")
    hashes = {}
    for path in sorted(work_dir.rglob("*")):
        if path.is_file() and path.parent != work_dir:
            raw = path.read_bytes()
            if path.name == cli.CONFIG_SNAPSHOT_NAME:
                raw = _WRITTEN_AT.sub(b'"written_at": ""', raw)
            hashes[path.relative_to(work_dir).as_posix()] = hashlib.sha256(raw).hexdigest()
    return hashes


def noise_sweep_rows(num_modalities: int) -> list[tuple]:
    """The rows of one noise sweep over two trained models, floats as exact hex."""
    m = num_modalities
    dims = tuple(range(3, 3 + m))
    spec = data.SyntheticSpec(
        num_classes=3,
        modality_dims=dims,
        samples_per_class=(40, 37, 44),
        class_separation=(3.0, 2.0, 1.5, 1.0)[:m],
        noise_std=(1.0,) * m,
        seed=20 + m,
    )
    train_set, test_set = data.split(data.generate_synthetic(spec), 0.6, seed=m)
    stats = data.standardize_fit(train_set)
    train_set = data.standardize_apply(train_set, stats)
    test_set = data.standardize_apply(test_set, stats)
    config = trainer.TrainConfig(
        model=model.ModelSpec(dims, hidden_dim=10, latent_dim=5, num_classes=3),
        epochs=2,
        learning_rate=5e-3,
        batch_size=16,
        seed=m,
    )
    params_a = trainer.train(config, train_set).params
    params_b = trainer.train(replace(config, lam=8.0), train_set).params
    targets = trainer.default_target_sets(m) + [model.SubsetMask.of([0, m - 1])]
    rows = trainer.noise_sweep(params_a, params_b, test_set, SWEEP_EPSILONS, targets, seed=9)
    return [
        (row.epsilon.hex(), row.targets.format(), row.acc_baseline.hex(), row.acc_cml.hex())
        for row in rows
    ]


def noise_sweep_hashes() -> dict[str, str]:
    """"M=<modalities>" -> sha256 of that sweep's rows, for 2 to 4 modalities."""
    return {
        f"M={m}": hashlib.sha256(repr(noise_sweep_rows(m)).encode("ascii")).hexdigest()
        for m in (2, 3, 4)
    }


def _fixture(
    num_modalities: int, num_classes: int = 3
) -> tuple[data.Dataset, data.Dataset, model.ModelSpec]:
    """Standardized (train, test) sets of a small problem, and a model spec for it."""
    m, k = num_modalities, num_classes
    dims = tuple(range(3, 3 + m))
    spec = data.SyntheticSpec(
        num_classes=k,
        modality_dims=dims,
        samples_per_class=(25, 22, 28, 20, 24, 26)[:k],
        class_separation=(2.5, 1.5, 1.0, 0.5, 0.5)[:m],
        noise_std=(1.0,) * m,
        seed=40 + m,
    )
    train_set, test_set = data.split(data.generate_synthetic(spec), 0.6, seed=m)
    stats = data.standardize_fit(train_set)
    train_set = data.standardize_apply(train_set, stats)
    test_set = data.standardize_apply(test_set, stats)
    return train_set, test_set, model.ModelSpec(dims, hidden_dim=9, latent_dim=5, num_classes=k)


# Batch sizes over the 45-row training split: ragged (16, 16, 13) and one batch per epoch.
GRID_BATCHES = {"ragged": 16, "single": 64}


def _grid_config(spec: model.ModelSpec, variant: str, skip: bool, detach: bool, batch: int):
    return trainer.TrainConfig(
        model=spec,
        epochs=12,
        learning_rate=1e-2,
        batch_size=batch,
        lam=6.0,
        variant=variant,
        skip_on_wrong_full=skip,
        detach_superset=detach,
        seed=11,
    )


def _digest(*parts) -> str:
    """sha256 over arrays' bytes and the repr of everything else, in order."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode("ascii"))
    return sha.hexdigest()


def _history(history) -> list[tuple[str, str, str]]:
    return [(h.cls_loss.hex(), h.reg_loss.hex(), h.train_accuracy.hex()) for h in history]


def train_grid_hashes() -> dict[str, str]:
    """"<variant>/skip=<0|1>/detach=<0|1>/<batches>" -> sha256 of params.flat and history."""
    train_set, _, spec = _fixture(3)
    hashes = {}
    for variant in calibration.REGULARIZER_VARIANTS:
        for skip in (False, True):
            for detach in (False, True):
                for name, batch in GRID_BATCHES.items():
                    config = _grid_config(spec, variant, skip, detach, batch)
                    run = trainer.train(config, train_set)
                    key = f"{variant}/skip={int(skip)}/detach={int(detach)}/{name}"
                    hashes[key] = _digest(run.params.flat, _history(run.history))
    # Modality 2 at 1e-6 of its scale: its first-layer gradients stay near Adam's
    # epsilon, so this run also pins ADAM_EPSILON to the last bit.
    scales = (1.0, 1.0, 1e-6)
    tiny = data.Dataset([b * s for b, s in zip(train_set.modalities, scales)], train_set.labels, 3)
    run = trainer.train(_grid_config(spec, "hinge", True, False, GRID_BATCHES["ragged"]), tiny)
    hashes["hinge/skip=1/detach=0/ragged/modality_2_at_1e-6"] = _digest(
        run.params.flat, _history(run.history)
    )
    return hashes


VRR_MODES = {
    "sampled_r1": ("sampled", 1),
    "sampled_r3": ("sampled", 3),
    "exhaustive": ("exhaustive", 1),
}
# Key, modality count, class count and the VRR_MODES entries of each evaluate_vrr fixture.
VRR_FIXTURES = (
    ("M=3", 3, 3, tuple(VRR_MODES)),
    ("M=4", 4, 3, tuple(VRR_MODES)),
    ("M=5/C=6", 5, 6, ("exhaustive",)),
)


def evaluate_vrr_hashes() -> dict[str, str]:
    """"<fixture>/<mode>" -> sha256 of every field evaluate_vrr returns, on trained params."""
    hashes = {}
    for key, m, k, modes in VRR_FIXTURES:
        train_set, test_set, spec = _fixture(m, k)
        params = trainer.train(_grid_config(spec, "hinge", True, False, 16), train_set).params
        for name in modes:
            mode, repeats = VRR_MODES[name]
            result = calibration.evaluate_vrr(params, test_set, seed=17, mode=mode, repeats=repeats)
            records = result.records
            by_size = result.mean_confidence_by_subset_size
            hashes[f"{key}/{name}"] = _digest(
                records.sample_id,
                records.t_code,
                records.s_code,
                records.conf_t,
                records.conf_s,
                records.ci,
                result.vrr.hex(),
                sorted(result.attribution.items()),
                sorted((size, conf.hex()) for size, conf in by_size.items()),
                result.full_probs,
                result.full_confidence,
            )
    return hashes


def manifest(work_dir: Path) -> dict:
    return {
        "versions": versions(),
        "cli_pass": cli_pass_hashes(work_dir),
        "noise_sweep": noise_sweep_hashes(),
        "train_grid": train_grid_hashes(),
        "evaluate_vrr": evaluate_vrr_hashes(),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        written = manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(written, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {MANIFEST}: {len(written['cli_pass'])} files under {written['versions']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
