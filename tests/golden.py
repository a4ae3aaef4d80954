"""Golden byte manifest: sha256 of every file of one CLI pass, and of noise-sweep rows.

The pass is generate, train (lambda 0 and lambda 10), compare and a noise
sweep at the benchmark's fixture size. `config.json`'s `written_at` value is
blanked before hashing: it is the one non-reproducible byte range of a run
directory. The noise-sweep rows come from `trainer.noise_sweep` for 2 to 4
modalities, with epsilon 0 and the full target set among the cells.

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

from rankcal import cli, data, model, trainer

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


def manifest(work_dir: Path) -> dict:
    return {
        "versions": versions(),
        "cli_pass": cli_pass_hashes(work_dir),
        "noise_sweep": noise_sweep_hashes(),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        written = manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(written, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {MANIFEST}: {len(written['cli_pass'])} files under {written['versions']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
