"""The benchmark's workloads: set-up, one timed operation, and its output check.

Every dataset seed and training seed is drawn from the workload seed, so the
same seed gives the same inputs. Importing this module imports numpy and
rankcal; run.py times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from rankcal import cli, data, model, trainer

from spans import rebind, restore

# Operations per traced run; fixed so that per-layer counts repeat exactly.
TRACED_OPS = {"train_fixture": 5, "eval_lattice": 16, "cli_pipeline": 3}

_OP_TAG = 1_000


def derive(seed: int, *tags: int) -> int:
    """A non-negative 31-bit seed drawn from the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0]) & 0x7FFFFFFF


def op_seed(seed: int, index: int) -> int:
    return derive(seed, _OP_TAG, index)


def flat_params(params) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in params.arrays()])


def _param_shapes(params) -> list[tuple]:
    return [np.shape(a) for a in params.arrays()]


class TrainFixture:
    """One trainer.train call on the acceptance fixture per op, each with its own seed."""

    epochs = 1
    # Enough ops that op_s_p90 has ten ops beyond it, even on a slow host.
    min_ops = 100

    def __init__(self, seed: int, work_dir: Path, tiny: bool):
        self.seed = seed
        self.per_class = 20 if tiny else 150
        self.first_params: bytes | None = None

    def prepare(self) -> None:
        spec = data.SyntheticSpec(
            num_classes=4,
            modality_dims=(6, 6, 6),
            samples_per_class=(self.per_class,) * 4,
            class_separation=(6.0, 3.0, 2.5),
            noise_std=(1.0, 1.0, 1.0),
            seed=derive(self.seed, 0),
        )
        train_set, _ = data.split(data.generate_synthetic(spec), 0.7, seed=derive(self.seed, 1))
        self.train_set = data.standardize_apply(train_set, data.standardize_fit(train_set))
        self.config = trainer.TrainConfig(
            model=model.ModelSpec((6, 6, 6), hidden_dim=24, latent_dim=12, num_classes=4),
            epochs=self.epochs,
            learning_rate=2e-3,
            batch_size=32,
            lam=10.0,
            variant="hinge",
            skip_on_wrong_full=True,
        )

    def steps(self, index: int) -> list:
        config = replace(self.config, seed=op_seed(self.seed, index))
        return [lambda: trainer.train(config, self.train_set)]

    def items(self, results) -> int:
        return self.config.epochs * self.train_set.num_samples

    def check(self, index: int, results) -> list[str]:
        (result,) = results
        problems = []
        if len(result.history) != self.config.epochs:
            problems.append(f"history has {len(result.history)} epochs, expected {self.config.epochs}")
        losses = [v for stats in result.history for v in (stats.cls_loss, stats.reg_loss)]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite loss in {losses}")
        flat = flat_params(result.params)
        if not np.all(np.isfinite(flat)):
            problems.append("non-finite parameters")
        if index == 0:
            if self.first_params is None:
                self.first_params = flat.tobytes()
            elif flat.tobytes() != self.first_params:
                problems.append("op 0 run again gave different parameters")
        return problems

    def final_check(self) -> list[str]:
        """Rerun op 0 with its seed; the parameters must be bit-identical."""
        if self.first_params is None:
            return []
        return self.check(0, [step() for step in self.steps(0)])

    def close(self) -> None:
        pass


class EvalLattice:
    """One exhaustive-VRR trainer.evaluate call on a fixed-size chunk per op."""

    num_modalities = 5
    min_ops = 100

    def __init__(self, seed: int, work_dir: Path, tiny: bool):
        self.seed = seed
        self.per_class = 8 if tiny else 200
        self.chunk = 8 if tiny else 48
        self.pairs_per_sample = sum(
            math.comb(self.num_modalities, s) * s for s in range(2, self.num_modalities + 1)
        )
        # evaluate() returns only the report; this probe keeps the record count
        # of its evaluate_vrr call so every op can check it.
        self.last_records = -1
        evaluate_vrr = trainer.evaluate_vrr

        def counting_evaluate_vrr(*args, **kwargs):
            result = evaluate_vrr(*args, **kwargs)
            self.last_records = len(result.records)
            return result

        self._undo = rebind(evaluate_vrr, counting_evaluate_vrr)

    def prepare(self) -> None:
        m = self.num_modalities
        spec = data.SyntheticSpec(
            num_classes=6,
            modality_dims=(8,) * m,
            samples_per_class=(self.per_class,) * 6,
            class_separation=(4.0, 3.0, 2.0, 1.5, 1.0),
            noise_std=(1.0,) * m,
            seed=derive(self.seed, 0),
        )
        full = data.generate_synthetic(spec)
        full = data.standardize_apply(full, data.standardize_fit(full))
        order = np.random.default_rng(derive(self.seed, 1)).permutation(full.num_samples)
        self.chunks = [
            full.take(order[start : start + self.chunk])
            for start in range(0, full.num_samples - self.chunk + 1, self.chunk)
        ]
        model_spec = model.ModelSpec((8,) * m, hidden_dim=32, latent_dim=16, num_classes=6)
        self.params = model.init_params(model_spec, derive(self.seed, 2))
        self.config = trainer.TrainConfig(
            model=model_spec, epochs=1, vrr_mode="exhaustive", seed=derive(self.seed, 3)
        )

    def steps(self, index: int) -> list:
        self.last_records = -1
        chunk = self.chunks[index % len(self.chunks)]
        return [lambda: trainer.evaluate(self.params, chunk, self.config)]

    def items(self, results) -> int:
        return self.chunk

    def check(self, index: int, results) -> list[str]:
        (report,) = results
        problems = []
        if not 0.0 <= report.vrr_raw <= 1.0:
            problems.append(f"VRR {report.vrr_raw} outside [0, 1]")
        if not report.e_aurc_raw >= 0.0:
            problems.append(f"E-AURC {report.e_aurc_raw} < 0")
        expected = self.chunk * self.pairs_per_sample
        if self.last_records != expected:
            problems.append(f"{self.last_records} VRR records, expected {expected}")
        return problems

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        restore(self._undo)


class CliPipeline:
    """One in-process pass of generate, train (lambda 0 and 10), compare and a noise sweep."""

    run_files = ("config.json", "history.csv", "metrics.json", "checkpoint.bin", "records.csv")
    outputs = ("dataset", "run_base", "run_cml", "compare", "sweep")
    # A pass takes over a second: op_s_p90 here rests on fewer than ten passes beyond it.
    min_ops = 1

    def __init__(self, seed: int, work_dir: Path, tiny: bool):
        self.seed = seed
        self.dir = work_dir
        self.per_class = 30 if tiny else 150
        self.model_spec = model.ModelSpec((6, 6, 6), hidden_dim=24, latent_dim=12, num_classes=4)

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        source = {
            "data": {"manifest": "dataset/manifest.json"},
            "split": {"train_fraction": 0.7, "seed": derive(self.seed, 1)},
            "model": {"hidden_dim": 24, "latent_dim": 12},
        }
        train = {"epochs": 1, "learning_rate": 2e-3, "batch_size": 32, "variant": "hinge"}
        configs = {
            "generate": {
                "data": {
                    "synthetic": {
                        "num_classes": 4,
                        "modality_dims": [6, 6, 6],
                        "samples_per_class": self.per_class,
                        "class_separation": [6.0, 3.0, 2.5],
                        "noise_std": 1.0,
                        "seed": derive(self.seed, 0),
                    }
                },
                "output_dir": "dataset",
            },
            "train_base": {**source, "train": {**train, "lambda": 0.0}, "output_dir": "run_base"},
            "train_cml": {**source, "train": {**train, "lambda": 10.0}, "output_dir": "run_cml"},
            "compare": {
                **source,
                "compare": {"baseline_run": "run_base", "cml_run": "run_cml"},
                "output_dir": "compare",
            },
            "sweep": {
                **source,
                "train": {**train, "lambda": 10.0},
                "sweep": {"kind": "noise", "baseline_run": "run_base", "cml_run": "run_cml"},
                "output_dir": "sweep",
            },
        }
        for name, config in configs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.expected_shapes = _param_shapes(model.init_params(self.model_spec, 0))

    def steps(self, index: int) -> list:
        """The five commands of one pass; each returns (exit code, captured output)."""
        for name in self.outputs:  # each pass starts from an empty work directory
            shutil.rmtree(self.dir / name, ignore_errors=True)
        seed = str(op_seed(self.seed, index))

        def command(name: str, config: str, *extra: str):
            def step():
                log = io.StringIO()
                argv = [name, "--config", str(self.dir / f"{config}.json"), *extra]
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    return cli.main(argv), log.getvalue()

            return step

        return [
            command("generate", "generate"),
            command("train", "train_base", "--seed", seed),
            command("train", "train_cml", "--seed", seed),
            command("compare", "compare"),
            command("sweep", "sweep", "--seed", seed),
        ]

    def items(self, results) -> int:
        return 1

    def check(self, index: int, results) -> list[str]:
        problems = [
            f"exit code {code}: {log.strip()[-500:]}" for code, log in results if code != 0
        ]
        for run in ("run_base", "run_cml"):
            run_dir = self.dir / run
            missing = [name for name in self.run_files if not (run_dir / name).is_file()]
            if missing:
                problems.append(f"{run} lacks {missing}")
                continue
            try:
                json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
                spec, params = model.load_checkpoint(run_dir / "checkpoint.bin")
            except (OSError, ValueError, RuntimeError) as exc:
                problems.append(f"{run}: {exc}")
                continue
            if spec != self.model_spec or _param_shapes(params) != self.expected_shapes:
                problems.append(f"{run}: checkpoint does not load back to the trained shapes")
        for path in ("compare/comparison.json", "sweep/sweep_noise.csv"):
            if not (self.dir / path).is_file():
                problems.append(f"missing {path}")
        return problems

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "train_fixture": TrainFixture,
    "eval_lattice": EvalLattice,
    "cli_pipeline": CliPipeline,
}
