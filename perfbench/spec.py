"""What the benchmark measures and why: the single source of BENCHMARK.json.

BENCHMARK.json holds only the keys its schema allows (name, unit, better and,
for end-to-end metrics, bound). The reason for each per-layer metric and the
end-to-end metric it should move live here, next to it.

    python3 perfbench/spec.py            # rewrite BENCHMARK.json from this file
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = (
    (
        "train_fixture",
        "Acceptance-fixture trainer.train calls (backward pass, Adam, chain draws, no evaluation): "
        "the traffic of the lambda sweep and five-seed experiment; batched training moves it most.",
    ),
    (
        "eval_lattice",
        "Forward-only trainer.evaluate with exhaustive VRR over 5 modalities (31 subsets, 75 pairs "
        "per sample): lattice evaluation shows here; a backward/Adam-only change must not.",
    ),
    (
        "cli_pipeline",
        "In-process rankcal generate, train x2, compare and noise sweep at fixture size: the only "
        "workload writing and reading CSVs, checkpoints, records; catches I/O or inference slowdowns",
    ),
)

# Each workload reports these under its own operation: one trainer.train call,
# one trainer.evaluate call on a fixed-size chunk, or one full CLI pass. Times
# are scaled by an interleaved reference loop (run.Reference) so that the
# host's speed swings do not show as regressions; raw wall times are printed
# next to them. items_per_s counts sample-steps, test samples or passes.
END_TO_END = (
    # name, unit, better, bound
    ("items_per_s", "1/s", "higher", 0.2),
    ("op_s_p50", "s", "lower", 0.2),
    ("op_s_p90", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_op_frac", "ratio", "higher", 0.01),
)

# Workload-specific names under which run.py also prints the generic metrics.
ALIASES = {
    "train_fixture": {
        "items_per_s": "train_sample_steps_per_s",
        "op_s_p50": "train_op_s_p50",
        "op_s_p90": "train_op_s_p90",
    },
    "eval_lattice": {
        "items_per_s": "eval_samples_per_s",
        "op_s_p50": "eval_op_s_p50",
        "op_s_p90": "eval_op_s_p90",
    },
    "cli_pipeline": {"op_s_p50": "pipeline_s_p50"},
}

_TRAIN = "op_s_p50 on train_fixture"
_EVAL = "op_s_p50 on eval_lattice"
_PIPE = "op_s_p50 on cli_pipeline"
_SETUP = "setup_s on every workload"
_TRAIN_EVAL = "op_s_p50 on train_fixture and eval_lattice"
_EVAL_PIPE = "op_s_p50 on eval_lattice and cli_pipeline"

# Per-layer metrics come from the traced run. Every time and count is a total
# over the traced set-up and the fixed number of traced operations
# (workloads.TRACED_OPS), so counts repeat exactly for the same code and seed.
# name, unit, better, end-to-end metric it should move, why
PER_LAYER = (
    ("trainer.train.self_s", "s", "lower", _TRAIN, "batching loop and per-sample bookkeeping"),
    ("trainer.evaluate.self_s", "s", "lower", _EVAL, "full-mask scoring loop around evaluate_vrr"),
    ("trainer.noise_sweep.self_s", "s", "lower", _PIPE, "accuracy loops over corrupted copies"),
    ("calibration.sample_chain.calls", "count", "lower", _TRAIN, "one rng per sample-step today"),
    ("calibration.sample_chain.self_s", "s", "lower", _TRAIN, "default_rng construction per chain"),
    ("calibration.sample_objective.calls", "count", "lower", _TRAIN, "per-sample dispatch count"),
    ("calibration.sample_objective.self_s", "s", "lower", _TRAIN, "per-sample objective overhead"),
    (
        "calibration.hinge_active_frac",
        "ratio",
        "lower",
        _TRAIN,
        "penalty-active pairs with conf_t > conf_s over active pairs: the regularizer's live work",
    ),
    (
        "calibration.reg_skipped_frac",
        "ratio",
        "lower",
        _TRAIN,
        "objectives whose full-modality prediction was wrong, over objectives",
    ),
    ("calibration.evaluate_vrr.self_s", "s", "lower", _EVAL, "pair loop and confidence cache"),
    ("calibration.vrr_records", "count", "higher", _EVAL, "records produced; fixed by the input"),
    (
        "calibration.classify_per_record",
        "ratio",
        "lower",
        _EVAL,
        "classify_latents calls inside evaluate_vrr per record; a lattice drops it",
    ),
    ("calibration.write_records_csv.s", "s", "lower", _PIPE, "records.csv serialisation"),
    ("model.encode_modality.calls", "count", "lower", _TRAIN, "encoder forwards; batching cuts"),
    ("model.encode_modality.self_s", "s", "lower", _TRAIN, "encoder forward on 1xd rows"),
    ("model.encoder_backward.calls", "count", "lower", _TRAIN, "encoder backwards per modality"),
    ("model.encoder_backward.self_s", "s", "lower", _TRAIN, "encoder backward on 1xd rows"),
    ("model.classify_latents.calls", "count", "lower", _TRAIN_EVAL, "fuse+head calls per mask"),
    ("model.classify_latents.self_s", "s", "lower", _TRAIN_EVAL, "fuse, head, softmax per mask"),
    ("model.param_ops.calls", "count", "lower", _TRAIN, "zeros_like/add/scale/flatten/unflatten"),
    ("model.param_ops.self_s", "s", "lower", _TRAIN, "parameter-container copies per step"),
    ("model.forward.calls", "count", "lower", _PIPE, "per-sample full forwards in scoring/sweeps"),
    ("model.forward.self_s", "s", "lower", _PIPE, "forward dispatch around encoders and head"),
    ("model.checkpoint.s", "s", "lower", _PIPE, "save_checkpoint plus load_checkpoint time"),
    ("model.checkpoint.bytes", "bytes", "lower", _PIPE, "checkpoint bytes written"),
    ("numerics.adam_update.calls", "count", "lower", _TRAIN, "one per mini-batch"),
    ("numerics.adam_update.self_s", "s", "lower", _TRAIN, "Adam step over the flat vector"),
    ("numerics.kernel_calls", "count", "lower", _TRAIN, "numerics primitive calls, counted only"),
    (
        "numerics.kernel_calls_per_sample_step",
        "ratio",
        "lower",
        _TRAIN,
        "kernel calls inside trainer.train per sample-step: the dispatch a batched core removes",
    ),
    (
        "numerics.affine_flops",
        "flop",
        "lower",
        _TRAIN,
        "affine flops from argument shapes; a batching rewrite should keep it constant",
    ),
    ("metrics.self_s", "s", "lower", _EVAL_PIPE, "accuracy, NLL, AURC, E-AURC, report assembly"),
    ("data.generate_synthetic.s", "s", "lower", _SETUP, "synthetic data generation"),
    ("data.standardize.s", "s", "lower", _SETUP, "standardize_fit plus standardize_apply"),
    ("data.csv_write.s", "s", "lower", _PIPE, "write_csv_dataset"),
    ("data.csv_read.s", "s", "lower", _PIPE, "load_csv_dataset, four reads per pass"),
    ("data.csv_bytes", "bytes", "lower", _PIPE, "dataset CSV bytes written"),
    ("data.corrupt_gaussian.s", "s", "lower", _PIPE, "noise-sweep corruption copies"),
    ("cli.generate.s", "s", "lower", _PIPE, "rankcal generate"),
    ("cli.train.s", "s", "lower", _PIPE, "both rankcal train commands"),
    ("cli.compare.s", "s", "lower", _PIPE, "rankcal compare"),
    ("cli.sweep.s", "s", "lower", _PIPE, "rankcal sweep (noise)"),
    ("cli.self_s", "s", "lower", _PIPE, "config parsing and run-directory writes in cli itself"),
    ("cli.nonzero_exits", "count", "lower", _PIPE, "commands that failed; always 0 when correct"),
    ("trace.op_s_p50_untraced", "s", "lower", "all", "untraced op median of the trace run"),
    ("trace.op_s_p50_traced", "s", "lower", "all", "traced op median of the trace run"),
    ("trace.overhead_s", "s", "lower", "none", "tracing overhead: traced minus untraced op_s_p50"),
    ("trace.overhead_frac", "ratio", "lower", "none", "tracing overhead over untraced op_s_p50"),
    ("trace.spans", "count", "lower", "none", "spans recorded; repeats exactly for the same code"),
    (
        "trace.absent_functions",
        "count",
        "lower",
        "none",
        "wrapped functions that no longer exist; their names go to stderr and the result file",
    ),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better, _, _ in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
    print(f"wrote {target}")
    sys.exit(0)
