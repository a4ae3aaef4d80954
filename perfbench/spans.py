"""Span tracer wrapped around rankcal's public functions from outside the package.

Installing replaces every binding of a traced function in every loaded
`rankcal.*` namespace (modules import each other's functions by name), so
calls between modules are seen too. Spans hold name, start, end, parent and
the operation id, stay in memory, and are written once at the end. Numerics
primitives are counted, not timed. Uninstalling restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
from time import perf_counter_ns

SPANNED = (
    "trainer.train",
    "trainer.evaluate",
    "trainer.noise_sweep",
    "calibration.sample_chain",
    "calibration.sample_objective",
    "calibration.evaluate_vrr",
    "calibration.write_records_csv",
    "model.encode_modality",
    "model.encoder_backward",
    "model.classify_latents",
    "model.forward",
    "model.zeros_like_params",
    "model.add_params",
    "model.scale_params",
    "model.flatten_params",
    "model.unflatten_params",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "numerics.adam_update",
    "metrics.accuracy",
    "metrics.error_rate",
    "metrics.mean_nll",
    "metrics.aurc",
    "metrics.e_aurc",
    "metrics.mean_abs_conf_shift",
    "metrics.confidence_by_subset_size",
    "metrics.build_report",
    "data.generate_synthetic",
    "data.standardize_fit",
    "data.standardize_apply",
    "data.write_csv_dataset",
    "data.load_csv_dataset",
    "data.corrupt_gaussian",
    "cli.main",
    "cli.cmd_generate",
    "cli.cmd_train",
    "cli.cmd_compare",
    "cli.cmd_sweep",
)

COUNTED = (
    "numerics.affine_forward",
    "numerics.affine_backward",
    "numerics.relu",
    "numerics.relu_backward",
    "numerics.softmax",
    "numerics.nll_loss",
    "numerics.nll_loss_grad",
)

PARAM_OPS = (
    "model.zeros_like_params",
    "model.add_params",
    "model.scale_params",
    "model.flatten_params",
    "model.unflatten_params",
)
CHECKPOINT = ("model.save_checkpoint", "model.load_checkpoint")
METRICS = tuple(name for name in SPANNED if name.startswith("metrics."))
CLI = tuple(name for name in SPANNED if name.startswith("cli."))


def rankcal_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "rankcal" or name.startswith("rankcal.")
    ]


def rebind(old, new) -> list[tuple]:
    """Point every rankcal namespace binding of `old` at `new`; return the undo list."""
    undo = []
    for module in rankcal_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                undo.append((module, attr, old, new))
    return undo


def restore(undo: list[tuple]) -> None:
    for module, attr, old, new in reversed(undo):
        if getattr(module, attr) is new:
            setattr(module, attr, old)


def _lookup(qualified: str):
    module = sys.modules.get("rankcal." + qualified.split(".")[0])
    return getattr(module, qualified.split(".", 1)[1], None) if module else None


def _binder(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _shape(value) -> tuple:
    return tuple(getattr(value, "shape", ()))


def _affine_flops(name: str, args) -> int:
    (n, k), m = _shape(args[0]), _shape(args[1])[1]
    return (2 if name == "numerics.affine_forward" else 4) * n * k * m + n * m


class Tracer:
    """Spans and counters of one traced run; single-threaded by construction."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self.stack: list[int] = []
        self.op_id = "setup"
        self.kernel_calls: dict[int, int] = {}
        self.counters = {
            "affine_flops": 0,
            "sample_steps": 0,
            "objectives": 0,
            "objectives_full_wrong": 0,
            "active_pairs": 0,
            "hinge_active_pairs": 0,
            "vrr_records": 0,
            "checkpoint_bytes": 0,
            "csv_bytes": 0,
            "nonzero_exits": 0,
        }
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        observers = {
            "trainer.train": self._observe_train,
            "calibration.sample_objective": self._observe_objective,
            "calibration.evaluate_vrr": self._observe_vrr,
            "model.save_checkpoint": self._observe_checkpoint,
            "data.write_csv_dataset": self._observe_csv,
            "cli.main": self._observe_main,
        }
        for name in SPANNED + COUNTED:
            fn = _lookup(name)
            if fn is None:
                self.absent.append(name)
                continue
            if name in COUNTED:
                wrapper = self._counter(name, fn)
            else:
                observe = observers.get(name)
                wrapper = self._span(name, fn, observe and observe(fn))
            self._undo.extend(rebind(fn, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _span(self, name, fn, observe):
        names, starts, ends, parents, ops, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self.ops,
            self.stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        calls, stack, counters = self.kernel_calls, self.stack, self.counters
        flops = name in ("numerics.affine_forward", "numerics.affine_backward")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = stack[-1] if stack else -1
            calls[key] = calls.get(key, 0) + 1
            if flops:
                counters["affine_flops"] += _affine_flops(name, args)
            return fn(*args, **kwargs)

        return counted

    # -- observers: read arguments and returned values after the span ends --

    def _observe_train(self, fn):
        arguments = _binder(fn)

        def observe(args, kwargs, result):
            a = arguments(args, kwargs)
            self.counters["sample_steps"] += a["config"].epochs * a["train_set"].num_samples

        return observe

    def _observe_objective(self, fn):
        arguments = _binder(fn)
        counters = self.counters

        def observe(args, kwargs, result):
            a = arguments(args, kwargs)
            full_wrong = result.full_prediction.predicted_class != a["label"]
            counters["objectives"] += 1
            counters["objectives_full_wrong"] += full_wrong
            if a["variant"] != "none" and not (a["skip_on_wrong_full"] and full_wrong):
                counters["active_pairs"] += len(result.records)
                counters["hinge_active_pairs"] += sum(r.conf_t > r.conf_s for r in result.records)

        return observe

    def _observe_vrr(self, fn):
        def observe(args, kwargs, result):
            self.counters["vrr_records"] += len(result.records)

        return observe

    def _observe_checkpoint(self, fn):
        arguments = _binder(fn)

        def observe(args, kwargs, result):
            self.counters["checkpoint_bytes"] += os.path.getsize(arguments(args, kwargs)["path"])

        return observe

    def _observe_csv(self, fn):
        def observe(args, kwargs, result):
            folder = os.path.dirname(result)
            self.counters["csv_bytes"] += sum(
                entry.stat().st_size for entry in os.scandir(folder) if entry.is_file()
            )

        return observe

    def _observe_main(self, fn):
        def observe(args, kwargs, result):
            self.counters["nonzero_exits"] += result != 0

        return observe

    # -- aggregation --------------------------------------------------------

    def _under(self, name: str) -> list[bool]:
        """Per span: is it, or any ancestor, a span called `name`?"""
        flags: list[bool] = []
        for index, span_name in enumerate(self.names):
            parent = self.parents[index]
            flags.append(span_name == name or (parent >= 0 and flags[parent]))
        return flags

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, self seconds and inclusive seconds.

        Self time is a span's duration minus its direct children's durations;
        on one thread the children run one after another inside the parent,
        so their durations are exactly the time they cover.
        """
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (duration - child_ns[index]) * 1e-9
            incl_s[name] = incl_s.get(name, 0.0) + duration * 1e-9
        return calls, self_s, incl_s

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s, incl_s = self.totals()
        c = self.counters

        def total(table: dict, names) -> float:
            return sum(table.get(name, 0) for name in names)

        def seconds(table: dict, names) -> float:
            return float(total(table, names))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in ("trainer.train", "trainer.evaluate", "trainer.noise_sweep"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("calibration.sample_chain", "calibration.sample_objective"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["calibration.hinge_active_frac"] = ratio(c["hinge_active_pairs"], c["active_pairs"])
        out["calibration.reg_skipped_frac"] = ratio(c["objectives_full_wrong"], c["objectives"])
        out["calibration.evaluate_vrr.self_s"] = self_s.get("calibration.evaluate_vrr", 0.0)
        out["calibration.vrr_records"] = c["vrr_records"]
        in_vrr = self._under("calibration.evaluate_vrr")
        classify_in_vrr = sum(
            1
            for index, name in enumerate(self.names)
            if name == "model.classify_latents" and in_vrr[index]
        )
        out["calibration.classify_per_record"] = ratio(classify_in_vrr, c["vrr_records"])
        out["calibration.write_records_csv.s"] = incl_s.get("calibration.write_records_csv", 0.0)
        for name in ("model.encode_modality", "model.encoder_backward", "model.classify_latents"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["model.param_ops.calls"] = total(calls, PARAM_OPS)
        out["model.param_ops.self_s"] = seconds(self_s, PARAM_OPS)
        out["model.forward.calls"] = calls.get("model.forward", 0)
        out["model.forward.self_s"] = self_s.get("model.forward", 0.0)
        out["model.checkpoint.s"] = seconds(incl_s, CHECKPOINT)
        out["model.checkpoint.bytes"] = c["checkpoint_bytes"]
        out["numerics.adam_update.calls"] = calls.get("numerics.adam_update", 0)
        out["numerics.adam_update.self_s"] = self_s.get("numerics.adam_update", 0.0)
        out["numerics.kernel_calls"] = sum(self.kernel_calls.values())
        in_train = self._under("trainer.train")
        train_kernels = sum(n for index, n in self.kernel_calls.items() if index >= 0 and in_train[index])
        out["numerics.kernel_calls_per_sample_step"] = ratio(train_kernels, c["sample_steps"])
        out["numerics.affine_flops"] = c["affine_flops"]
        out["metrics.self_s"] = seconds(self_s, METRICS)
        out["data.generate_synthetic.s"] = incl_s.get("data.generate_synthetic", 0.0)
        out["data.standardize.s"] = seconds(incl_s, ("data.standardize_fit", "data.standardize_apply"))
        out["data.csv_write.s"] = incl_s.get("data.write_csv_dataset", 0.0)
        out["data.csv_read.s"] = incl_s.get("data.load_csv_dataset", 0.0)
        out["data.csv_bytes"] = c["csv_bytes"]
        out["data.corrupt_gaussian.s"] = incl_s.get("data.corrupt_gaussian", 0.0)
        for command in ("generate", "train", "compare", "sweep"):
            out[f"cli.{command}.s"] = incl_s.get(f"cli.cmd_{command}", 0.0)
        out["cli.self_s"] = seconds(self_s, CLI)
        out["cli.nonzero_exits"] = c["nonzero_exits"]
        out["trace.spans"] = len(self.names)
        out["trace.absent_functions"] = len(self.absent)
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped CSV: op,name,start_ns,end_ns,parent."""
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for index, name in enumerate(self.names):
                fh.write(
                    f"{self.ops[index]},{name},{self.starts[index] - origin},"
                    f"{self.ends[index] - origin},{self.parents[index]}\n"
                )
