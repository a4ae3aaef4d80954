#!/usr/bin/env python3
"""rankcal benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload train_fixture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs as one closed-loop caller on one thread: an operation
starts when the previous one has finished, until --seconds have passed and
the workload's min_ops have run. BLAS
and OpenMP pools are pinned to one thread before numpy is imported. Every
operation's outputs are checked; an operation that raises or fails its check
counts as failed.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 the first half of --seconds runs untraced, then a fixed number
of operations run with spans recorded around rankcal's public functions
(perfbench/spans.py); the result holds the per-layer metrics, including the
tracing overhead (traced minus untraced operation median).

Output: readable lines (with the workload-specific metric names), a `facts`
line with the machine facts, and as the last line the JSON result. The same
result plus facts is written to .perfbench_out/results/, and the spans of a
traced run to .perfbench_out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spec

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-ups per run whose median is setup_s: this process plus fresh child processes.
SETUP_SAMPLES = 5
# Reference-loop time that the reported times are scaled to (see Reference).
REF_NOMINAL_S = 0.02
WORKLOAD_NAMES = tuple(name for name, _ in spec.WORKLOADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Reference:
    """A fixed mix of Python dispatch and tiny numpy calls, like rankcal's per-sample path.

    The host's per-thread speed swings by up to 2x over seconds as other
    tenants load the shared cores: identical training ops took 0.13 s to
    0.32 s on one 2-vCPU host. Each step of an op is bracketed by this
    reference, which does not touch rankcal, and its time is rescaled to a
    host on which the reference takes REF_NOMINAL_S. The raw wall times are
    kept alongside.
    """

    iterations = 1600

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((1, 8))
        self.w = rng.standard_normal((8, 16))
        self.b = rng.standard_normal(16)

    def seconds(self) -> float:
        np, x, w, b = self.np, self.x, self.w, self.b
        start = perf_counter()
        acc = 0.0
        for i in range(self.iterations):
            h = np.maximum(x @ w + b, 0.0)
            acc += float(np.exp(h - h.max()).sum()) / (i + 1)
        return perf_counter() - start

    def scale(self, samples: int = 3) -> float:
        """Factor turning a wall time measured now into reference-scaled seconds."""
        return REF_NOMINAL_S / statistics.median(self.seconds() for _ in range(samples))


class Tally:
    """Op outcomes of one measuring phase."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self._last_ref: float | None = None

    def run(self, workload, index: int) -> None:
        """One op: its steps, each bracketed by the reference, then its check."""
        self.attempted += 1
        results, raw, scaled = [], 0.0, 0.0
        try:
            for step in workload.steps(index):
                before = self._last_ref or self.reference.seconds()
                start = perf_counter()
                results.append(step())
                elapsed = perf_counter() - start
                self._last_ref = self.reference.seconds()
                raw += elapsed
                scaled += elapsed * REF_NOMINAL_S * 2 / (before + self._last_ref)
            problems = workload.check(index, results)
        except Exception:  # the loop must go on; the failure is counted and shown
            traceback.print_exc()
            self._last_ref = None
            self.failed += 1
            return
        if problems:
            print(f"op {index} failed its check: {problems}", file=sys.stderr)
            self.failed += 1
            return
        self.raw_times.append(raw)
        self.times.append(scaled)
        self.items += workload.items(results)

    def run_for(self, workload, seconds: float, min_ops: int = 1) -> None:
        deadline = perf_counter() + seconds
        index = 0
        while index < min_ops or perf_counter() < deadline:
            self.run(workload, index)
            index += 1

    def p50(self, raw: bool = False) -> float:
        times = self.raw_times if raw else self.times
        return statistics.median(times) if times else 0.0

    def p90(self, raw: bool = False) -> float:
        times = self.raw_times if raw else self.times
        if len(times) < 2:
            return self.p50(raw)
        return statistics.quantiles(times, n=10)[8]


def child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter (imports included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(tally: Tally, setups: list[float]) -> dict[str, float]:
    total = sum(tally.times)
    return {
        "items_per_s": tally.items / total if total else 0.0,
        "op_s_p50": tally.p50(),
        "op_s_p90": tally.p90(),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def report(args, values: dict, units: dict, notes: dict, correct: bool, attempted: int, failed: int):
    aliases = spec.ALIASES[args.workload] if not args.trace else {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        print(f"  {label} = {value!r} {units[name]}{notes.get(name, '')}")
    facts = machine_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "facts": facts, "notes": notes}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


def run_workload(args) -> int:
    start = perf_counter()
    import workloads  # imports numpy and rankcal: part of set-up

    work_dir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, args.tiny)
    try:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        workload.prepare()
        setup_raw = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        reference = Reference()
        setup_s = setup_raw * reference.scale()
        if args.setup_only:
            print(repr(setup_s))
            return 0

        if tracer is None:
            setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            tally = Tally(reference)
            tally.run_for(workload, args.seconds, workload.min_ops)
            problems = workload.final_check()
            values = end_to_end(tally, setups)
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
            n = len(tally.times)
            notes = {
                "items_per_s": f"  (over {n} ops)",
                "op_s_p50": f"  (n={n} ops; raw wall {tally.p50(raw=True)!r} s)",
                "op_s_p90": f"  (n={n} ops{'' if n >= 100 else '; fewer than 10 beyond p90'};"
                f" raw wall {tally.p90(raw=True)!r} s)",
                "setup_s": f"  (median of {len(setups)} set-ups; raw wall here {setup_raw!r} s)",
            }
            attempted, failed = tally.attempted, tally.failed
        else:
            untraced = Tally(reference)
            untraced.run_for(workload, args.seconds / 2)
            traced = Tally(reference)
            tracer.install()
            for index in range(workloads.TRACED_OPS[args.workload]):
                tracer.op_id = f"op{index}"
                traced.run(workload, index)
            tracer.uninstall()
            problems = workload.final_check()
            values = tracer.layer_metrics()
            values["trace.op_s_p50_untraced"] = untraced.p50()
            values["trace.op_s_p50_traced"] = traced.p50()
            values["trace.overhead_s"] = traced.p50() - untraced.p50()
            values["trace.overhead_frac"] = (
                values["trace.overhead_s"] / untraced.p50() if untraced.p50() else 0.0
            )
            values = {name: values[name] for name, _, _, _, _ in spec.PER_LAYER}
            units = {name: unit for name, unit, _, _, _ in spec.PER_LAYER}
            notes = {
                "trace.op_s_p50_untraced": f"  (n={len(untraced.times)} ops)",
                "trace.op_s_p50_traced": f"  (n={len(traced.times)} ops)",
            }
            if tracer.absent:
                notes["trace.absent_functions"] = f"  ({', '.join(tracer.absent)})"
                print(f"absent, not traced: {', '.join(tracer.absent)}", file=sys.stderr)
            traces = OUT_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.spans.csv.gz")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = failed == 0 and not problems
        report(args, values, units, notes, correct, attempted, failed)
        return 0
    finally:
        workload.close()


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "rankcal" / "__init__.py").is_file():
        print(f"error: rankcal sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
