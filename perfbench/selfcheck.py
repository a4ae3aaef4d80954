#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark harness (under a minute).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is the one spec.py renders and keeps to its
schema limits; that every workload, untraced and traced, prints a result
line carrying exactly the metrics BENCHMARK.json names, with their units,
correct and without failed operations; that the deterministic per-layer
counts repeat exactly for the same seed; and that the benchmark exits non-zero
without a result where the rankcal sources are missing. Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Per-layer metrics that must repeat exactly across runs of the same code and seed.
EXACT_UNITS = ("count", "bytes", "flop")
EXACT_RATIOS = ("calibration.classify_per_record", "numerics.kernel_calls_per_sample_step")


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def check_benchmark_json() -> dict:
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    if text != spec.render():
        fail("BENCHMARK.json differs from spec.py; run python3 perfbench/spec.py")
    bench = json.loads(text)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    for w in bench["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"why of {w['name']} is not one line of at most 200 characters")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction on {m['name']}")
    if not 2 <= len(bench["workloads"]) <= 8 or not 1 <= len(bench["per_layer"]) <= 128:
        fail("workload or per-layer metric count out of range")
    if any(not 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]):
        fail("an end-to-end bound is outside (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must exist and carry the largest bound")
    if len(text.encode()) > 64 * 1024:
        fail("BENCHMARK.json is larger than 64 KiB")
    return bench


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int, seed: int = 3) -> dict:
    done = run(["--workload", workload, "--seed", str(seed), "--seconds", "1"]
               + ["--trace", str(trace), "--tiny"])
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['correct']=} {result['failed']=}: {done.stderr[-2000:]}")
    return result


def check_metrics(bench: dict) -> dict[str, dict]:
    """Every metric with its unit, per workload; returns the traced metrics."""
    traced = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics = result_of(workload, trace)["metrics"]
            if trace:
                traced[workload] = metrics
            expected = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected:
                fail(f"{workload} trace={trace}: metrics/units differ: {set(got) ^ set(expected)}")
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
                    fail(f"{workload}: {name} value {m['value']!r} is not a number")
                if trace == 0 and m["value"] == 0:
                    fail(f"{workload}: end-to-end metric {name} is 0")
        print(f"selfcheck: {workload} emits every metric with its unit")
    return traced


def check_exact_counts(bench: dict, traced: dict[str, dict]) -> None:
    exact = [
        m["name"]
        for m in bench["per_layer"]
        if m["unit"] in EXACT_UNITS or m["name"] in EXACT_RATIOS
    ]
    for workload, first in traced.items():
        second = result_of(workload, 1)["metrics"]
        differ = [name for name in exact if first[name]["value"] != second[name]["value"]]
        if differ:
            fail(f"{workload}: counts differ between identical runs: {differ}")
    print(f"selfcheck: {len(exact)} per-layer counts repeat exactly")


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(["--workload", "train_fixture", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark must exit non-zero without a result when the sources are missing")
    print("selfcheck: exits non-zero without the rankcal sources")


def main() -> int:
    bench = check_benchmark_json()
    print("selfcheck: BENCHMARK.json matches spec.py and its schema limits")
    check_fails_without_sources()
    check_exact_counts(bench, check_metrics(bench))
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
