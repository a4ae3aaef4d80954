"""One CLI pass, the noise-sweep rows, a training grid and VRR match the committed golden hashes.

The manifest is tests/golden_hashes.json, written by tests/golden.py under the
numpy and BLAS versions it records. Under other versions this test fails and
names both: the hashes say nothing about another library's rounding.
"""

from __future__ import annotations

import json

import pytest

import golden


@pytest.fixture(scope="module")
def expected() -> dict:
    manifest = json.loads(golden.MANIFEST.read_text(encoding="ascii"))
    if manifest["versions"] != golden.versions():
        pytest.fail(
            f"golden hashes were written under {manifest['versions']}, this run has "
            f"{golden.versions()}; rewrite them with `PYTHONPATH=src python tests/golden.py`"
        )
    return manifest


def test_cli_pass_files_byte_identical(expected, tmp_path):
    assert golden.cli_pass_hashes(tmp_path) == expected["cli_pass"]


def test_noise_sweep_rows_identical(expected):
    assert golden.noise_sweep_hashes() == expected["noise_sweep"]


def test_train_grid_identical(expected):
    assert golden.train_grid_hashes() == expected["train_grid"]


def test_evaluate_vrr_identical(expected):
    assert golden.evaluate_vrr_hashes() == expected["evaluate_vrr"]


def test_manifest_changes_names_each_entry_that_differs():
    old = {"cli_pass": {"a": "1", "b": "2"}, "noise_sweep": {"M=2": "3"}}
    new = {"cli_pass": {"a": "1", "b": "9", "c": "4"}, "train_grid": {"x": "5"}}
    assert golden.manifest_changes(old, new) == [
        "changed cli_pass b",
        "added cli_pass c",
        "removed noise_sweep M=2",
        "added train_grid x",
    ]
