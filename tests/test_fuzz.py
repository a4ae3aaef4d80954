"""Schema fuzz: every key of every config table, given hostile JSON values, through cli.main.

Each case sets one key of a tiny valid config to one value, runs the command
that reads that section in-process, and must either exit 0 with strict-JSON
outputs, or exit 1 with exactly one stderr line. When the key's table rejects
the value, that line is the table's own error, which starts with the key's
dotted path. A traceback (any exception out of main, warnings included, since
pytest turns them into errors) fails the case.
"""

from __future__ import annotations

import json
import math
import random
import types
import typing
from pathlib import Path

import pytest

from rankcal import cli
from rankcal.errors import ConfigError, check_section

SEED = 2023
# More cases than this are sampled down with SEED; the tables give about 400 today.
CASE_BUDGET = 600

# The values each key gets, besides a value of the wrong kind. No large integer: the
# size keys (dims, counts, epochs) would allocate or run for as long as they say.
HOSTILE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0": 0,
    "-1": -1,
    "1e308": 1e308,
    "[]": [],
}

TINY = {
    "data": {
        "synthetic": {
            "num_classes": 2,
            "modality_dims": [3, 2],
            "samples_per_class": 6,
            "class_separation": 3.0,
            "noise_std": 1.0,
            "seed": 1,
        }
    },
    "split": {"train_fraction": 0.5, "seed": 0},
    "model": {"hidden_dim": 4, "latent_dim": 2},
    "train": {"epochs": 1, "learning_rate": 0.01, "batch_size": 8, "lambda": 1.0},
}
SWEEPS = {
    "lambda": {"kind": "lambda", "lambda_grid": [0.0]},
    "noise": {"kind": "noise", "epsilons": [0.1], "target_sets": [[0]]},
}


def tables() -> dict:
    """Section name -> table, with "" for the top level."""
    return {"": cli._CONFIG_SCHEMA, **cli.SECTIONS}


def values_for(kind) -> dict:
    """Case id -> value: a wrong kind, HOSTILE, for a list kind each HOSTILE value as entry,
    and for a list-of-lists kind each HOSTILE value as an entry's entry."""
    cases = {"wrong-kind": "x" if kind is bool else True, **HOSTILE}
    options = typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
    lists = [option for option in options if typing.get_origin(option) is list]
    if lists:
        cases |= {f"[{name}]": [value] for name, value in HOSTILE.items()}
    if any(typing.get_origin(typing.get_args(option)[0]) is list for option in lists):
        cases |= {f"[[{name}]]": [[value]] for name, value in HOSTILE.items()}
    return cases


def all_cases() -> list[tuple[str, str, str]]:
    """(section, key, value id) for every key of every table; sampled down to CASE_BUDGET."""
    cases = [
        (section, key, name)
        for section, schema in tables().items()
        for key, spec in schema.items()
        for name in values_for(spec.kind)
    ]
    if len(cases) > CASE_BUDGET:
        cases = sorted(random.Random(SEED).sample(cases, CASE_BUDGET))
    return cases


CASES = all_cases()


def test_the_cases_reach_every_key():
    keys = {(section, key) for section, schema in tables().items() for key in schema}
    assert {(section, key) for section, key, _ in CASES} == keys


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Two runs of the tiny config, for compare and the noise sweep."""
    base = tmp_path_factory.mktemp("runs")
    for name, lam in (("baseline_run", 0.0), ("cml_run", 1.0)):
        cfg = base / f"{name}.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "lambda": lam}}))
        assert cli.main(["train", "--config", str(cfg), "--out", str(base / name)]) == 0
    return {name: str(base / name) for name in ("baseline_run", "cml_run")}


def base_config(section: str, key: str, runs: dict) -> tuple[str, dict]:
    """The command that reads `section`, and a fresh valid config for it."""
    command, cfg = "train", TINY
    if section == "compare":
        command, cfg = "compare", {**TINY, "compare": runs}
    elif section == "sweep" and key == "lambda_grid":
        split = {**TINY["split"], "val_fraction": 0.5}
        command, cfg = "sweep", {**TINY, "split": split, "sweep": SWEEPS["lambda"]}
    elif section == "sweep":
        command, cfg = "sweep", {**TINY, "sweep": {**SWEEPS["noise"], **runs}}
    return command, json.loads(json.dumps(cfg))


def with_value(cfg: dict, section: str, key: str, value) -> dict:
    """`cfg` with section.key set to `value`, making the section if it is absent."""
    target = cfg
    for part in filter(None, section.split(".")):
        target = target.setdefault(part, {})
    target[key] = value
    return cfg


def schema_error(section: str, key: str, value) -> str | None:
    """The table's error for `value` at section.key, or None if the table takes it."""
    try:
        check_section(section, {key: value}, tables()[section])
    except ConfigError as exc:
        return str(exc)
    return None


def reject_constant(name: str):
    raise AssertionError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("section, key, name", CASES, ids=["-".join(case) for case in CASES])
def test_hostile_value(tmp_path, capsys, monkeypatch, runs, section, key, name):
    monkeypatch.delenv("CML_SEED", raising=False)
    value = values_for(tables()[section][key].kind)[name]
    command, cfg = base_config(section, key, runs)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(with_value(cfg, section, key, value)))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    expected = schema_error(section, key, value)
    if expected is not None:
        assert expected.startswith(f"{section}.{key}" if section else key)
        assert (code, err) == (1, [f"error: {expected}"])
    elif code == 1:
        assert len(err) == 1 and err[0].startswith("error: ")
    else:
        assert code == 0 and err == []
        for path in sorted(Path(out).rglob("*.json")):
            json.loads(path.read_text(encoding="ascii"), parse_constant=reject_constant)
    if code == 1:
        assert not out.exists()
