"""Exception types shared across the toolkit, all under RankcalError, and the config checks.

A config table maps each key of a section to a Key: its JSON kind and bounds.
A value outside them fails as "<section>.<key>: expected <bound>, got <value>".
"""

from __future__ import annotations

import math
import types
import typing
from typing import Callable, NamedTuple


class RankcalError(Exception):
    """Base of every rankcal error: bad input, or a run that failed on it."""


class DimensionError(RankcalError, ValueError):
    """Operand shapes do not conform."""


class NumericError(RankcalError, ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class SpecError(RankcalError, ValueError):
    """Invalid model or dataset specification."""


class StateError(RankcalError, RuntimeError):
    """Inputs were produced by mismatched prior calls."""


class ConfigError(RankcalError, ValueError):
    """Invalid configuration value."""


class Bound(NamedTuple):
    """A condition on a value beyond its kind; `text` completes "expected ..."."""

    text: str
    test: Callable[[object], bool]

    def check(self, section: str, key: str, value) -> None:
        """Fail unless `value` passes, naming it <section>.<key>, or <key> with no section."""
        if not self.test(value):
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"{path}: expected {self.text}, got {value!r}")


AT_LEAST_1 = Bound("an int >= 1", lambda v: v >= 1)
AT_LEAST_2 = Bound("an int >= 2", lambda v: v >= 2)
NON_NEGATIVE = Bound("an int >= 0", lambda v: v >= 0)
# The float bounds are finite: NaN and infinity fail every comparison below.
FINITE_NON_NEGATIVE = Bound("a finite value >= 0", lambda v: 0 <= v < math.inf)
FINITE_POSITIVE = Bound("a finite value > 0", lambda v: 0 < v < math.inf)
OPEN_FRACTION = Bound("a value in (0, 1)", lambda v: 0 < v < 1)
# A NUL byte makes every file call raise a bare ValueError.
PATH = Bound("a path without NUL bytes", lambda v: "\0" not in v)
NON_EMPTY = Bound("a non-empty list", lambda v: len(v) >= 1)
TWO_OR_MORE = Bound("at least 2 entries", lambda v: len(v) >= 2)


def one_of(*choices: str) -> Bound:
    """The bound of a string that must be one of `choices`."""
    return Bound("one of " + ", ".join(map(repr, choices)), choices.__contains__)


class Key(NamedTuple):
    """One config key: its JSON kind, the bound on its value (on each entry of a
    list), and the bound on a list's length."""

    kind: object
    bound: Bound | None = None
    size: Bound | None = None


def check_section(name: str, section, schema: dict, required=()) -> dict:
    """read_section, then check_bounds: the section's values, each of its kind and in bounds."""
    values = read_section(name, section, schema, required)
    check_bounds(name, values, schema)
    return values


def read_section(name: str, section, schema: dict, required=()) -> dict:
    """A config section's values (a JSON object's), each as its kind in `schema` (key -> Key).

    Unknown, missing and mistyped keys fail naming their dotted path, e.g. "model.hiden_dim:
    unknown key" (the bare key if `name` is empty, at the top level); bounds go unchecked.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {section!r}")
    prefix = f"{name}." if name else ""
    for key in section:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{prefix}{key}: missing key")
    return {key: _check_value(prefix + key, v, schema[key].kind) for key, v in section.items()}


def check_bounds(name: str, values: dict, schema: dict) -> None:
    """Fail naming the first of `values` (key -> value) outside its bounds; kinds go unchecked."""
    for key, value in values.items():
        _, bound, size = schema[key]
        if size is not None:
            size.check(name, key, value)
        if bound is None:
            continue
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                bound.check(name, f"{key}[{i}]", item)
        else:
            bound.check(name, key, value)


def _check_value(path: str, raw, kind):
    """Return the JSON value `raw` as `kind`, or fail naming `path`.

    `kind` is bool, int, float (which also takes an int), str or dict, `list[T]`
    of any kind, or a union such as `int | list[int]`. A bool is never taken
    for a number. A numpy array or scalar is taken as its Python value and a
    tuple as a list, as a config class built in Python may hold them.
    """
    raw = raw.tolist() if hasattr(raw, "tolist") else raw
    for option in typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,):
        if typing.get_origin(option) is list:
            if isinstance(raw, (list, tuple)):
                (item,) = typing.get_args(option)
                return [_check_value(f"{path}[{i}]", v, item) for i, v in enumerate(raw)]
        elif isinstance(raw, bool) == (option is bool) and isinstance(
            raw, (int, float) if option is float else option
        ):
            return option(raw)
    expected = kind.__name__ if isinstance(kind, type) else str(kind)
    expected = "a JSON object" if kind is dict else expected
    raise ConfigError(f"{path}: expected {expected}, got {raw!r}")


class DomainError(RankcalError, ValueError):
    """Argument outside its mathematical domain."""


class EmptyInputError(RankcalError, ValueError):
    """An operation that needs at least one element got none."""


class CapabilityError(RankcalError, ValueError):
    """Request exceeds a documented operational limit."""


class ParseError(RankcalError, ValueError):
    """Malformed input file; carries the offending location."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class DivergenceError(RankcalError, RuntimeError):
    """Training produced a non-finite loss or a floating-point error.

    A floating-point error is an overflow, a division by zero or an invalid
    operation. `reason` describes what went wrong when the loss alone does not.
    """

    def __init__(self, epoch: int, batch: int, loss: float, reason: str | None = None):
        reason = reason or f"non-finite loss {loss!r}"
        super().__init__(f"{reason} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


class SweepError(RankcalError, RuntimeError):
    """Every run in a sweep failed."""


class SplitError(RankcalError, ValueError):
    """Dataset cannot be split as requested."""
