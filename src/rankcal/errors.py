"""Exception types shared across the toolkit."""

from __future__ import annotations

import types
import typing


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class MaskError(ValueError):
    """Invalid modality subset mask."""


class SpecError(ValueError):
    """Invalid model or dataset specification."""


class StateError(RuntimeError):
    """Inputs were produced by mismatched prior calls."""


class ConfigError(ValueError):
    """Invalid configuration value."""


def check_section(name: str, section, schema: dict, required=()) -> dict:
    """Check a config section (a JSON object) against `schema`, a key -> kind map.

    Returns the section's values, each converted by _check_value. Unknown,
    missing and mistyped keys fail naming the key by its dotted path, e.g.
    "model.hiden_dim: unknown key" or "model.hidden_dim: expected int, got 'x'".
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {section!r}")
    for key in section:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{name}.{key}: missing key")
    return {key: _check_value(f"{name}.{key}", raw, schema[key]) for key, raw in section.items()}


def _check_value(path: str, raw, kind):
    """Return the JSON value `raw` as `kind`, or fail naming `path`.

    `kind` is bool, int, float (which also takes an int), str or dict, `list[T]`
    of one of those, or a union such as `int | list[int]`. A bool is never
    taken for a number.
    """
    for option in typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,):
        if typing.get_origin(option) is list:
            if isinstance(raw, list):
                (item,) = typing.get_args(option)
                return [_check_value(f"{path}[{i}]", v, item) for i, v in enumerate(raw)]
        elif isinstance(raw, bool) == (option is bool) and isinstance(
            raw, (int, float) if option is float else option
        ):
            return option(raw)
    expected = kind.__name__ if isinstance(kind, type) else str(kind)
    raise ConfigError(f"{path}: expected {expected}, got {raw!r}")


class DomainError(ValueError):
    """Argument outside its mathematical domain."""


class EmptyInputError(ValueError):
    """An operation that needs at least one element got none."""


class CapabilityError(ValueError):
    """Request exceeds a documented operational limit."""


class ParseError(ValueError):
    """Malformed input file; carries the offending location."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


class SweepError(RuntimeError):
    """Every run in a sweep failed."""


class SplitError(ValueError):
    """Dataset cannot be split as requested."""
