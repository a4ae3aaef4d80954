"""Exception types shared across the toolkit."""

from __future__ import annotations


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


def check_section(name: str, section, known, required=()) -> dict:
    """Return a config section (a JSON object) after checking its keys against `known`/`required`.

    Errors name the key by its dotted path, e.g. "model.hiden_dim: unknown key".
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {section!r}")
    for key in section:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{name}.{key}: missing key")
    return section


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
