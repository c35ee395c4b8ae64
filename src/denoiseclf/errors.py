"""Every exception class the library defines, and the config field check.

The CLI maps them to its exit codes (``cli._ERROR_CATEGORIES``). The
modules that raise them import them from here, so the import paths next to
the code that raises (``denoiseclf.tokenizer.ConfigError`` and the like)
keep working.
"""

from __future__ import annotations

from functools import cache
from typing import get_args, get_origin, get_type_hints


class ParseError(ValueError):
    """Raised for malformed corpus lines; carries the 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class LabelError(ValueError):
    """Raised for class labels outside [0, C)."""


class DataError(ValueError):
    """Raised for empty or mismatched corpora and metric inputs."""


class UndefinedReferenceError(DataError):
    """Raised when a WER reference is empty (score undefined)."""


class CalibrationError(RuntimeError):
    """Raised when no probability scaling reaches the target noise level."""

    def __init__(self, target: float, achieved: float):
        super().__init__(
            f"could not reach target WER {target:.3f}; closest achieved "
            f"{achieved:.3f}")
        self.target = target
        self.achieved = achieved


class ConfigError(ValueError):
    """Raised for invalid tokenizer/encoder configuration."""


# a dataclass's field annotations as types, resolved once per class
field_types = cache(get_type_hints)


def check_fields(config) -> None:
    """Check each field against its annotation, else raise ConfigError: an
    int is not a bool, float or str; a float may be an int; ``X | None``
    may be None; tuple elements match their type; a list becomes a tuple."""
    for name, kind in field_types(type(config)).items():
        value = getattr(config, name)
        if get_origin(kind) is tuple and isinstance(value, list):
            object.__setattr__(config, name, value := tuple(value))
        _check(name, kind, value)
        for i, item in enumerate(value if get_origin(kind) is tuple else ()):
            _check(f"{name}[{i}]", get_args(kind)[0], item)


def _check(name: str, kind, value) -> None:
    want = get_args(kind)[0] if type(None) in get_args(kind) else kind
    if type(value) is want or value is None and want is not kind:
        return
    accepted = (int, float) if want is float else get_origin(want) or want
    if isinstance(value, bool) or not isinstance(value, accepted):
        what = (get_origin(want) or want).__name__
        article = "an" if what[0].lower() in "aeiou" else "a"
        raise ConfigError(f"{name} must be {article} {what}, got {value!r}")


class VocabError(ValueError):
    """Raised for token ids outside the vocabulary."""


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class DegenerateAxisError(ValueError):
    """Raised when an op needs an axis of length >= 2 but got length 1."""


class OptimizerError(RuntimeError):
    """Raised when the optimizer is stepped without populated gradients."""


class NonFiniteError(ArithmeticError):
    """Raised when a training loss, an optimizer step's gradient or a
    parameter about to be saved is NaN or infinite, before anything is
    written."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class MigrationError(CheckpointError):
    """Raised for an unsupported format version."""


class CorruptionError(CheckpointError):
    """Raised when the file is truncated, fails its checksum or holds a
    non-finite array."""
