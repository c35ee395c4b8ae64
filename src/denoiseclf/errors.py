"""Every exception class the library defines, in one place.

The CLI maps them to its exit codes (``cli._ERROR_CATEGORIES``). The
modules that raise them import them from here, so the import paths next to
the code that raises (``denoiseclf.tokenizer.ConfigError`` and the like)
keep working.
"""

from __future__ import annotations


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
