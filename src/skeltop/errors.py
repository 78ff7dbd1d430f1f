"""Exception hierarchy and positive-and-finite parameter check shared by all skeltop modules.

The CLI maps these onto exit codes: anything derived from
:class:`SkeltopError` is a validation failure (exit 2), plain OS-level
errors are I/O failures (exit 1).
"""

import math


class SkeltopError(Exception):
    """Base class for all skeltop errors."""


class ValidationError(SkeltopError):
    """Invalid parameter, shape mismatch, or violated invariant."""


class ParseError(SkeltopError):
    """Malformed input file; the message names the file, line or field."""


class EmptyGraphError(ValidationError):
    """An operation that requires non-empty graphs received an empty one."""


class UndefinedMetricError(SkeltopError):
    """The metric is undefined for this input (e.g. an empty mask)."""


class GenerationError(SkeltopError):
    """A synthetic fixture cannot be generated from the given spec."""


def check_positive_finite(name, value):
    """Raise ValidationError unless value is a finite number above 0 (NaN fails)."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value}")
