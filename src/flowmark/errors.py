"""Exception types shared across the toolkit.

Every error raised by the library proper derives from FlowmarkError so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class FlowmarkError(Exception):
    """Base class for all toolkit errors."""


class FlowFileError(FlowmarkError):
    """Malformed flow file or manifest; the message names the file (and line)."""


class FlowTooShort(FlowmarkError):
    """Flow does not span the watermark window."""


class SearchSpaceTooLarge(FlowmarkError):
    """An offset count, the window grid or a search count would exceed its cap."""


class ConfigError(FlowmarkError):
    """Malformed configuration: unknown section/key, bad value, missing entry."""


class InfeasibleScenario(FlowmarkError):
    """Requested experiment cannot succeed for the configured parameters."""


class BadParameter(FlowmarkError, ValueError):
    """A parameter outside the values its use allows: a non-positive length,
    duration, quantum, count or offset step delta, a window longer than its
    flow, a fraction or probability outside its range (such as (0, 1)), an
    unknown attack method, or a model that cannot generate flows."""


class BadSeed(FlowmarkError, ValueError, TypeError):
    """Seed not an unsigned 64-bit int, or a seed component of the wrong type."""
