"""Exception types shared across the toolkit.

Every error raised by the library proper derives from FlowmarkError so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class FlowmarkError(Exception):
    """Base class for all toolkit errors."""


class FlowFileError(FlowmarkError):
    """Malformed flow file or manifest; the message names the file (and line)."""


class NonGenerativeModel(FlowmarkError):
    """A flow model that cannot synthesize flows was asked to generate one."""


class InvalidDuration(FlowmarkError):
    """Flow duration must be positive, with a finite expected packet count."""


class NegativeWindow(FlowmarkError):
    """Window length must be positive."""


class WindowTooLong(FlowmarkError):
    """Window length exceeds the flow duration."""


class BadFraction(FlowmarkError):
    """clear_fraction must lie in (0, 1)."""


class FlowTooShort(FlowmarkError):
    """Flow does not span the watermark window."""


class SearchSpaceTooLarge(FlowmarkError):
    """Offset enumeration or the window grid would exceed its cap."""


class BadDelta(FlowmarkError):
    """Offset step delta must be positive."""


class BadProbability(FlowmarkError):
    """Probability outside the range its use allows, such as (0, 1] or (0, 1)."""


class ConfigError(FlowmarkError):
    """Malformed configuration: unknown section/key, bad value, missing entry."""


class InfeasibleScenario(FlowmarkError):
    """Requested experiment cannot succeed for the configured parameters."""


class BadParameter(FlowmarkError, ValueError):
    """A parameter outside the values its use allows: a non-positive length,
    quantum or count, an epsilon outside (0, 1), an unknown attack method."""


class BadSeed(FlowmarkError, ValueError, TypeError):
    """Seed not an unsigned 64-bit int, or a seed component of the wrong type."""
