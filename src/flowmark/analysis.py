"""Closed-form false-positive bounds for the multi-flow clear-interval attack.

An attacker confronted with per-flow offsets in [0, o_max] on a step-delta
grid must try ceil(o_max / delta) alignments per flow.  The chance that a
fixed window is clear by accident in all of k independent flows is p^k, so
the false-positive probability of the whole search is bounded by
(ceil(o_max / delta) * p)^k.  Everything here is elementary arithmetic on
that expression: evaluating it, inverting it for the smallest adequate k,
and locating the o_max beyond which no k suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import BadParameter, SearchSpaceTooLarge

# Ratios that land within this relative distance of an integer are treated
# as exact before ceiling, so 0.9 / 0.3 = 3.0000000000000004 does not
# inflate a multiplier.
_SNAP_REL = 1e-9


def ceil_snapped(x: float) -> int:
    """Ceiling with a snap-to-integer guard against float division noise."""
    if not math.isfinite(x):
        raise SearchSpaceTooLarge(f"step count {x} overflows: a length is too large for its step")
    nearest = round(x)
    if abs(x - nearest) <= _SNAP_REL * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def offset_multiplier(o_max: float, delta: float) -> int:
    """Number of offset alignments an attacker must try per flow.

    o_max = 0 means a single fixed offset, reported as multiplier 1.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise BadParameter(f"delta must be positive, got {delta}")
    if o_max < 0 or not math.isfinite(o_max):
        raise BadParameter(f"o_max must be non-negative, got {o_max}")
    if o_max == 0:
        return 1
    return max(1, ceil_snapped(o_max / delta))


# Most offsets one attack search or detector sweep tries per flow: each is
# a list entry, and the Monte Carlo kernel's arrays grow with their count.
MAX_OFFSETS = 10**4


def check_offset_count(count: int) -> int:
    """The count of offsets a search or sweep tries per flow, if within MAX_OFFSETS."""
    if count > MAX_OFFSETS:
        raise SearchSpaceTooLarge(
            f"{count} offsets per flow exceed the cap of {MAX_OFFSETS}: raise delta or lower o_max"
        )
    return count


class FpBound(NamedTuple):
    """(multiplier * p)^k both as computed and clamped into [0, 1]."""

    raw: float
    clamped: float


def fp_bound(k: int, p: float, multiplier: int = 1) -> FpBound:
    """Probability bound (multiplier * p)^k on a k-flow attack false positive.

    Evaluated in log space so large k cannot underflow stepwise; the raw
    value may exceed 1 when multiplier * p >= 1, the clamp never does.
    """
    if k < 1:
        raise BadParameter(f"k must be at least 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise BadParameter(f"p must be in [0, 1], got {p}")
    if multiplier < 1:
        raise BadParameter(f"multiplier must be at least 1, got {multiplier}")
    base = multiplier * p
    try:
        raw = math.exp(k * math.log(base)) if base else 0.0
    except OverflowError:  # base > 1 at large k, or an integer k past the float range
        raw = 0.0 if base < 1.0 else 1.0 if base == 1.0 else math.inf
    return FpBound(raw=raw, clamped=min(raw, 1.0))


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Smallest k pushing the bound below epsilon, or proof that none exists.

    multiplier is ceil(o_max / delta) and base is multiplier * p.  When
    base >= 1 the bound never decays, so min_k and fp_bound_at_min_k (the
    raw bound at min_k) are None.  threshold_o_max is the offset span at
    which base reaches 1 (delta / p): keeping o_max above it defeats the
    attack.
    """

    feasible: bool
    multiplier: int
    base: float
    min_k: Optional[int]
    fp_bound_at_min_k: Optional[float]
    threshold_o_max: float


def min_flows(epsilon: float, o_max: float, delta: float, p: float) -> FeasibilityVerdict:
    """Smallest k with (multiplier * p)^k < epsilon, by logs with a power re-check."""
    if not 0.0 < epsilon < 1.0:
        raise BadParameter(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 <= p <= 1.0:
        raise BadParameter(f"p must be in [0, 1], got {p}")
    multiplier = offset_multiplier(o_max, delta)
    base = multiplier * p
    threshold = math.inf if p == 0.0 else delta / p
    if base >= 1.0:
        return FeasibilityVerdict(False, multiplier, base, None, None, threshold)
    if base == 0.0:
        k = 1
    else:
        # log(base) < 0 flips the inequality: k > log(epsilon) / log(base).
        k = max(1, math.floor(math.log(epsilon) / math.log(base)) + 1)
    raw = fp_bound(k, p, multiplier).raw
    while raw >= epsilon:
        k += 1
        raw = fp_bound(k, p, multiplier).raw
    while k > 1 and (lower := fp_bound(k - 1, p, multiplier).raw) < epsilon:
        k -= 1
        raw = lower
    return FeasibilityVerdict(True, multiplier, base, k, raw, threshold)


def _check_half_window(T: float, p_half: float) -> None:
    if T <= 0 or not math.isfinite(T):
        raise BadParameter(f"interval length must be positive, got {T}")
    if not 0.0 < p_half <= 1.0:
        raise BadParameter(f"clear probability at T/2 must be in (0, 1], got {p_half}")


def countermeasure_threshold(T: float, p_half: float) -> float:
    """Offset span above which varying offsets defeats the attack outright.

    With detector step delta = T/2 the attack is infeasible once
    ceil(o_max / (T/2)) * p_half >= 1; the smooth form of that boundary
    is o_max = T / (2 * p_half).
    """
    _check_half_window(T, p_half)
    return T / (2.0 * p_half)


def countermeasure_is_effective(o_max: float, T: float, p_half: float) -> bool:
    """True when the discrete bound base ceil(o_max / (T/2)) * p_half is >= 1."""
    _check_half_window(T, p_half)
    return offset_multiplier(o_max, T / 2.0) * p_half >= 1.0
