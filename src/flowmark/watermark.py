"""Interval watermark: clear a keyed subset of intervals, detect by re-sync.

The timeline [o, o + n*T) of a flow is split into n intervals of length T
starting at offset o.  Embedding delays every packet out of a keyed subset
of intervals, leaving them silent.  The detector does not know o; it sweeps
candidate offsets spaced delta apart and declares a match only when every
watermark interval is silent at some candidate.  To survive an offset
mismatch the detector inspects the centered sub-window of length T - delta
of each interval rather than the full interval.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import ceil_snapped, check_offset_count
from .errors import BadParameter, FlowTooShort
from .flow_model import Flow
from .seeds import check_seed, derive_seed


@dataclass(frozen=True)
class WatermarkParams:
    """Embedding parameters.

    T: interval length (seconds); o: embedding offset; o_max: largest offset
    the embedder may use (the detector sweeps [0, o_max]); delta: detector
    offset step; n: number of intervals; key: pattern key; clear_fraction:
    fraction of intervals to clear.
    """

    T: float
    o: float
    o_max: float
    delta: float
    n: int
    key: int
    clear_fraction: float

    def __post_init__(self) -> None:
        if self.T <= 0 or not math.isfinite(self.T):
            raise BadParameter(f"interval length must be positive, got {self.T}")
        if self.o_max < 0 or not math.isfinite(self.o_max):
            raise BadParameter(f"o_max must be non-negative, got {self.o_max}")
        if not 0 <= self.o <= self.o_max:
            raise BadParameter(
                f"offset must lie in [0, o_max={self.o_max}], got {self.o}"
            )
        if not 0 < self.delta <= self.T or not math.isfinite(self.delta):
            raise BadParameter(f"delta must be in (0, T={self.T}], got {self.delta}")
        if self.n < 1:
            raise BadParameter(f"interval count must be at least 1, got {self.n}")
        check_seed(self.key)
        if not 0.0 < self.clear_fraction < 1.0:
            raise BadParameter(
                f"clear_fraction must be in (0, 1), got {self.clear_fraction}"
            )
        try:
            end = self.o_max + self.n * self.T
        except OverflowError:  # an integer n past the float range
            end = math.inf
        if not math.isfinite(end):
            raise BadParameter("window end o_max + n * T is not a finite number")

    def pattern(self) -> "ClearPattern":
        return self._pattern

    @functools.cached_property
    def _pattern(self) -> "ClearPattern":
        # Derived once per instance: the frozen fields fix it, and it costs O(n).
        return derive_pattern(self.key, self.n, self.clear_fraction)


@dataclass(frozen=True)
class ClearPattern:
    """The keyed subset of interval indices the embedder silences."""

    n: int
    cleared: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParameter(f"interval count must be at least 1, got {self.n}")
        object.__setattr__(self, "cleared", frozenset(self.cleared))
        if not self.cleared:
            raise BadParameter("pattern must clear at least one interval")
        if not all(0 <= i < self.n for i in self.cleared):
            raise BadParameter("cleared indices must lie in [0, n)")


@dataclass(frozen=True)
class DetectionResult:
    """Detector verdict, the offset it matched at, and the best silent fraction."""

    detected: bool
    recovered_offset: Optional[float]
    match_score: float


def derive_pattern(key: int, n: int, clear_fraction: float) -> ClearPattern:
    """Pseudorandom size-ceil(clear_fraction * n) subset, deterministic in key."""
    check_seed(key)
    if n < 1:
        raise BadParameter(f"interval count must be at least 1, got {n}")
    if not 0.0 < clear_fraction < 1.0:
        raise BadParameter(f"clear_fraction must be in (0, 1), got {clear_fraction}")
    size = max(1, ceil_snapped(clear_fraction * n))
    rng = random.Random(derive_seed(key, "pattern", n, clear_fraction))
    cleared = frozenset(rng.sample(range(n), size))
    return ClearPattern(n=n, cleared=cleared)


def embed(flow: Flow, params: WatermarkParams) -> Flow:
    """Delay every packet out of the cleared intervals of the keyed pattern.

    A delayed packet moves to the start of the next non-cleared region
    (possibly the end of the watermark window); relative order is kept and
    exact collisions are separated by the canonical tie step.  A packet's
    interval is floor((t - o) / T), snapped to the nearest boundary when
    within 1e-9 relative of it to absorb ulp-level noise.
    """
    window_end = params.o + params.n * params.T
    if flow.duration < window_end:
        raise FlowTooShort(
            f"flow duration {flow.duration} is shorter than the watermark window "
            f"end {window_end}"
        )
    o, T, n = params.o, params.T, params.n
    # Index n stands for the window end, which is never cleared.
    cleared = np.zeros(n + 1, dtype=bool)
    cleared[list(params.pattern().cleared)] = True
    open_index = np.flatnonzero(~cleared)
    ts = flow.timestamps
    q = (ts - o) / T
    nearest = np.round(q)
    snap = np.abs(q - nearest) <= 1e-9 * np.maximum(1.0, np.abs(q))
    index = np.where(snap, nearest, np.floor(q))
    pos = np.flatnonzero((ts >= o) & (index >= 0) & (index < n))
    pos = pos[cleared[index[pos].astype(np.intp)]]
    out = ts.copy()
    out[pos] = o + open_index[np.searchsorted(open_index, index[pos])] * T
    return Flow(timestamps=out, duration=flow.duration)


def offset_candidates(o_max: float, delta: float) -> list[float]:
    """Detector sweep grid {0, delta, 2*delta, ...} with o_max always included.

    More than MAX_OFFSETS candidates is an error.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise BadParameter(f"delta must be positive, got {delta}")
    if o_max < 0 or not math.isfinite(o_max):
        raise BadParameter(f"o_max must be non-negative, got {o_max}")
    steps = ceil_snapped(o_max / delta) if o_max > 0 else 0
    check_offset_count(steps + 1)
    candidates = [i * delta for i in range(steps)]
    candidates.append(o_max)
    return candidates


def detect(flow: Flow, params: WatermarkParams) -> DetectionResult:
    """Scan candidate offsets for a full pattern match; params.o is ignored.

    At each candidate the centered length-(T - delta) sub-window of every
    cleared interval must be silent; the first candidate matching all of
    them wins.  match_score is the best fraction of silent intervals seen.
    """
    needed = params.o_max + params.n * params.T
    if flow.duration < needed:
        raise FlowTooShort(
            f"flow duration {flow.duration} is shorter than the detector span {needed}"
        )
    cleared = np.array(sorted(params.pattern().cleared), dtype=float)
    margin = params.delta / 2.0
    ts = flow.timestamps
    best = 0.0
    for candidate in offset_candidates(params.o_max, params.delta):
        # Interval i is silent when no packet lies in [lo[i], hi[i]), empty if lo > hi.
        lo = candidate + cleared * params.T + margin
        hi = candidate + (cleared + 1) * params.T - margin
        silent = np.searchsorted(ts, hi, side="left") <= np.searchsorted(ts, lo, side="left")
        score = int(np.count_nonzero(silent)) / cleared.size
        if score == 1.0:
            return DetectionResult(detected=True, recovered_offset=candidate, match_score=1.0)
        best = max(best, score)
    return DetectionResult(detected=False, recovered_offset=None, match_score=best)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise BadParameter("trials must be positive")
    if not 0 <= successes <= trials:
        raise BadParameter("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)

