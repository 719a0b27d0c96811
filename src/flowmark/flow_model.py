"""Packet flows and the probability that a time window of a flow is clear.

A flow is a finite list of packet timestamps inside [0, duration].  The
quantity everything else builds on is the clear probability: the chance
that a window of given length contains no packet.  For a Poisson flow
with rate lam this is exp(-lam * t); measured traffic is described by a
small interpolation table instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BadParameter, FlowFileError, SearchSpaceTooLarge
from .seeds import block_exponentials, seeded_generators


def _canonical_timestamps(timestamps: Iterable[float]) -> np.ndarray:
    """Sort timestamps (stable) and break exact ties by the smallest float step.

    Ties are resolved in insertion order: the later duplicate is nudged just
    above the earlier one, so packet identity is preserved and the result is
    strictly increasing.
    """
    # Always a copy: Flow freezes the result, never the caller's array.
    if isinstance(timestamps, np.ndarray):
        arr = np.array(timestamps, dtype=float)
    else:
        arr = np.array(list(timestamps), dtype=float)
    if arr.ndim != 1:
        raise BadParameter("timestamps must be a one-dimensional sequence")
    if not np.isfinite(arr).all():
        raise BadParameter("timestamps must be finite")
    if (arr[1:] < arr[:-1]).any():
        arr = arr[np.argsort(arr, kind="stable")]
    if not (arr[1:] > arr[:-1]).all():
        # arr[i] = max(arr[i], nextafter(arr[i-1], inf)) in sequence, run on the
        # ordered-integer image of the floats: both zeros map to 0 and a float
        # step is +1.  A moved image at or below 0 follows a negative value.
        lowest = np.iinfo(np.int64).min
        bits = arr.view(np.int64)
        key = np.where(bits < 0, lowest - bits, bits)
        steps = np.arange(arr.size)
        image = np.maximum.accumulate(key - steps) + steps
        moved = image != key
        arr[moved] = np.where(image > 0, image, lowest - image)[moved].view(float)
        if not math.isfinite(arr[-1]):
            raise BadParameter("timestamps must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Flow:
    """An ordered packet-timestamp trace observed over [0, duration] seconds."""

    timestamps: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise BadParameter(f"duration must be positive, got {self.duration}")
        arr = _canonical_timestamps(self.timestamps)
        if arr.size:
            if arr[0] < 0.0:
                raise BadParameter(f"timestamp {arr[0]} is negative")
            if arr[-1] > self.duration:
                # Tie perturbation can overshoot by a few ulps; genuine
                # out-of-range inputs are rejected, ulp overshoot extends
                # the duration instead.
                raw_max = float(np.max(np.asarray(self.timestamps, dtype=float)))
                if raw_max > self.duration:
                    raise BadParameter(
                        f"timestamp {raw_max} exceeds duration {self.duration}"
                    )
                object.__setattr__(self, "duration", float(arr[-1]))
        arr.flags.writeable = False
        object.__setattr__(self, "timestamps", arr)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        return self.duration == other.duration and np.array_equal(
            self.timestamps, other.timestamps
        )


@dataclass(frozen=True)
class PoissonModel:
    """Memoryless flow: inter-packet gaps are i.i.d. exponential(rate)."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise BadParameter(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class EmpiricalModel:
    """Clear probability given by linear interpolation over measured points.

    The table maps window length (seconds) to clear probability and must be
    non-increasing: longer windows cannot be clear more often.
    """

    table: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(p)) for t, p in self.table)
        if not pts:
            raise BadParameter("empirical table must not be empty")
        for t, p in pts:
            if t < 0 or not math.isfinite(t):
                raise BadParameter(f"window length {t} must be finite and non-negative")
            if not 0.0 <= p <= 1.0:
                raise BadParameter(f"probability {p} outside [0, 1]")
        ts = [t for t, _ in pts]
        if sorted(set(ts)) != ts:
            raise BadParameter("window lengths must be strictly increasing")
        ps = [p for _, p in pts]
        if any(b > a for a, b in zip(ps, ps[1:])):
            raise BadParameter("clear probabilities must be non-increasing in t")
        object.__setattr__(self, "table", pts)

    def lookup(self, t: float) -> float:
        """Interpolated clear probability, 1 at t = 0 and the last point's past the table;
        an error between 0 and the first point, where any value could under-state it."""
        ts = [x for x, _ in self.table]
        ps = [p for _, p in self.table]
        if t == 0.0:
            return 1.0  # an empty window cannot contain a packet
        if not t >= ts[0]:
            raise BadParameter(f"window length {t} is below the table's first point {ts[0]}")
        if t >= ts[-1]:
            return ps[-1]
        i = bisect_left(ts, t)
        if ts[i] == t:
            return ps[i]
        frac = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return ps[i - 1] + frac * (ps[i] - ps[i - 1])


FlowModel = Union[PoissonModel, EmpiricalModel]

# Measured clear probabilities used throughout the reference worked examples:
# a 175 ms window is clear with probability 0.525, 350 ms with 0.33,
# 450 ms with 0.276.
REFERENCE_CLEAR_TABLE = EmpiricalModel(
    table=((0.175, 0.525), (0.35, 0.33), (0.45, 0.276))
)


# Most packets one flow is expected to hold: 10**7 arrivals are 80 MB.
MAX_FLOW_PACKETS = 10**7
# Most window starts one clear-probability estimate samples, 80 MB per array.
MAX_WINDOW_SAMPLES = 10**7


def draw_width(model: FlowModel, duration: float) -> int:
    """Gaps drawn first for one flow: the expected packet count plus 4 sigma plus 16.

    Also the check that the model can generate a flow of this duration.
    """
    if not isinstance(model, PoissonModel):
        raise BadParameter(
            f"{type(model).__name__} describes probabilities only and cannot generate flows"
        )
    if not math.isfinite(duration) or duration <= 0:
        raise BadParameter(f"duration must be positive, got {duration}")
    expected = model.rate * duration
    if not expected <= MAX_FLOW_PACKETS:
        raise BadParameter(
            f"rate {model.rate} over duration {duration} expects {expected} packets, "
            f"more than the {MAX_FLOW_PACKETS} one flow may hold"
        )
    return max(16, int(expected + 4.0 * math.sqrt(expected) + 16))


# _draw draws blocks of at least _PASS_MIN_ROWS rows, each at most
# _PASS_MAX_WIDTH wide, first by one block_exponentials pass.  On 0.9 s rows
# (a pass of 7 columns) it broke even with a generator per row at 64-80 rows
# and took 0.7-0.8x the time at 128.  Past width 32 more rows fall back than
# the pass saves: at 15.3 s (width 86) 63% of rows did, and _draw took 2.1-2.2x as long.
_PASS_MIN_ROWS, _PASS_MAX_WIDTH = 64, 32


def _draw(model: FlowModel, duration: float, seeds: Sequence[int]) -> np.ndarray:
    """Raw arrival times, one row per seed.

    Row r draws draw_width gaps from default_rng(seeds[r])'s stream and, while
    its last arrival is not past duration, further chunks of a quarter of the
    last size (at least 16).  Shorter rows are padded with inf.

    A block the block_exponentials pass takes draws the expected count plus 2
    sigma plus 2 gaps of every row at once; a row whose draws are not sure up
    to its first arrival past duration is drawn again by its own generator.
    A row that needs later chunks is seeded again, skips its first chunk and draws on.
    """
    chunk = draw_width(model, duration)
    scale = 1.0 / model.rate
    arrivals = np.empty((len(seeds), chunk))
    redraw = range(len(seeds))
    if len(seeds) >= _PASS_MIN_ROWS and chunk <= _PASS_MAX_WIDTH:
        expected = model.rate * duration
        gaps, sure = block_exponentials(seeds, min(chunk, int(expected + 2.0 * math.sqrt(expected)) + 2))
        past = np.cumsum(gaps * scale, axis=1) > duration  # as the arrivals below are summed
        arrivals[:, : gaps.shape[1]] = gaps
        arrivals[:, gaps.shape[1] :] = math.inf
        redraw = np.flatnonzero(~(past & sure).any(axis=1)).tolist()
    for r, rng in zip(redraw, seeded_generators([seeds[r] for r in redraw])):
        rng.standard_exponential(out=arrivals[r])
    arrivals *= scale  # numpy's exponential(scale) is scale * standard_exponential()
    np.cumsum(arrivals, axis=1, out=arrivals)  # row by row, as the 1-D cumsum
    extra: dict[int, np.ndarray] = {}
    for r in np.flatnonzero(arrivals[:, -1] <= duration).tolist():
        rng = next(seeded_generators([seeds[r]]))
        rng.standard_exponential(chunk)  # the first chunk, drawn above
        times, size, total = [], chunk, float(arrivals[r, -1])
        while total <= duration:
            size = max(16, size // 4)
            times.append(total + np.cumsum(rng.exponential(scale=scale, size=size)))
            total = float(times[-1][-1])
        extra[r] = np.concatenate(times)
    if extra:
        width = chunk + max(map(len, extra.values()))
        arrivals = np.pad(arrivals, ((0, 0), (0, width - chunk)), constant_values=math.inf)
        for r, times in extra.items():
            arrivals[r, chunk : chunk + times.size] = times
    return arrivals


def generate_flow(model: FlowModel, duration: float, seed: int) -> Flow:
    """Synthesize a flow of the given duration from a generative model.

    Only Poisson models can generate; the draw is bit-identical for a
    given (model, duration, seed) triple.
    """
    arrivals = _draw(model, duration, [seed])[0]
    return Flow(timestamps=arrivals[arrivals < duration], duration=duration)


def generate_block(model: FlowModel, duration: float, seeds: Sequence[int]) -> np.ndarray:
    """One flow per seed, each bit-identical to generate_flow(model, duration, seed).

    Row r holds 0, flow r's timestamps, then its duration repeated to the end.
    Flow's checks run on all rows at once; a row that fails one (in practice
    a tie) is passed through Flow, which canonicalises it or raises.
    """
    arrivals = _draw(model, duration, seeds)
    edges = np.empty((len(seeds), arrivals.shape[1] + 2))
    edges[:, 0] = 0.0
    np.minimum(arrivals, duration, out=edges[:, 1:-1])
    edges[:, -1] = duration
    # Timestamps below duration are finite and sums of non-negative gaps (0 or
    # later), so Flow's one check left is a strict rise, which a tie breaks.
    ties = (edges[:, 2:-1] <= edges[:, 1:-2]) & (edges[:, 2:-1] < duration)
    for r in np.flatnonzero(ties.any(axis=1)).tolist():
        count = int(np.count_nonzero(edges[r, 1:-1] < duration))
        flow = Flow(timestamps=edges[r, 1 : count + 1], duration=duration)
        edges[r, 1 : count + 1] = flow.timestamps
        edges[r, count + 1 :] = flow.duration  # the tie-break may have grown the duration
    return edges


def clear_probability(model: FlowModel, t: float) -> float:
    """Probability that a window of length t seconds contains no packet."""
    if t < 0 or not math.isfinite(t):
        raise BadParameter(f"window length must be non-negative, got {t}")
    if isinstance(model, PoissonModel):
        return math.exp(-model.rate * t)
    return model.lookup(t)


def estimate_clear_probability(flow: Flow, t: float, stride: float) -> float:
    """Fraction of sampled windows [s, s+t) of the flow that are packet-free.

    Window starts step through {0, stride, 2*stride, ...} while s + t still
    fits inside the flow.  Overlapping strides are allowed and simply
    correlate neighbouring samples.  More than MAX_WINDOW_SAMPLES starts
    is an error.
    """
    if t <= 0 or not math.isfinite(t):
        raise BadParameter(f"window length must be positive, got {t}")
    if t > flow.duration:
        raise BadParameter(
            f"window {t} exceeds flow duration {flow.duration}"
        )
    if not 0 < stride <= t:
        raise BadParameter(f"stride must be in (0, t], got {stride}")
    # 1e-9 relative slack keeps the last on-grid start when (duration-t)/stride
    # is an exact multiple computed inexactly.
    steps = (flow.duration - t) / stride + 1e-9
    if not steps < MAX_WINDOW_SAMPLES:
        raise SearchSpaceTooLarge(
            f"a {flow.duration} s flow holds more than {MAX_WINDOW_SAMPLES} window "
            f"starts {stride} s apart"
        )
    n_windows = int(math.floor(steps)) + 1
    starts = np.arange(n_windows, dtype=float) * stride
    ts = flow.timestamps
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + t, side="left")
    return float(np.count_nonzero(hi == lo) / n_windows)


def poisson_rate_for_clear_probability(p: float, t: float) -> float:
    """Rate lam with exp(-lam * t) == p: calibrates Poisson to a measured point."""
    if not 0.0 < p < 1.0:
        raise BadParameter(f"clear probability must be in (0, 1), got {p}")
    if t <= 0 or not math.isfinite(t):
        raise BadParameter(f"window length must be positive, got {t}")
    return -math.log(p) / t


# ---------------------------------------------------------------------------
# Flow file format: a '# duration=<seconds>' header line, then one decimal
# timestamp per line in ascending order.
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "# duration="


def write_flow(flow: Flow, path: str | Path) -> None:
    """Write a flow to a text file, full float precision."""
    lines = [f"{_HEADER_PREFIX}{flow.duration!r}\n"]
    lines.extend(f"{t!r}\n" for t in flow.timestamps.tolist())
    Path(path).write_text("".join(lines), encoding="ascii")


def read_flow(path: str | Path) -> Flow:
    """Parse a flow file; malformed or unsorted input fails with the line number."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError:
        raise FlowFileError(f"{path}: not an ASCII flow file") from None
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise FlowFileError(f"{path}:1: expected header '{_HEADER_PREFIX}<seconds>'")
    try:
        duration = float(lines[0][len(_HEADER_PREFIX):])
    except ValueError:
        raise FlowFileError(f"{path}:1: malformed duration in header") from None
    if not 0.0 < duration < math.inf:
        raise FlowFileError(f"{path}:1: duration must be positive and finite, got {duration}")
    try:
        values = np.fromiter(map(float, filter(None, map(str.strip, lines[1:]))), dtype=float)
    except ValueError:
        values = None
    # Written so that nan fails the range check too.
    if (
        values is None
        or (values[1:] < values[:-1]).any()
        or not ((0.0 <= values) & (values <= duration)).all()
    ):  # Report the first bad line.
        prev = -math.inf
        for lineno, line in enumerate(lines[1:], start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                value = float(stripped)
            except ValueError:
                raise FlowFileError(f"{path}:{lineno}: not a timestamp: {stripped!r}") from None
            if value < prev:
                raise FlowFileError(
                    f"{path}:{lineno}: timestamps out of order ({value} after {prev})"
                )
            if not 0.0 <= value <= duration:
                raise FlowFileError(
                    f"{path}:{lineno}: timestamp {value} outside [0, {duration}]"
                )
            prev = value
    try:
        return Flow(timestamps=values, duration=duration)
    except BadParameter as exc:  # a tie nudged past the largest float
        raise FlowFileError(f"{path}: {exc}") from None
