"""Multi-flow attack: find clear windows common to flows that may be offset.

If several flows carry the same interval watermark, their cleared intervals
line up once each flow's unknown offset is guessed.  The attack therefore
searches, over per-flow offset guesses from a step-delta grid, for a window
of length at least T - delta that is packet-free in every flow.  Every method
runs one branch-and-bound search over the offsets attack_plan gives it;
exhaustive reports the count a lexicographic enumeration would make, computed
from the hit, at any k.  Windows are snapped inward to a small time quantum,
in one vectorised numpy pass over all flows covering every offset shift, so
the grid search can only shrink what is really clear and never reports a
window containing a packet.  The Monte Carlo driver needs only verdicts:
common_starts adds a flow to every trial of a block at once and keeps the
grid starts each trial's flows share, from the same grid windows, with the
search's answer but no window lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import ceil_snapped, check_offset_count, fp_bound, offset_multiplier
from .errors import BadParameter, FlowFileError, SearchSpaceTooLarge
from .flow_model import Flow, estimate_clear_probability


@dataclass(frozen=True)
class AttackConfig:
    """Attack parameters: interval length T, detector step delta, offset span
    o_max, target false-positive epsilon, and the snapping quantum (defaults
    to delta / 8; must not exceed delta / 4 so snapping losses stay well
    below the detector's own tolerance)."""

    T: float
    delta: float
    o_max: float
    epsilon: float
    quantum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.T <= 0 or not math.isfinite(self.T):
            raise BadParameter(f"interval length must be positive, got {self.T}")
        if not 0 < self.delta <= self.T or not math.isfinite(self.delta):
            raise BadParameter(f"delta must be in (0, T={self.T}], got {self.delta}")
        if self.o_max < 0 or not math.isfinite(self.o_max):
            raise BadParameter(f"o_max must be non-negative, got {self.o_max}")
        if not 0.0 < self.epsilon < 1.0:
            raise BadParameter(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.quantum is None:
            object.__setattr__(self, "quantum", self.delta / 8.0)
        if not 0 < self.quantum <= self.delta / 4.0:
            raise BadParameter(
                f"quantum must be in (0, delta/4={self.delta / 4.0}], got {self.quantum}"
            )

    @property
    def min_length(self) -> float:
        return self.T - self.delta


@dataclass(frozen=True)
class AttackFinding:
    """Outcome of one attack run.

    matched_window is (start, length) on the common (offset-corrected) time
    axis, present only for positive verdicts.  configurations_searched counts
    complete assignments evaluated plus branches pruned, so it never exceeds
    multiplier ** k; for the exhaustive method it is what a lexicographic
    enumeration would count: the hit's rank + 1, or multiplier ** k when
    absent, computed from the branch-and-bound hit.  fp_bound_at_k is the
    analytic bound for the searched configuration.
    """

    present: bool
    matched_window: Optional[tuple[float, float]]
    offset_assignment: Optional[tuple[float, ...]]
    configurations_searched: int
    fp_bound_at_k: float


def _span(top: float, shifts: np.ndarray, quantum: float) -> float:
    """Seconds from 0 a grid index reaches for edges up to top; past 2**62 quanta, an error."""
    # Python floats: an overflow to inf fails the check without a numpy warning.
    span = float(top) + float(np.abs(shifts).max())
    if not span / quantum < 2.0**62:
        raise SearchSpaceTooLarge("flows span more than the 2**62 quanta the grid indexes")
    return span


def _snap(
    s: np.ndarray, e: np.ndarray, shifts: np.ndarray, quantum: float, min_units: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid windows (lo, hi) of every gap (s, e) at every shift, and which to keep.

    Row j snaps each gap, shifted by -shifts[j], inward onto the quantum grid.
    The guard loops re-check the final float expressions the soundness audit
    uses, so a unit of rounding noise can only shrink a window further.  A
    gap that runs backwards snaps to nothing.  keep marks windows at least
    min_units long.  The flows' _span is checked before any snapping.
    """
    sh = shifts[:, None]
    lo = np.ceil((s - sh) / quantum).astype(np.int64)
    while (short := lo * quantum + sh < s).any():
        lo += short
    hi = np.floor((e - sh) / quantum).astype(np.int64)
    while (over := hi * quantum + sh > e).any():
        hi -= over
    return lo, hi, (hi > lo) & (hi - lo >= min_units)


def _grid_windows(
    edges: np.ndarray, span: float, cfg: AttackConfig, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid windows of the gaps between consecutive edges, at every shift.

    edges holds, per flow, 0, its timestamps and its duration; the gap from
    one flow's duration to the next flow's 0 runs backwards: it gives none.
    span is the flows' _span, which the caller has checked.
    Only gaps max(m, 1) quanta long (m = _min_units(cfg)), less a rounding
    slack, are snapped: snapping only shrinks a gap and a shift keeps its
    length, so a shorter gap never gives a kept window.  Returns the index
    in edges of each snapped gap's start, then _snap's lo, hi and keep.
    """
    m = _min_units(cfg)
    # Rounding moves a snapped end by far less than 1e-12 of the largest magnitude.
    gap = np.flatnonzero(edges[1:] - edges[:-1] >= max(m, 1) * cfg.quantum - 1e-12 * span)
    return (gap, *_snap(edges[gap], edges[gap + 1], shifts, cfg.quantum, m))


class CommonStarts(NamedTuple):
    """Disjoint runs [lo, hi) of grid starts per trial, sorted by trial, then lo."""

    trial: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def common_starts(
    edges: np.ndarray,
    cfg: AttackConfig,
    shifts: Sequence[float],
    trials: np.ndarray,
    carried: Optional[CommonStarts] = None,
) -> CommonStarts:
    """The grid starts each trial's flows share, once generate_block's row r joins trial trials[r].

    A start x is shared iff [x, x + m] lies inside one window of every flow,
    at some shift of that flow (m = _min_units(cfg)); a window (lo, hi) kept
    by _grid_windows holds the starts [lo, hi - m + 1).  trials ascends;
    carried holds the starts the trials' earlier flows share, if any.  One
    sorted sweep of +1/-1 events over the rows' starts at every shift finds
    their union where its depth leaves 0; carried pieces join it with weight
    w, one more than the rows' windows, so the depth exceeds w where both
    cover a start.  Events sort by one int64 key, trial << bits |
    (coordinate - base) << 2 | 2 * rise + carried, so at equal coordinates a
    piece ends before another starts; past int64, ranks replace coordinates.
    """
    shifts = np.asarray(shifts, dtype=float)
    span = _span(edges[:, -1].max(), shifts, cfg.quantum)
    gap, lo, hi, keep = _grid_windows(edges.ravel(), span, cfg, shifts)
    m = _min_units(cfg)
    trial = trials[np.broadcast_to(gap // edges.shape[1], keep.shape)[keep]]
    held = carried or CommonStarts(*[np.empty(0, np.int64)] * 3)
    coords = np.concatenate((lo[keep], hi[keep] - (m - 1), held.lo, held.hi))
    base = int(coords.min(initial=0))
    bits = (int(coords.max(initial=0)) - base).bit_length() + 2  # of one trial's keys
    values = None
    if (int(trials[-1]) + 1) << bits > 2**63:
        values, coords = np.unique(coords, return_inverse=True)
        base, bits = 0, (values.size - 1).bit_length() + 2
    n, c = trial.size, held.trial.size
    key = np.concatenate((trial, trial, held.trial, held.trial)) << bits
    key += (coords - base) << 2
    key += np.repeat([2, 0, 3, 1], [n, n, c, c])  # 2 * rise + carried
    # Each shift's rises, each shift's falls and the carried rises and falls
    # are sorted runs: a stable sort merges them.
    key.sort(kind="stable")
    w = 0 if carried is None else n + 1
    inside = np.array([-1, -w, 1, w])[key & 3].cumsum() > w
    key = key[np.diff(inside, prepend=False)]
    coord = key >> 2 & (1 << (bits - 2)) - 1
    coord = coord + base if values is None else values[coord]
    return CommonStarts(key[0::2] >> bits, coord[0::2], coord[1::2])


def _intersect(windows_a: list, windows_b: list, min_units: int) -> list:
    """Intersect two sorted grid-window lists, keeping pieces of at least min_units."""
    out = []
    i = j = 0
    while i < len(windows_a) and j < len(windows_b):
        lo = max(windows_a[i][0], windows_b[j][0])
        hi = min(windows_a[i][1], windows_b[j][1])
        if hi - lo >= min_units:
            out.append((lo, hi))
        if windows_a[i][1] < windows_b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _mean_clear_probability(
    flows: Sequence[Flow], cfg: AttackConfig, names: Optional[Sequence[object]] = None
) -> float:
    """Estimate of the per-flow clear probability at window T - delta.

    An error estimating flow i names it by names[i], or else by its index.
    """
    if cfg.min_length == 0:
        return 1.0  # delta == T: an empty window is always clear
    total = 0.0
    measured = 0
    for i, flow in enumerate(flows):
        if flow.duration < cfg.min_length:
            continue  # too short to ever show a qualifying window
        stride = min(cfg.quantum, cfg.min_length)
        try:
            total += estimate_clear_probability(flow, cfg.min_length, stride)
        except SearchSpaceTooLarge as exc:
            raise SearchSpaceTooLarge(f"{names[i] if names else f'flow {i}'}: {exc}") from None
        measured += 1
    # With no flow long enough to measure, p = 1 makes the bound claim nothing.
    return total / measured if measured else 1.0


def _min_units(cfg: AttackConfig) -> int:
    """Shortest qualifying window, in quanta."""
    return ceil_snapped(cfg.min_length / cfg.quantum)


def _window_lists(
    flows: Sequence[Flow], cfg: AttackConfig, shifts: Sequence[float]
) -> list[list[list[tuple[int, int]]]]:
    """windows[flow_index][shift_index]: (lo, hi) grid indices sorted by lo."""
    shifts = np.asarray(shifts, dtype=float)
    span = _span(max(f.duration for f in flows), shifts, cfg.quantum)
    edges = np.concatenate([e for f in flows for e in ([0.0], f.timestamps, [f.duration])])
    gap, lo, hi, keep = _grid_windows(edges, span, cfg, shifts)
    flow = np.searchsorted(np.cumsum([len(f) + 2 for f in flows]), gap, side="right")
    # Kept windows run shift-major, then by gap: a stable sort makes them flow-major.
    n = len(shifts)
    run = (flow * n + np.arange(n)[:, None])[keep]
    order = np.argsort(run, kind="stable")
    cuts = np.searchsorted(run[order], np.arange(len(flows) * n + 1)).tolist()
    pairs = list(zip(lo[keep][order].tolist(), hi[keep][order].tolist()))
    runs = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
    return [runs[i : i + n] for i in range(0, len(runs), n)]


def _bnb(
    lists: Sequence[list], min_units: int
) -> tuple[int, Optional[tuple[int, int]], Optional[list[int]]]:
    """Branch-and-bound over per-flow offsets, flow by flow, without recursion.

    Assignments are explored in lexicographic order of offset index, so the
    first hit is the one a full enumeration would find.  A branch dies as
    soon as the windows common to the flows so far are empty, so whole
    sub-spaces vanish without enumeration.  Returns the count of pruned
    branches plus complete assignments reached, then the first common grid
    window and the offset index of each flow, or None twice when absent.
    """
    k, count = len(lists), len(lists[0])
    searched = 0
    path = [0]  # offset index under trial at each level; the last is the open one
    common: list[list] = []  # common[i]: windows shared by flows 0..i under path
    while path:
        level, oi = len(path) - 1, path[-1]
        if oi == count:  # every offset of this level tried: backtrack
            path.pop()
            if path:
                common.pop()
                path[-1] += 1
            continue
        survived = lists[level][oi]
        if level:
            survived = _intersect(common[-1], survived, min_units)
        if not survived:
            searched += 1  # pruned branch
            path[-1] += 1
        elif level == k - 1:
            return searched + 1, survived[0], path  # a complete assignment
        else:
            common.append(survived)
            path.append(0)
    return searched, None, None


# Attack method names; attack_plan gives the offsets each searches.
METHODS = ("fixed", "exhaustive", "bnb")


def attack_plan(method: str, cfg: AttackConfig, k: int) -> list[float]:
    """Offsets the named method tries per flow on k flows: 0 alone for fixed, else the delta grid."""
    if method not in METHODS:
        raise BadParameter(f"unknown attack method {method!r}; expected one of {sorted(METHODS)}")
    if k < 1:
        raise BadParameter("attack needs at least one flow")
    if method == "fixed":
        return [0.0]
    count = check_offset_count(offset_multiplier(cfg.o_max, cfg.delta))
    return [i * cfg.delta for i in range(count)]


def attack(
    method: str,
    flows: Sequence[Flow],
    cfg: AttackConfig,
    *,
    clear_prob: Optional[float] = None,
    names: Optional[Sequence[object]] = None,
) -> AttackFinding:
    """Run the branch-and-bound search over the named method's offsets on the flows.

    The bound uses multiplier len(offsets), the method's offsets per flow,
    and clear_prob, else the flows' mean estimate, taken before the search
    (an error there or in the span guard names flow i by names[i], such as
    its file, or its index).
    """
    k = len(flows)
    offsets = attack_plan(method, cfg, k)
    m = len(offsets)
    p = _mean_clear_probability(flows, cfg, names) if clear_prob is None else clear_prob
    try:
        lists = _window_lists(flows, cfg, offsets)
    except SearchSpaceTooLarge as exc:  # the span guard, which the longest flow fails
        i = max(range(k), key=lambda i: flows[i].duration)
        raise SearchSpaceTooLarge(f"{names[i] if names else f'flow {i}'}: {exc}") from None
    searched, window, path = _bnb(lists, _min_units(cfg))
    if method == "exhaustive":  # the hit's lexicographic rank + 1, or every assignment
        searched = m**k if path is None else 1 + sum(i * m**d for d, i in enumerate(path[::-1]))
    matched = assignment = None
    if window is not None:
        lo, hi = window
        matched = (lo * cfg.quantum, (hi - lo) * cfg.quantum)
        assignment = tuple(offsets[i] for i in path)
    return AttackFinding(
        present=window is not None,
        matched_window=matched,
        offset_assignment=assignment,
        configurations_searched=searched,
        fp_bound_at_k=fp_bound(k, p, m).clamped,
    )


def mfa_fixed_offset(
    flows: Sequence[Flow], cfg: AttackConfig, *, clear_prob: Optional[float] = None
) -> AttackFinding:
    """Common-offset attack: the branch-and-bound search with the single offset 0.

    The earliest common window of length at least T - delta wins.  The
    reported bound uses multiplier 1 (no offset uncertainty), and
    configurations_searched is always 1.
    """
    return attack("fixed", flows, cfg, clear_prob=clear_prob)


def mfa_varied_offset_exhaustive(
    flows: Sequence[Flow], cfg: AttackConfig, *, clear_prob: Optional[float] = None
) -> AttackFinding:
    """The first per-flow offset assignment, in lexicographic order, with a common clear window.

    The branch-and-bound search finds it; configurations_searched is what
    enumerating every assignment in that order would count up to it (all
    multiplier ** k when absent), at any k.
    """
    return attack("exhaustive", flows, cfg, clear_prob=clear_prob)


def mfa_varied_offset_bnb(
    flows: Sequence[Flow], cfg: AttackConfig, *, clear_prob: Optional[float] = None
) -> AttackFinding:
    """Branch-and-bound over the step-delta offset grid, flow by flow.

    Same verdicts and, when present, the same window and assignment as the
    exhaustive method, with no recursion, so any k that min_flows prescribes
    can be searched.
    """
    return attack("bnb", flows, cfg, clear_prob=clear_prob)


def read_manifest(path: str | Path) -> list[Path]:
    """Flow-file paths from a manifest, one per line, relative to the manifest."""
    path = Path(path)
    base = path.parent
    entries: list[Path] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FlowFileError(f"{path}: not a UTF-8 manifest") from None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        candidate = Path(stripped)
        entries.append(candidate if candidate.is_absolute() else base / candidate)
    return entries
