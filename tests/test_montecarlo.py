"""Block-batched Monte Carlo trials against the per-flow, per-trial oracles.

The oracle for flow generation is the scalar draw loop that generated one
flow per call before flows were drawn in blocks.  Rows that real seeds
practically never produce (a first chunk of gaps that ends before the
duration, tied arrivals, ties nudged past the duration) are injected by
stand-ins that rewrite the gaps of chosen seeds: one for ``oracle_rng``,
which the oracle draws through, and one for each seam the code under test
draws through: ``flow_model.seeded_generators`` and
``flow_model.block_exponentials``.
"""

import contextlib
import math
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmark import (
    AttackConfig,
    Flow,
    PoissonModel,
    derive_seed,
    generate_flow,
    mfa_fixed_offset,
    mfa_varied_offset_bnb,
    mfa_varied_offset_exhaustive,
    poisson_rate_for_clear_probability,
)
from flowmark import flow_model, repro
from flowmark.flow_model import draw_width, generate_block
from flowmark.mfa import (
    _bnb,
    _min_units,
    _window_lists,
    attack_plan,
    common_starts,
)
from flowmark.repro import MonteCarloRate, monte_carlo_attack
from flowmark.seeds import _BLOCK_MIN

CFG = AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5)
MODEL = PoissonModel(poisson_rate_for_clear_probability(0.276, CFG.min_length))
SCALE = 1.0 / MODEL.rate  # seconds per standard exponential gap
DURATIONS = (0.9, 4.5, 15.3)
WIDTH_CUT = (2.3, 2.4)  # the widest draw the block pass makes, and one gap wider
PASS_MIN_ROWS = flow_model._PASS_MIN_ROWS
ATTACKS = {
    "fixed": mfa_fixed_offset,
    "exhaustive": mfa_varied_offset_exhaustive,
    "bnb": mfa_varied_offset_bnb,
}


def oracle_rng(seed: int):
    """The oracle's generator for a seed; injected() swaps in a stand-in."""
    return np.random.default_rng(seed)


def reference_generate_flow(model: PoissonModel, duration: float, seed: int) -> Flow:
    """The scalar draw loop: one chunk after another until an arrival passes duration."""
    rng = oracle_rng(seed)
    scale = 1.0 / model.rate
    expected = model.rate * duration
    chunk = max(16, int(expected + 4.0 * math.sqrt(expected) + 16))
    times = []
    total = 0.0
    while True:
        gaps = rng.exponential(scale=scale, size=chunk)
        arrivals = total + np.cumsum(gaps)
        times.append(arrivals)
        total = float(arrivals[-1])
        if total > duration:
            break
        chunk = max(16, chunk // 4)
    ts = np.concatenate(times)
    return Flow(timestamps=ts[ts < duration], duration=duration)


# How the stand-in rewrites a seed's gaps:
#   short:   the first chunk shrinks 100x, so the row needs more chunks;
#   shorter: the first two chunks shrink 100x;
#   ties:    some gaps become 0, so arrivals tie (the first one at 0);
#   end:     four arrivals tie one ulp below the duration, so the tie-break
#            pushes the last ones past it and the flow's duration grows;
#   empty:   the first arrival is at the duration (exactly where a gap times
#            the scale can land there: at 4.5 s and 15.3 s but not 0.9 s, where
#            it is the next time such a product reaches), so there is none.
MODES = ("plain", "short", "shorter", "ties", "end", "empty")


class InjectedRng:
    """Draws a seed's standard gaps and rewrites them as its mode says.

    The code under test draws standard gaps and multiplies them by the
    model's scale; the oracle draws exponential(scale), which numpy defines
    as that product, so both see the same seconds.  A mode's times in
    seconds become the least standard gap whose product with the scale is
    not below them.
    """

    def __init__(self, rng, mode: str, duration: float, scale: float):
        self.rng, self.mode, self.duration, self.scale, self.calls = rng, mode, duration, scale, 0

    def standard(self, seconds: float) -> float:
        gap = seconds / self.scale
        while gap * self.scale < seconds:
            gap = np.nextafter(gap, np.inf)
        while (below := np.nextafter(gap, 0.0)) * self.scale >= seconds:
            gap = below
        return gap

    def standard_exponential(self, size=None, out=None):
        gaps = self.rng.standard_exponential(size=size if out is None else out.shape)
        self.calls += 1
        if self.mode == "short" and self.calls == 1 or self.mode == "shorter" and self.calls <= 2:
            gaps *= 0.01
        elif self.mode == "ties" and self.calls == 1:
            gaps[[0, 1, 3, 4]] = 0.0
        elif self.mode == "end" and self.calls == 1:
            last = np.nextafter(self.duration, 0.0)
            gaps[:4] = [self.standard(last), 0.0, 0.0, 0.0]
            assert gaps[0] * self.scale == last, "no gap lands one ulp below the duration"
        elif self.mode == "empty" and self.calls == 1:
            gaps[0] = self.standard(self.duration)
        if out is None:
            return gaps
        out[...] = gaps
        return out

    def exponential(self, scale=1.0, size=None):
        return scale * self.standard_exponential(size)


class Drawn:
    """A row of draws made already, handed out as a generator's draw."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def standard_exponential(self, size):
        assert size == self.row.shape
        return self.row.copy()


@contextlib.contextmanager
def injected(modes: dict[int, str], duration: float, scale: float = SCALE):
    """Make the seeds in `modes` draw rewritten gaps, in the oracle and in the code."""

    def injected_rng(seed):
        return InjectedRng(np.random.default_rng(seed), modes.get(seed, "plain"), duration, scale)

    def seeded_generators(seeds):
        for seed, rng in zip(seeds, real_generators(seeds)):
            yield InjectedRng(rng, modes.get(seed, "plain"), duration, scale)

    def block_exponentials(seeds, n):
        # A row's pass draws are its first call's draws, cut to n columns.
        draws, sure = real_exponentials(seeds, n)
        for seed, row in zip(seeds, draws):
            InjectedRng(Drawn(row), modes.get(seed, "plain"), duration, scale).standard_exponential(out=row)
        return draws, sure

    real_generators, real_exponentials = flow_model.seeded_generators, flow_model.block_exponentials
    with mock.patch.object(sys.modules[__name__], "oracle_rng", injected_rng), mock.patch.object(
        flow_model, "seeded_generators", seeded_generators
    ), mock.patch.object(flow_model, "block_exponentials", block_exponentials):
        yield


@st.composite
def seeded_flows(
    draw, max_flows: int = 40, per_trial: int = 1, min_flows: int = 1, durations=DURATIONS
):
    """A duration, flow seeds and the injected mode of each seed.

    The seed count is a multiple of per_trial.
    """
    duration = draw(st.sampled_from(durations))
    master = draw(st.integers(0, 2**64 - 1))
    count = draw(st.integers(-(-min_flows // per_trial), max_flows // per_trial)) * per_trial
    seeds = [derive_seed(master, "block", i) for i in range(count)]
    kinds = draw(st.lists(st.sampled_from(MODES), min_size=count, max_size=count))
    return duration, seeds, dict(zip(seeds, kinds))


def same_flow(a: Flow, b: Flow) -> bool:
    same_duration = repr(a.duration) == repr(b.duration)
    return same_duration and a.timestamps.tobytes() == b.timestamps.tobytes()


def flow_edges(flows: list[Flow], width: int) -> np.ndarray:
    """Per flow, a row of width + 2 edges: 0, its timestamps, then its duration to the end."""
    edges = np.empty((len(flows), width + 2))
    for row, flow in zip(edges, flows):
        row[0] = 0.0
        row[1 : len(flow) + 1] = flow.timestamps
        row[len(flow) + 1 :] = flow.duration
    return edges


def same_edges(edges: np.ndarray, flows: list[Flow]) -> bool:
    return edges.tobytes() == flow_edges(flows, edges.shape[1] - 2).tobytes()


class TestGenerationMatchesScalarLoop:
    @given(case=seeded_flows(max_flows=5))
    def test_generate_flow(self, case):
        duration, seeds, modes = case
        with injected(modes, duration):
            for seed in seeds:
                assert same_flow(
                    generate_flow(MODEL, duration, seed),
                    reference_generate_flow(MODEL, duration, seed),
                )

    @given(case=seeded_flows())
    def test_block_rows(self, case):
        duration, seeds, modes = case
        with injected(modes, duration):
            edges = generate_block(MODEL, duration, seeds)
            expected = [reference_generate_flow(MODEL, duration, seed) for seed in seeds]
        assert same_edges(edges, expected)

    def test_width_cut_durations_straddle_the_widest_block_pass(self):
        assert [draw_width(MODEL, d) for d in WIDTH_CUT] == [
            flow_model._PASS_MAX_WIDTH,
            flow_model._PASS_MAX_WIDTH + 1,
        ]

    @pytest.mark.parametrize(
        "duration, count, passes",
        [
            (0.9, PASS_MIN_ROWS, True),
            (WIDTH_CUT[0], PASS_MIN_ROWS, True),
            (0.9, PASS_MIN_ROWS - 1, False),
            (WIDTH_CUT[1], PASS_MIN_ROWS, False),
        ],
    )
    def test_block_pass_draws_blocks_of_short_rows(self, duration, count, passes):
        spy = mock.patch.object(flow_model, "block_exponentials", wraps=flow_model.block_exponentials)
        with spy as block_exponentials:
            generate_block(MODEL, duration, [derive_seed(3, "pass", i) for i in range(count)])
        assert block_exponentials.called == passes

    @given(
        case=seeded_flows(
            max_flows=PASS_MIN_ROWS, min_flows=PASS_MIN_ROWS - 1, durations=(0.9, *WIDTH_CUT)
        )
    )
    def test_block_rows_around_the_block_pass_cuts(self, case):
        duration, seeds, modes = case
        with injected(modes, duration):
            edges = generate_block(MODEL, duration, seeds)
            expected = [generate_flow(MODEL, duration, seed) for seed in seeds]
        assert same_edges(edges, expected)

    def test_injected_rows_reach_every_path(self, padding=0):
        """Each mode does what the properties rely on it doing."""
        seeds = [derive_seed(0, "modes", i) for i in range(len(MODES) + padding)]
        modes = dict(zip(seeds, MODES))
        with injected(modes, 0.9):
            flows = [reference_generate_flow(MODEL, 0.9, seed) for seed in seeds]
            edges = generate_block(MODEL, 0.9, seeds)
        assert same_edges(edges, flows)
        plain, short, shorter, ties, end, empty = flows[: len(MODES)]
        assert len(short) > 24 and len(shorter) > 40  # 24 gaps are drawn first at 0.9 s
        assert edges.shape[1] > 42
        assert ties.timestamps[:2].tolist() == [0.0, 5e-324]
        assert end.duration > 0.9 and edges[4, -1] == end.duration == end.timestamps[-1]
        assert len(empty) == 0 and (edges[5, 1:] == 0.9).all()

    @pytest.mark.parametrize("duration, count", [(0.9, PASS_MIN_ROWS), (15.3, len(MODES))])
    def test_a_block_seeds_each_drawn_row_once(self, duration, count):
        # short and shorter rows need more chunks: each is seeded once more for them.
        seeds = [derive_seed(5, "once", i) for i in range(count)]
        modes = dict(zip(seeds, MODES * count))
        with injected(modes, duration):
            spy = mock.patch.object(flow_model, "seeded_generators", wraps=flow_model.seeded_generators)
            with spy as seeded_generators:
                edges = generate_block(MODEL, duration, seeds)
            expected = [reference_generate_flow(MODEL, duration, seed) for seed in seeds]
        calls = [call.args[0] for call in seeded_generators.call_args_list]
        topped_up = [seed for seed in seeds if modes[seed] in ("short", "shorter")]
        assert set(topped_up) <= set(calls[0]) and calls[1:] == [[seed] for seed in topped_up]
        assert same_edges(edges, expected)
        assert edges.shape[1] > draw_width(MODEL, duration) + 2  # top-up chunks were drawn

    @pytest.mark.parametrize("duration, count", [(0.9, 4 * PASS_MIN_ROWS), (15.3, 300)])
    def test_a_block_lets_each_generator_go(self, duration, count):
        # When a generator is handed out, only the one before it may still be held.
        seeds = [derive_seed(6, "let go", i) for i in range(count)]
        modes = dict(zip(seeds, MODES * count))
        handed: list[weakref.ref] = []
        with injected(modes, duration):
            injected_generators = flow_model.seeded_generators

            def seeded_generators(seeds):
                for rng in injected_generators(seeds):
                    assert sum(ref() is not None for ref in handed) <= 1
                    handed.append(weakref.ref(rng))
                    yield rng

            with mock.patch.object(flow_model, "seeded_generators", seeded_generators):
                edges = generate_block(MODEL, duration, seeds)
            expected = [reference_generate_flow(MODEL, duration, seed) for seed in seeds]
        assert len(handed) > count // 3
        assert same_edges(edges, expected)

    @pytest.mark.parametrize("duration", DURATIONS)
    def test_empty_rows_start_at_the_first_reachable_time(self, duration):
        rng = InjectedRng(None, "empty", duration, SCALE)
        gap = rng.standard(duration)
        assert gap * rng.scale >= duration > np.nextafter(gap, 0.0) * rng.scale
        assert (gap * rng.scale == duration) == (duration != 0.9)

    @given(
        seed=st.integers(0, 2**64 - 1),
        scale=st.floats(1e-300, 1e300),
        size=st.integers(0, 300),
    )
    def test_exponential_is_scale_times_standard_exponential(self, seed, scale, size):
        # The draw fills rows with standard gaps and scales the block at once.
        drawn = np.random.default_rng(seed).exponential(scale, size)
        standard = np.random.default_rng(seed).standard_exponential(size)
        assert drawn.tobytes() == (scale * standard).tobytes()

    def test_injected_rows_reach_every_path_in_a_seeded_block(self):
        # Six seeds are seeded one default_rng at a time; fourteen as one block.
        assert len(MODES) < _BLOCK_MIN <= len(MODES) + 8
        self.test_injected_rows_reach_every_path(padding=8)

    def test_injected_rows_reach_every_path_in_a_block_pass(self):
        spy = mock.patch.object(flow_model, "block_exponentials", wraps=flow_model.block_exponentials)
        with spy as block_exponentials:
            self.test_injected_rows_reach_every_path(padding=PASS_MIN_ROWS - len(MODES))
        assert block_exponentials.called


def block_verdicts(edges: np.ndarray, cfg, shifts, k: int) -> np.ndarray:
    """Per trial of k consecutive rows of edges: do its flows share a grid start?

    Stage i adds row k*t + i to each trial t still alive, as the Monte Carlo
    driver adds flow i, so a trial's later rows are skipped once it is absent.
    """
    alive, common = np.arange(edges.shape[0] // k), None
    for i in range(k):
        common = common_starts(edges[alive * k + i], cfg, shifts, alive, common)
        alive = np.unique(common.trial)
        if not alive.size:
            break
    present = np.zeros(edges.shape[0] // k, dtype=bool)
    present[alive] = True
    return present


def list_verdicts(flows, cfg, shifts, k) -> list[bool]:
    """Per trial of k consecutive flows: did the list search find a common window?"""
    lists = _window_lists(flows, cfg, shifts)
    return [_bnb(lists[j : j + k], _min_units(cfg))[1] is not None for j in range(0, len(flows), k)]


@st.composite
def seeded_trials(draw, max_flows: int = 120):
    """A method, k, and seeded_flows for whole trials of k flows."""
    method = draw(st.sampled_from(sorted(ATTACKS)))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    return method, k, draw(seeded_flows(max_flows, per_trial=k))


class TestBlockVerdictsMatchListSearches:
    # p is the clear probability of 0.45 s: at 0.5, gaps near m quanta of
    # delta = 0.45 are common.  The injected modes land where they should at
    # each of these rates.  delta = T makes m = 0.
    @given(
        case=seeded_trials(),
        o_max=st.sampled_from([0.0, 0.45, 0.9, 1.8]),
        p=st.sampled_from([0.276, 0.4, 0.5]),
        delta=st.sampled_from([0.45, 0.9]),
    )
    def test_verdicts(self, case, o_max, p, delta):
        method, k, (duration, seeds, modes) = case
        cfg = AttackConfig(T=0.9, delta=delta, o_max=o_max, epsilon=1e-5)
        shifts = attack_plan(method, cfg, k)
        model = PoissonModel(poisson_rate_for_clear_probability(p, 0.45))
        with injected(modes, duration, 1.0 / model.rate):
            edges = generate_block(model, duration, seeds)
            flows = [reference_generate_flow(model, duration, seed) for seed in seeds]
        assert block_verdicts(edges, cfg, shifts, k).tolist() == list_verdicts(flows, cfg, shifts, k)

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_grown_duration_stays_with_its_flow(self, k):
        # At shift 1.35 s, grid point -8 lies an ulp past 0.9 s: a flow's last
        # window ends on -9 if the flow ends at 0.9 s and on -8 if it ends a
        # few ulps later, as the injected flow does.
        cfg = AttackConfig(T=0.9, delta=0.45, o_max=1.8, epsilon=1e-5)
        assert 0.9 < -8 * cfg.quantum + 1.35 <= np.nextafter(np.nextafter(0.9, 1.0), 1.0)
        seeds = [derive_seed(0, "grown", i) for i in range(40)]
        shifts = attack_plan("bnb", cfg, k)
        with injected({seeds[0]: "end"}, 0.9):
            edges = generate_block(MODEL, 0.9, seeds)
            flows = [reference_generate_flow(MODEL, 0.9, seed) for seed in seeds]
        assert flows[0].duration > 0.9
        assert block_verdicts(edges, cfg, shifts, k).tolist() == list_verdicts(flows, cfg, shifts, k)

    def test_each_row_keeps_its_duration(self):
        # Flow 1 ends at 0.5 s, so its only long gap, (0.1, 0.5), is too short
        # for T - delta = 0.45 s; ended at flow 0's 0.9 s it would not be.
        edges = flow_edges([Flow([], 0.9), Flow([0.1], 0.5)], 1)
        assert block_verdicts(edges, CFG, [0.0], 2).tolist() == [False]
        longer = flow_edges([Flow([], 0.9), Flow([0.1], 0.9)], 1)
        assert block_verdicts(longer, CFG, [0.0], 2).tolist() == [True]

    @pytest.mark.parametrize("duration, count", [(0.9, 1200), (15.3, 130)])
    def test_large_blocks_match_list_searches(self, duration, count):
        seeds = [derive_seed(3, "cap", i) for i in range(count)]
        edges = generate_block(MODEL, duration, seeds)
        flows = [reference_generate_flow(MODEL, duration, seed) for seed in seeds]
        shifts = attack_plan("bnb", CFG, 10)
        for k in (1, 5, 10):
            verdicts = block_verdicts(edges, CFG, shifts, k).tolist()
            assert verdicts == list_verdicts(flows, CFG, shifts, k)
        assert 0 < sum(block_verdicts(edges, CFG, shifts, 5)) < count // 5


def hand_flows(*flows: tuple[list[float], float], unit: float = CFG.quantum) -> list[Flow]:
    """Flows given as (timestamps, duration) in units of `unit` seconds, by
    default CFG's quantum."""
    return [Flow(np.array(ts, dtype=float) * unit, d * unit) for ts, d in flows]


def ulps(x: float, n: int) -> float:
    """x moved n floats up, or -n floats down."""
    for _ in range(abs(n)):
        x = np.nextafter(x, math.copysign(math.inf, n))
    return float(x)


def dense_around(s: float, e: float, end: float) -> tuple[list[float], float]:
    """A flow in seconds with packets at s and e and every 0.2 s before s and
    after e, up to its duration end: (s, e) is its only gap longer than 0.3 s."""
    return [*np.arange(0.2, s - 0.1, 0.2), s, e, *np.arange(e + 0.2, end - 0.1, 0.2)], end


class TestBlockVerdictEdges:
    """Hand-built flows of CFG (m = 8 quanta) on and next to the sweep's boundaries.

    Packets sit half a quantum off the grid, so each gap snaps to the grid
    points just inside it, with no rounding at stake, except in the tests
    of gaps of m quanta give or take a few ulps, whose packets sit on it.
    """

    def verdicts(self, flows: list[Flow], shifts, k: int) -> list[bool]:
        edges = flow_edges(flows, max(1, *map(len, flows)))
        got = block_verdicts(edges, CFG, shifts, k).tolist()
        assert got == list_verdicts(flows, CFG, shifts, k)
        return got

    def test_min_units(self):
        assert _min_units(CFG) == 8 and CFG.quantum * 8 == CFG.min_length

    def test_common_piece_of_exactly_m_is_present(self):
        # Windows [2, 10] and [1, 13] share [2, 10]: the start 2 alone.
        flows = hand_flows(([1.5, 10.5], 12.5), ([0.5, 13.5], 14.5))
        assert self.verdicts(flows, [0.0], 2) == [True]

    def test_common_piece_of_m_minus_one_is_absent(self):
        # Windows [2, 10] and [1, 9] share [2, 9]; their starts [2, 3) and
        # [1, 2) touch at 2, where one piece ends as the other begins.
        flows = hand_flows(([1.5, 10.5], 12.5), ([0.5, 9.5], 14.5))
        assert self.verdicts(flows, [0.0], 2) == [False]

    def test_a_window_of_exactly_m_alone_is_present(self):
        flows = hand_flows(([1.5, 9.5], 12.5), ([1.5, 10.5], 12.5), ([1.5], 10.5))
        assert self.verdicts(flows, [0.0], 1) == [False, True, True]

    def test_touching_windows_of_one_flow_stay_apart(self):
        # At shifts 0 and 8 quanta, flow 0's window is [2, 10] and [-6, 2],
        # flow 1's is [6, 14] and [-2, 6].  Each pair shares 4 quanta only;
        # flow 0's windows joined into [-6, 10] would share [-2, 6] with flow 1.
        flows = hand_flows(([1.5, 10.5], 12.5), ([5.5, 14.5], 16.5))
        assert self.verdicts(flows, [0.0, 8 * CFG.quantum], 2) == [False]

    def test_gaps_of_m_quanta_give_or_take_ulps_near_0(self):
        q, flows, gaps = CFG.quantum, [], []
        for lo in range(1, 30):
            for n in range(-2, 3):
                s, e = lo * q, ulps((lo + 8) * q, n)
                flows.append(dense_around(s, e, e + 0.2))
                gaps.append(e - s)
        got = self.verdicts(hand_flows(*flows, unit=1.0), [0.0], 1)
        # Some gaps measure less than m quanta and still snap to m of them.
        assert any(v and gap < 8 * q for v, gap in zip(got, gaps)) and not all(got)

    def test_gaps_of_m_quanta_give_or_take_ulps_near_a_million_seconds(self):
        # Each trial: flow A has packets every 0.2 s to 2 s and then only the
        # gap (lo q, (lo + 8) q) near 10**6 s; flow B has one window near 1 s,
        # which the shift of about -10**6 s lays over that gap with 2.5 quanta
        # to spare at each end.  No other pair of windows overlaps by m, so
        # the trial is present iff A's gap keeps its m quanta, where ulps are
        # 2**-33 s.
        q, first = CFG.quantum, 17_777_778
        shift = 1.0 - first * q
        flows, gaps = [], []
        for lo in range(first, first + 10):
            for n in range(-2, 3):
                s, e = lo * q, ulps((lo + 8) * q, n)
                flows.append(([*np.arange(0.2, 2.1, 0.2), s, e], e + 0.2))
                flows.append(dense_around(s + shift - 2.5 * q, e + shift + 2.5 * q, 2.6))
                gaps.append(e - s)
        got = self.verdicts(hand_flows(*flows, unit=1.0), [0.0, shift], 2)
        assert any(v and gap < 8 * q for v, gap in zip(got, gaps)) and not all(got)

    def test_keys_past_int64_fall_back_to_ranks(self):
        # A flow of 2**61 quanta holds starts [0, 2**61 - 7], so with four
        # rows the sweep's keys need 4 * 2 * (2**61 - 6) > 2**63 values.
        big = 2**61
        flows = hand_flows(([], big), ([], big), ([], big), ([2.5, 6.5, 10.5], 12.5))
        assert self.verdicts(flows, [0.0], 2) == [True, False]
        assert self.verdicts(flows, [0.0, 8 * CFG.quantum], 1) == [True, True, True, False]

    def test_empty_rows_and_flows_without_windows(self):
        # Row 1 has no packet; row 2 has no gap as long as m.
        flows = hand_flows(([], 12.5), ([], 12.5), ([2.5, 6.5, 10.5], 12.5), ([], 12.5))
        assert self.verdicts(flows, [0.0, 8 * CFG.quantum], 2) == [True, False]
        assert self.verdicts(flows, [0.0], 4) == [False]
        assert self.verdicts(flows, [0.0], 1) == [True, True, False, True]


def reference_monte_carlo(method, cfg, model, duration, k, trials, seed, clear_prob):
    """One trial at a time: draw k flows, run the attack, count hits."""
    hits = 0
    for trial in range(trials):
        flows = [
            reference_generate_flow(model, duration, derive_seed(seed, "mc", trial, i))
            for i in range(k)
        ]
        finding = ATTACKS[method](flows, cfg, clear_prob=clear_prob)
        hits += finding.present
    bound = finding.fp_bound_at_k
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    return MonteCarloRate(hits, hits / trials, bound, bound + 3.0 * sigma)


class TestDriverMatchesPerTrialLoop:
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("method", sorted(ATTACKS))
    def test_hits(self, method, k, seed):
        # 70 trials of 0.9 s flows: one pass, one chunk per stage.
        args = (method, CFG, MODEL, 0.9, k, 70, seed, 0.276)
        assert monte_carlo_attack(*args) == reference_monte_carlo(*args)

    @pytest.mark.parametrize("duration", [4.5, 15.3])
    def test_hits_on_longer_flows(self, duration):
        args = ("bnb", CFG, MODEL, duration, 5, 40, 9, 0.276)
        mc = monte_carlo_attack(*args)
        assert mc == reference_monte_carlo(*args)
        assert 0 < mc.hits < 40

    def test_hits_with_injected_rows(self):
        seeds = [derive_seed(5, "mc", t, i) for t in range(60) for i in range(2)]
        modes = {seed: MODES[n % len(MODES)] for n, seed in enumerate(seeds)}
        args = ("bnb", CFG, MODEL, 0.9, 2, 60, 5, 0.276)
        with injected(modes, 0.9):
            assert monte_carlo_attack(*args) == reference_monte_carlo(*args)

    def test_exhaustive_at_the_papers_k_matches_bnb(self):
        # 2 offsets per flow: 2**20 = 1,048,576 configurations, which the
        # Monte Carlo verdicts never enumerate.
        assert len(attack_plan("exhaustive", CFG, 20)) == 2
        sparse = PoissonModel(poisson_rate_for_clear_probability(0.9, CFG.min_length))
        mc = monte_carlo_attack("exhaustive", CFG, sparse, 0.9, 20, 40, 0, 0.9)
        assert mc == monte_carlo_attack("bnb", CFG, sparse, 0.9, 20, 40, 0, 0.9)
        assert mc == reference_monte_carlo("bnb", CFG, sparse, 0.9, 20, 40, 0, 0.9)
        assert 0 < mc.hits < 40

    @pytest.mark.parametrize("duration, trials", [(0.9, 1300), (15.3, 380)])
    @pytest.mark.parametrize("method", sorted(ATTACKS))
    def test_hits_do_not_depend_on_the_block_size(self, method, duration, trials):
        # The default budget gives one pass whose first stage is 2 or 3
        # chunks; then one trial per block (passes of k trials), two passes
        # of five chunks per first stage, and every trial in one block.  A
        # block's budget holds one flow of each of its trials.
        args = (method, CFG, MODEL, duration, 5, trials, 2, 0.276)
        cells = len(attack_plan(method, CFG, 5)) * (draw_width(MODEL, duration) + 2)
        assert 1 < -(-trials * cells // repro._BLOCK_CELLS) <= 3
        expected = monte_carlo_attack(*args)
        for budget in (1, trials // 8 * cells, 2 * trials * cells):
            with mock.patch.object(repro, "_BLOCK_CELLS", budget):
                assert monte_carlo_attack(*args) == expected
        assert expected == reference_monte_carlo(*args)

    @settings(max_examples=40)
    @given(
        method=st.sampled_from(sorted(ATTACKS)),
        k=st.sampled_from([1, 2, 5]),
        duration=st.sampled_from([0.9, 4.5]),
        # 2**8 cells hold 2 to 9 trials, so runs at k = 2 or 5 cross passes of several chunks.
        budget=st.sampled_from([1, 2**8, repro._BLOCK_CELLS, 2**22]),
        trials=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
        kinds=st.lists(st.sampled_from(MODES), min_size=150, max_size=150),
    )
    def test_hits_match_the_per_trial_loop(self, method, k, duration, budget, trials, seed, kinds):
        seeds = [derive_seed(seed, "mc", t, i) for t in range(trials) for i in range(k)]
        args = (method, CFG, MODEL, duration, k, trials, seed, 0.276)
        with injected(dict(zip(seeds, kinds)), duration), mock.patch.object(repro, "_BLOCK_CELLS", budget):
            assert monte_carlo_attack(*args) == reference_monte_carlo(*args)

    @pytest.mark.parametrize("clear_prob, all_drawn", [(0.276, False), (0.9999, True)])
    def test_absent_trials_draw_no_more_flows(self, clear_prob, all_drawn):
        # At p = 0.276 most trials share no window after one or two flows; at
        # p = 0.9999 almost no flow holds a packet, so every trial survives.
        model = PoissonModel(poisson_rate_for_clear_probability(clear_prob, CFG.min_length))
        spy = mock.patch.object(repro, "generate_block", wraps=generate_block)
        with spy as drawn:
            mc = monte_carlo_attack("bnb", CFG, model, 0.9, 5, 300, 4, clear_prob)
        rows = sum(len(call.args[2]) for call in drawn.call_args_list)
        assert (rows == 5 * 300) == all_drawn and rows <= 5 * 300
        assert (mc.hits == 300) == all_drawn
        assert mc == reference_monte_carlo("bnb", CFG, model, 0.9, 5, 300, 4, clear_prob)

    def kernel_rows(self, clear_prob: float, k: int) -> tuple[list[int], int]:
        """Rows of each generate_block and common_starts call of a 2,000-trial 0.9 s bnb run,
        and the block size that _BLOCK_CELLS gives."""
        model = PoissonModel(poisson_rate_for_clear_probability(clear_prob, CFG.min_length))
        cells = len(attack_plan("bnb", CFG, k)) * (draw_width(model, 0.9) + 2)
        draw = mock.patch.object(repro, "generate_block", wraps=generate_block)
        sweep = mock.patch.object(repro, "common_starts", wraps=common_starts)
        with draw as drawn, sweep as swept:
            monte_carlo_attack("bnb", CFG, model, 0.9, k, 2000, repro.REPRO_DEFAULT_SEED, clear_prob)
        rows = [len(call.args[2]) for call in drawn.call_args_list]
        assert rows == [call.args[0].shape[0] for call in swept.call_args_list]
        return rows, repro._BLOCK_CELLS // cells

    def test_every_stage_draws_in_full_blocks(self):
        # All 2,000 trials fit in one pass of per_block * k, so even the last
        # stage is large enough for the block pass of flow_model._draw.
        rows, per_block = self.kernel_rows(0.276, 5)
        assert len(rows) <= 10
        assert all(PASS_MIN_ROWS <= n <= per_block for n in rows)

    def test_no_kernel_call_exceeds_a_block(self):
        # At p = 0.9999 every trial stays alive through all 20 stages.
        rows, per_block = self.kernel_rows(0.9999, 20)
        assert sum(rows) == 20 * 2000
        assert max(rows) <= per_block

    def test_unknown_method_is_an_error(self):
        with pytest.raises(ValueError, match="unknown attack method"):
            monte_carlo_attack("greedy", CFG, MODEL, 0.9, 2, 1, 0, 0.276)


def run_probability(r: float, m: int, n: int) -> float:
    """Chance that n independent cells, each empty with probability r, hold a run of
    m empty cells in a row: a recurrence over the current run length (Feller, vol. 1,
    ch. XIII)."""
    runs, hit = [1.0] + [0.0] * (m - 1), 0.0  # runs[j]: no hit yet, current run j
    for _ in range(n):
        hit += r * runs[-1]
        runs = [(1.0 - r) * sum(runs)] + [r * j for j in runs[:-1]]
    return hit


class TestFixedRateMatchesTheExactRunProbability:
    """Under "fixed" (one shift, 0) a trial hits exactly when m = _min_units
    consecutive grid cells are empty in all k flows.  The k Poisson flows
    together are Poisson(k * rate), so each cell is empty with probability
    exp(-k * rate * quantum), independently, and the hit probability over the
    duration / quantum cells is exact."""

    CFG = AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5, quantum=0.05625)
    TRIALS = 20_000

    @pytest.mark.parametrize(
        "k, duration, exact",
        [(3, 0.9, 0.0854), (5, 0.9, 0.00868), (5, 4.5, 0.0637), (3, 15.3, 0.9005)],
    )
    def test_rate_within_3_sigma(self, k, duration, exact):
        cells = duration / self.CFG.quantum
        assert cells == round(cells) and _min_units(self.CFG) == 8
        r = math.exp(-k * MODEL.rate * self.CFG.quantum)
        p = run_probability(r, 8, round(cells))
        assert p == pytest.approx(exact, rel=1e-3)
        mc = monte_carlo_attack("fixed", self.CFG, MODEL, duration, k, self.TRIALS, 1, 0.276)
        assert abs(mc.rate - p) <= 3.0 * math.sqrt(p * (1.0 - p) / self.TRIALS)
