"""Pattern derivation, embedding, detection, and the Wilson interval."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmark import (
    ClearPattern,
    DetectionResult,
    Flow,
    PoissonModel,
    WatermarkParams,
    derive_pattern,
    derive_seed,
    detect,
    embed,
    generate_flow,
    offset_candidates,
    wilson_interval,
)
from flowmark.errors import BadParameter, FlowmarkError, FlowTooShort, SearchSpaceTooLarge
from flowmark import analysis, watermark

# Keys found by scanning upward from zero for specific small patterns;
# frozen so the golden embeddings below stay readable.
KEY_CLEARS_FIRST_OF_TWO = 0  # n=2, fraction 0.5 -> {0}
KEY_CLEARS_SECOND_OF_TWO = 2  # n=2, fraction 0.5 -> {1}
KEY_CLEARS_FIRST_TWO_OF_THREE = 2  # n=3, fraction 0.5 -> {0, 1}


def small_params(key: int, n: int = 2, **overrides) -> WatermarkParams:
    base = dict(T=1.0, o=0.0, o_max=0.0, delta=0.5, n=n, key=key, clear_fraction=0.5)
    base.update(overrides)
    return WatermarkParams(**base)


class TestDerivePattern:
    def test_deterministic(self):
        assert derive_pattern(99, 16, 0.5) == derive_pattern(99, 16, 0.5)

    def test_key_changes_pattern(self):
        patterns = {derive_pattern(key, 16, 0.5).cleared for key in range(8)}
        assert len(patterns) > 1

    def test_size_is_rounded_up_fraction(self):
        assert len(derive_pattern(7, 10, 0.5).cleared) == 5
        assert len(derive_pattern(7, 3, 0.5).cleared) == 2
        assert len(derive_pattern(7, 1, 0.5).cleared) == 1

    def test_frozen_small_patterns(self):
        assert derive_pattern(KEY_CLEARS_FIRST_OF_TWO, 2, 0.5).cleared == {0}
        assert derive_pattern(KEY_CLEARS_SECOND_OF_TWO, 2, 0.5).cleared == {1}
        assert derive_pattern(KEY_CLEARS_FIRST_TWO_OF_THREE, 3, 0.5).cleared == {0, 1}

    def test_indices_in_range(self):
        pattern = derive_pattern(123456, 32, 0.25)
        assert all(0 <= i < 32 for i in pattern.cleared)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_degenerate_fraction(self, fraction):
        with pytest.raises(BadParameter, match="clear_fraction must be in"):
            derive_pattern(7, 10, fraction)

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            derive_pattern(-1, 10, 0.5)

    def test_interval_usage_is_roughly_uniform(self):
        # each index should be cleared for about half of all keys
        n, keys = 10, 4000
        counts = [0] * n
        for key in range(keys):
            for i in derive_pattern(key, n, 0.5).cleared:
                counts[i] += 1
        # 3 sigma for a fair coin over 4000 draws is ~2.4 points
        assert all(0.46 <= c / keys <= 0.54 for c in counts)

    def test_pattern_requires_cleared_interval(self):
        with pytest.raises(ValueError):
            ClearPattern(n=4, cleared=frozenset())


def interval_index_reference(t: float, o: float, T: float) -> int:
    """Index i with t in [o + i*T, o + (i+1)*T), snapping ulp-level boundary noise."""
    q = (t - o) / T
    nearest = round(q)
    if abs(q - nearest) <= 1e-9 * max(1.0, abs(q)):
        return int(nearest)
    return int(math.floor(q))


def embed_reference(flow: Flow, params: WatermarkParams) -> Flow:
    """Per-packet embedding loop: the oracle for the vectorised embed."""
    cleared = params.pattern().cleared
    out = flow.timestamps.tolist()
    for pos, t in enumerate(out):
        if t < params.o:
            continue
        i = interval_index_reference(t, params.o, params.T)
        if i < 0 or i >= params.n or i not in cleared:
            continue
        j = i + 1
        while j < params.n and j in cleared:
            j += 1
        out[pos] = params.o + j * params.T
    return Flow(timestamps=out, duration=flow.duration)


def count_in(flow: Flow, start: float, end: float) -> int:
    """Number of packets in the half-open window [start, end); negative when end
    lies an ulp before start and a packet lies in [end, start)."""
    ts = flow.timestamps
    return int(np.searchsorted(ts, end, side="left") - np.searchsorted(ts, start, side="left"))


def detect_reference(flow: Flow, params: WatermarkParams) -> DetectionResult:
    """Per-interval detector counting the packets t with lo <= t < hi: the
    oracle for the vectorised detect."""
    cleared = sorted(params.pattern().cleared)
    margin = params.delta / 2.0
    ts = flow.timestamps
    best = 0.0
    for candidate in offset_candidates(params.o_max, params.delta):
        silent = 0
        for i in cleared:
            lo = candidate + i * params.T + margin
            hi = candidate + (i + 1) * params.T - margin
            if not ((ts >= lo) & (ts < hi)).any():
                silent += 1
        score = silent / len(cleared)
        if score == 1.0:
            return DetectionResult(detected=True, recovered_offset=candidate, match_score=1.0)
        best = max(best, score)
    return DetectionResult(detected=False, recovered_offset=None, match_score=best)


# Relative distances (in units of max(1, |i|)) from interval boundary i:
# on it, inside and around the 1e-9 snapping tolerance, and mid-interval.
BOUNDARY_NUDGES = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 0.5)


@st.composite
def embed_cases(draw):
    T = draw(st.sampled_from([0.1, 0.3, 0.9, 1.0, 2.5]))
    o_max = draw(st.sampled_from([0.0, 0.45, 0.9, 1.7]))
    o = draw(st.one_of(st.just(0.0), st.just(o_max), st.floats(0.0, o_max)))
    n = draw(st.integers(1, 12))
    params = WatermarkParams(
        T=T, o=o, o_max=o_max, delta=T / 2, n=n, key=draw(st.integers(0, 2**32)),
        # High fractions give runs of cleared intervals that reach the window end.
        clear_fraction=draw(st.floats(0.05, 0.95)),
    )
    duration = o + n * T + draw(st.sampled_from([0.0, T]))
    boundary = st.builds(
        lambda i, d: o + (i + d * max(1, abs(i))) * T,
        st.integers(-2, n + 2),
        st.sampled_from(BOUNDARY_NUDGES),
    )
    ts = draw(st.lists(st.one_of(boundary, st.floats(0.0, duration)), max_size=40))
    return Flow(timestamps=[t for t in ts if 0.0 <= t <= duration], duration=duration), params


@st.composite
def detect_cases(draw):
    T = draw(st.sampled_from([0.3, 0.9, 1.0]))
    delta = T / draw(st.sampled_from([1, 2, 3, 4]))
    o_max = draw(st.sampled_from([0.0, delta, 0.9, 2.5 * delta]))
    n = draw(st.integers(1, 10))
    params = WatermarkParams(
        T=T, o=0.0, o_max=o_max, delta=delta, n=n, key=draw(st.integers(0, 2**32)),
        clear_fraction=draw(st.floats(0.05, 0.95)),
    )
    duration = o_max + n * T
    margin = delta / 2.0
    # Packets exactly on the lo or hi edge of some candidate's sub-window.
    edge = st.builds(
        lambda c, i, upper: c + (i + 1) * T - margin if upper else c + i * T + margin,
        st.sampled_from(offset_candidates(o_max, delta)),
        st.integers(0, n - 1),
        st.booleans(),
    )
    ts = draw(st.lists(st.one_of(edge, st.floats(0.0, duration)), max_size=30))
    return Flow(timestamps=[t for t in ts if 0.0 <= t <= duration], duration=duration), params


class TestEmbed:
    def test_derives_the_pattern_once_per_params(self, monkeypatch):
        calls = []
        spy = lambda *args: calls.append(args) or derive_pattern(*args)  # noqa: E731
        monkeypatch.setattr(watermark, "derive_pattern", spy)
        params = reference_params()
        flow = generate_flow(PoissonModel(3.0), 20.0, 1)
        for _ in range(20):
            embed(flow, params)
        assert calls == [(params.key, params.n, params.clear_fraction)]

    @settings(max_examples=300)
    @given(case=embed_cases())
    def test_matches_per_packet_loop(self, case):
        flow, params = case
        marked = embed(flow, params)
        expected = embed_reference(flow, params)
        assert marked.timestamps.tobytes() == expected.timestamps.tobytes()
        assert marked.duration == expected.duration

    def test_golden_single_cleared_interval(self):
        params = small_params(KEY_CLEARS_FIRST_OF_TWO)
        flow = Flow(timestamps=[0.1, 0.5, 1.3], duration=2.0)
        marked = embed(flow, params)
        assert list(marked.timestamps) == [1.0, math.nextafter(1.0, 2.0), 1.3]

    def test_golden_consecutive_cleared_run(self):
        # intervals 0 and 1 are both cleared: packets leapfrog the whole run
        params = small_params(KEY_CLEARS_FIRST_TWO_OF_THREE, n=3)
        flow = Flow(timestamps=[0.2, 1.4, 2.5], duration=3.0)
        marked = embed(flow, params)
        assert list(marked.timestamps) == [2.0, math.nextafter(2.0, 3.0), 2.5]

    def test_golden_push_to_window_end(self):
        params = small_params(KEY_CLEARS_SECOND_OF_TWO)
        flow = Flow(timestamps=[1.2], duration=2.0)
        marked = embed(flow, params)
        assert list(marked.timestamps) == [2.0]

    def test_packets_before_offset_untouched(self):
        params = small_params(KEY_CLEARS_FIRST_OF_TWO, o=0.25, o_max=0.25)
        flow = Flow(timestamps=[0.1, 0.5], duration=3.0)
        marked = embed(flow, params)
        assert marked.timestamps[0] == 0.1
        assert marked.timestamps[1] == 1.25  # start of interval 1 at offset 0.25

    def test_packets_after_window_untouched(self):
        params = small_params(KEY_CLEARS_FIRST_OF_TWO)
        flow = Flow(timestamps=[2.7], duration=3.0)
        assert list(embed(flow, params).timestamps) == [2.7]

    def test_preserves_packet_count(self):
        params = WatermarkParams(
            T=0.9, o=0.45, o_max=0.9, delta=0.45, n=20, key=5, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(4.0), 0.9 + 20 * 0.9, seed=31)
        assert len(embed(flow, params)) == len(flow)

    @pytest.mark.parametrize("seed", range(4))
    def test_only_delays_packets(self, seed):
        params = WatermarkParams(
            T=0.9, o=0.0, o_max=0.0, delta=0.45, n=10, key=seed, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(5.0), 10.0, seed=100 + seed)
        marked = embed(flow, params)
        # sorted order statistics can only move forward when packets are
        # delayed
        assert np.all(marked.timestamps >= flow.timestamps)

    @pytest.mark.parametrize("seed", range(4))
    def test_cleared_intervals_are_empty_after_embedding(self, seed):
        params = WatermarkParams(
            T=0.7, o=0.2, o_max=0.2, delta=0.35, n=12, key=seed, clear_fraction=0.4
        )
        flow = generate_flow(PoissonModel(6.0), 0.2 + 12 * 0.7, seed=200 + seed)
        marked = embed(flow, params)
        for i in sorted(params.pattern().cleared):
            # interval edges on the same grid arithmetic the embedder uses;
            # accumulating start + T instead can land an ulp past the grid
            start = params.o + i * params.T
            end = params.o + (i + 1) * params.T
            assert count_in(marked, start, end) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_idempotent(self, seed):
        params = WatermarkParams(
            T=0.9, o=0.45, o_max=0.9, delta=0.45, n=20, key=77, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(3.0), 0.9 + 20 * 0.9, seed=300 + seed)
        once = embed(flow, params)
        assert embed(once, params) == once

    def test_rejects_short_flow(self):
        params = small_params(KEY_CLEARS_FIRST_OF_TWO)
        with pytest.raises(FlowTooShort):
            embed(Flow(timestamps=[0.5], duration=1.5), params)


class TestOffsetCandidates:
    def test_grid_plus_endpoint(self):
        assert offset_candidates(0.9, 0.45) == [0.0, 0.45, 0.9]

    def test_zero_spread(self):
        assert offset_candidates(0.0, 0.45) == [0.0]

    def test_uneven_division_keeps_endpoint(self):
        cands = offset_candidates(1.0, 0.45)
        assert cands == [0.0, 0.45, 0.9, 1.0]

    def test_rejects_bad_delta(self):
        with pytest.raises(BadParameter, match="delta must be positive"):
            offset_candidates(0.9, 0.0)

    def test_candidate_count_cap(self, monkeypatch):
        assert len(offset_candidates(4499.55, 0.45)) == analysis.MAX_OFFSETS == 10**4
        with pytest.raises(SearchSpaceTooLarge, match="10001 offsets per flow exceed the cap of 10000"):
            offset_candidates(4500.0, 0.45)
        # Under a cap of 4, o_max = 1.35 s gives 0, 0.45, 0.9 and 1.35; 1.4 s gives one more.
        monkeypatch.setattr(analysis, "MAX_OFFSETS", 4)
        assert offset_candidates(1.35, 0.45) == [0.0, 0.45, 0.9, 1.35]
        with pytest.raises(SearchSpaceTooLarge, match="5 offsets per flow exceed the cap of 4"):
            offset_candidates(1.4, 0.45)
        params = WatermarkParams(T=0.9, o=0.0, o_max=1.4, delta=0.45, n=2, key=1, clear_fraction=0.5)
        with pytest.raises(SearchSpaceTooLarge):
            detect(Flow([0.5], duration=5.0), params)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_offset_is_near_some_candidate(self, seed):
        rng = random.Random(seed)
        o_max = rng.uniform(0.1, 2.0)
        delta = rng.uniform(0.05, o_max)
        o = rng.uniform(0.0, o_max)
        cands = offset_candidates(o_max, delta)
        assert min(abs(c - o) for c in cands) <= delta / 2 + 1e-12


class TestDetect:
    @settings(max_examples=300)
    @given(case=detect_cases())
    # delta == T: at offset 0, cleared interval 3's window [3.15 + 1 ulp, 3.15)
    # is empty, so offset 0 matches.
    @example(
        case=(
            Flow([3.15], 4.5),
            WatermarkParams(T=0.9, o=0.0, o_max=0.9, delta=0.9, n=4, key=0, clear_fraction=0.5),
        )
    )
    def test_matches_count_in_loop(self, case):
        flow, params = case
        # repr also tells a numpy scalar from a float.
        assert repr(detect(flow, params)) == repr(detect_reference(flow, params))

    def test_round_trip_known_offsets(self):
        params = WatermarkParams(
            T=0.9, o=0.45, o_max=0.9, delta=0.45, n=20, key=42, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(3.0), 0.9 + 20 * 0.9, seed=400)
        result = detect(embed(flow, params), params)
        assert result.detected
        assert result.match_score == 1.0
        assert abs(result.recovered_offset - 0.45) <= params.delta / 2

    @pytest.mark.parametrize("trial", range(10))
    def test_round_trip_mixed_offsets(self, trial):
        # alternates grid-aligned and arbitrary embedding offsets
        seed = derive_seed(0, "roundtrip", trial)
        rng = random.Random(seed)
        key = rng.getrandbits(64)
        o = rng.choice([0.0, 0.45, 0.9]) if trial % 2 == 0 else rng.uniform(0.0, 0.9)
        params = WatermarkParams(
            T=0.9, o=o, o_max=0.9, delta=0.45, n=20, key=key, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(3.0), 0.9 + 20 * 0.9, derive_seed(seed, "flow"))
        result = detect(embed(flow, params), params)
        assert result.detected
        assert abs(result.recovered_offset - o) <= params.delta / 2

    def test_recovery_ignores_embedding_offset_field(self):
        params = WatermarkParams(
            T=0.9, o=0.9, o_max=0.9, delta=0.45, n=20, key=42, clear_fraction=0.5
        )
        marked = embed(generate_flow(PoissonModel(3.0), 18.9, seed=401), params)
        # detector only sees o_max, delta, and the keyed pattern
        blind = replace(params, o=0.0)
        result = detect(marked, blind)
        assert result.detected
        assert abs(result.recovered_offset - 0.9) <= params.delta / 2

    def test_dense_flow_scores_below_one(self):
        params = WatermarkParams(
            T=0.9, o=0.0, o_max=0.9, delta=0.45, n=20, key=42, clear_fraction=0.5
        )
        ts = np.arange(0.05, 18.9, 0.1)
        result = detect(Flow(timestamps=ts, duration=18.9), params)
        assert not result.detected
        assert result.recovered_offset is None
        assert 0.0 <= result.match_score < 1.0

    def test_empty_flow_matches_vacuously(self):
        # nothing contradicts the pattern, so the first candidate wins
        params = WatermarkParams(
            T=0.9, o=0.0, o_max=0.9, delta=0.45, n=4, key=42, clear_fraction=0.5
        )
        result = detect(Flow(timestamps=[], duration=5.0), params)
        assert result.detected
        assert result.recovered_offset == 0.0

    def test_rejects_short_flow(self):
        params = WatermarkParams(
            T=0.9, o=0.0, o_max=0.9, delta=0.45, n=20, key=42, clear_fraction=0.5
        )
        with pytest.raises(FlowTooShort):
            detect(Flow(timestamps=[0.1], duration=5.0), params)

    def test_guaranteed_recognition_margin(self):
        """A candidate strictly within delta/2 of the true offset must score 1.

        The detector checks sub-windows shrunk by delta/2 on both sides, so
        an embedded flow stays fully clear at any candidate that close.  The
        bound is open: at a distance of exactly delta/2 a delayed packet sits
        on the sub-window edge and float rounding decides the side.
        """
        params = WatermarkParams(
            T=0.9, o=0.3, o_max=0.9, delta=0.45, n=20, key=9, clear_fraction=0.5
        )
        marked = embed(generate_flow(PoissonModel(8.0), 18.9, seed=402), params)
        cleared = sorted(params.pattern().cleared)
        margin = params.delta / 2
        for shift in (-0.999 * margin, 0.0, 0.999 * margin):
            cand = params.o + shift
            for i in cleared:
                lo = cand + i * params.T + margin
                hi = cand + (i + 1) * params.T - margin
                assert count_in(marked, lo, hi) == 0


class TestWilsonInterval:
    def test_balanced_sample(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40382982859014716, rel=1e-12)
        assert hi == pytest.approx(0.5961701714098528, rel=1e-12)

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.03699480747600191, rel=1e-12)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 40)
        assert lo < 7 / 40 < hi


def reference_params(**changes) -> WatermarkParams:
    values = dict(T=0.9, o=0.45, o_max=0.9, delta=0.45, n=20, key=987654321, clear_fraction=0.5)
    return WatermarkParams(**(values | changes))


# Every plain-value check of the watermark module, one call each.
BAD_PARAMETERS = {
    "params T": lambda: reference_params(T=0.0),
    "params o_max": lambda: reference_params(o=0.0, o_max=-0.1),
    "params o": lambda: reference_params(o=1.0),
    "params delta": lambda: reference_params(delta=1.0),
    "params n": lambda: reference_params(n=0),
    "params clear_fraction": lambda: reference_params(clear_fraction=1.0),
    "params window end": lambda: reference_params(n=10**400),
    "pattern n": lambda: ClearPattern(n=0, cleared={0}),
    "pattern empty": lambda: ClearPattern(n=2, cleared=set()),
    "pattern index": lambda: ClearPattern(n=2, cleared={2}),
    "derive_pattern n": lambda: derive_pattern(1, 0, 0.5),
    "derive_pattern clear_fraction": lambda: derive_pattern(1, 2, 0.0),
    "offset_candidates delta": lambda: offset_candidates(0.9, 0.0),
    "offset_candidates o_max": lambda: offset_candidates(-0.1, 0.45),
    "wilson trials": lambda: wilson_interval(0, 0),
    "wilson successes": lambda: wilson_interval(3, 2),
}


@pytest.mark.parametrize("site", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_a_toolkit_error(site):
    with pytest.raises(BadParameter) as info:
        BAD_PARAMETERS[site]()
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)
