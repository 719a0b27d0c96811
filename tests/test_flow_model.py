"""Flow construction, traffic generation, clear-probability math, flow files."""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmark import (
    EmpiricalModel,
    Flow,
    PoissonModel,
    REFERENCE_CLEAR_TABLE,
    clear_probability,
    derive_seed,
    estimate_clear_probability,
    generate_flow,
    poisson_rate_for_clear_probability,
    read_flow,
    write_flow,
)
from flowmark.errors import BadParameter, FlowmarkError, FlowFileError, SearchSpaceTooLarge
from flowmark import flow_model
from flowmark.flow_model import MAX_FLOW_PACKETS, _canonical_timestamps, draw_width


class TestFlow:
    def test_sorts_timestamps(self):
        flow = Flow(timestamps=[0.5, 0.1, 0.3], duration=1.0)
        assert list(flow.timestamps) == [0.1, 0.3, 0.5]

    def test_ties_become_strictly_increasing(self):
        flow = Flow(timestamps=[0.5, 0.1, 0.5, 0.5], duration=1.0)
        ts = flow.timestamps
        assert len(ts) == 4
        assert all(ts[i] < ts[i + 1] for i in range(3))
        # first of the tied packets keeps the exact value
        assert ts[1] == 0.5
        assert ts[2] == math.nextafter(0.5, math.inf)

    def test_tie_at_largest_float_is_rejected(self):
        # The nudged tie would be inf.
        big = sys.float_info.max
        with pytest.raises(ValueError, match="finite"):
            Flow(timestamps=[big, big], duration=big)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            Flow(timestamps=[-0.1, 0.5], duration=1.0)

    def test_rejects_timestamp_past_duration(self):
        with pytest.raises(ValueError):
            Flow(timestamps=[1.1], duration=1.0)

    def test_timestamp_at_duration_allowed(self):
        # the observation window is closed on the right
        flow = Flow(timestamps=[1.0], duration=1.0)
        assert len(flow) == 1

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(BadParameter, match="duration must be positive"):
            Flow(timestamps=[], duration=0.0)

    def test_empty_flow(self):
        flow = Flow(timestamps=[], duration=2.0)
        assert len(flow) == 0

    def test_immutable_timestamps(self):
        flow = Flow(timestamps=[0.5], duration=1.0)
        with pytest.raises(ValueError):
            flow.timestamps[0] = 0.1

    def test_equality_by_value(self):
        a = Flow(timestamps=[0.3, 0.1], duration=1.0)
        b = Flow(timestamps=[0.1, 0.3], duration=1.0)
        c = Flow(timestamps=[0.1, 0.3], duration=2.0)
        assert a == b
        assert a != c


def canonical_reference(values) -> list[float]:
    """Stable sort, then nudge each later duplicate one float step up."""
    out = sorted(float(v) for v in values)
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = math.nextafter(out[i - 1], math.inf)
    return out


def timestamp_lists(values):
    """Lists drawing often from a few fixed values, so runs of ties occur."""
    return st.lists(st.one_of(values, st.sampled_from([0.0, 0.25, 1.0])), max_size=40)


# Values where the float step is unusual: both zeros, the smallest
# subnormals, neighbours one ulp apart, and the largest floats.
TIE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.0, math.nextafter(1.0, math.inf),
    math.nextafter(1.0, -math.inf), 2.0, 1e300, -1e300, sys.float_info.max,
    -sys.float_info.max, math.nextafter(sys.float_info.max, 0.0),
)


@st.composite
def tie_heavy_lists(draw):
    """Runs of repeated values from TIE_VALUES, in shuffled order."""
    runs = draw(st.lists(st.tuples(st.sampled_from(TIE_VALUES), st.integers(1, 6)), max_size=12))
    return draw(st.permutations([v for v, count in runs for _ in range(count)]))


class TestCanonicalTimestamps:
    @settings(max_examples=500)
    @given(values=tie_heavy_lists())
    def test_tie_heavy_inputs_match_sequential_tie_break(self, values):
        expected = canonical_reference(values)
        if not all(map(math.isfinite, expected)):
            with pytest.raises(ValueError, match="finite"):
                _canonical_timestamps(values)
            return
        out = _canonical_timestamps(values)
        assert out.tobytes() == np.array(expected, dtype=float).tobytes()

    @given(
        # Bounded below the largest float, where a nudged tie would overflow to inf.
        values=timestamp_lists(st.floats(-1e300, 1e300)),
        as_array=st.booleans(),
    )
    def test_matches_stable_sort_with_tie_break(self, values, as_array):
        given_ts = np.array(values, dtype=float) if as_array else values
        out = _canonical_timestamps(given_ts)
        assert out.tobytes() == np.array(canonical_reference(values), dtype=float).tobytes()
        assert bool(np.all(out[1:] > out[:-1]))

    @given(values=timestamp_lists(st.floats(0.0, 10.0)))
    def test_flow_leaves_caller_array_alone(self, values):
        given_ts = np.array(values, dtype=float)
        before = given_ts.tobytes()
        flow = Flow(timestamps=given_ts, duration=11.0)
        assert given_ts.flags.writeable
        assert given_ts.tobytes() == before
        assert flow.timestamps.tolist() == canonical_reference(values)
        assert not flow.timestamps.flags.writeable


class TestGenerateFlow:
    def test_deterministic(self):
        a = generate_flow(PoissonModel(5.0), 10.0, seed=42)
        b = generate_flow(PoissonModel(5.0), 10.0, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_flow(PoissonModel(5.0), 10.0, seed=42)
        b = generate_flow(PoissonModel(5.0), 10.0, seed=43)
        assert a != b

    def test_rejects_table_model(self):
        with pytest.raises(BadParameter, match="cannot generate flows"):
            generate_flow(REFERENCE_CLEAR_TABLE, 10.0, seed=1)

    def test_rejects_zero_duration(self):
        with pytest.raises(BadParameter, match="duration must be positive"):
            generate_flow(PoissonModel(5.0), 0.0, seed=1)

    def test_expected_packet_cap_edge(self):
        # Only draw_width is called here: a flow this long would take 80 MB.
        cap = float(MAX_FLOW_PACKETS)
        assert draw_width(PoissonModel(1.0), cap) > MAX_FLOW_PACKETS
        assert draw_width(PoissonModel(2.0), cap / 2) > MAX_FLOW_PACKETS
        for rate, duration in [(1.0, math.nextafter(cap, math.inf)), (3.0, 1e300)]:
            with pytest.raises(BadParameter, match="more than the 10000000 one flow"):
                draw_width(PoissonModel(rate), duration)

    def test_timestamps_inside_duration(self):
        flow = generate_flow(PoissonModel(20.0), 3.0, seed=7)
        assert len(flow) > 0
        assert flow.timestamps[0] >= 0.0
        assert flow.timestamps[-1] < 3.0

    def test_mean_count_tracks_rate(self):
        # 200 flows at rate 3 over 50 s: relative error on the mean well
        # under the ~4% three-sigma band for 30000 expected arrivals.
        rate, duration, flows = 3.0, 50.0, 200
        total = sum(
            len(generate_flow(PoissonModel(rate), duration, derive_seed(5, "mean", i)))
            for i in range(flows)
        )
        assert total / flows == pytest.approx(rate * duration, rel=0.04)

    def test_interarrival_times_look_exponential(self):
        flow = generate_flow(PoissonModel(4.0), 500.0, seed=11)
        gaps = np.diff(flow.timestamps)
        assert np.mean(gaps) == pytest.approx(1 / 4.0, rel=0.05)


class TestClearProbability:
    def test_zero_window_is_always_clear(self):
        assert clear_probability(PoissonModel(9.0), 0.0) == 1.0
        assert clear_probability(REFERENCE_CLEAR_TABLE, 0.0) == 1.0

    def test_poisson_closed_form(self):
        assert clear_probability(PoissonModel(2.0), 0.5) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_reference_table_knots(self):
        assert clear_probability(REFERENCE_CLEAR_TABLE, 0.175) == 0.525
        assert clear_probability(REFERENCE_CLEAR_TABLE, 0.35) == 0.33
        assert clear_probability(REFERENCE_CLEAR_TABLE, 0.45) == 0.276

    def test_table_interpolates_between_knots(self):
        mid = clear_probability(REFERENCE_CLEAR_TABLE, (0.175 + 0.35) / 2)
        assert mid == pytest.approx((0.525 + 0.33) / 2, rel=1e-12)

    def test_table_clamps_outside_range(self):
        # Past the last point the table clamps; below the first, only an empty window has a value.
        model = REFERENCE_CLEAR_TABLE
        with pytest.raises(BadParameter, match="below the table's first point 0.175"):
            model.lookup(0.05)
        assert model.lookup(0.0) == clear_probability(model, 0.0) == 1.0
        assert model.lookup(2.0) == 0.276
        assert 0.33 < model.lookup(0.3) < 0.525

    @given(
        table=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0)), min_size=1, max_size=5
        ),
        frac=st.floats(0.0, 1.0),
    )
    def test_table_never_under_states_below_its_first_point(self, table, frac):
        ts = sorted({t for t, _ in table})
        ps = sorted((p for _, p in table[: len(ts)]), reverse=True)
        model = EmpiricalModel(table=tuple(zip(ts, ps)))
        t = frac * ts[0]
        try:
            assert model.lookup(t) >= ps[0]
        except BadParameter as exc:
            assert 0.0 < t < ts[0] and repr(ts[0]) in str(exc)

    def test_rejects_negative_window(self):
        with pytest.raises(BadParameter, match="window length must be non-negative"):
            clear_probability(PoissonModel(2.0), -0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_increasing_in_window_length(self, seed):
        rng = np.random.default_rng(seed)
        model = PoissonModel(rng.uniform(0.5, 8.0))
        a, b = sorted(rng.uniform(0.0, 2.0, size=2))
        assert clear_probability(model, b) <= clear_probability(model, a)

    def test_table_rejects_increasing_probability(self):
        with pytest.raises(ValueError):
            EmpiricalModel(table=((0.1, 0.3), (0.2, 0.4)))

    def test_table_rejects_unsorted_windows(self):
        with pytest.raises(ValueError):
            EmpiricalModel(table=((0.2, 0.4), (0.1, 0.5)))

    def test_table_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            EmpiricalModel(table=((0.1, 1.5),))


# Every plain-value check of the flow models, one call each.
BAD_MODELS = {
    "poisson rate": lambda: PoissonModel(0.0),
    "table empty": lambda: EmpiricalModel(table=()),
    "table negative window": lambda: EmpiricalModel(table=((-0.1, 0.5),)),
    "table nan window": lambda: EmpiricalModel(table=((0.1, 0.5), (math.nan, 0.4))),
    "table inf window": lambda: EmpiricalModel(table=((0.1, 0.5), (math.inf, 0.4))),
    "table probability": lambda: EmpiricalModel(table=((0.1, 1.5),)),
    "table window order": lambda: EmpiricalModel(table=((0.2, 0.4), (0.1, 0.5))),
    "table probability order": lambda: EmpiricalModel(table=((0.1, 0.3), (0.2, 0.4))),
}


@pytest.mark.parametrize("site", sorted(BAD_MODELS))
def test_bad_model_is_a_toolkit_error(site):
    with pytest.raises(BadParameter) as info:
        BAD_MODELS[site]()
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)


class TestEstimateClearProbability:
    def test_empty_flow_is_fully_clear(self):
        flow = Flow(timestamps=[], duration=5.0)
        assert estimate_clear_probability(flow, 1.0, 0.5) == 1.0

    def test_saturated_flow_has_no_clear_windows(self):
        flow = Flow(timestamps=np.arange(0.05, 2.0, 0.05), duration=2.0)
        assert estimate_clear_probability(flow, 0.2, 0.1) == 0.0

    def test_window_end_is_exclusive(self):
        # windows [0, 0.2) and [0.2, 0.4): the packet at 0.2 only blocks the
        # second one, so half the windows are clear
        flow = Flow(timestamps=[0.2], duration=0.4)
        assert estimate_clear_probability(flow, 0.2, 0.2) == 0.5

    def test_single_window_flow(self):
        flow = Flow(timestamps=[0.9], duration=1.0)
        assert estimate_clear_probability(flow, 1.0, 0.25) == 0.0

    def test_rejects_window_longer_than_flow(self):
        flow = Flow(timestamps=[0.5], duration=1.0)
        with pytest.raises(BadParameter, match="exceeds flow duration"):
            estimate_clear_probability(flow, 2.0, 0.5)

    def test_rejects_bad_stride(self):
        flow = Flow(timestamps=[0.5], duration=1.0)
        with pytest.raises(ValueError):
            estimate_clear_probability(flow, 0.5, 0.0)

    def test_window_sample_cap(self, monkeypatch):
        for duration in (1e12, sys.float_info.max):
            with pytest.raises(SearchSpaceTooLarge, match="more than 10000000 window starts"):
                estimate_clear_probability(Flow([0.5], duration), 1.0, 0.25)
        # Under a cap of 8, starts 0 .. 1.75 s fit a 2.75 s flow; one more does not.
        monkeypatch.setattr(flow_model, "MAX_WINDOW_SAMPLES", 8)
        assert estimate_clear_probability(Flow([0.5], 2.75), 1.0, 0.25) == 5 / 8
        with pytest.raises(SearchSpaceTooLarge, match="more than 8 window starts"):
            estimate_clear_probability(Flow([0.5], 3.0), 1.0, 0.25)

    def test_matches_analytic_on_poisson_traffic(self):
        # single long flow; the sliding-window estimate should sit near
        # exp(-rate * t)
        rate, t = 3.0, 0.45
        flow = generate_flow(PoissonModel(rate), 2000.0, seed=909)
        estimate = estimate_clear_probability(flow, t, t / 4)
        assert estimate == pytest.approx(math.exp(-rate * t), abs=0.02)


class TestRateCalibration:
    def test_unit_case(self):
        assert poisson_rate_for_clear_probability(math.exp(-1.0), 1.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_reference_450ms_point(self):
        rate = poisson_rate_for_clear_probability(0.276, 0.45)
        assert rate == pytest.approx(2.860787585033304, rel=1e-12)

    def test_reference_350ms_point(self):
        rate = poisson_rate_for_clear_probability(0.33, 0.35)
        assert rate == pytest.approx(-math.log(0.33) / 0.35, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.276, 0.525, 0.9])
    def test_round_trips_through_clear_probability(self, p):
        t = 0.45
        rate = poisson_rate_for_clear_probability(p, t)
        assert clear_probability(PoissonModel(rate), t) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_degenerate_probability(self, p):
        with pytest.raises(BadParameter, match="clear probability must be in"):
            poisson_rate_for_clear_probability(p, 0.45)

    def test_rejects_zero_window(self):
        with pytest.raises(BadParameter, match="window length must be positive"):
            poisson_rate_for_clear_probability(0.5, 0.0)


def read_flow_reference(path: Path) -> Flow:
    """Per-line flow-file parser: the oracle for read_flow's messages."""
    lines = path.read_text(encoding="ascii").splitlines()
    duration = float(lines[0][len("# duration="):])
    timestamps = []
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
        timestamps.append(value)
        prev = value
    return Flow(timestamps=timestamps, duration=duration)


# Lines spliced into an otherwise valid body: blanks, garbage, nan/inf,
# out-of-range and out-of-order values, forms float() accepts, and a form
# feed, which splitlines() counts as a line break.
ODD_LINES = (
    "", "   ", "\t", "x", "1..2", "nan", "-inf", "inf", "-1.0", "12.5", " 3.5 ",
    "1_0", "5.0", "0.0", "-0.0", "1e-400", "0x10", "\x0c",
)


@st.composite
def flow_file_bodies(draw):
    lines = [repr(v) for v in sorted(draw(st.lists(st.floats(0.0, 10.0), max_size=20)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
    return lines


class TestFlowFiles:
    def test_round_trip(self, tmp_path):
        flow = generate_flow(PoissonModel(8.0), 4.0, seed=21)
        path = tmp_path / "flow.txt"
        write_flow(flow, path)
        assert read_flow(path) == flow

    def test_round_trip_preserves_exact_bits(self, tmp_path):
        flow = Flow(timestamps=[0.1, 0.30000000000000004, 2.5], duration=3.0)
        path = tmp_path / "flow.txt"
        write_flow(flow, path)
        back = read_flow(path)
        assert list(back.timestamps) == list(flow.timestamps)
        assert back.duration == flow.duration

    def test_empty_flow_round_trip(self, tmp_path):
        flow = Flow(timestamps=[], duration=1.5)
        path = tmp_path / "empty.txt"
        write_flow(flow, path)
        assert read_flow(path) == flow

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.7\n")
        with pytest.raises(FlowFileError, match="duration"):
            read_flow(path)

    def test_rejects_descending_timestamps_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# duration=2.0\n0.7\n0.5\n")
        with pytest.raises(FlowFileError, match=":3:"):
            read_flow(path)

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# duration=2.0\n0.5\nnot-a-number\n")
        with pytest.raises(FlowFileError, match=":3:"):
            read_flow(path)

    def test_rejects_out_of_range_timestamp(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# duration=2.0\n2.5\n")
        with pytest.raises(FlowFileError):
            read_flow(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# duration=2.0\n0.5\nnan\n", ":3:"),
            ("# duration=nan\n0.5\n", ":1:"),
            ("# duration=inf\n", ":1:"),
            ("# duration=0\n", ":1:"),
        ],
    )
    def test_rejects_bad_values_with_line_number(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FlowFileError, match=line):
            read_flow(path)

    def test_rejects_non_ascii_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("# duration=2.0\n0.5\u00b5\n".encode("utf-8"))
        with pytest.raises(FlowFileError, match="ASCII"):
            read_flow(path)

    @given(values=timestamp_lists(st.floats(0.0, 10.0)))
    def test_write_then_read_is_identity(self, values):
        flow = Flow(timestamps=values, duration=10.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.txt"
            write_flow(flow, path)
            back = read_flow(path)
        assert back.timestamps.tobytes() == flow.timestamps.tobytes()
        assert back.duration == flow.duration

    @settings(max_examples=300)
    @given(body=flow_file_bodies())
    def test_matches_per_line_parser(self, body):
        text = "# duration=10.0\n" + "\n".join(body) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.txt"
            path.write_text(text, encoding="ascii")
            try:
                expected = read_flow_reference(path)
            except FlowFileError as exc:
                with pytest.raises(FlowFileError) as raised:
                    read_flow(path)
                assert str(raised.value) == str(exc)
            else:
                assert read_flow(path) == expected

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_flow(tmp_path / "nope.txt")


# Every plain-value check of the flow model module, one call each.
BAD_PARAMETERS = {
    "Flow duration": lambda: Flow(timestamps=[], duration=0.0),
    "Flow shape": lambda: Flow(timestamps=[[0.5]], duration=1.0),
    "Flow finite": lambda: Flow(timestamps=[math.nan], duration=1.0),
    "Flow tie past the largest float": lambda: Flow(
        timestamps=[sys.float_info.max] * 2, duration=sys.float_info.max
    ),
    "Flow negative": lambda: Flow(timestamps=[-0.5], duration=1.0),
    "Flow past duration": lambda: Flow(timestamps=[1.5], duration=1.0),
    "draw_width model": lambda: draw_width(REFERENCE_CLEAR_TABLE, 10.0),
    "draw_width duration": lambda: draw_width(PoissonModel(5.0), 0.0),
    "draw_width packets": lambda: draw_width(PoissonModel(3.0), 1e300),
    "clear_probability window": lambda: clear_probability(PoissonModel(2.0), -0.1),
    "lookup below the first point": lambda: REFERENCE_CLEAR_TABLE.lookup(0.05),
    "estimate window": lambda: estimate_clear_probability(Flow([0.5], 2.0), 0.0, 0.5),
    "estimate window too long": lambda: estimate_clear_probability(Flow([0.5], 1.0), 2.0, 0.5),
    "estimate stride": lambda: estimate_clear_probability(Flow([0.5], 2.0), 0.5, 0.0),
    "poisson_rate probability": lambda: poisson_rate_for_clear_probability(1.0, 0.45),
    "poisson_rate window": lambda: poisson_rate_for_clear_probability(0.5, 0.0),
}


@pytest.mark.parametrize("site", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_a_toolkit_error(site):
    with pytest.raises(BadParameter) as info:
        BAD_PARAMETERS[site]()
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)
