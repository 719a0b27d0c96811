"""Clear-window extraction and the multi-flow attack in all three modes."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flowmark as fm
from flowmark import (
    AttackConfig,
    Flow,
    PoissonModel,
    derive_seed,
    fp_bound,
    generate_flow,
    mfa_fixed_offset,
    mfa_varied_offset_bnb,
    mfa_varied_offset_exhaustive,
    min_flows,
    offset_multiplier,
    poisson_rate_for_clear_probability,
    read_manifest,
)
from flowmark import analysis
from flowmark.analysis import ceil_snapped
from flowmark.errors import BadParameter, FlowmarkError, SearchSpaceTooLarge
from flowmark.mfa import _window_lists, attack, attack_plan
from flowmark.repro import monte_carlo_attack
from search_oracle import assert_is_the_enumeration, enumerate_assignments

REFERENCE_CFG = AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5)


def carved_flow(offset: float, duration: float = 3.6, spacing: float = 0.05,
                gap: tuple[float, float] = (0.9, 1.45)) -> Flow:
    """Dense packet train with a single packet-free gap, shifted by offset."""
    ts = np.arange(spacing, duration, spacing)
    lo, hi = gap[0] + offset, gap[1] + offset
    return Flow(timestamps=ts[(ts <= lo) | (ts >= hi)], duration=duration)


def raw_gaps(flow: Flow) -> list[tuple[float, float]]:
    """Packet-free spans recomputed independently of the library internals."""
    edges = [0.0, *flow.timestamps.tolist(), flow.duration]
    return [(s, e) for s, e in zip(edges[:-1], edges[1:]) if e > s]


def quantize_gap(s: float, e: float, shift: float, quantum: float):
    """Scalar reference for snapping one gap, shifted by -shift, inward onto the grid."""
    lo = math.ceil((s - shift) / quantum)
    while lo * quantum + shift < s:
        lo += 1
    hi = math.floor((e - shift) / quantum)
    while hi * quantum + shift > e:
        hi -= 1
    if hi <= lo:
        return None
    return lo, hi


def reference_grid_windows(flow: Flow, shift: float, quantum: float, min_units: int):
    out = []
    for s, e in raw_gaps(flow):
        q = quantize_gap(s, e, shift, quantum)
        if q is not None and q[1] - q[0] >= min_units:
            out.append(q)
    return out


def window_cfg(min_length: float, quantum: float) -> AttackConfig:
    """A config whose windows at offset 0 are at least min_length long."""
    return AttackConfig(
        T=2 * min_length, delta=min_length, o_max=0.0, epsilon=1e-3, quantum=quantum
    )


def reference_window_lists(flows, cfg, shifts):
    min_units = ceil_snapped(cfg.min_length / cfg.quantum)
    return [
        [reference_grid_windows(flow, shift, cfg.quantum, min_units) for shift in shifts]
        for flow in flows
    ]


@st.composite
def attack_instances(draw):
    """A config plus flows mixing free, grid-aligned and duplicate timestamps."""
    T = draw(st.floats(0.05, 2.0))
    delta = T / draw(st.sampled_from([1, 2, 3, 4]))
    quantum = delta / draw(st.sampled_from([4, 8, 16]))
    o_max = delta * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]))
    cfg = AttackConfig(T=T, delta=delta, o_max=o_max, epsilon=1e-3, quantum=quantum)
    shifts = attack_plan("bnb", cfg, 1)
    flows = []
    for _ in range(draw(st.integers(1, 4))):
        duration = draw(st.floats(quantum, 8 * T))
        on_grid = st.builds(
            lambda i, shift: min(duration, i * quantum + shift),
            st.integers(0, int(duration / quantum)),
            st.sampled_from(shifts),
        )
        ts = draw(st.lists(st.one_of(st.floats(0.0, duration), on_grid), max_size=30))
        if ts:
            ts += draw(st.lists(st.sampled_from(ts), max_size=6))
        flows.append(Flow(timestamps=ts, duration=duration))
    return cfg, shifts, flows


def assert_window_sound(finding, flows, cfg) -> None:
    """A positive verdict must name a window that is clear in every flow."""
    assert finding.matched_window is not None
    assert finding.offset_assignment is not None
    start, length = finding.matched_window
    assert length >= cfg.min_length - 1e-9
    for flow, offset in zip(flows, finding.offset_assignment):
        lo, hi = start + offset, start + length + offset
        # open interval: boundary packets do not violate the window
        inside = np.count_nonzero((flow.timestamps > lo) & (flow.timestamps < hi))
        assert inside == 0


class TestAttackConfig:
    def test_default_quantum_is_delta_eighth(self):
        assert REFERENCE_CFG.quantum == pytest.approx(0.45 / 8, rel=1e-12)

    def test_min_length(self):
        assert REFERENCE_CFG.min_length == pytest.approx(0.45, rel=1e-12)

    def test_rejects_delta_above_interval(self):
        with pytest.raises(BadParameter, match="delta must be in"):
            AttackConfig(T=0.9, delta=1.0, o_max=0.9, epsilon=1e-5)

    def test_rejects_coarse_quantum(self):
        with pytest.raises(ValueError):
            AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5, quantum=0.2)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=0.0)


# Every plain-value check of mfa and the Monte Carlo driver, one call each.
BAD_PARAMETERS = {
    "T": lambda: AttackConfig(T=0.0, delta=0.45, o_max=0.9, epsilon=1e-5),
    "delta": lambda: AttackConfig(T=0.9, delta=1.0, o_max=0.9, epsilon=1e-5),
    "o_max": lambda: AttackConfig(T=0.9, delta=0.45, o_max=-0.1, epsilon=1e-5),
    "epsilon": lambda: AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1.0),
    "quantum": lambda: AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5, quantum=0.2),
    "quantum nan": lambda: AttackConfig(
        T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5, quantum=math.nan
    ),
    "delta nan": lambda: AttackConfig(T=0.9, delta=math.nan, o_max=0.9, epsilon=1e-5),
    "method": lambda: attack_plan("greedy", REFERENCE_CFG, 2),
    "k": lambda: attack_plan("bnb", REFERENCE_CFG, 0),
    "trials": lambda: monte_carlo_attack(
        "bnb", REFERENCE_CFG, PoissonModel(3.0), 0.9, 2, 0, 0, 0.276
    ),
}


@pytest.mark.parametrize("site", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_a_toolkit_error(site):
    with pytest.raises(BadParameter) as info:
        BAD_PARAMETERS[site]()
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)


class TestWindowsOfOneFlow:
    def test_two_packet_example(self):
        flow = Flow(timestamps=[1.0, 5.0], duration=6.0)
        (windows,) = _window_lists([flow], window_cfg(2.0, 0.25), [0.0])[0]
        assert [(lo * 0.25, (hi - lo) * 0.25) for lo, hi in windows] == [(1.0, 4.0)]

    def test_empty_flow_is_one_big_window(self):
        flow = Flow(timestamps=[], duration=3.0)
        (windows,) = _window_lists([flow], window_cfg(1.0, 0.25), [0.0])[0]
        assert [(lo * 0.25, (hi - lo) * 0.25) for lo, hi in windows] == [(0.0, 3.0)]

    def test_no_window_in_dense_flow(self):
        flow = Flow(timestamps=np.arange(0.1, 3.0, 0.1), duration=3.0)
        assert _window_lists([flow], window_cfg(0.45, 0.05), [0.0]) == [[[]]]

    def test_windows_sorted_by_start(self):
        flow = Flow(timestamps=[1.0, 1.1, 3.0, 3.05], duration=6.0)
        (windows,) = _window_lists([flow], window_cfg(0.5, 0.1), [0.0])[0]
        starts = [lo for lo, _ in windows]
        assert starts == sorted(starts)
        assert len(windows) == 3

    def test_zero_min_length_still_needs_one_quantum(self):
        """With delta == T a window has no minimum, but the gap filter keeps one quantum."""
        flow = Flow(timestamps=[1.0, 1.1, 2.0], duration=3.0)
        cfg = AttackConfig(T=1.0, delta=1.0, o_max=0.0, epsilon=1e-3, quantum=0.25)
        assert cfg.min_length == 0.0
        (windows,) = _window_lists([flow], cfg, [0.0])[0]
        assert windows == [(0, 4), (5, 8), (8, 12)]
        assert windows == reference_grid_windows(flow, 0.0, 0.25, 1)

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(BadParameter, match="quantum must be in"):
            window_cfg(0.5, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_are_conservative(self, seed):
        """Every reported window is packet-free and sits inside a raw gap."""
        flow = generate_flow(PoissonModel(4.0), 8.0, seed=700 + seed)
        quantum = 0.45 / 8
        (windows,) = _window_lists([flow], window_cfg(0.45, quantum), [0.0])[0]
        for lo, hi in windows:
            start, length = lo * quantum, (hi - lo) * quantum
            inside = np.count_nonzero(
                (flow.timestamps > start) & (flow.timestamps < start + length)
            )
            assert inside == 0
            assert any(
                s - 1e-9 <= start and start + length <= e + 1e-9
                for s, e in raw_gaps(flow)
            )
            assert length >= 0.45 - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_no_qualifying_gap_is_missed_badly(self, seed):
        """Any raw gap longer than min_length + 2 quanta must be reported."""
        flow = generate_flow(PoissonModel(4.0), 8.0, seed=800 + seed)
        quantum = 0.45 / 8
        (windows,) = _window_lists([flow], window_cfg(0.45, quantum), [0.0])[0]
        for s, e in raw_gaps(flow):
            if e - s >= 0.45 + 2 * quantum:
                assert any(
                    s - quantum <= lo * quantum <= s + quantum + 1e-9 for lo, _ in windows
                ), (s, e)


class TestGridWindowsMatchScalarReference:
    @given(instance=attack_instances())
    def test_window_lists_equal_reference(self, instance):
        cfg, shifts, flows = instance
        assert _window_lists(flows, cfg, shifts) == reference_window_lists(
            flows, cfg, shifts
        )

    @given(instance=attack_instances())
    def test_no_packet_inside_a_reported_window(self, instance):
        cfg, _, flows = instance
        q = cfg.quantum
        for flow in flows:
            (windows,) = _window_lists([flow], cfg, [0.0])[0]
            for lo, hi in windows:
                # The window ends at grid index hi, as the snapping guard checks
                # it; lo * q + (hi - lo) * q can land one ulp past a packet at hi * q.
                ts = flow.timestamps
                assert not np.any((ts > lo * q) & (ts < hi * q))

    def test_long_flows_match_reference(self):
        flows = [generate_flow(PoissonModel(60.0), 90.9, seed=1)] + [
            generate_flow(PoissonModel(20.0), 90.9, seed=seed) for seed in (2, 3, 4)
        ]
        shifts = attack_plan("bnb", REFERENCE_CFG, 4)
        assert _window_lists(flows, REFERENCE_CFG, shifts) == reference_window_lists(
            flows, REFERENCE_CFG, shifts
        )

    def test_grid_too_fine_for_the_flow_is_an_error(self):
        flow = Flow(timestamps=[1.0], duration=1e18)
        with pytest.raises(SearchSpaceTooLarge):
            _window_lists([flow], window_cfg(0.5, 0.1), [0.0])


class TestFixedOffset:
    def test_shared_gap_is_found(self):
        flows = [carved_flow(0.0) for _ in range(3)]
        finding = mfa_fixed_offset(flows, REFERENCE_CFG, clear_prob=0.276)
        assert finding.present
        assert finding.offset_assignment == (0.0, 0.0, 0.0)
        assert finding.configurations_searched == 1
        assert finding.fp_bound_at_k == pytest.approx(0.276**3, rel=1e-12)
        assert_window_sound(finding, flows, REFERENCE_CFG)

    def test_misaligned_gaps_are_not_common(self):
        flows = [carved_flow(0.0), carved_flow(0.45), carved_flow(0.45)]
        finding = mfa_fixed_offset(flows, REFERENCE_CFG, clear_prob=0.276)
        assert not finding.present
        assert finding.matched_window is None
        assert finding.offset_assignment is None

    def test_single_flow_reduces_to_window_search(self):
        flow = carved_flow(0.0)
        finding = mfa_fixed_offset([flow], REFERENCE_CFG, clear_prob=0.276)
        (windows,) = _window_lists([flow], REFERENCE_CFG, [0.0])[0]
        (lo, hi), q = windows[0], REFERENCE_CFG.quantum
        assert finding.present
        assert finding.matched_window == (lo * q, (hi - lo) * q)

    def test_estimated_clear_probability_feeds_the_bound(self):
        flows = [generate_flow(PoissonModel(3.0), 10.0, seed=900 + i) for i in range(4)]
        finding = mfa_fixed_offset(flows, REFERENCE_CFG)
        p_hat = sum(
            fm.estimate_clear_probability(f, 0.45, REFERENCE_CFG.quantum) for f in flows
        ) / len(flows)
        assert finding.fp_bound_at_k == pytest.approx(
            fp_bound(4, p_hat, 1).clamped, rel=1e-12
        )

    def test_short_flows_do_not_dilute_the_estimate(self):
        long_flows = [generate_flow(PoissonModel(3.0), 10.0, seed=950 + i) for i in range(2)]
        short = Flow(timestamps=[0.1], duration=0.3)
        finding = mfa_fixed_offset([long_flows[0], short, long_flows[1]], REFERENCE_CFG)
        p_hat = sum(
            fm.estimate_clear_probability(f, 0.45, REFERENCE_CFG.quantum) for f in long_flows
        ) / len(long_flows)
        assert finding.fp_bound_at_k == pytest.approx(fp_bound(3, p_hat, 1).clamped, rel=1e-12)

    def test_only_short_flows_claim_nothing(self):
        flows = [Flow(timestamps=[0.1], duration=0.3), Flow(timestamps=[], duration=0.4)]
        assert mfa_fixed_offset(flows, REFERENCE_CFG).fp_bound_at_k == 1.0
        assert mfa_varied_offset_bnb(flows, REFERENCE_CFG).fp_bound_at_k == 1.0

    def test_rejects_empty_flow_list(self):
        with pytest.raises(ValueError):
            mfa_fixed_offset([], REFERENCE_CFG)

    def test_reference_false_positive_rate_stays_below_bound(self):
        """Unwatermarked traffic: measured hit rate vs the analytic ceiling.

        Ten flows calibrated to a 0.33 clear probability; each spans a
        single interval, and the 39/40 T window can hardly slide across it.
        A window that slides holds more alignments than the bound's one
        per assignment (ROADMAP item 1).
        """
        lam = poisson_rate_for_clear_probability(0.33, 0.35)
        cfg = AttackConfig(T=0.35, delta=0.35 / 40, o_max=0.0, epsilon=1e-3)
        bound = fp_bound(10, 0.33, 1).clamped
        trials = 3000
        hits = 0
        for trial in range(trials):
            flows = [
                generate_flow(PoissonModel(lam), 0.35, derive_seed(2, "ref-mc", trial, i))
                for i in range(10)
            ]
            hits += mfa_fixed_offset(flows, cfg, clear_prob=0.33).present
        rate = hits / trials
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        assert rate <= bound + 3 * sigma


class TestVariedOffset:
    def test_recovers_planted_offsets(self):
        flows = [carved_flow(o) for o in (0.0, 0.45, 0.45)]
        finding = mfa_varied_offset_exhaustive(flows, REFERENCE_CFG, clear_prob=0.276)
        assert finding.present
        assert finding.offset_assignment == (0.0, 0.45, 0.45)
        # first hit is the 4th assignment in lexicographic order
        assert finding.configurations_searched == 4
        assert finding.fp_bound_at_k == pytest.approx(
            fp_bound(3, 0.276, 2).clamped, rel=1e-12
        )
        assert_window_sound(finding, flows, REFERENCE_CFG)

    def test_zero_offset_spread_equals_fixed_attack(self):
        cfg = AttackConfig(T=0.9, delta=0.45, o_max=0.0, epsilon=1e-5)
        flows = [carved_flow(0.0) for _ in range(3)]
        fixed = mfa_fixed_offset(flows, cfg, clear_prob=0.276)
        varied = mfa_varied_offset_exhaustive(flows, cfg, clear_prob=0.276)
        assert fixed.present
        for finding in (fixed, varied):
            assert_is_the_enumeration(finding, flows, cfg, [0.0], counted=True)
        assert varied.fp_bound_at_k == fixed.fp_bound_at_k

    @pytest.mark.parametrize("present", [True, False])
    def test_exhaustive_answers_at_the_papers_k(self, present):
        # The paper's k = 20 at o_max = 0.9 s: 2 offsets per flow, 2^20 assignments.
        assert attack_plan("exhaustive", REFERENCE_CFG, 20) == [0.0, 0.45]
        path = [d % 3 == 1 for d in range(20)]
        flows = [carved_flow(0.45 * i) for i in path]
        if not present:  # the gap the others share is packed in the last flow
            flows[-1] = Flow(np.arange(0.05, 3.6, 0.05), duration=3.6)
        ex = mfa_varied_offset_exhaustive(flows, REFERENCE_CFG, clear_prob=0.276)
        bb = mfa_varied_offset_bnb(flows, REFERENCE_CFG, clear_prob=0.276)
        assert ex.present is bb.present is present
        assert (ex.matched_window, ex.offset_assignment) == (bb.matched_window, bb.offset_assignment)
        assert ex.fp_bound_at_k == bb.fp_bound_at_k
        if present:
            assert ex.offset_assignment == tuple(0.45 * i for i in path)
            assert ex.configurations_searched == 1 + sum(i * 2 ** (19 - d) for d, i in enumerate(path))
            assert_window_sound(ex, flows, REFERENCE_CFG)
        else:
            assert ex.configurations_searched == 2**20

    def test_offset_count_cap(self, monkeypatch):
        grid = attack_plan("bnb", AttackConfig(T=0.9, delta=0.45, o_max=4500.0, epsilon=1e-5), 1)
        assert len(grid) == analysis.MAX_OFFSETS == 10**4
        with pytest.raises(SearchSpaceTooLarge, match="10001 offsets per flow exceed the cap of 10000"):
            attack_plan("bnb", AttackConfig(T=0.9, delta=0.45, o_max=4500.45, epsilon=1e-5), 1)
        # Under a cap of 4, o_max = 1.8 s gives 4 offsets 0.45 s apart; 2.25 s gives 5.
        monkeypatch.setattr(analysis, "MAX_OFFSETS", 4)
        flows = [carved_flow(0.0), carved_flow(0.45)]
        for method in ("bnb", "exhaustive"):
            cfg = AttackConfig(T=0.9, delta=0.45, o_max=1.8, epsilon=1e-5)
            assert attack(method, flows, cfg, clear_prob=0.276).present
            with pytest.raises(SearchSpaceTooLarge, match="5 offsets per flow exceed the cap of 4"):
                attack(method, flows, dataclasses.replace(cfg, o_max=2.25), clear_prob=0.276)
            with pytest.raises(SearchSpaceTooLarge, match="5 offsets"):
                monte_carlo_attack(method, dataclasses.replace(cfg, o_max=2.25), PoissonModel(3.0),
                                   0.9, 2, 1, 0, 0.276)
        # The closed-form multiplier stays uncapped.
        assert offset_multiplier(2.25, 0.45) == 5

    def test_an_unmeasurable_flow_is_named(self):
        flows = [Flow([0.5], duration=2.0), Flow([0.5], duration=1e12)]
        with pytest.raises(SearchSpaceTooLarge, match=r"^flow 1: a 1000000000000\.0 s flow"):
            attack("bnb", flows, REFERENCE_CFG)
        with pytest.raises(SearchSpaceTooLarge, match=r"^b\.txt: a 1000000000000\.0 s flow"):
            attack("bnb", flows, REFERENCE_CFG, names=["a.txt", "b.txt"])
        # A flow spanning more quanta than the grid indexes is named too: its
        # clear probability is estimated before the search snaps it.
        with pytest.raises(SearchSpaceTooLarge, match=r"^flow 0: "):
            attack("fixed", [Flow([0.5], duration=1e300)], REFERENCE_CFG)
        # With delta = T nothing is estimated, and the search's span guard names it.
        cfg = AttackConfig(T=0.9, delta=0.9, o_max=0.9, epsilon=1e-5)
        flows[1] = Flow([0.5], duration=1e300)
        with pytest.raises(SearchSpaceTooLarge, match=r"^b\.txt: flows span more than the 2\*\*62"):
            attack("bnb", flows, cfg, names=["a.txt", "b.txt"])

    def test_bnb_has_no_cap(self):
        cfg = AttackConfig(T=0.9, delta=0.45, o_max=1.8, epsilon=1e-5)
        flows = [Flow(timestamps=np.arange(0.1, 2.8, 0.1), duration=2.8) for _ in range(10)]
        finding = mfa_varied_offset_bnb(flows, cfg, clear_prob=0.276)
        assert not finding.present
        # dense flows die at the first flow: one probe per first-level offset
        assert finding.configurations_searched == 4

    def test_more_flows_never_create_a_hit(self):
        base = [carved_flow(0.0), carved_flow(0.45)]
        present_two = mfa_varied_offset_bnb(base, REFERENCE_CFG, clear_prob=0.276).present
        extended = base + [Flow(np.arange(0.05, 3.6, 0.05), duration=3.6)]
        present_three = mfa_varied_offset_bnb(extended, REFERENCE_CFG, clear_prob=0.276).present
        assert present_two or not present_three
        assert not present_three


class TestBranchAndBoundAgreesWithExhaustive:
    @pytest.mark.parametrize("idx", range(150))
    def test_identical_verdicts_on_random_instances(self, idx):
        seed = derive_seed(0, "bnb-oracle", idx)
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        T = rng.uniform(0.3, 1.2)
        delta = T / rng.choice([2, 3, 4])
        mult = rng.randint(1, 4)
        o_max = mult * delta * rng.uniform(0.5, 1.0)
        cfg = AttackConfig(T=T, delta=delta, o_max=o_max, epsilon=1e-3)
        lam = rng.uniform(0.5, 6.0)
        dur = o_max + T * rng.uniform(1.0, 4.0)
        watermarked = rng.random() < 0.5
        key = rng.getrandbits(64)
        n = rng.randint(2, 6)
        flows = []
        for i in range(k):
            flow = generate_flow(
                PoissonModel(lam), max(dur, o_max + n * T), derive_seed(seed, "flow", i)
            )
            if watermarked:
                o = rng.uniform(0, o_max)
                params = fm.WatermarkParams(
                    T=T, o=o, o_max=o_max, delta=delta, n=n, key=key, clear_fraction=0.4
                )
                flow = fm.embed(flow, params)
            flows.append(flow)

        ex = mfa_varied_offset_exhaustive(flows, cfg, clear_prob=0.3)
        bb = mfa_varied_offset_bnb(flows, cfg, clear_prob=0.3)
        offsets = attack_plan("exhaustive", cfg, k)
        assert_is_the_enumeration(ex, flows, cfg, offsets, counted=True)
        assert_is_the_enumeration(bb, flows, cfg, offsets, counted=False)
        assert bb.fp_bound_at_k == ex.fp_bound_at_k
        assert ex.configurations_searched <= offset_multiplier(o_max, delta) ** k
        if ex.present:
            assert_window_sound(ex, flows, cfg)


class TestSearchesAgreeWithTheOracle:
    @given(instance=attack_instances(), clear_prob=st.one_of(st.none(), st.floats(0.0, 1.0)))
    def test_fixed_offset_is_the_oracle_at_zero_spread(self, instance, clear_prob):
        cfg, _, flows = instance
        fixed = mfa_fixed_offset(flows, cfg, clear_prob=clear_prob)
        assert_is_the_enumeration(fixed, flows, cfg, [0.0], counted=True)
        assert fixed.configurations_searched == 1
        zero_spread = dataclasses.replace(cfg, o_max=0.0)
        varied = mfa_varied_offset_exhaustive(flows, zero_spread, clear_prob=clear_prob)
        assert fixed.fp_bound_at_k == varied.fp_bound_at_k

    @given(instance=attack_instances(), clear_prob=st.one_of(st.none(), st.floats(0.0, 1.0)))
    def test_bnb_is_the_oracle(self, instance, clear_prob):
        cfg, shifts, flows = instance
        bb = mfa_varied_offset_bnb(flows, cfg, clear_prob=clear_prob)
        assert_is_the_enumeration(bb, flows, cfg, shifts, counted=False)
        ex = mfa_varied_offset_exhaustive(flows, cfg, clear_prob=clear_prob)
        assert bb.fp_bound_at_k == ex.fp_bound_at_k

    @given(instance=attack_instances())
    def test_exhaustive_counts_the_enumeration(self, instance):
        cfg, shifts, flows = instance
        ex = attack("exhaustive", flows, cfg, clear_prob=0.5)
        tried, window, assignment = enumerate_assignments(flows, cfg, shifts)
        assert (ex.matched_window, ex.offset_assignment) == (window, assignment)
        assert ex.configurations_searched == tried
        if not ex.present:
            assert tried == len(shifts) ** len(flows)
        assert attack("bnb", flows, cfg, clear_prob=0.5).configurations_searched <= tried

    def test_bnb_reaches_the_depth_min_flows_prescribes(self):
        k = min_flows(1e-5, 0.9, 0.45, 0.4999).min_k
        assert k > 50_000
        flows = [Flow([0.95], 1.8)] * k
        finding = mfa_varied_offset_bnb(flows, REFERENCE_CFG, clear_prob=0.4999)
        assert finding.present
        assert finding.offset_assignment == (0.0,) * k
        assert finding.configurations_searched == 1


class TestManifest:
    def test_round_trip_with_comments_and_relative_paths(self, tmp_path):
        flows = [generate_flow(PoissonModel(3.0), 4.0, seed=i) for i in range(3)]
        sub = tmp_path / "data"
        sub.mkdir()
        for i, flow in enumerate(flows):
            fm.write_flow(flow, sub / f"f{i}.txt")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# reference ensemble\n"
            "data/f0.txt\n"
            "\n"
            "data/f1.txt\n"
            f"{sub / 'f2.txt'}\n"
        )
        paths = read_manifest(manifest)
        assert [fm.read_flow(p) for p in paths] == flows

    def test_missing_manifest_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_manifest(tmp_path / "none.txt")
