"""Closed-form attack bounds, feasibility, and countermeasure sizing."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmark import (
    PoissonModel,
    REFERENCE_CLEAR_TABLE,
    clear_probability,
    countermeasure_is_effective,
    countermeasure_threshold,
    fp_bound,
    min_flows,
    offset_multiplier,
)
from flowmark.analysis import ceil_snapped
from flowmark.errors import BadParameter, FlowmarkError, SearchSpaceTooLarge


class TestCeilSnapped:
    def test_exact_integer(self):
        assert ceil_snapped(3.0) == 3

    def test_normal_ceiling(self):
        assert ceil_snapped(2.1) == 3

    def test_snaps_just_above_integer(self):
        # 0.9 / 0.3 evaluates to 3.0000000000000004; the true ratio is 3
        assert ceil_snapped(0.9 / 0.3) == 3

    def test_does_not_snap_real_excess(self):
        assert ceil_snapped(3.001) == 4

    def test_overflowed_count_is_a_toolkit_error(self):
        # 1e308 / 0.45 overflows to inf, which no int can hold.
        with pytest.raises(SearchSpaceTooLarge):
            ceil_snapped(1e308 / 0.45)


class TestOffsetMultiplier:
    def test_even_division(self):
        assert offset_multiplier(0.9, 0.45) == 2

    def test_zero_spread_means_single_position(self):
        assert offset_multiplier(0.0, 0.45) == 1

    def test_rounds_up_on_uneven_division(self):
        assert offset_multiplier(0.9, 0.4) == 3

    def test_float_noise_does_not_inflate_count(self):
        assert offset_multiplier(0.9, 0.3) == 3

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(BadParameter, match="delta must be positive"):
            offset_multiplier(0.9, 0.0)

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            offset_multiplier(-0.1, 0.45)


class TestFpBound:
    def test_reference_ten_flows_tight_window(self):
        bound = fp_bound(10, 0.33)
        assert bound.raw == pytest.approx(0.33**10, rel=1e-12)
        assert 1.45e-5 <= bound.raw <= 1.65e-5

    def test_reference_ten_flows_loose_window(self):
        bound = fp_bound(10, 0.525)
        assert bound.raw == pytest.approx(0.525**10, rel=1e-12)
        assert abs(bound.raw - 1.6e-3) <= 0.03 * 1.6e-3

    def test_zero_probability(self):
        assert fp_bound(3, 0.0).raw == 0.0

    def test_single_flow_is_base(self):
        assert fp_bound(1, 0.276, 2).raw == pytest.approx(2 * 0.276, rel=1e-12)

    def test_clamps_above_one(self):
        bound = fp_bound(2, 0.9, 4)  # base 3.6 > 1
        assert bound.raw > 1.0
        assert bound.clamped == 1.0

    def test_clamps_past_the_float_range(self):
        bound = fp_bound(1100, 1.0, 2)  # 2^1100 overflows a float
        assert bound.raw == math.inf
        assert bound.clamped == 1.0

    def test_no_clamp_below_one(self):
        bound = fp_bound(5, 0.276, 2)
        assert bound.clamped == bound.raw == pytest.approx(0.051250179244032024, rel=1e-12)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            fp_bound(0, 0.5)

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            fp_bound(3, 1.2)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_space_matches_direct_powering(self, seed):
        rng = random.Random(seed)
        k = rng.randrange(1, 64)
        p = rng.uniform(0.01, 0.99)
        m = rng.randrange(1, 5)
        assert fp_bound(k, p, m).raw == pytest.approx((m * p) ** k, rel=1e-10)

    def test_monotone_in_k_below_one(self):
        values = [fp_bound(k, 0.4, 2).raw for k in range(1, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_multiplier(self):
        assert fp_bound(4, 0.2, 3).raw > fp_bound(4, 0.2, 2).raw


class TestMinFlows:
    def test_reference_twenty_flows(self):
        verdict = min_flows(1e-5, o_max=0.9, delta=0.45, p=0.276)
        assert verdict.feasible
        assert verdict.min_k == 20
        assert verdict.multiplier == 2
        assert verdict.base == pytest.approx(0.552, rel=1e-12)
        assert verdict.fp_bound_at_min_k == fp_bound(20, 0.276, 2).raw

    def test_reference_boundary_is_sharp(self):
        # one flow fewer must not reach the target
        assert fp_bound(19, 0.276, 2).raw >= 1e-5
        assert fp_bound(20, 0.276, 2).raw < 1e-5

    def test_infeasible_when_base_reaches_one(self):
        verdict = min_flows(1e-5, o_max=0.35, delta=0.175, p=0.525)
        assert not verdict.feasible
        assert verdict.min_k is None
        assert verdict.fp_bound_at_min_k is None
        assert verdict.base == 1.05  # exactly, in floats
        assert verdict.threshold_o_max == pytest.approx(0.175 / 0.525, rel=1e-12)

    def test_threshold_o_max_marks_feasibility_edge(self):
        verdict = min_flows(1e-3, o_max=0.2, delta=0.1, p=0.4)
        assert verdict.feasible == (verdict.base < 1.0)

    def test_single_flow_suffices_for_loose_epsilon(self):
        verdict = min_flows(0.9, o_max=0.0, delta=0.45, p=0.5)
        assert verdict.min_k == 1

    def test_epsilon_equal_to_base_needs_two(self):
        # bound must drop strictly below epsilon
        verdict = min_flows(0.5, o_max=0.0, delta=0.1, p=0.5)
        assert verdict.min_k == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            min_flows(0.0, o_max=0.9, delta=0.45, p=0.276)

    @pytest.mark.parametrize("seed", range(20))
    def test_min_k_consistent_with_direct_powering(self, seed):
        rng = random.Random(1000 + seed)
        delta = rng.uniform(0.05, 0.5)
        o_max = rng.uniform(0.0, 1.5)
        p = rng.uniform(0.01, 0.99)
        epsilon = 10 ** rng.uniform(-8, -1)
        verdict = min_flows(epsilon, o_max=o_max, delta=delta, p=p)
        base = offset_multiplier(o_max, delta) * p
        if base >= 1.0:
            assert not verdict.feasible
            return
        k = verdict.min_k
        assert k >= 1
        assert base**k < epsilon
        if k > 1:
            assert base ** (k - 1) >= epsilon

    @settings(max_examples=300)
    @given(
        epsilon=st.floats(1e-12, 0.99),
        o_max=st.floats(0.0, 2.0),
        delta=st.floats(0.01, 1.0),
        p=st.floats(0.0, 1.0),
    )
    @example(epsilon=1e-5, o_max=0.9, delta=0.45, p=0.0)
    def test_verdict_fields_agree_with_the_bound(self, epsilon, o_max, delta, p):
        verdict = min_flows(epsilon, o_max=o_max, delta=delta, p=p)
        assert verdict.multiplier == offset_multiplier(o_max, delta)
        assert verdict.base == verdict.multiplier * p
        assert verdict.feasible == (verdict.base < 1.0)
        assert (verdict.fp_bound_at_min_k is None) == (not verdict.feasible)
        if verdict.feasible:
            bound = fp_bound(verdict.min_k, p, verdict.multiplier).raw
            assert verdict.fp_bound_at_min_k == bound < epsilon
        if verdict.base == 0.0:
            assert verdict.min_k == 1


class TestCountermeasure:
    def test_reference_threshold(self):
        assert countermeasure_threshold(0.35, 0.525) == pytest.approx(1 / 3, abs=1e-9)

    def test_reference_point_is_effective(self):
        assert countermeasure_is_effective(0.35, 0.35, 0.525)

    def test_certain_half_window_needs_half_interval(self):
        assert countermeasure_threshold(0.9, 1.0) == pytest.approx(0.45, rel=1e-12)

    def test_threshold_shrinks_with_clearer_traffic(self):
        assert countermeasure_threshold(0.35, 0.9) < countermeasure_threshold(0.35, 0.3)

    def test_rejects_bad_probability(self):
        with pytest.raises(BadParameter, match="clear probability at T/2 must be in"):
            countermeasure_threshold(0.35, 0.0)
        with pytest.raises(BadParameter, match="clear probability at T/2 must be in"):
            countermeasure_threshold(0.35, 1.2)

    @pytest.mark.parametrize("seed", range(10))
    def test_effective_iff_past_threshold(self, seed):
        rng = random.Random(2000 + seed)
        T = rng.uniform(0.1, 1.0)
        p_half = rng.uniform(0.05, 1.0)
        threshold = countermeasure_threshold(T, p_half)
        above = threshold * 1.01
        below = threshold * 0.49  # clear of grid rounding near the edge
        assert countermeasure_is_effective(above, T, p_half)
        assert not countermeasure_is_effective(below, T, p_half)


class TestAgainstTrafficModels:
    """The bound parameters tie back to the traffic model's clear probability."""

    def test_reference_table_drives_reference_bounds(self):
        p = clear_probability(REFERENCE_CLEAR_TABLE, 0.45)
        assert min_flows(1e-5, o_max=0.9, delta=0.45, p=p).min_k == 20

    def test_calibrated_poisson_matches_table_point(self):
        model = PoissonModel(2.860787585033304)
        p = clear_probability(model, 0.45)
        assert p == pytest.approx(0.276, rel=1e-12)
        assert min_flows(1e-5, o_max=0.9, delta=0.45, p=p).min_k == 20


# Every plain-value check of the analysis module, one call each.
BAD_PARAMETERS = {
    "offset_multiplier delta": lambda: offset_multiplier(0.9, 0.0),
    "offset_multiplier o_max": lambda: offset_multiplier(-0.1, 0.45),
    "fp_bound k": lambda: fp_bound(0, 0.276),
    "fp_bound p": lambda: fp_bound(1, 1.5),
    "fp_bound multiplier": lambda: fp_bound(1, 0.276, 0),
    "min_flows epsilon": lambda: min_flows(1.0, 0.9, 0.45, 0.276),
    "min_flows p": lambda: min_flows(1e-5, 0.9, 0.45, -0.1),
    "countermeasure_threshold T": lambda: countermeasure_threshold(0.0, 0.5),
    "countermeasure_threshold p_half": lambda: countermeasure_threshold(0.35, 1.2),
    "countermeasure_is_effective T": lambda: countermeasure_is_effective(0.9, math.inf, 0.5),
    "countermeasure_is_effective p_half": lambda: countermeasure_is_effective(0.9, 0.9, 0.0),
}


@pytest.mark.parametrize("site", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_a_toolkit_error(site):
    with pytest.raises(BadParameter) as info:
        BAD_PARAMETERS[site]()
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)
