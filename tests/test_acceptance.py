"""Acceptance gate: one check per headline requirement, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also asserts, so a FAIL line comes with a failing test.
"""

import math
import random
import time

import numpy as np
import pytest

import flowmark as fm
from flowmark import (
    AttackConfig,
    PoissonModel,
    WatermarkParams,
    countermeasure_is_effective,
    countermeasure_threshold,
    derive_seed,
    detect,
    embed,
    estimate_clear_probability,
    fp_bound,
    generate_flow,
    mfa_varied_offset_bnb,
    mfa_varied_offset_exhaustive,
    min_flows,
    offset_multiplier,
)
from flowmark.cli import main
from flowmark.mfa import attack_plan
from flowmark.repro import monte_carlo_attack
from search_oracle import enumerate_assignments


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed(fn):
    fn()  # warm path: imports, caches
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_min_flows_is_twenty():
    verdict, elapsed = _timed(lambda: min_flows(1e-5, o_max=0.9, delta=0.45, p=0.276))
    ok = verdict.min_k == 20 and elapsed < 1e-3
    _report(1, ok, f"min flows {verdict.min_k} (want 20), {elapsed * 1e6:.0f} us")


def test_criterion_02_ten_flow_bound_tight_window():
    bound, elapsed = _timed(lambda: fp_bound(10, 0.33, 1))
    ok = 1.45e-5 <= bound.raw <= 1.65e-5 and elapsed < 1e-3
    _report(2, ok, f"bound {bound.raw:.3e} in [1.45e-05, 1.65e-05], {elapsed * 1e6:.0f} us")


def test_criterion_03_ten_flow_bound_loose_window():
    bound, elapsed = _timed(lambda: fp_bound(10, 0.525, 1))
    ok = abs(bound.raw - 1.6e-3) <= 0.03 * 1.6e-3 and elapsed < 1e-3
    _report(3, ok, f"bound {bound.raw:.4e} within 3% of 1.6e-03, {elapsed * 1e6:.0f} us")


def test_criterion_04_small_offsets_infeasible():
    verdict = min_flows(1e-5, o_max=0.35, delta=0.175, p=0.525)
    ok = (not verdict.feasible) and verdict.min_k is None and verdict.base == 1.05
    _report(4, ok, f"feasible={verdict.feasible}, base={verdict.base!r} (want exactly 1.05)")


def test_criterion_05_countermeasure_threshold():
    threshold = countermeasure_threshold(0.35, 0.525)
    effective = countermeasure_is_effective(0.35, 0.35, 0.525)
    ok = abs(threshold - 1 / 3) <= 1e-9 and effective
    _report(5, ok, f"threshold {threshold:.10f} (want 1/3 within 1e-9), effective={effective}")


def test_criterion_06_round_trip_detection():
    T, delta, o_max, n = 0.9, 0.45, 0.9, 20
    trials = 100
    start = time.perf_counter()
    detected = 0
    worst = 0.0
    for trial in range(trials):
        seed = derive_seed(0, "roundtrip", trial)
        rng = random.Random(seed)
        key = rng.getrandbits(64)
        # alternate grid-aligned and arbitrary offsets
        o = rng.choice([0.0, 0.45, 0.9]) if trial % 2 == 0 else rng.uniform(0.0, o_max)
        params = WatermarkParams(
            T=T, o=o, o_max=o_max, delta=delta, n=n, key=key, clear_fraction=0.5
        )
        flow = generate_flow(PoissonModel(3.0), o_max + n * T, derive_seed(seed, "flow"))
        result = detect(embed(flow, params), params)
        if result.detected and abs(result.recovered_offset - o) <= delta:
            detected += 1
            worst = max(worst, abs(result.recovered_offset - o))
    elapsed = time.perf_counter() - start
    ok = detected == trials and elapsed < 10.0
    _report(
        6,
        ok,
        f"{detected}/{trials} detected within delta (worst offset error "
        f"{worst:.3f} s), {elapsed:.2f} s",
    )


def test_criterion_07_attack_true_positive_rate():
    T, delta, o_max, lam, n = 0.9, 0.45, 0.9, 3.0, 16
    cfg = AttackConfig(T=T, delta=delta, o_max=o_max, epsilon=1e-5)
    duration = o_max + n * T
    start = time.perf_counter()
    summary = []
    ok = True
    for k in (2, 5, 10):
        present = 0
        for idx in range(200):
            seed = derive_seed(0, "mfa-tp", k, idx)
            rng = random.Random(seed)
            key = rng.getrandbits(64)
            flows = []
            for i in range(k):
                o = rng.uniform(0.0, o_max)
                params = WatermarkParams(
                    T=T, o=o, o_max=o_max, delta=delta, n=n, key=key, clear_fraction=0.5
                )
                base = generate_flow(PoissonModel(lam), duration, derive_seed(seed, "flow", i))
                flows.append(embed(base, params))
            finding = mfa_varied_offset_bnb(flows, cfg, clear_prob=0.276)
            if finding.present:
                present += 1
                # matched window must be packet-free in every flow
                w_start, w_len = finding.matched_window
                for flow, offset in zip(flows, finding.offset_assignment):
                    lo, hi = w_start + offset, w_start + w_len + offset
                    inside = np.count_nonzero(
                        (flow.timestamps > lo) & (flow.timestamps < hi)
                    )
                    ok = ok and inside == 0
        summary.append(f"k={k}: {present}/200")
        ok = ok and present >= 198  # >= 99%
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(7, ok, f"{', '.join(summary)} present with verified windows, {elapsed:.2f} s")


def test_criterion_08_monte_carlo_rate_below_bound():
    k, trials = 5, 200_000
    cfg = AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5)
    lam = -math.log(0.276) / 0.45
    model = PoissonModel(lam)
    multiplier = offset_multiplier(cfg.o_max, cfg.delta)
    bound = fp_bound(k, 0.276, multiplier).clamped
    start = time.perf_counter()
    # flows span one interval length; the window still slides across it, so
    # an assignment holds more alignments than the bound counts (ROADMAP item 1)
    mc = monte_carlo_attack("bnb", cfg, model, cfg.T, k, trials, 0, 0.276)
    elapsed = time.perf_counter() - start
    rate = mc.hits / trials
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    ceiling = bound + 3.0 * sigma
    ok = rate <= ceiling and elapsed < 300.0
    _report(
        8,
        ok,
        f"rate {rate:.5f} <= bound {bound:.5f} + 3 sigma ({ceiling:.5f}) over "
        f"{trials} trials, {elapsed:.1f} s",
    )


def test_criterion_09_branch_and_bound_matches_exhaustive():
    start = time.perf_counter()
    agree = 0
    instances = 500
    for idx in range(instances):
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
                params = WatermarkParams(
                    T=T, o=o, o_max=o_max, delta=delta, n=n, key=key, clear_fraction=0.4
                )
                flow = embed(flow, params)
            flows.append(flow)
        ex = mfa_varied_offset_exhaustive(flows, cfg, clear_prob=0.3)
        bb = mfa_varied_offset_bnb(flows, cfg, clear_prob=0.3)
        offsets = attack_plan("exhaustive", cfg, k)
        tried, window, assignment = enumerate_assignments(flows, cfg, offsets)
        hit = (window is not None, window, assignment)
        agree += (
            all((f.present, f.matched_window, f.offset_assignment) == hit for f in (ex, bb))
            and ex.configurations_searched == tried
            and bb.configurations_searched <= tried
        )
    elapsed = time.perf_counter() - start
    ok = agree == instances and elapsed < 60.0
    _report(9, ok, f"{agree}/{instances} instances agree with the enumeration, {elapsed:.2f} s")


def test_criterion_10_estimator_matches_poisson_formula():
    start = time.perf_counter()
    worst = 0.0
    for lam in (1.0, 3.0, 10.0):
        for s in range(3):
            flow = generate_flow(
                PoissonModel(lam), 1e4, derive_seed(0, "est", int(lam * 10), s)
            )
            for t in (0.1, 0.45, 1.0):
                estimate = estimate_clear_probability(flow, t, t / 4)
                worst = max(worst, abs(estimate - math.exp(-lam * t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 30.0
    _report(10, ok, f"worst |estimate - exp(-lam t)| = {worst:.4f} <= 0.02, {elapsed:.2f} s")


def test_criterion_11_repro_subcommand_deterministic(tmp_path, capsys):
    rc_a = main(["paper-repro", "--out", str(tmp_path / "a"), "--trials", "2000"])
    stdout = capsys.readouterr().out
    rc_b = main(["paper-repro", "--out", str(tmp_path / "b"), "--trials", "2000"])
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "paper_repro.csv").read_text()
    csv_b = (tmp_path / "b" / "paper_repro.csv").read_text()
    closed_form = [
        "min-flows-900ms-offsets",
        "fp-bound-10-flows-350ms",
        "fp-bound-10-flows-175ms",
        "infeasible-small-offsets",
        "offset-threshold-350ms",
    ]
    rows = {line.split(",")[0]: line for line in csv_a.splitlines()[1:]}
    all_pass = all(rows[name].endswith(",PASS") for name in closed_form)
    ok = rc_a == 0 and rc_b == 0 and all_pass and csv_a == csv_b and "FAIL" not in stdout
    _report(
        11,
        ok,
        f"paper-repro rc={rc_a}, closed-form rows PASS={all_pass}, "
        f"byte-identical reruns={csv_a == csv_b}",
    )
