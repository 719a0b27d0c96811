"""Reference worked examples, checked end to end.

Each case recomputes a published headline number from this package's own
primitives and compares it against the expected value at a stated
tolerance. The closed-form cases are deterministic; the Monte Carlo case
drives the full generate/attack pipeline and checks the measured rate
against the analytic ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import countermeasure_is_effective, countermeasure_threshold, fp_bound, min_flows
from .flow_model import (
    REFERENCE_CLEAR_TABLE,
    PoissonModel,
    draw_width,
    generate_block,
    poisson_rate_for_clear_probability,
)
from .errors import BadParameter
from .mfa import AttackConfig, CommonStarts, attack_plan, common_starts
from .seeds import trial_seeds

# Measured clear probabilities for 175 ms, 350 ms and 450 ms windows on
# the reference trace. All headline numbers below derive from these.
REFERENCE_P_175MS, REFERENCE_P_350MS, REFERENCE_P_450MS = (p for _, p in REFERENCE_CLEAR_TABLE.table)

REPRO_DEFAULT_SEED = 101
REPRO_DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class ReproCase:
    """One expected-vs-computed comparison."""

    name: str
    expected: str
    computed: str
    display: str
    passed: bool

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def closed_form_cases(
    p_450ms: float = REFERENCE_P_450MS,
    p_350ms: float = REFERENCE_P_350MS,
    p_175ms: float = REFERENCE_P_175MS,
) -> list[ReproCase]:
    """The five closed-form reference results."""
    cases = []

    verdict = min_flows(1e-5, o_max=0.9, delta=0.45, p=p_450ms)
    cases.append(
        ReproCase(
            name="min-flows-900ms-offsets",
            expected="20",
            computed="inf" if verdict.min_k is None else str(verdict.min_k),
            display=f"k={verdict.min_k} at base {verdict.base:.4g}",
            passed=verdict.min_k == 20,
        )
    )

    raw = fp_bound(10, p_350ms).raw
    cases.append(
        ReproCase(
            name="fp-bound-10-flows-350ms",
            expected="1.5e-05 within [1.45e-05, 1.65e-05]",
            computed=repr(raw),
            display=f"{raw:.3e}",
            passed=1.45e-5 <= raw <= 1.65e-5,
        )
    )

    raw = fp_bound(10, p_175ms).raw
    cases.append(
        ReproCase(
            name="fp-bound-10-flows-175ms",
            expected="1.6e-03 within 3%",
            computed=repr(raw),
            display=f"{raw:.3e}",
            passed=abs(raw - 1.6e-3) <= 0.03 * 1.6e-3,
        )
    )

    verdict = min_flows(1e-5, o_max=0.35, delta=0.175, p=p_175ms)
    cases.append(
        ReproCase(
            name="infeasible-small-offsets",
            expected="infeasible, base 1.05",
            computed=f"feasible={verdict.feasible} base={verdict.base!r}",
            display=f"base {verdict.base:.4g}",
            passed=(not verdict.feasible) and verdict.base == 1.05,
        )
    )

    threshold = countermeasure_threshold(0.35, p_175ms)
    effective = countermeasure_is_effective(0.35, 0.35, p_175ms)
    cases.append(
        ReproCase(
            name="offset-threshold-350ms",
            expected="1/3 s and effective at 0.35 s",
            computed=f"threshold={threshold!r} effective={effective}",
            display=f"{threshold:.6f} s",
            passed=abs(threshold - 1 / 3) <= 1e-9 and effective,
        )
    )

    return cases


# Kernel cells (offset shifts x gap edges, edges padded to the draw width) per block
# of Monte Carlo trials, one flow each: caps each generate_block and common_starts call.
_BLOCK_CELLS = 2**15


class MonteCarloRate(NamedTuple):
    """Attack hits over unwatermarked trials, their rate, and its ceiling."""

    hits: int
    rate: float
    fp_bound: float  # fp_bound_at_k of the attack
    ceiling: float  # fp_bound + 3 sigma of a Bernoulli(fp_bound) mean over the trials


def monte_carlo_attack(
    method: str,
    cfg: AttackConfig,
    model: PoissonModel,
    duration: float,
    k: int,
    trials: int,
    seed: int,
    clear_prob: float,
) -> MonteCarloRate:
    """False-positive rate of the named attack on k unwatermarked flows per trial.

    Flow i of trial t is drawn from `model` over `duration` seconds with
    seed derive_seed(seed, "mc", t, i), and the attack runs with the given
    clear probability, so its bound is the same in every trial.  Trials run
    in passes of k blocks of per_block trials, a block filling _BLOCK_CELLS
    kernel cells per flow (at least one trial), so memory grows with k, not
    with trials.  Stage i of a pass draws flow i of its live trials in equal
    chunks of at most a block; common_starts keeps the starts their flows 0
    to i share.  A trial left with none is absent, as the method's search
    would find, and its later flows, which touch no other trial's seed, are
    never drawn.
    """
    if trials < 1:
        raise BadParameter(f"trials must be positive, got {trials}")
    width = draw_width(model, duration)
    offsets = attack_plan(method, cfg, k)
    bound = fp_bound(k, clear_prob, len(offsets)).clamped
    per_block = max(1, _BLOCK_CELLS // (len(offsets) * (width + 2)))
    hits = 0
    for first in range(0, trials, per_block * k):
        # Trials are numbered within the pass, which keeps common_starts' keys small.
        alive, common = np.arange(min(trials - first, per_block * k)), None
        for i in range(k):
            pieces, b = [], 0
            for rows in np.array_split(alive, -(-alive.size // per_block)):
                a, b = b, b + rows.size  # rows is alive[a:b]
                edges = generate_block(model, duration, trial_seeds(seed, "mc", (rows + first).tolist(), i))
                held = None if common is None else CommonStarts(*(field[at[a] : at[b]] for field in common))
                pieces.append(common_starts(edges, cfg, offsets, rows, held))
            common = CommonStarts(*map(np.concatenate, zip(*pieces)))
            # common is sorted by trial: its rows at[j] to at[j + 1] are trial alive[j]'s pieces.
            at = np.flatnonzero(np.diff(common.trial, prepend=-1)).tolist() + [common.trial.size]
            alive = common.trial[at[:-1]]
            if not alive.size:
                break
        hits += alive.size
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    return MonteCarloRate(hits, hits / trials, bound, bound + 3.0 * sigma)


def monte_carlo_case(
    seed: int = REPRO_DEFAULT_SEED, trials: int = REPRO_DEFAULT_TRIALS
) -> tuple[ReproCase, dict[str, float]]:
    """Attack false-positive rate on unwatermarked traffic vs its ceiling.

    Each trial draws k = 5 independent Poisson flows calibrated so a window
    of length T - delta is clear with probability REFERENCE_P_450MS, then
    runs the varied-offset attack. Flows span a single interval length, but
    the window still slides across it, so an offset assignment holds more
    alignments than the analytic bound's one per assignment (ROADMAP item 1).
    """
    cfg = AttackConfig(T=0.9, delta=0.45, o_max=0.9, epsilon=1e-5)
    model = PoissonModel(poisson_rate_for_clear_probability(REFERENCE_P_450MS, cfg.min_length))
    mc = monte_carlo_attack("bnb", cfg, model, cfg.T, 5, trials, seed, REFERENCE_P_450MS)
    case = ReproCase(
        name="mfa-false-positive-rate",
        expected=f"rate <= {mc.ceiling:.4g} (bound {mc.fp_bound:.4g} + 3 sigma)",
        computed=repr(mc.rate),
        display=f"{mc.rate:.4g} over {trials} trials",
        passed=mc.rate <= mc.ceiling,
    )
    return case, {"trials": trials, **mc._asdict()}
