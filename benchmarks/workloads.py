"""The benchmark's workloads: what one op runs and how its outputs are checked.

Every op calls the public entry point ``flowmark.cli.main`` in this process,
from inside the run's work directory, with relative paths only, so CSVs
that echo paths are the same whichever checkout runs them.  The inputs the
program receives (CLI seeds, the watermark key) are drawn from the
benchmark seed.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("repro", "mc-long", "roundtrip")

# Distinct argument sets per run.  Ops cycle through them, so every input
# is measured across the whole run and each is repeated, which is what the
# determinism check compares.
SLOTS = 4

K = 5  # flows per Monte Carlo trial
POISSON_RATE = 2.8615  # pkt/s: a 0.45 s window is clear with p = 0.276
MC_LONG_DURATION = 15.3  # 17 intervals of 0.9 s

RT_OFFSET = 0.45
RT_DELTA = 0.45
OUT = "out"


@dataclass(frozen=True)
class Sizes:
    """Input size of one op of each workload."""

    repro_trials: int = 2000
    mc_trials: int = 500
    roundtrip_flows: int = 20


@dataclass(frozen=True)
class Op:
    signature: str  # equal signatures must give byte-identical CSVs
    calls: tuple[tuple[str, ...], ...]  # argv of each cli.main call, in order
    csvs: tuple[str, ...]  # the op's output: these files, in this order
    trials: int  # Monte Carlo trials, or flows embedded, per op
    flows: int  # flows carried through the whole op
    check: Callable[[dict[str, list[dict[str, str]]]], tuple[list[str], list[str]]]


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_repro(tables):
    rows = tables[f"{OUT}/paper_repro.csv"]
    bad = [row["case"] for row in rows if row["status"] != "PASS"]
    problems = [f"paper-repro cases not PASS: {', '.join(bad)}"] if bad else []
    if len(rows) != 6:
        problems.append(f"paper-repro wrote {len(rows)} cases, expected 6")
    return problems, []


def _check_mc_long(tables):
    rows = tables[f"{OUT}/montecarlo.csv"]
    if len(rows) != 1:
        return [f"montecarlo wrote {len(rows)} rows, expected 1"], []
    # fp_bound_at_k is known not to hold at this flow length; the CLI's own
    # verdict is reported as it comes out and is not a benchmark failure.
    return [], [f"montecarlo pass={rows[0]['pass']} rate={rows[0]['rate']}"]


def _check_roundtrip(flows: int):
    def check(tables):
        problems = []
        if len(tables[f"{OUT}/embed.csv"]) != flows:
            problems.append(f"embed wrote {len(tables[f'{OUT}/embed.csv'])} flows, expected {flows}")
        detected = tables[f"{OUT}/detect/detect.csv"]
        if len(detected) != flows:
            problems.append(f"detect read {len(detected)} flows, expected {flows}")
        for row in detected:
            if row["detected"] != "true":
                problems.append(f"flow {row['flow_index']} not detected")
            elif abs(float(row["recovered_offset"]) - RT_OFFSET) > RT_DELTA + 1e-9:
                problems.append(
                    f"flow {row['flow_index']} recovered offset {row['recovered_offset']}"
                )
        attack = tables[f"{OUT}/attack/attack.csv"]
        if [row["present"] for row in attack] != ["true"]:
            problems.append("attack did not report the watermark present")
        return problems, []

    return check


def _mc_long_config() -> str:
    return (
        "[flow]\nmodel = poisson\n"
        f"rate = {POISSON_RATE!r}\nduration = {MC_LONG_DURATION!r}\n\n"
        "[attack]\nT = 0.9\ndelta = 0.45\no_max = 0.9\nepsilon = 1e-05\n\n"
        f"[experiment]\nk = {K}\nmethod = bnb\n"
    )


def _watermark_section(key: int) -> str:
    return (
        f"[watermark]\nT = 0.9\no = {RT_OFFSET!r}\no_max = 0.9\ndelta = {RT_DELTA!r}\n"
        f"n = 100\nkey = {key}\nclear_fraction = 0.5\n"
    )


def make_ops(workload: str, seed: int, sizes: Sizes) -> tuple[dict[str, str], list[Op]]:
    """Config files to write into the work directory, and the run's SLOTS ops."""
    rng = random.Random(seed)
    configs: dict[str, str] = {}
    ops = []
    for slot in range(SLOTS):
        cli_seed = rng.getrandbits(63)
        if workload == "repro":
            n = sizes.repro_trials
            ops.append(Op(
                signature=f"repro seed={cli_seed} trials={n}",
                calls=(("paper-repro", "--out", OUT, "--seed", str(cli_seed), "--trials", str(n)),),
                csvs=(f"{OUT}/paper_repro.csv",),
                trials=n,
                flows=K * n,
                check=_check_repro,
            ))
        elif workload == "mc-long":
            n = sizes.mc_trials
            configs["mc_long.ini"] = _mc_long_config()
            ops.append(Op(
                signature=f"mc-long seed={cli_seed} trials={n}",
                calls=(("montecarlo", "--config", "mc_long.ini", "--out", OUT,
                        "--seed", str(cli_seed), "--trials", str(n)),),
                csvs=(f"{OUT}/montecarlo.csv",),
                trials=n,
                flows=K * n,
                check=_check_mc_long,
            ))
        elif workload == "roundtrip":
            n = sizes.roundtrip_flows
            key = rng.getrandbits(63)
            manifest = f"\n[experiment]\nmanifest = {OUT}/manifest.txt\n"
            configs[f"rt{slot}_embed.ini"] = (
                f"[flow]\nmodel = poisson\nrate = 20.0\n\n{_watermark_section(key)}"
            )
            configs[f"rt{slot}_detect.ini"] = _watermark_section(key) + manifest
            configs[f"rt{slot}_attack.ini"] = (
                "[attack]\nT = 0.9\ndelta = 0.45\no_max = 0.9\nepsilon = 1e-05\n"
                + manifest + "method = bnb\n"
            )
            ops.append(Op(
                signature=f"roundtrip seed={cli_seed} key={key} flows={n}",
                calls=(
                    ("embed", "--config", f"rt{slot}_embed.ini", "--out", OUT,
                     "--seed", str(cli_seed), "--trials", str(n)),
                    ("detect", "--config", f"rt{slot}_detect.ini", "--out", f"{OUT}/detect"),
                    ("attack", "--config", f"rt{slot}_attack.ini", "--out", f"{OUT}/attack"),
                ),
                csvs=(f"{OUT}/embed.csv", f"{OUT}/detect/detect.csv", f"{OUT}/attack/attack.csv"),
                trials=n,
                flows=n,
                check=_check_roundtrip(n),
            ))
        else:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return configs, ops
