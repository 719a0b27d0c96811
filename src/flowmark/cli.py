"""Command-line experiment harness.

Each subcommand reads an INI config, runs one scenario, and writes a
JSON report plus a CSV table under --out. CSV output is deterministic
for a fixed config and seed (floats are serialized with repr, rows are
generated in a fixed order), so reruns can be diffed byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 bad config or usage,
3 filesystem error, 4 scenario infeasible under the requested bound.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import FeasibilityVerdict, min_flows
from .config import (
    ConfigDict,
    from_section,
    get,
    load_config,
    model_from_config,
    model_to_section,
    to_section,
)
from .errors import ConfigError, FlowmarkError, FlowTooShort, InfeasibleScenario, SearchSpaceTooLarge
from .flow_model import (
    Flow,
    PoissonModel,
    clear_probability,
    generate_flow,
    read_flow,
    write_flow,
)
from .mfa import METHODS, AttackConfig, attack, attack_plan, read_manifest
from .repro import (
    REPRO_DEFAULT_SEED,
    REPRO_DEFAULT_TRIALS,
    closed_form_cases,
    monte_carlo_attack,
    monte_carlo_case,
)
from .seeds import check_seed, derive_seed
from .watermark import WatermarkParams, detect, embed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4


class Outcome(NamedTuple):
    """What one scenario run reports: the seed it ran with, the parameter
    echo, the results, the CSV rows keyed by column, and the summary main prints."""

    seed: Optional[int]
    parameters: ConfigDict
    results: dict
    rows: list[dict]
    summary: str


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError(f"{args.scenario} is randomized; pass --seed")
    try:
        return check_seed(args.seed)
    except FlowmarkError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_trials(args: argparse.Namespace, cfg: ConfigDict, what="trials", default=None) -> int:
    trials = args.trials
    if trials is None:
        trials = get(cfg, "experiment", "trials", default)
    if trials is None:
        raise ConfigError(f"no {what} given; pass --trials or set [experiment] trials")
    if trials <= 0:
        raise ConfigError(f"{what} must be positive, got {trials}")
    return trials


def _poisson_model(cfg: ConfigDict) -> PoissonModel:
    model = model_from_config(cfg)
    if not isinstance(model, PoissonModel):
        raise ConfigError("this scenario generates traffic and needs a poisson [flow] model")
    return model


def _flow_duration(cfg: ConfigDict, default=dataclasses.MISSING) -> float:
    """[flow] duration, or default when it is absent; it must be positive and finite."""
    duration = get(cfg, "flow", "duration", default)
    if not 0.0 < duration < math.inf:
        raise ConfigError(f"[flow] duration must be positive and finite, got {duration!r}")
    return duration


def _manifest_flows(cfg: ConfigDict, args: argparse.Namespace):
    manifest = args.config.parent / get(cfg, "experiment", "manifest")
    paths = read_manifest(manifest)
    if not paths:
        raise ConfigError(f"manifest {manifest} lists no flows")
    return paths, [read_flow(p) for p in paths]


@contextlib.contextmanager
def _writable(path: Path, force: bool) -> Iterator[Path]:
    """A temp file beside path, renamed onto it once written, so a failed write
    leaves the old file; an existing path needs --force."""
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_flows(
    count: int, draw: Callable[[int], tuple[Flow, dict]], args: argparse.Namespace
) -> list[dict]:
    """Write the flow draw(i) gives to flows/flow_<i>.txt under --out, one at a
    time, then a manifest; return the rows draw gives, with index and path.
    With --force, flow files of an earlier run that the manifest no longer
    lists are removed."""
    rows = []
    for i in range(count):
        flow, row = draw(i)
        rel = f"flows/flow_{i:05d}.txt"
        with _writable(args.out / rel, args.force) as tmp:
            write_flow(flow, tmp)
        rows.append({"flow_index": i, **row, "path": rel})
    # Entries resolve relative to the manifest, so detect/attack configs can
    # point at <out>/manifest.txt directly.
    with _writable(args.out / "manifest.txt", args.force) as tmp:
        tmp.write_text("".join(f"{row['path']}\n" for row in rows), encoding="utf-8")
    if args.force:
        listed = {Path(row["path"]).name for row in rows}
        for path in (args.out / "flows").glob("flow_*.txt"):
            # Only the names flow_{i:05d}.txt gives.
            if re.fullmatch(r"flow_(\d{5}|[1-9]\d{5,})\.txt", path.name) and path.name not in listed:
                path.unlink()
    return rows


def _scenario_generate(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    model = _poisson_model(cfg)
    duration = _flow_duration(cfg)
    count = _resolve_trials(args, cfg, what="flow count")
    seed = _require_seed(args)

    def draw(i: int) -> tuple[Flow, dict]:
        flow_seed = derive_seed(seed, "generate", i)
        flow = generate_flow(model, duration, flow_seed)
        return flow, {"seed": flow_seed, "packets": len(flow), "duration": duration}

    rows = _write_flows(count, draw, args)
    total = sum(row["packets"] for row in rows)
    parameters = {
        "flow": model_to_section(model) | {"duration": repr(duration)},
        "experiment": {"trials": str(count)},
    }
    results = {"flows": count, "total_packets": total, "mean_packets": total / count}
    return Outcome(seed, parameters, results, rows, f"generate: {count} flows written")


def _scenario_embed(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    model = _poisson_model(cfg)
    params = from_section(WatermarkParams, cfg, "watermark")
    # Default duration covers the detector sweep, not just the embedder.
    duration = _flow_duration(cfg, params.o_max + params.n * params.T)
    window_end = params.o + params.n * params.T
    if duration < window_end:
        raise ConfigError(
            f"[flow] duration {duration!r} is shorter than the watermark window end {window_end!r}"
        )
    count = _resolve_trials(args, cfg, what="flow count")
    seed = _require_seed(args)

    def draw(i: int) -> tuple[Flow, dict]:
        flow_seed = derive_seed(seed, "embed-flow", i)
        base = generate_flow(model, duration, flow_seed)
        marked = embed(base, params)
        # Timestamps are strictly increasing, so set intersection counts the
        # packets the embedder left untouched.
        delayed = len(base) - np.intersect1d(base.timestamps, marked.timestamps).size
        return marked, {"seed": flow_seed, "packets": len(marked), "delayed": delayed}

    rows = _write_flows(count, draw, args)
    parameters = {
        "flow": model_to_section(model) | {"duration": repr(duration)},
        "watermark": to_section(params),
        "experiment": {"trials": str(count)},
    }
    total = sum(row["delayed"] for row in rows)
    results = {"flows": count, "delayed_packets": total, "mean_delayed": total / count}
    return Outcome(seed, parameters, results, rows, f"embed: {count} flows written")


def _scenario_detect(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    params = from_section(WatermarkParams, cfg, "watermark")
    paths, flows = _manifest_flows(cfg, args)
    rows = []
    for i, (path, flow) in enumerate(zip(paths, flows)):
        try:
            r = detect(flow, params)
        except FlowTooShort as exc:
            raise FlowTooShort(f"{path}: {exc}") from None
        rows.append({"flow_index": i, "path": str(path), "detected": r.detected,
                     "recovered_offset": r.recovered_offset, "match_score": r.match_score})
    detected = sum(row["detected"] for row in rows)
    parameters = {
        "watermark": to_section(params),
        "experiment": {"manifest": get(cfg, "experiment", "manifest")},
    }
    results = {"flows": len(flows), "detected": detected, "detection_rate": detected / len(flows)}
    summary = f"detect: {detected}/{len(flows)} flows matched"
    return Outcome(args.seed, parameters, results, rows, summary)


def _method_name(cfg: ConfigDict) -> str:
    method = get(cfg, "experiment", "method", "bnb")
    if method not in METHODS:
        raise ConfigError(f"unknown attack method {method!r}; expected one of {sorted(METHODS)}")
    return method


def _scenario_attack(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    acfg = from_section(AttackConfig, cfg, "attack")
    method = _method_name(cfg)
    paths, flows = _manifest_flows(cfg, args)
    finding = attack(method, flows, acfg, names=paths)
    searched = finding.configurations_searched
    digits = int(searched.bit_length() * math.log10(2)) + 1  # the digit count or one more
    digits -= searched < 10 ** (digits - 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: ints of any length print
    if 0 < limit < digits:
        raise SearchSpaceTooLarge(
            f"{digits}-digit count of configurations searched; Python prints at most {limit} digits"
        )
    window_start, window_length = finding.matched_window or (None, None)
    assignment = finding.offset_assignment
    row = {
        "method": method,
        "k": len(flows),
        "present": finding.present,
        "window_start": window_start,
        "window_length": window_length,
        "offset_assignment": None if assignment is None else ";".join(map(repr, assignment)),
        "configurations_searched": searched,
        "fp_bound_at_k": finding.fp_bound_at_k,
    }
    parameters = {
        "attack": to_section(acfg),
        "experiment": {"manifest": get(cfg, "experiment", "manifest"), "method": method},
    }
    state = "present" if finding.present else "absent"
    summary = (
        f"attack[{method}]: watermark {state} over k={len(flows)} flows "
        f"({searched} configurations searched)"
    )
    return Outcome(args.seed, parameters, row, [row], summary)


# The [sweep] params a bounds row can vary.
_SWEEPABLE = ("T", "delta", "o_max", "epsilon", "p")


def _scenario_bounds(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    acfg = from_section(AttackConfig, cfg, "attack")
    if "flow" not in cfg:
        raise ConfigError("bounds needs a [flow] section to derive the clear probability")
    model = model_from_config(cfg)

    def at(p: Optional[float] = None, **swept: float) -> tuple[float, FeasibilityVerdict]:
        """Clear probability p and the min_flows verdict at [attack] with the swept
        fields replaced; p follows the window T - delta unless it is the one swept."""
        try:  # the row's [attack] values; bounds reads no quantum
            point = dataclasses.replace(acfg, quantum=None, **swept)
        except FlowmarkError as exc:
            raise ConfigError(f"bad [attack] section: {exc}") from exc
        try:
            p = clear_probability(model, point.min_length) if p is None else p
        except FlowmarkError as exc:
            raise ConfigError(f"cannot evaluate clear probability: {exc}") from exc
        try:
            return p, min_flows(point.epsilon, point.o_max, point.delta, p)
        except FlowmarkError as exc:
            raise ConfigError(str(exc)) from exc

    p, verdict = at()
    parameters = {"attack": to_section(acfg), "flow": model_to_section(model)}
    if "sweep" in cfg:
        param = get(cfg, "sweep", "param")
        values = get(cfg, "sweep", "values")
        if param not in _SWEEPABLE:
            raise ConfigError(f"cannot sweep {param!r}; choose one of {_SWEEPABLE}")
        parameters["sweep"] = {"param": param, "values": ",".join(repr(v) for v in values)}
    else:
        param, values = "o_max", [acfg.o_max]

    rows = []
    for value in values:
        _, row = at(**{param: value})
        rows.append({
            "swept_value": value,
            "multiplier": row.multiplier,
            "base": row.base,
            "min_k": "inf" if row.min_k is None else row.min_k,
            "fp_bound_at_min_k": row.fp_bound_at_min_k,
        })

    results = {"clear_prob": p, **dataclasses.asdict(verdict)}
    if math.isinf(verdict.threshold_o_max):
        results["threshold_o_max"] = None  # JSON has no infinity
    k_text = "unreachable" if verdict.min_k is None else str(verdict.min_k)
    summary = f"bounds: base {verdict.base:.4g}, min flows {k_text}"
    return Outcome(args.seed, parameters, results, rows, summary)


def _scenario_montecarlo(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    acfg = from_section(AttackConfig, cfg, "attack")
    model = _poisson_model(cfg)
    # Default span is one interval.  The window still slides across it, so an
    # offset assignment holds more alignments than the bound's one per
    # assignment: the bound can undercount (ROADMAP item 1).
    duration = _flow_duration(cfg, acfg.T)
    trials = _resolve_trials(args, cfg)
    seed = _require_seed(args)
    method = _method_name(cfg)
    p = clear_probability(model, acfg.min_length)

    k = get(cfg, "experiment", "k", None)
    if k is None:
        # The bound's multiplier is the method's offsets per flow: one, or ceil(o_max / delta).
        one_offset = len(attack_plan(method, acfg, 1)) == 1
        verdict = min_flows(acfg.epsilon, 0.0 if one_offset else acfg.o_max, acfg.delta, p)
        if not verdict.feasible:
            raise InfeasibleScenario(
                f"no flow count meets epsilon={acfg.epsilon!r}: per-flow base "
                f"{verdict.base!r} = {verdict.multiplier} offsets x p={p!r} is not below 1"
            )
        k = verdict.min_k
    elif k <= 0:
        raise ConfigError(f"[experiment] k must be positive, got {k}")

    mc = monte_carlo_attack(method, acfg, model, duration, k, trials, seed, p)
    passed = mc.rate <= mc.ceiling
    half_width = 1.96 * math.sqrt(max(mc.rate * (1.0 - mc.rate), 1.0 / trials) / trials)

    parameters = {
        "attack": to_section(acfg),
        "flow": model_to_section(model) | {"duration": repr(duration)},
        "experiment": {"trials": str(trials), "k": str(k), "method": method},
    }
    results = {
        "trials": trials,
        "k": k,
        "method": method,
        "clear_prob": p,
        **mc._asdict(),
        "pass": passed,
    }
    row = {
        "trials": trials,
        "hits": mc.hits,
        "rate": mc.rate,
        "ci_halfwidth": half_width,
        "fp_bound": mc.fp_bound,
        "threshold": mc.ceiling,
        "pass": "pass" if passed else "fail",
    }
    summary = (
        f"montecarlo: rate {mc.rate:.4g} over {trials} trials ({mc.hits} hits, k={k}), "
        f"{'within' if passed else 'ABOVE'} bound {mc.fp_bound:.4g}"
    )
    return Outcome(seed, parameters, results, [row], summary)


def _scenario_paper_repro(cfg: ConfigDict, args: argparse.Namespace) -> Outcome:
    seed = REPRO_DEFAULT_SEED if args.seed is None else _require_seed(args)
    trials = _resolve_trials(args, cfg, default=REPRO_DEFAULT_TRIALS)
    mc_case, stats = monte_carlo_case(seed=seed, trials=trials)
    cases = closed_form_cases() + [mc_case]
    rows = [
        {"case": c.name, "expected": c.expected, "computed": c.computed,
         "display": c.display, "status": c.status}
        for c in cases
    ]
    passed = sum(c.passed for c in cases)
    results = {"cases": len(cases), "passed": passed, "monte_carlo": stats}
    width = max(len(c.name) for c in cases)
    lines = [
        f"{c.status:4} {c.name:<{width}}  expected {c.expected}; got {c.display}" for c in cases
    ]
    lines.append(f"{passed}/{len(cases)} reference cases pass")
    parameters = {"experiment": {"trials": str(trials)}}
    return Outcome(seed, parameters, results, rows, "\n".join(lines))


# Each scenario: its help text, its runner, and whether it reads an INI config.
SCENARIOS = {
    "generate": ("draw unwatermarked flows from a traffic model", _scenario_generate, True),
    "embed": ("generate flows and embed the configured watermark", _scenario_embed, True),
    "detect": ("run the detector over flows listed in a manifest", _scenario_detect, True),
    "attack": ("run the multi-flow attack over flows in a manifest", _scenario_attack, True),
    "bounds": ("tabulate feasibility and false-positive bounds", _scenario_bounds, True),
    "montecarlo": (
        "measure the attack false-positive rate against its bound", _scenario_montecarlo, True
    ),
    "paper-repro": (
        "recompute the reference results and report pass/fail", _scenario_paper_repro, False
    ),
}


def run(args: argparse.Namespace) -> Outcome:
    """Execute one scenario and write its CSV and report.json under --out."""
    start = time.perf_counter()
    _, runner, reads_config = SCENARIOS[args.scenario]
    outcome = runner(load_config(args.config) if reads_config else {}, args)
    header = list(outcome.rows[0])
    report = {
        "scenario": args.scenario,
        "seed": outcome.seed,
        "parameters": outcome.parameters,
        "results": outcome.results,
        "csv_header": header,
        "wall_clock_s": time.perf_counter() - start,
        "version": __version__,
    }
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(value) for value in row.values()) for row in outcome.rows]
    if args.format in ("csv", "both"):
        with _writable(args.out / f"{args.scenario.replace('-', '_')}.csv", args.force) as tmp:
            tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.format in ("json", "both"):
        with _writable(args.out / "report.json", args.force) as tmp:
            tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return outcome


@functools.cache  # parsing leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmark",
        description="Interval watermark embedding, detection, and attack experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="SCENARIO", required=True)
    for name, (help_text, _, reads_config) in SCENARIOS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_config:
            p.add_argument("--config", type=Path, required=True, help="INI experiment config")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--trials", type=int, default=None, help="trial or flow count")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument(
            "--format", choices=("json", "csv", "both"), default="both",
            help="which report files to write",
        )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleScenario as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FlowmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(outcome.summary)
    print(f"report written to {args.out}")
    if args.scenario == "paper-repro" and outcome.results["passed"] != outcome.results["cases"]:
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
