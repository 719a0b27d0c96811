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
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from typing import Optional

from . import __version__
from .analysis import SWEEP_COLUMNS, fp_bound, min_flows, offset_multiplier, sweep_table
from .config import (
    ConfigDict,
    from_section,
    get,
    load_config,
    model_from_config,
    model_to_section,
    to_section,
)
from .errors import ConfigError, FlowmarkError, InfeasibleScenario
from .flow_model import (
    PoissonModel,
    clear_probability,
    generate_flow,
    read_flow,
    write_flow,
)
from .mfa import METHODS, AttackConfig, attack, read_manifest
from .repro import REPRO_DEFAULT_SEED, REPRO_DEFAULT_TRIALS, all_cases, monte_carlo_attack
from .seeds import check_seed, derive_seed
from .watermark import WatermarkParams, detect, embed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4

@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a scenario run needs, resolved from argv."""

    scenario: str
    out_dir: Path
    config_path: Optional[Path] = None
    seed: Optional[int] = None
    trials: Optional[int] = None
    force: bool = False
    format: str = "both"


@dataclass
class ExperimentReport:
    """Result of one scenario run, ready for serialization."""

    scenario: str
    seed: Optional[int]
    parameters: ConfigDict
    results: dict
    csv_header: tuple[str, ...]
    csv_rows: list[tuple]
    wall_clock_s: float = 0.0
    version: str = __version__

    def json_text(self) -> str:
        doc = {
            "scenario": self.scenario,
            "seed": self.seed,
            "parameters": self.parameters,
            "results": self.results,
            "csv_header": list(self.csv_header),
            "wall_clock_s": self.wall_clock_s,
            "version": self.version,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def csv_text(self) -> str:
        lines = [",".join(self.csv_header)]
        for row in self.csv_rows:
            lines.append(",".join(_csv_cell(value) for value in row))
        return "\n".join(lines) + "\n"


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


def _require_seed(spec: ExperimentSpec) -> int:
    if spec.seed is None:
        raise ConfigError(f"{spec.scenario} is randomized; pass --seed")
    try:
        return check_seed(spec.seed)
    except FlowmarkError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_trials(spec: ExperimentSpec, cfg: ConfigDict, what: str = "trials") -> int:
    trials = spec.trials
    if trials is None:
        trials = get(cfg, "experiment", "trials", None)
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


def _manifest_flows(cfg: ConfigDict, spec: ExperimentSpec):
    raw = get(cfg, "experiment", "manifest")
    manifest = Path(raw)
    if not manifest.is_absolute() and spec.config_path is not None:
        manifest = spec.config_path.parent / manifest
    paths = read_manifest(manifest)
    if not paths:
        raise ConfigError(f"manifest {manifest} lists no flows")
    return paths, [read_flow(p) for p in paths]


def _write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_flow_file(flow, path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_flow(flow, path)


def _write_manifest(rel_paths: list[str], spec: ExperimentSpec) -> None:
    # Entries resolve relative to the manifest, so detect/attack configs can
    # point at <out>/manifest.txt directly.
    _write_text(spec.out_dir / "manifest.txt", "\n".join(rel_paths) + "\n", spec.force)


def _scenario_generate(cfg: ConfigDict, spec: ExperimentSpec):
    model = _poisson_model(cfg)
    duration = get(cfg, "flow", "duration")
    count = _resolve_trials(spec, cfg, what="flow count")
    seed = _require_seed(spec)
    rows = []
    total = 0
    for i in range(count):
        flow_seed = derive_seed(seed, "generate", i)
        flow = generate_flow(model, duration, flow_seed)
        rel = f"flows/flow_{i:05d}.txt"
        _write_flow_file(flow, spec.out_dir / rel, spec.force)
        total += len(flow)
        rows.append((i, flow_seed, len(flow), duration, rel))
    _write_manifest([str(row[-1]) for row in rows], spec)
    parameters = {
        "flow": model_to_section(model) | {"duration": repr(duration)},
        "experiment": {"trials": str(count)},
    }
    results = {"flows": count, "total_packets": total, "mean_packets": total / count}
    header = ("flow_index", "seed", "packets", "duration", "path")
    return seed, parameters, results, header, rows


def _scenario_embed(cfg: ConfigDict, spec: ExperimentSpec):
    model = _poisson_model(cfg)
    params = from_section(WatermarkParams, cfg, "watermark")
    # Default duration covers the detector sweep, not just the embedder.
    duration = get(cfg, "flow", "duration", None)
    if duration is None:
        duration = params.o_max + params.n * params.T
    count = _resolve_trials(spec, cfg, what="flow count")
    seed = _require_seed(spec)
    rows = []
    delayed_total = 0
    for i in range(count):
        flow_seed = derive_seed(seed, "embed-flow", i)
        base = generate_flow(model, duration, flow_seed)
        marked = embed(base, params)
        # Timestamps are strictly increasing, so set intersection counts the
        # packets the embedder left untouched.
        kept = np.intersect1d(base.timestamps, marked.timestamps).size
        delayed = len(base) - int(kept)
        rel = f"flows/flow_{i:05d}.txt"
        _write_flow_file(marked, spec.out_dir / rel, spec.force)
        delayed_total += delayed
        rows.append((i, flow_seed, len(marked), delayed, rel))
    _write_manifest([str(row[-1]) for row in rows], spec)
    parameters = {
        "flow": model_to_section(model) | {"duration": repr(duration)},
        "watermark": to_section(params),
        "experiment": {"trials": str(count)},
    }
    results = {
        "flows": count,
        "delayed_packets": delayed_total,
        "mean_delayed": delayed_total / count,
    }
    header = ("flow_index", "seed", "packets", "delayed", "path")
    return seed, parameters, results, header, rows


def _scenario_detect(cfg: ConfigDict, spec: ExperimentSpec):
    params = from_section(WatermarkParams, cfg, "watermark")
    paths, flows = _manifest_flows(cfg, spec)
    rows = []
    detected = 0
    for i, (path, flow) in enumerate(zip(paths, flows)):
        result = detect(flow, params)
        detected += result.detected
        rows.append(
            (i, str(path), result.detected, result.recovered_offset, result.match_score)
        )
    parameters = {
        "watermark": to_section(params),
        "experiment": {"manifest": get(cfg, "experiment", "manifest")},
    }
    results = {
        "flows": len(flows),
        "detected": detected,
        "detection_rate": detected / len(flows),
    }
    header = ("flow_index", "path", "detected", "recovered_offset", "match_score")
    return spec.seed, parameters, results, header, rows


def _method_name(cfg: ConfigDict) -> str:
    method = get(cfg, "experiment", "method", "bnb")
    if method not in METHODS:
        raise ConfigError(f"unknown attack method {method!r}; expected one of {sorted(METHODS)}")
    return method


def _scenario_attack(cfg: ConfigDict, spec: ExperimentSpec):
    acfg = from_section(AttackConfig, cfg, "attack")
    method = _method_name(cfg)
    _, flows = _manifest_flows(cfg, spec)
    finding = attack(method, flows, acfg)
    window_start = window_length = None
    assignment = None
    if finding.matched_window is not None:
        window_start, window_length = finding.matched_window
    if finding.offset_assignment is not None:
        assignment = ";".join(repr(o) for o in finding.offset_assignment)
    k = len(flows)
    rows = [
        (
            method,
            k,
            finding.present,
            window_start,
            window_length,
            assignment,
            finding.configurations_searched,
            finding.fp_bound_at_k,
        )
    ]
    parameters = {
        "attack": to_section(acfg),
        "experiment": {
            "manifest": get(cfg, "experiment", "manifest"),
            "method": method,
        },
    }
    header = (
        "method",
        "k",
        "present",
        "window_start",
        "window_length",
        "offset_assignment",
        "configurations_searched",
        "fp_bound_at_k",
    )
    return spec.seed, parameters, dict(zip(header, rows[0])), header, rows


def _sweep_values(raw: str) -> list[float]:
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"bad sweep value {item!r}") from None
    if not values:
        raise ConfigError("[sweep] values is empty")
    return values


def _scenario_bounds(cfg: ConfigDict, spec: ExperimentSpec):
    acfg = from_section(AttackConfig, cfg, "attack")
    if "flow" not in cfg:
        raise ConfigError("bounds needs a [flow] section to derive the clear probability")
    model = model_from_config(cfg)

    def prob_at(T: float, delta: float) -> float:
        try:
            return clear_probability(model, T - delta)
        except FlowmarkError as exc:
            raise ConfigError(f"cannot evaluate clear probability: {exc}") from exc

    p_point = prob_at(acfg.T, acfg.delta)
    base_kwargs = dict(
        T=acfg.T, delta=acfg.delta, o_max=acfg.o_max, epsilon=acfg.epsilon, p=p_point
    )

    if "sweep" in cfg:
        param = get(cfg, "sweep", "param")
        values = _sweep_values(get(cfg, "sweep", "values"))
        sweep_echo = {"param": param, "values": ",".join(repr(v) for v in values)}
    else:
        param, values = "o_max", [acfg.o_max]
        sweep_echo = None

    rows = []
    for value in values:
        kwargs = dict(base_kwargs)
        if param in ("T", "delta"):
            # The window length changed, so the clear probability does too.
            kwargs[param] = value
            kwargs["p"] = prob_at(kwargs["T"], kwargs["delta"])
        try:
            # sweep_table sets the swept value itself and rejects unknown params.
            rows.extend(sweep_table(param, [value], **kwargs))
        except (ValueError, FlowmarkError) as exc:
            raise ConfigError(str(exc)) from exc

    verdict = min_flows(acfg.epsilon, acfg.o_max, acfg.delta, p_point)
    multiplier = offset_multiplier(acfg.o_max, acfg.delta)
    threshold = verdict.threshold_o_max
    results = {
        "clear_prob": p_point,
        "multiplier": multiplier,
        "base": verdict.base,
        "feasible": verdict.feasible,
        "min_k": verdict.min_k,
        "threshold_o_max": threshold if math.isfinite(threshold) else None,
        "fp_bound_at_min_k": (
            fp_bound(verdict.min_k, p_point, multiplier).raw if verdict.feasible else None
        ),
    }
    parameters = {"attack": to_section(acfg), "flow": model_to_section(model)}
    if sweep_echo is not None:
        parameters["sweep"] = sweep_echo
    return spec.seed, parameters, results, SWEEP_COLUMNS, rows


def _scenario_montecarlo(cfg: ConfigDict, spec: ExperimentSpec):
    acfg = from_section(AttackConfig, cfg, "attack")
    model = _poisson_model(cfg)
    # Default span is one interval so each offset assignment contributes a
    # single alignment, matching the analytic bound's accounting.
    duration = get(cfg, "flow", "duration", None)
    if duration is None:
        duration = acfg.T
    trials = _resolve_trials(spec, cfg)
    seed = _require_seed(spec)
    method = _method_name(cfg)
    p = clear_probability(model, acfg.min_length)

    k = get(cfg, "experiment", "k", None)
    if k is None:
        verdict = min_flows(acfg.epsilon, acfg.o_max, acfg.delta, p)
        if not verdict.feasible:
            raise InfeasibleScenario(
                f"no flow count meets epsilon={acfg.epsilon!r}: per-flow base "
                f"{verdict.base!r} is not below 1 (offsets up to {acfg.o_max!r} "
                f"are too small for delta={acfg.delta!r})"
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
    header = ("trials", "hits", "rate", "ci_halfwidth", "fp_bound", "threshold", "pass")
    verdict = "pass" if passed else "fail"
    rows = [(trials, mc.hits, mc.rate, half_width, mc.fp_bound, mc.ceiling, verdict)]
    return seed, parameters, results, header, rows


def _scenario_paper_repro(cfg: ConfigDict, spec: ExperimentSpec):
    seed = REPRO_DEFAULT_SEED if spec.seed is None else _require_seed(spec)
    trials = REPRO_DEFAULT_TRIALS if spec.trials is None else spec.trials
    if trials <= 0:
        raise ConfigError(f"trials must be positive, got {trials}")
    cases, stats = all_cases(seed=seed, trials=trials)
    rows = [(c.name, c.expected, c.computed, c.display, c.status) for c in cases]
    parameters = {"experiment": {"trials": str(trials)}}
    results = {
        "cases": len(cases),
        "passed": sum(c.passed for c in cases),
        "monte_carlo": stats,
    }
    header = ("case", "expected", "computed", "display", "status")
    return seed, parameters, results, header, rows


# Each scenario: its help text, its runner, and whether it reads an INI config.
# A runner returns the seed it ran with, the parameter echo, the results and
# the CSV header and rows.
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


def run(spec: ExperimentSpec) -> ExperimentReport:
    """Execute one scenario and write its report files."""
    start = time.perf_counter()
    _, runner, reads_config = SCENARIOS[spec.scenario]
    cfg: ConfigDict = {}
    if reads_config:
        if spec.config_path is None:
            raise ConfigError(f"{spec.scenario} requires --config")
        cfg = load_config(spec.config_path)
    seed, parameters, results, header, rows = runner(cfg, spec)

    report = ExperimentReport(
        scenario=spec.scenario,
        seed=seed,
        parameters=parameters,
        results=results,
        csv_header=tuple(header),
        csv_rows=list(rows),
        wall_clock_s=time.perf_counter() - start,
    )
    stem = spec.scenario.replace("-", "_")
    if spec.format in ("csv", "both"):
        _write_text(spec.out_dir / f"{stem}.csv", report.csv_text(), spec.force)
    if spec.format in ("json", "both"):
        _write_text(spec.out_dir / "report.json", report.json_text(), spec.force)
    return report


def _print_summary(report: ExperimentReport, out_dir: Path) -> None:
    if report.scenario == "paper-repro":
        name_width = max(len(str(row[0])) for row in report.csv_rows)
        for name, expected, _, display, status in report.csv_rows:
            print(f"{status:4} {name:<{name_width}}  expected {expected}; got {display}")
        print(f"{report.results['passed']}/{report.results['cases']} reference cases pass")
    elif report.scenario == "montecarlo":
        r = report.results
        verdict = "within" if r["pass"] else "ABOVE"
        print(
            f"montecarlo: rate {r['rate']:.4g} over {r['trials']} trials "
            f"({r['hits']} hits, k={r['k']}), {verdict} bound {r['fp_bound']:.4g}"
        )
    elif report.scenario == "attack":
        r = report.results
        state = "present" if r["present"] else "absent"
        print(
            f"attack[{r['method']}]: watermark {state} over k={r['k']} flows "
            f"({r['configurations_searched']} configurations searched)"
        )
    elif report.scenario == "bounds":
        r = report.results
        k_text = "unreachable" if r["min_k"] is None else str(r["min_k"])
        print(f"bounds: base {r['base']:.4g}, min flows {k_text}")
    elif report.scenario == "detect":
        r = report.results
        print(f"detect: {r['detected']}/{r['flows']} flows matched")
    else:
        print(f"{report.scenario}: {report.results['flows']} flows written")
    print(f"report written to {out_dir}")


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
    spec = ExperimentSpec(
        scenario=args.scenario,
        out_dir=args.out,
        config_path=getattr(args, "config", None),
        seed=args.seed,
        trials=args.trials,
        force=args.force,
        format=args.format,
    )
    try:
        report = run(spec)
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
    _print_summary(report, spec.out_dir)
    if spec.scenario == "paper-repro" and report.results["passed"] != report.results["cases"]:
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
