"""flowmark benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload repro --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports flowmark from ./src
and exits with code 2 if that is missing.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics by name and unit, plus a host-speed calibration.
Scratch files go to ``.bench_work/`` under the current directory and are
removed at exit.  See README.md in this directory for the workloads, the
metrics and what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1

sys.path.insert(0, str(BENCH_DIR))
from spans import GENERATION, TRACED, Tracer  # noqa: E402
from workloads import SLOTS, WORKLOADS, Op, Sizes, make_ops, parse_csv  # noqa: E402

# p75 is the highest percentile with ten ops beyond it when a run has 40
# ops; runs go on past --seconds until they have that many, but never past
# HARD_STOP_S, so a run on a very slow host still ends in time.
MIN_OPS = 40
TAIL_Q = 0.75
HARD_STOP_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "flows_per_s": "flows/s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass(frozen=True)
class Settings:
    """How much work a run does; the self-test shrinks every field."""

    sizes: Sizes = Sizes()
    min_ops: int = MIN_OPS
    setup_repeats: int = 7
    digests: Optional[dict] = None  # None: the digests recorded in DIGESTS


def import_flowmark():
    """Import flowmark from this checkout's src/, never from elsewhere."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import flowmark.cli

    origin = Path(flowmark.cli.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise ImportError(f"flowmark was imported from {origin}, not from {SRC_DIR}")
    return flowmark.cli


@contextlib.contextmanager
def work_dir(name: str, configs: dict[str, str]):
    """Run the body inside a fresh .bench_work/<name> holding the config files."""
    home = Path.cwd()
    work = home / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        for file_name, text in configs.items():
            Path(file_name).write_text(text, encoding="utf-8")
        yield
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reference."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def digest(outputs: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, data in outputs:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass
class Runner:
    """Runs ops through cli.main in the current directory and checks their output."""

    cli: object
    recorded: dict  # signature -> digest recorded at the parent commit
    first: dict = field(default_factory=dict)  # signature -> digest of its first op
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def run_op(self, op: Op) -> float:
        shutil.rmtree("out", ignore_errors=True)
        codes: list = []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                for argv in op.calls:
                    codes.append(self.cli.main(list(argv)))
            except Exception as exc:  # counted as a failed op; the run goes on
                codes.append(f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        self.verify(op, codes, err.getvalue())
        return elapsed

    def verify(self, op: Op, codes: list, stderr: str = "") -> None:
        self.attempted += 1
        problems = []
        if codes != [0] * len(op.calls):
            problems.append(f"exit codes {codes}: {stderr.strip()}")
        outputs = []
        for name in op.csvs:
            try:
                outputs.append((name, Path(name).read_bytes()))
            except OSError as exc:
                problems.append(f"missing output: {exc}")
        if not problems:
            tables = {name: parse_csv(data.decode("utf-8")) for name, data in outputs}
            found, notes = op.check(tables)
            problems += found
            for note in notes:
                self.notes[note] = self.notes.get(note, 0) + 1
            got = digest(outputs)
            want = self.recorded.get(op.signature)
            if want is not None and got != want:
                problems.append(f"CSV digest {got[:12]} != recorded {want[:12]}")
            previous = self.first.setdefault(op.signature, got)
            if got != previous:
                problems.append("CSV differs from an earlier op with the same arguments")
        if problems:
            self.failed += 1
            self.problems.append(f"{op.signature}: {'; '.join(problems)}")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports flowmark.cli."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import flowmark.cli"], env=_child_env(), check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def probe_rss(runner: Runner, op: Op) -> float:
    """Peak RSS (MiB) of one op in a fresh interpreter; its output is checked too."""
    shutil.rmtree("out", ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), json.dumps(op.calls)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    runner.verify(op, report["codes"], proc.stderr)
    return report["maxrss_kib"] / 1024.0


def _loop(ops: list[Op], seconds: float, min_ops: int, step) -> None:
    """Call step(op, i) over the ops in turn for `seconds` and at least min_ops times."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= min_ops and elapsed >= seconds) or (i >= 1 and elapsed >= HARD_STOP_S):
            return
        step(ops[i % len(ops)], i)
        i += 1


def end_to_end(runner: Runner, ops: list[Op], seconds: float, settings: Settings, info: list):
    rss = probe_rss(runner, ops[0])  # also compiles bytecode before setup is timed
    setup = measure_setup(settings.setup_repeats)
    times: list[float] = []
    trials = flows = 0

    def step(op: Op, _):
        nonlocal trials, flows
        times.append(runner.run_op(op))
        trials += op.trials
        flows += op.flows

    _loop(ops, seconds, settings.min_ops, step)
    busy = sum(times)
    beyond = len(times) - math.ceil(TAIL_Q * len(times))
    info.append(f"timed ops {len(times)}, {beyond} beyond op_p75_s, {busy:.3f} s busy")
    return {
        "setup_s": setup,
        "trials_per_s": trials / busy,
        "flows_per_s": flows / busy,
        "op_p50_s": statistics.median(times),
        "op_p75_s": _percentile(times, TAIL_Q),
        "peak_rss_mib": rss,
    }


def per_layer(runner: Runner, ops: list[Op], seconds: float, settings: Settings, info: list):
    """Pairs of untraced and traced ops of the same arguments, alternating which goes first."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}

    def traced_op(op: Op) -> None:
        tracer.install()
        try:
            traced.append(runner.run_op(op))
        finally:
            tracer.uninstall()
        op_calls, op_self = tracer.reduce()
        for name, value in op_calls.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in op_self.items():
            self_s[name] = self_s.get(name, 0.0) + value

    def step(op: Op, i: int) -> None:
        if i % 2:
            traced_op(op)
            plain.append(runner.run_op(op))
        else:
            plain.append(runner.run_op(op))
            traced_op(op)

    _loop(ops, seconds, max(SLOTS, settings.min_ops // 4), step)
    n = len(traced)
    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s/op")

    def ratio(a: str, b: str) -> float:
        return c[a] / c[b] if c[b] else 0.0

    wall = sum(traced)
    mfa_self = sum(v for k, v in self_s.items() if k.startswith("mfa."))
    metrics |= {
        "mfa.configurations_searched": (ratio("configurations_searched", "attack_calls"), "count/attack"),
        "mfa.present_ratio": (ratio("present", "attack_calls"), "ratio"),
        "mfa.windows_per_flow": (ratio("windows", "attacked_flows"), "count/flow"),
        "flow_model.packets_per_flow": (ratio("packets", "flows"), "count/flow"),
        "flow_model.io_bytes": (c["io_bytes"] / n, "B/op"),
        "watermark.detect.hit_ratio": (ratio("detect_hits", "detect_calls"), "ratio"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
        "trace.generation_share": (sum(self_s.get(k, 0.0) for k in GENERATION) / wall, "ratio"),
        "trace.mfa_share": (mfa_self / wall, "ratio"),
    }
    info.append(f"op pairs {n}: untraced median {statistics.median(plain):.4f} s, "
                f"traced median {statistics.median(traced):.4f} s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        settings: Settings = Settings()) -> tuple[dict, list[str]]:
    """One benchmark run from the current directory: the result object and info lines."""
    cli = import_flowmark()
    recorded = settings.digests
    if recorded is None:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    configs, ops = make_ops(workload, seed, settings.sizes)
    runner = Runner(cli=cli, recorded=recorded)
    info = [f"workload {workload}, seed {seed}, trace {int(trace)}, {seconds:g} s"]
    with work_dir(f"{workload}-{os.getpid()}", configs):
        before = calibrate()
        if trace:
            metrics = per_layer(runner, ops, seconds, settings, info)
        else:
            e2e = end_to_end(runner, ops, seconds, settings, info)
            metrics = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
        after = calibrate()
    info.append(f"calibration loop {before:.4f} s before, {after:.4f} s after (information only)")
    info.append(f"error_rate {runner.failed / runner.attempted:g} ({runner.failed}/{runner.attempted} ops failed)")
    info += [f"{count} ops: {note}" for note, count in sorted(runner.notes.items())]
    info += [f"FAILED {problem}" for problem in runner.problems[:20]]
    info += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import flowmark from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
