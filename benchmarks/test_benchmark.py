"""Fast self-test of the benchmark: every workload at tiny size.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, Sizes, make_ops  # noqa: E402

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = run.Settings(
    sizes=Sizes(repro_trials=20, mc_trials=5, roundtrip_flows=2),
    min_ops=4,
    setup_repeats=1,
    digests={},
)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_spec_names_this_runner_and_its_workloads():
    assert SPEC["command"][:2] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_units(workload):
    result, _ = run.run(workload, seed=3, seconds=0, trace=False, settings=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_units(workload):
    result, _ = run.run(workload, seed=3, seconds=0, trace=True, settings=TINY)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert metrics["cli.main.calls"]["value"] == (3 if workload == "roundtrip" else 1)
    io_layers = ("watermark.embed", "watermark.detect", "flow_model.read_flow",
                 "flow_model.write_flow", "flow_model.estimate_clear_probability")
    io_calls = sum(metrics[f"{name}.calls"]["value"] for name in io_layers)
    assert (io_calls > 0) == (workload == "roundtrip")


def test_wrong_digest_counts_as_failed_op():
    _, ops = make_ops("repro", 3, TINY.sizes)
    wrong = {op.signature: "0" * 64 for op in ops[:1]}
    settings = run.Settings(sizes=TINY.sizes, min_ops=4, setup_repeats=1, digests=wrong)
    result, info = run.run("repro", seed=3, seconds=0, trace=False, settings=settings)
    # The fresh-process probe and the timed op of the first slot both mismatch.
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 5
    assert any("digest" in line for line in info)


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "bare" / "benchmarks"
    shutil.copytree(run.BENCH_DIR, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", bench.parent)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "repro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bench.parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
