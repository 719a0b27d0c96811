"""Config parsing and the command-line experiment harness."""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowmark import ReproCase, cli, closed_form_cases, load_config, parse_config
from flowmark.analysis import fp_bound
from flowmark.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    build_parser,
    main,
    run,
)
from flowmark.config import SECTIONS, from_section, get, model_from_config, to_section
from flowmark.errors import ConfigError
from flowmark.flow_model import PoissonModel, clear_probability, generate_flow, read_flow, write_flow
from flowmark.mfa import AttackConfig, attack_plan, read_manifest
from flowmark.watermark import WatermarkParams
from search_oracle import enumerate_assignments


def render_config(sections):
    """INI text that parse_config reads back as sections."""
    return "\n\n".join(
        "\n".join([f"[{section}]", *(f"{key} = {value}" for key, value in mapping.items())])
        for section, mapping in sections.items()
    ) + "\n"


GEN_INI = """[flow]
model = poisson
rate = 3.0
duration = 18.9

[experiment]
trials = 3
"""

WATERMARK_SECTION = """[watermark]
T = 0.9
o = 0.45
o_max = 0.9
delta = 0.45
n = 20
key = 12345
clear_fraction = 0.5
"""

ATTACK_SECTION = """[attack]
T = 0.9
delta = 0.45
o_max = 0.9
epsilon = 1e-5
"""


class TestParseConfig:
    def test_sections_and_values(self):
        cfg = parse_config(GEN_INI)
        assert cfg["flow"]["model"] == "poisson"
        assert cfg["experiment"]["trials"] == "3"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="watermarking"):
            parse_config("[watermarking]\nT = 1\n")

    # configparser would fold [DEFAULT] into every section: a duration set
    # there would reach [flow], and a typo there would be blamed on [flow].
    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nduration = 5\n\n" + GEN_INI.replace("duration = 18.9\n", ""),
         "[DEFAULT]\nduratino = 5\n\n" + GEN_INI],
        ids=["default-duration", "default-typo"],
    )
    def test_default_section_is_an_unknown_section(self, tmp_path, capsys, text):
        cfg = tmp_path / "gen.ini"
        cfg.write_text(text)
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "o", "--seed", "1") == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {cfg}: unknown section [DEFAULT]\n"

    def test_unknown_key_rejected_with_line_number(self):
        text = "[flow]\nmodel = poisson\nrate = 3.0\nduratino = 5\n"
        with pytest.raises(ConfigError, match=r":4.*duratino"):
            parse_config(text)

    def test_keys_are_case_sensitive(self):
        with pytest.raises(ConfigError, match="t"):
            parse_config("[attack]\nt = 0.9\n")

    def test_malformed_ini_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("rate = 3.0\n")

    @pytest.mark.parametrize("text", ["rate = 3.0\n", "[flow]\nmodel\n  x\n"])
    def test_malformed_ini_message_is_one_line(self, text):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert "\n" not in str(info.value)

    def test_render_round_trip(self):
        cfg = parse_config(GEN_INI + "\n" + ATTACK_SECTION)
        assert parse_config(render_config(cfg)) == cfg

    def test_load_config_names_file_in_errors(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[flow]\nmodle = poisson\n")
        with pytest.raises(ConfigError, match="exp.ini"):
            load_config(path)

    def test_value_helpers(self):
        cfg = parse_config(GEN_INI)
        assert get(cfg, "flow", "model") == "poisson"
        assert get(cfg, "flow", "rate") == 3.0
        assert get(cfg, "experiment", "trials") == 3
        assert get(cfg, "flow", "table", None) is None
        with pytest.raises(ConfigError, match="missing"):
            get(cfg, "flow", "table")
        with pytest.raises(ConfigError, match=r"\[experiment\] trials must be an integer"):
            get(parse_config("[experiment]\ntrials = 3.5\n"), "experiment", "trials")

    def test_list_values_skip_blank_items(self):
        cfg = parse_config("[flow]\ntable = 0.1:0.5,, 0.45:0.3,\n\n[sweep]\nvalues = 0.45, ,0.9,\n")
        assert get(cfg, "flow", "table") == ((0.1, 0.5), (0.45, 0.3))
        assert get(cfg, "sweep", "values") == [0.45, 0.9]

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("flow", "table", " , ", "empirical table must contain at least one point"),
            ("sweep", "values", "0.45, nine", "bad sweep value 'nine'"),
            ("sweep", "values", ",", r"\[sweep\] values is empty"),
        ],
    )
    def test_bad_list_values_are_config_errors(self, section, key, value, message):
        cfg = parse_config(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            get(cfg, section, key)

    def test_model_from_config(self):
        model = model_from_config(parse_config(GEN_INI))
        assert model == PoissonModel(3.0)

    def test_model_from_config_empirical(self):
        cfg = parse_config("[flow]\nmodel = empirical\ntable = 0.35:0.33, 0.45:0.276\n")
        model = model_from_config(cfg)
        assert model.lookup(0.45) == 0.276

    def test_model_from_config_rejects_unknown_kind(self):
        cfg = parse_config("[flow]\nmodel = pareto\n")
        with pytest.raises(ConfigError, match="pareto"):
            model_from_config(cfg)

    def test_model_from_config_rejects_bad_table(self):
        cfg = parse_config("[flow]\nmodel = empirical\ntable = nonsense\n")
        with pytest.raises(ConfigError):
            model_from_config(cfg)

    @pytest.mark.parametrize("scenario", ["generate", "detect", "attack", "bounds"])
    def test_non_utf8_config_is_a_one_line_config_error(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff\xfe[attack]\n")
        rc = run_cli(scenario, "--config", cfg, "--out", tmp_path / "o", "--seed", "1")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.ini" in err


class TestParamsConfigSection:
    def params(self) -> WatermarkParams:
        return WatermarkParams(
            T=0.9, o=0.45, o_max=0.9, delta=0.45, n=20, key=987654321, clear_fraction=0.5
        )

    def test_round_trip(self):
        params = self.params()
        cfg = {"watermark": to_section(params)}
        assert from_section(WatermarkParams, cfg, "watermark") == params

    def test_section_values_are_strings(self):
        section = to_section(self.params())
        assert all(isinstance(v, str) for v in section.values())

    def test_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "det.ini"
        cfg.write_text(WATERMARK_SECTION + "period = 0.9\n\n[experiment]\nmanifest = m.txt\n")
        assert run_cli("detect", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "'period'" in capsys.readouterr().err

    def test_rejects_missing_key(self):
        section = to_section(self.params())
        del section["delta"]
        with pytest.raises(ConfigError, match="delta"):
            from_section(WatermarkParams, {"watermark": section}, "watermark")

    def test_rejects_bad_value(self):
        section = to_section(self.params())
        section["delta"] = "-1"
        with pytest.raises(ConfigError):
            from_section(WatermarkParams, {"watermark": section}, "watermark")


@pytest.fixture
def gen_config(tmp_path):
    path = tmp_path / "gen.ini"
    path.write_text(GEN_INI)
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestGenerateScenario:
    def test_writes_flows_and_reports(self, tmp_path, gen_config, capsys):
        out = tmp_path / "out"
        rc = run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7")
        assert rc == EXIT_OK
        flows = sorted((out / "flows").glob("*.txt"))
        assert len(flows) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "generate"
        assert report["results"]["flows"] == 3
        csv_lines = (out / "generate.csv").read_text().splitlines()
        assert csv_lines[0] == "flow_index,seed,packets,duration,path"
        assert len(csv_lines) == 4

    def test_writes_manifest_usable_by_attack(self, tmp_path, gen_config):
        out = tmp_path / "out"
        run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7")
        listed = read_manifest(out / "manifest.txt")
        assert listed == sorted((out / "flows").glob("*.txt"))

    def test_csv_is_deterministic(self, tmp_path, gen_config):
        run_cli("generate", "--config", gen_config, "--out", tmp_path / "a", "--seed", "7")
        run_cli("generate", "--config", gen_config, "--out", tmp_path / "b", "--seed", "7")
        a = (tmp_path / "a" / "generate.csv").read_bytes()
        b = (tmp_path / "b" / "generate.csv").read_bytes()
        assert a == b

    def test_seed_changes_flows(self, tmp_path, gen_config):
        run_cli("generate", "--config", gen_config, "--out", tmp_path / "a", "--seed", "7")
        run_cli("generate", "--config", gen_config, "--out", tmp_path / "b", "--seed", "8")
        a = (tmp_path / "a" / "flows" / "flow_00000.txt").read_text()
        b = (tmp_path / "b" / "flows" / "flow_00000.txt").read_text()
        assert a != b

    def test_missing_seed_is_config_error(self, tmp_path, gen_config, capsys):
        rc = run_cli("generate", "--config", gen_config, "--out", tmp_path / "out")
        assert rc == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path, gen_config, capsys):
        out = tmp_path / "out"
        assert run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7") == EXIT_OK
        rc = run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7")
        assert rc == EXIT_IO
        rc = run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7", "--force")
        assert rc == EXIT_OK

    def test_a_forced_smaller_run_removes_the_old_flow_files(self, tmp_path, gen_config):
        out = tmp_path / "out"
        (out / "flows").mkdir(parents=True)
        kept = ["flow_0002.txt", "flow_000002.txt", "flow_00002.txt.bak", "notes.txt"]
        for name in kept:
            (out / "flows" / name).write_text("user file\n")
        base = ["generate", "--config", gen_config, "--out", out, "--seed", "7", "--force"]
        assert run_cli(*base, "--trials", "3") == EXIT_OK
        assert run_cli(*base, "--trials", "2") == EXIT_OK
        listed = read_manifest(out / "manifest.txt")
        assert [p.name for p in listed] == ["flow_00000.txt", "flow_00001.txt"]
        assert sorted((out / "flows").iterdir()) == sorted(listed + [out / "flows" / n for n in kept])

    def test_a_failed_forced_write_leaves_the_old_report(self, tmp_path, gen_config):
        out = tmp_path / "out"
        assert run_cli("generate", "--config", gen_config, "--out", out, "--seed", "7") == EXIT_OK
        old = (out / "report.json").read_bytes()
        real_write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            if "report.json" not in path.name:
                return real_write_text(path, text, *args, **kwargs)
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        with mock.patch.object(Path, "write_text", write_half_then_fail):
            rc = run_cli("generate", "--config", gen_config, "--out", out, "--seed", "8", "--force")
        assert rc == EXIT_IO
        assert (out / "report.json").read_bytes() == old
        assert [p.name for p in out.rglob("*") if p.name.startswith(".")] == []

    def test_zero_trials_is_config_error(self, tmp_path, gen_config):
        rc = run_cli(
            "generate", "--config", gen_config, "--out", tmp_path / "o",
            "--seed", "7", "--trials", "0",
        )
        assert rc == EXIT_CONFIG

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[flow]\nmodel = poisson\nrate = 3.0\nduratino = 5\n")
        rc = run_cli("generate", "--config", bad, "--out", tmp_path / "o", "--seed", "1")
        assert rc == EXIT_CONFIG

    def test_non_finite_packet_count_is_a_one_line_failure(self, tmp_path, capsys):
        cfg = tmp_path / "gen.ini"
        cfg.write_text(GEN_INI.replace("rate = 3.0", "rate = 1e308"))
        rc = run_cli("generate", "--config", cfg, "--out", tmp_path / "o", "--seed", "7")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:") and "packets" in err

    def test_out_of_range_seed_is_config_error(self, tmp_path, gen_config, capsys):
        rc = run_cli("generate", "--config", gen_config, "--out", tmp_path / "o", "--seed", "-1")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must fit in 64 unsigned bits" in err

    def test_huge_packet_count_is_a_one_line_failure(self, tmp_path, capsys):
        cfg = tmp_path / "gen.ini"
        cfg.write_text(GEN_INI.replace("duration = 18.9", "duration = 1e300"))
        rc = run_cli("generate", "--config", cfg, "--out", tmp_path / "o", "--seed", "7")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:") and "packets" in err

    def test_parameter_echo_round_trips(self, tmp_path, gen_config):
        args = build_parser().parse_args(
            ["generate", "--config", str(gen_config), "--out", str(tmp_path / "out"), "--seed", "7"]
        )
        report = run(args)
        assert parse_config(render_config(report.parameters)) == report.parameters


@pytest.fixture
def marked_setup(tmp_path):
    """Embed three watermarked flows and write a manifest listing them."""
    emb = tmp_path / "emb.ini"
    emb.write_text("[flow]\nmodel = poisson\nrate = 3.0\n\n" + WATERMARK_SECTION)
    out = tmp_path / "marked"
    rc = main([
        "embed", "--config", str(emb), "--out", str(out), "--seed", "5", "--trials", "3",
    ])
    assert rc == EXIT_OK
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{out}/flows/flow_{i:05d}.txt\n" for i in range(3)))
    return manifest


class TestEmbedScenario:
    def test_embeds_and_counts_delays(self, tmp_path):
        cfg = tmp_path / "emb.ini"
        cfg.write_text("[flow]\nmodel = poisson\nrate = 3.0\n\n" + WATERMARK_SECTION)
        out = tmp_path / "out"
        rc = run_cli("embed", "--config", cfg, "--out", out, "--seed", "5", "--trials", "2")
        assert rc == EXIT_OK
        lines = (out / "embed.csv").read_text().splitlines()
        assert lines[0] == "flow_index,seed,packets,delayed,path"
        for line in lines[1:]:
            packets, delayed = int(line.split(",")[2]), int(line.split(",")[3])
            assert 0 < delayed <= packets
        # flows must be long enough for the detector sweep
        flow = read_flow(out / "flows" / "flow_00000.txt")
        assert flow.duration >= 0.9 + 20 * 0.9

    def test_duration_short_of_the_window_end_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "emb.ini"
        cfg.write_text("[flow]\nmodel = poisson\nrate = 3.0\nduration = 1.0\n\n" + WATERMARK_SECTION)
        out = tmp_path / "out"
        rc = run_cli("embed", "--config", cfg, "--out", out, "--seed", "5", "--trials", "2")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [flow] duration 1.0 is shorter than the watermark window end 18.45\n"
        )
        assert not out.exists()  # no flow file written

    @pytest.mark.parametrize("duration", ["", "duration = 5.0\n"])
    @pytest.mark.parametrize("T, n", [("0.9", "1" + "0" * 320), ("1e10", "1" + "0" * 300)])
    def test_window_end_past_the_float_range_is_a_config_error(
        self, tmp_path, capsys, duration, T, n
    ):
        # An integer n past the float range, and a product n * T that overflows to inf.
        section = WATERMARK_SECTION.replace("T = 0.9", f"T = {T}").replace("n = 20", f"n = {n}")
        cfg = tmp_path / "emb.ini"
        cfg.write_text(f"[flow]\nmodel = poisson\nrate = 3.0\n{duration}\n" + section)
        out = tmp_path / "out"
        rc = run_cli("embed", "--config", cfg, "--out", out, "--seed", "5", "--trials", "1")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [watermark] window end o_max + n * T is not a finite number\n"
        )
        assert not out.exists()


# The sections besides [flow] that each scenario drawing flows needs.
DRAWING_SECTIONS = {
    "generate": "",
    "embed": WATERMARK_SECTION,
    "montecarlo": ATTACK_SECTION + "\n[experiment]\nk = 5\n",
}


@pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("scenario", DRAWING_SECTIONS)
def test_bad_flow_duration_is_a_one_line_config_error(tmp_path, capsys, scenario, duration):
    flow = f"[flow]\nmodel = poisson\nrate = 3.0\nduration = {duration}\n\n"
    cfg = tmp_path / "flow.ini"
    cfg.write_text(flow + DRAWING_SECTIONS[scenario])
    rc = run_cli(scenario, "--config", cfg, "--out", tmp_path / "o", "--seed", "7", "--trials", "1")
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: [flow] duration must be positive")


@pytest.mark.parametrize("scenario", DRAWING_SECTIONS)
def test_empirical_flow_model_cannot_draw_flows(tmp_path, capsys, scenario):
    flow = "[flow]\nmodel = empirical\ntable = 0.1:0.5, 0.45:0.3\nduration = 18.9\n\n"
    cfg = tmp_path / "flow.ini"
    cfg.write_text(flow + DRAWING_SECTIONS[scenario])
    rc = run_cli(scenario, "--config", cfg, "--out", tmp_path / "o", "--seed", "7", "--trials", "1")
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: this scenario generates traffic and needs a poisson [flow] model\n"
    )


class TestDetectScenario:
    def test_detects_marked_flows(self, tmp_path, marked_setup):
        cfg = tmp_path / "det.ini"
        cfg.write_text(WATERMARK_SECTION + f"\n[experiment]\nmanifest = {marked_setup}\n")
        out = tmp_path / "det"
        rc = run_cli("detect", "--config", cfg, "--out", out)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["detected"] == 3
        lines = (out / "detect.csv").read_text().splitlines()
        assert lines[0] == "flow_index,path,detected,recovered_offset,match_score"
        assert all(line.split(",")[2] == "true" for line in lines[1:])

    def test_wrong_key_does_not_detect(self, tmp_path, marked_setup):
        section = WATERMARK_SECTION.replace("key = 12345", "key = 99999")
        cfg = tmp_path / "det.ini"
        cfg.write_text(section + f"\n[experiment]\nmanifest = {marked_setup}\n")
        out = tmp_path / "det"
        rc = run_cli("detect", "--config", cfg, "--out", out)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["detected"] < 3


class TestAttackScenario:
    def test_attack_finds_common_window_in_marked_flows(self, tmp_path, marked_setup):
        cfg = tmp_path / "atk.ini"
        cfg.write_text(ATTACK_SECTION + f"\n[experiment]\nmanifest = {marked_setup}\n")
        out = tmp_path / "atk"
        rc = run_cli("attack", "--config", cfg, "--out", out)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["present"] is True
        assert report["results"]["method"] == "bnb"
        header = (out / "attack.csv").read_text().splitlines()[0]
        assert header == (
            "method,k,present,window_start,window_length,offset_assignment,"
            "configurations_searched,fp_bound_at_k"
        )

    def test_methods_agree(self, tmp_path, marked_setup):
        acfg = from_section(AttackConfig, parse_config(ATTACK_SECTION), "attack")
        flows = [read_flow(path) for path in read_manifest(marked_setup)]
        tried, window, assignment = enumerate_assignments(flows, acfg, attack_plan("bnb", acfg, 3))
        assert window is not None
        for method in ("exhaustive", "bnb"):
            cfg = tmp_path / f"{method}.ini"
            cfg.write_text(
                ATTACK_SECTION
                + f"\n[experiment]\nmanifest = {marked_setup}\nmethod = {method}\n"
            )
            out = tmp_path / method
            assert run_cli("attack", "--config", cfg, "--out", out) == EXIT_OK
            results = json.loads((out / "report.json").read_text())["results"]
            assert results["present"]
            assert (results["window_start"], results["window_length"]) == window
            assert results["offset_assignment"] == ";".join(map(repr, assignment))
            searched = results["configurations_searched"]
            assert searched == tried if method == "exhaustive" else searched <= tried

    def test_exhaustive_answers_at_the_papers_k(self, tmp_path):
        # k = 20 flows at o_max = 0.9 s: 2^20 assignments, past the 10^6 that
        # exhaustive was once capped at.
        emb = tmp_path / "emb.ini"
        emb.write_text("[flow]\nmodel = poisson\nrate = 3.0\n\n" + WATERMARK_SECTION)
        marked = tmp_path / "marked"
        assert run_cli("embed", "--config", emb, "--out", marked, "--seed", 7, "--trials", 20) == 0
        results = {}
        for method in ("bnb", "exhaustive"):
            cfg = tmp_path / f"{method}.ini"
            cfg.write_text(
                ATTACK_SECTION
                + f"\n[experiment]\nmanifest = {marked / 'manifest.txt'}\nmethod = {method}\n"
            )
            assert run_cli("attack", "--config", cfg, "--out", tmp_path / method) == EXIT_OK
            results[method] = json.loads((tmp_path / method / "report.json").read_text())["results"]
        fields = ("k", "present", "window_start", "window_length", "offset_assignment")
        assert [results["exhaustive"][f] for f in fields] == [results["bnb"][f] for f in fields]
        assert results["bnb"]["k"] == 20 and results["bnb"]["present"]
        path = [round(float(o) / 0.45) for o in results["bnb"]["offset_assignment"].split(";")]
        rank = sum(i * 2 ** (19 - d) for d, i in enumerate(path))
        assert results["exhaustive"]["configurations_searched"] == rank + 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int print limit")
    def test_a_count_too_long_to_print_is_a_one_line_failure(self, tmp_path, capsys):
        # 10 offsets per flow and no clear window: exhaustive counts 10^k,
        # which has k + 1 digits, so a limit of 640 prints k = 639 but not 640.
        (tmp_path / "dense.txt").write_text("# duration=2.0\n" + "".join(f"{i / 10}\n" for i in range(1, 20)))
        for k in (639, 640):
            (tmp_path / f"{k}.txt").write_text("dense.txt\n" * k)
            (tmp_path / f"{k}.ini").write_text(
                ATTACK_SECTION.replace("o_max = 0.9", "o_max = 4.5")
                + f"\n[experiment]\nmanifest = {k}.txt\nmethod = exhaustive\n"
            )
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run_cli("attack", "--config", tmp_path / "639.ini", "--out", tmp_path / "o") == 0
            capsys.readouterr()
            rc = run_cli("attack", "--config", tmp_path / "640.ini", "--out", tmp_path / "p")
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "641-digit count" in err and "640" in err
        results = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
        assert results["configurations_searched"] == 10**639
        assert not (tmp_path / "p").exists()

    def test_delta_equal_to_interval_claims_nothing(self, tmp_path, marked_setup):
        cfg = tmp_path / "atk.ini"
        cfg.write_text(
            ATTACK_SECTION.replace("delta = 0.45", "delta = 0.9")
            + f"\n[experiment]\nmanifest = {marked_setup}\n"
        )
        out = tmp_path / "atk"
        assert run_cli("attack", "--config", cfg, "--out", out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["fp_bound_at_k"] == 1.0

    @pytest.mark.parametrize("scenario", ["attack", "detect"])
    def test_bad_flow_file_is_a_one_line_failure(self, tmp_path, capsys, scenario):
        (tmp_path / "bad.txt").write_text("# duration=2.0\n0.5\nnan\n")
        (tmp_path / "manifest.txt").write_text("bad.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            (ATTACK_SECTION if scenario == "attack" else WATERMARK_SECTION)
            + "\n[experiment]\nmanifest = manifest.txt\n"
        )
        rc = run_cli(scenario, "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bad.txt:3:" in err

    @pytest.mark.parametrize("scenario", ["attack", "detect"])
    def test_tie_at_largest_float_is_a_one_line_failure(self, tmp_path, capsys, scenario):
        # The second packet would be nudged past the tie to inf.
        big = "1.7976931348623157e+308"
        (tmp_path / "big.txt").write_text(f"# duration={big}\n{big}\n{big}\n")
        (tmp_path / "manifest.txt").write_text("big.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            (ATTACK_SECTION if scenario == "attack" else WATERMARK_SECTION)
            + "\n[experiment]\nmanifest = manifest.txt\n"
        )
        rc = run_cli(scenario, "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "big.txt" in err and "finite" in err

    def test_unmeasurable_flow_is_named_in_a_one_line_failure(self, tmp_path, capsys):
        # 10**12 s hold more window starts than the clear-probability estimate samples.
        write_flow(generate_flow(PoissonModel(3.0), 20.0, 1), tmp_path / "a.txt")
        (tmp_path / "b.txt").write_text("# duration=1e12\n0.5\n")
        (tmp_path / "manifest.txt").write_text("a.txt\nb.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(ATTACK_SECTION + "\n[experiment]\nmanifest = manifest.txt\n")
        rc = run_cli("attack", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'b.txt'}: ") and "window starts" in err
        assert "a.txt" not in err

    def test_flow_past_the_grid_span_is_named_in_a_one_line_failure(self, tmp_path, capsys):
        # With delta = T no clear probability is estimated, so the search's
        # span guard is the first to see the 1e300 s flow.
        write_flow(generate_flow(PoissonModel(3.0), 20.0, 1), tmp_path / "a.txt")
        (tmp_path / "b.txt").write_text("# duration=1e300\n0.5\n")
        (tmp_path / "manifest.txt").write_text("a.txt\nb.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            ATTACK_SECTION.replace("delta = 0.45", "delta = 0.9")
            + "\n[experiment]\nmanifest = manifest.txt\n"
        )
        rc = run_cli("attack", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'b.txt'}: ") and "2**62 quanta" in err

    def test_flow_shorter_than_the_detector_span_is_named_in_a_one_line_failure(
        self, tmp_path, capsys
    ):
        write_flow(generate_flow(PoissonModel(3.0), 20.0, 1), tmp_path / "a.txt")
        write_flow(generate_flow(PoissonModel(3.0), 5.0, 2), tmp_path / "b.txt")
        (tmp_path / "manifest.txt").write_text("a.txt\nb.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(WATERMARK_SECTION + "\n[experiment]\nmanifest = manifest.txt\n")
        rc = run_cli("detect", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'b.txt'}: flow duration 5.0 is shorter")

    def test_non_utf8_manifest_is_a_one_line_failure(self, tmp_path, capsys):
        (tmp_path / "manifest.txt").write_bytes(b"\xff\xfeflow.txt\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(ATTACK_SECTION + "\n[experiment]\nmanifest = manifest.txt\n")
        rc = run_cli("attack", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "manifest.txt" in err

    def test_unknown_method_is_config_error(self, tmp_path, marked_setup):
        cfg = tmp_path / "atk.ini"
        cfg.write_text(
            ATTACK_SECTION + f"\n[experiment]\nmanifest = {marked_setup}\nmethod = magic\n"
        )
        rc = run_cli("attack", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG


class TestBoundsScenario:
    def test_reference_parameters_need_twenty_flows(self, tmp_path):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n\n"
            + ATTACK_SECTION
        )
        out = tmp_path / "out"
        rc = run_cli("bounds", "--config", cfg, "--out", out)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["min_k"] == 20
        assert report["results"]["base"] == pytest.approx(0.552, rel=1e-12)

    @pytest.mark.parametrize(
        "key, value", [("epsilon", "0"), ("o_max", "-0.9"), ("quantum", "0.2")]
    )
    def test_bad_attack_value_is_config_error(self, tmp_path, capsys, key, value):
        # quantum 0.2 exceeds delta/4 = 0.1125
        values = {"T": "0.9", "delta": "0.45", "o_max": "0.9", "epsilon": "1e-5", key: value}
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n\n"
            "[attack]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "out")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: bad [attack] section")

    def test_sweep_rows(self, tmp_path):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n\n"
            + ATTACK_SECTION
            + "\n[sweep]\nparam = o_max\nvalues = 0.45, 0.9, 1.8\n"
        )
        out = tmp_path / "out"
        assert run_cli("bounds", "--config", cfg, "--out", out) == EXIT_OK
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "swept_value,multiplier,base,min_k,fp_bound_at_min_k"
        cells = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in cells] == ["0.45", "0.9", "1.8"]
        assert [row[1] for row in cells] == ["1", "2", "4"]
        assert [row[3] for row in cells] == ["9", "20", "inf"]
        assert float(cells[1][4]) == fp_bound(20, 0.276, 2).raw
        assert cells[2][4] == ""

    def test_sweeping_interval_length_recomputes_probability(self, tmp_path):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n\n"
            "[attack]\nT = 0.9\ndelta = 0.45\no_max = 0.9\nepsilon = 1e-5\n\n"
            "[sweep]\nparam = T\nvalues = 0.625, 0.8, 0.9\n"
        )
        out = tmp_path / "out"
        assert run_cli("bounds", "--config", cfg, "--out", out) == EXIT_OK
        lines = (out / "bounds.csv").read_text().splitlines()
        bases = [float(line.split(",")[2]) for line in lines[1:]]
        # larger T means a longer required window, hence a smaller base
        assert bases[0] > bases[1] > bases[2]
        assert bases[0] == pytest.approx(2 * 0.525, rel=1e-12)
        assert bases[2] == pytest.approx(2 * 0.276, rel=1e-12)

    @pytest.mark.parametrize(
        "param, values", [("delta", "0"), ("delta", "nan"), ("o_max", "inf"), ("o_max", "1e308")]
    )
    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys, param, values):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = poisson\nrate = 3.0\n\n"
            + ATTACK_SECTION
            + f"\n[sweep]\nparam = {param}\nvalues = {values}\n"
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("T", "0.9, 0.3", "delta must be in (0, T=0.3], got 0.45"),
            ("delta", "0.45, 1.2", "delta must be in (0, T=0.9], got 1.2"),
        ],
    )
    def test_sweep_past_the_interval_is_an_attack_error(self, tmp_path, capsys, param, values, message):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = poisson\nrate = 3.0\n\n"
            + ATTACK_SECTION
            + f"\n[sweep]\nparam = {param}\nvalues = {values}\n"
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: bad [attack] section: {message}\n"

    def test_table_below_its_first_point_is_config_error(self, tmp_path, capsys):
        # T - delta = 0.05 s lies below the reference table's first window, 0.175 s.
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = empirical\ntable = 0.175:0.525, 0.35:0.33, 0.45:0.276\n\n"
            "[attack]\nT = 0.5\ndelta = 0.45\no_max = 0.9\nepsilon = 1e-5\n"
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "below the table's first point 0.175" in err

    def test_unknown_sweep_param_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[flow]\nmodel = poisson\nrate = 3.0\n\n"
            + ATTACK_SECTION
            + "\n[sweep]\nparam = foo\nvalues = 1, 2\n"
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_table_window_is_config_error(self, tmp_path, capsys, length):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            f"[flow]\nmodel = empirical\ntable = 0.1:0.5, {length}:0.4\n\n" + ATTACK_SECTION
        )
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: bad [flow] section: window length")

    def test_zero_clear_probability_has_no_threshold(self, tmp_path):
        # p = 0 at T - delta = 0.45 s: no offset span brings the bound to 1.
        cfg = tmp_path / "bounds.ini"
        cfg.write_text("[flow]\nmodel = empirical\ntable = 0.1:0.5, 0.45:0.0\n\n" + ATTACK_SECTION)
        out = tmp_path / "out"
        assert run_cli("bounds", "--config", cfg, "--out", out) == EXIT_OK

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=not_json)
        assert report["results"]["clear_prob"] == 0.0 and report["results"]["min_k"] == 1
        assert report["results"]["threshold_o_max"] is None

    def test_requires_flow_section(self, tmp_path):
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(ATTACK_SECTION)
        rc = run_cli("bounds", "--config", cfg, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG


class TestMonteCarloScenario:
    MC_INI = (
        "[flow]\nmodel = poisson\nrate = 2.860787585033304\n\n"
        + ATTACK_SECTION
        + "\n[experiment]\ntrials = 200\nk = 5\n"
    )

    def test_rate_stays_below_bound(self, tmp_path, capsys):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI)
        out = tmp_path / "out"
        rc = run_cli("montecarlo", "--config", cfg, "--out", out, "--seed", "3")
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["pass"] is True
        assert report["results"]["k"] == 5
        header = (out / "montecarlo.csv").read_text().splitlines()[0]
        assert header == "trials,hits,rate,ci_halfwidth,fp_bound,threshold,pass"

    def test_k_defaults_to_min_flows(self, tmp_path):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace("k = 5\n", "") .replace("trials = 200", "trials = 5"))
        out = tmp_path / "out"
        rc = run_cli("montecarlo", "--config", cfg, "--out", out, "--seed", "3")
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["k"] == 20

    @pytest.mark.parametrize("o_max", ["0.9", "1.8"])
    def test_fixed_k_defaults_to_its_one_offset(self, tmp_path, o_max):
        # fixed tries one offset per flow, so its bound is p^k however far
        # offsets spread: k = 9 gives 0.276^9 < 1e-5 > 0.276^8.
        cfg = tmp_path / "mc.ini"
        cfg.write_text(
            self.MC_INI.replace("k = 5\n", "method = fixed\n")
            .replace("trials = 200", "trials = 5")
            .replace("o_max = 0.9", f"o_max = {o_max}")
        )
        out = tmp_path / "out"
        rc = run_cli("montecarlo", "--config", cfg, "--out", out, "--seed", "3")
        assert rc == EXIT_OK
        results = json.loads((out / "report.json").read_text())["results"]
        assert (results["k"], results["method"]) == (9, "fixed")
        assert results["fp_bound"] == fp_bound(9, results["clear_prob"]).clamped < 1e-5

    def test_infeasible_message_names_the_multiplier_and_p(self, tmp_path, capsys):
        # bnb tries ceil(1.8 / 0.45) = 4 offsets per flow, and 4 * 0.276 >= 1.
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace("k = 5\n", "").replace("o_max = 0.9", "o_max = 1.8"))
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_INFEASIBLE
        p = clear_probability(PoissonModel(2.860787585033304), 0.45)
        assert capsys.readouterr().err == (
            "infeasible scenario: no flow count meets epsilon=1e-05: "
            f"per-flow base {4 * p!r} = 4 offsets x p={p!r} is not below 1\n"
        )

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(
            "[flow]\nmodel = poisson\nrate = 1.4695363656623717\n\n"
            "[attack]\nT = 0.35\ndelta = 0.175\no_max = 0.35\nepsilon = 1e-5\n\n"
            "[experiment]\ntrials = 10\n"
        )
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "1")
        assert rc == EXIT_INFEASIBLE
        assert "base" in capsys.readouterr().err

    def test_non_finite_packet_count_is_a_one_line_failure(self, tmp_path, capsys):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace("\n\n[attack]", "\nduration = 1e308\n\n[attack]"))
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:") and "packets" in err

    def test_huge_packet_count_is_a_one_line_failure(self, tmp_path, capsys):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace("\n\n[attack]", "\nduration = 1e300\n\n[attack]"))
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:") and "packets" in err

    def test_too_many_offsets_is_a_one_line_failure(self, tmp_path, capsys):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace("o_max = 0.9", "o_max = 45000"))
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == "error: 100000 offsets per flow exceed the cap of 10000: raise delta or lower o_max\n"

    def test_experiment_duration_is_config_error(self, tmp_path, capsys):
        # Flow length is [flow] duration; an [experiment] one would be ignored.
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI + "duration = 15.3\n")
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_CONFIG
        assert "unknown key 'duration' in [experiment]" in capsys.readouterr().err

    def test_zero_trials_is_config_error(self, tmp_path):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI)
        rc = run_cli(
            "montecarlo", "--config", cfg, "--out", tmp_path / "o",
            "--seed", "3", "--trials", "0",
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("trials = 200\n", "", "no trials given; pass --trials or set [experiment] trials"),
            ("k = 5", "k = 0", "[experiment] k must be positive, got 0"),
        ],
    )
    def test_missing_trials_or_zero_flows_is_config_error(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "mc.ini"
        cfg.write_text(self.MC_INI.replace(old, new))
        rc = run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "o", "--seed", "3")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestPaperReproScenario:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_config_error(self, tmp_path, capsys, seed):
        rc = run_cli("paper-repro", "--out", tmp_path / "o", "--seed", seed, "--trials", "10")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must fit in 64 unsigned bits" in err
        assert not (tmp_path / "o").exists()

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        rc = run_cli("paper-repro", "--out", tmp_path / "o", "--trials", "0")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: trials must be positive, got 0\n"
        assert not (tmp_path / "o").exists()

    def test_all_cases_pass_and_reruns_are_identical(self, tmp_path, capsys):
        rc_a = run_cli("paper-repro", "--out", tmp_path / "a", "--trials", "1500")
        out_text = capsys.readouterr().out
        assert rc_a == EXIT_OK
        assert out_text.count("PASS") >= 6
        assert "FAIL" not in out_text
        rc_b = run_cli("paper-repro", "--out", tmp_path / "b", "--trials", "1500")
        assert rc_b == EXIT_OK
        a = (tmp_path / "a" / "paper_repro.csv").read_bytes()
        b = (tmp_path / "b" / "paper_repro.csv").read_bytes()
        assert a == b

    def test_csv_schema(self, tmp_path):
        assert run_cli("paper-repro", "--out", tmp_path / "o", "--trials", "1500") == EXIT_OK
        lines = (tmp_path / "o" / "paper_repro.csv").read_text().splitlines()
        assert lines[0] == "case,expected,computed,display,status"
        assert len(lines) == 7  # five closed-form cases plus the Monte Carlo row

    def test_format_csv_skips_json(self, tmp_path):
        rc = run_cli(
            "paper-repro", "--out", tmp_path / "o", "--trials", "1500", "--format", "csv"
        )
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "paper_repro.csv").exists()
        assert not (tmp_path / "o" / "report.json").exists()

    def test_format_json_skips_csv(self, tmp_path):
        rc = run_cli(
            "paper-repro", "--out", tmp_path / "o", "--trials", "1500", "--format", "json"
        )
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "o" / "paper_repro.csv").exists()

    def test_failing_case_prints_fail_and_exits_1(self, tmp_path, capsys, monkeypatch):
        # A wrong measured clear probability fails the dependent closed-form cases.
        monkeypatch.setattr(cli, "closed_form_cases", lambda: closed_form_cases(p_450ms=0.3))
        passing = ReproCase("mfa-false-positive-rate", "stub", "stub", "stub", passed=True)
        monkeypatch.setattr(cli, "monte_carlo_case", lambda seed, trials: (passing, {}))
        rc = run_cli("paper-repro", "--out", tmp_path / "o")
        assert rc == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("FAIL") and "min-flows-900ms-offsets" in line for line in lines
        )
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        passed, cases = report["results"]["passed"], report["results"]["cases"]
        assert passed < cases and f"{passed}/{cases} reference cases pass" in lines


class TestReproNegativeControl:
    def test_perturbed_inputs_fail_the_table(self):
        """The checks must be able to fail: feeding a wrong measured clear
        probability flips the dependent cases to FAIL."""
        good = closed_form_cases()
        assert all(case.passed for case in good)
        bad = closed_form_cases(p_450ms=0.3)
        names = {case.name: case.passed for case in bad}
        assert names["min-flows-900ms-offsets"] is False


# Values for any key: numbers, non-finite, garbage, empty, and the words and
# shapes some keys expect.
FUZZ_VALUES = (
    "0", "1", "3", "-1", "0.45", "0.9", "0.5", "1e-5", "3.5", "12345", "1e308",
    "nan", "inf", "-inf", "", "x", "poisson", "empirical", "bnb", "fixed", "exhaustive",
    "delta", "o_max", "0.175:0.525, 0.45:0.276", "0.45, 0.9", "manifest.txt",
)
# A working value per key, so that draws also get past the config checks.
FUZZ_GOOD = {
    "model": "poisson", "rate": "3", "table": "0.175:0.525, 0.45:0.276", "duration": "20",
    "T": "0.9", "o": "0.45", "o_max": "0.9", "delta": "0.45", "n": "12", "key": "5",
    "clear_fraction": "0.5", "epsilon": "1e-5", "quantum": "0.05", "trials": "1", "k": "3",
    "manifest": "manifest.txt", "method": "bnb", "param": "o_max", "values": "0.45, 0.9",
}


@st.composite
def config_bytes(draw) -> bytes:
    """INI text over SECTIONS' keys, or raw (often non-UTF-8) bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([b"", b"\xff\xfe"])) + draw(st.binary(max_size=40))
    # Each section, key and working value is left out one time in ten.
    often = st.integers(0, 9).map(bool)
    chunks = []
    for section, keys in SECTIONS.items():
        if not draw(often):
            continue
        lines = [f"[{section}]"]
        for key in keys:
            if draw(often):
                value = FUZZ_GOOD[key] if draw(often) else draw(st.sampled_from(FUZZ_VALUES))
                lines.append(f"{key} = {value}")
        chunks.append("\n".join(lines) + "\n")
    prefix = b"\xff\xfe" if draw(st.integers(0, 9)) == 0 else b""
    return prefix + "\n".join(chunks).encode()


def too_much_work(text: bytes, scenario: str) -> bool:
    """Work bound: at most 10^4 expected packets per flow, intervals, and
    offsets per flow (the offset grids are built as lists), and k <= 20
    (min_flows can ask for millions of flows, so montecarlo needs a k)."""
    try:
        cfg = parse_config(text.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError):
        return False

    def num(section: str, key: str) -> float:
        try:
            return float(cfg.get(section, {}).get(key, "0"))
        except ValueError:
            return 0.0

    seconds = max(
        num("flow", "duration"),
        num("attack", "T"),
        num("watermark", "o_max") + num("watermark", "n") * num("watermark", "T"),
    )
    offsets = [
        num(s, "o_max") / num(s, "delta") for s in ("attack", "watermark") if num(s, "delta") > 0
    ]
    k = cfg.get("experiment", {}).get("k")
    return (
        num("flow", "rate") * seconds > 1e4
        or num("watermark", "n") > 1e4
        or any(count > 1e4 for count in offsets)
        or (scenario == "montecarlo" and k is None)
        or num("experiment", "k") > 20
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding manifest.txt, which lists two short flows."""
    base = tmp_path_factory.mktemp("fuzz")
    for i in range(2):
        write_flow(generate_flow(PoissonModel(3.0), 20.0, i), base / f"flow_{i}.txt")
    (base / "manifest.txt").write_text("flow_0.txt\nflow_1.txt\n")
    return base


@settings(max_examples=300)
@given(
    scenario=st.sampled_from(["generate", "embed", "detect", "attack", "bounds", "montecarlo"]),
    text=config_bytes(),
)
def test_fuzzed_config_ends_in_an_exit_code(fuzz_dir, scenario, text):
    assume(not too_much_work(text, scenario))
    cfg = fuzz_dir / "fuzz.ini"
    cfg.write_bytes(text)
    argv = [scenario, "--config", str(cfg), "--out", str(fuzz_dir / "out"),
            "--seed", "1", "--trials", "1", "--force"]
    err = io.StringIO()
    # A warning would print lines of its own to stderr.
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    assert rc in {EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_IO, EXIT_INFEASIBLE}
    if rc != EXIT_OK:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


# Flow-file lines: timestamps inside a 20 s flow, then values past it, the
# largest float (a tie there overflows), non-finite values and junk.
GOOD_TIMES = ("0", "-0.0", "0.25", "0.5", "1", "1.5", "2", "7.25", "19")
FLOW_VALUES = GOOD_TIMES + ("-1", "1e12", "1.7976931348623157e+308", "nan", "inf", "x", "1,5", "")
FLOW_HEADERS = (
    "# duration=2.0", "# duration=1e12", "# duration=1.7976931348623157e+308", "# duration=0",
    "# duration=-1", "# duration=nan", "# duration=inf", "# duration=x", "# duration=",
    "duration=20", "",
)
MANIFEST_ENTRIES = ("a.txt", "b.txt", "missing.txt", ".", "# a comment", "", "  b.txt  ")


@st.composite
def flow_file_bytes(draw) -> bytes:
    """A header and timestamp lines, or raw (often non-ASCII) bytes.  The
    header, the value pool and the order are each the working one three
    times in four."""
    often = st.integers(0, 3).map(bool)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([b"", b"\xff"])) + draw(st.binary(max_size=40))
    header = "# duration=20" if draw(often) else draw(st.sampled_from(FLOW_HEADERS))
    pool = GOOD_TIMES if draw(often) else FLOW_VALUES
    values = draw(st.lists(st.sampled_from(pool), max_size=12))
    if draw(often):
        values.sort(key=lambda v: float(v) if v in GOOD_TIMES else 0.0)
    suffix = b"" if draw(often) else b"\xff"
    return "\n".join([header, *values, ""]).encode() + suffix


@st.composite
def manifest_bytes(draw) -> bytes:
    """Both fuzzed flow files three times in four; else entries naming them,
    a missing file or a directory, or non-UTF-8 bytes."""
    if draw(st.integers(0, 3)):
        return b"a.txt\nb.txt\n"
    entries = draw(st.lists(st.sampled_from(MANIFEST_ENTRIES), max_size=4))
    return draw(st.sampled_from([b"", b"\xff\xfe"])) + "\n".join(entries).encode()


@pytest.fixture(scope="module")
def flow_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("flow-fuzz")


@settings(max_examples=200)
@given(
    scenario=st.sampled_from(["detect", "attack"]),
    flows=st.lists(flow_file_bytes(), min_size=2, max_size=2),
    manifest=manifest_bytes(),
)
def test_fuzzed_flow_files_end_in_an_exit_code(flow_fuzz_dir, scenario, flows, manifest):
    for name, data in zip(("a.txt", "b.txt"), flows):
        (flow_fuzz_dir / name).write_bytes(data)
    (flow_fuzz_dir / "manifest.txt").write_bytes(manifest)
    cfg = flow_fuzz_dir / "run.ini"
    cfg.write_text(
        (ATTACK_SECTION if scenario == "attack" else WATERMARK_SECTION)
        + "\n[experiment]\nmanifest = manifest.txt\n"
    )
    argv = [scenario, "--config", str(cfg), "--out", str(flow_fuzz_dir / "out"), "--force"]
    err = io.StringIO()
    # A warning would print lines of its own to stderr.
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    assert rc in {EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_IO, EXIT_INFEASIBLE}
    if rc != EXIT_OK:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
