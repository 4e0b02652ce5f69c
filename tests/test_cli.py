import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jumpguard
from jumpguard import scenarios, trajectories
from jumpguard.cli import ConfigError, _build_parser, main, parse_config
from jumpguard.scenarios import SCENARIOS, ScenarioConfig

FAST_SINGLET = [
    "run", "singlet-conversion", "--alpha", "0.25", "--t-max", "1", "--grid-points", "5",
]
FAST_BELL = [
    "run", "bell-monitoring", "--t-max", "1", "--grid-points", "5", "--dt", "0.002",
]


def test_parse_config_flags_only():
    cfg, warnings = parse_config("bell-monitoring", None, {"gamma": 2.0, "t_max": 3.0})
    assert cfg.gamma == 2.0 and cfg.t_max == 3.0
    assert warnings == []


def test_parse_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma = 2.0\ndt = 0.002  # comment\nseed = 7\n")
    cfg, warnings = parse_config("bell-monitoring", str(path), {"dt": 0.004})
    assert cfg.gamma == 2.0 and cfg.seed == 7
    assert cfg.dt == 0.004  # flag wins
    assert any("overrides" in w for w in warnings)


def test_parse_config_unknown_key_named(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamme = 1.0\n")
    with pytest.raises(ConfigError, match="gamme"):
        parse_config("bell-monitoring", str(path), {})


def test_parse_config_rejects_nesting(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[section]\n")
    with pytest.raises(ConfigError):
        parse_config("bell-monitoring", str(path), {})


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(FAST_BELL + ["--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()
    csv = (out / "bell-monitoring__P_NJ.csv").read_text().splitlines()
    assert csv[0] == "t,P_NJ,probability"
    t, v, m = csv[-1].split(",")
    assert m == "probability"
    assert abs(float(v) - np.exp(-float(t))) < 1e-9


def test_run_singlet_json_p_ok(tmp_path):
    out = tmp_path / "out"
    rc = main(FAST_SINGLET + ["--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["scalars"]["p_ok"] - 0.5) < 1e-9


@pytest.mark.parametrize("scenario, extra, labels", [
    ("bell-monitoring", [], {"E_2"}),
    ("bell-monitoring", ["--mode", "sampled"], set()),
    ("singlet-conversion", [], {"P_NJ", "t_star"}),
    ("qutrit-protection", [], {"E_2", "E_3", "E_3f", "E_3ho", "E_3fho"}),
    ("cavity-2x3", [], {"E_2x3"}),
    ("cavity-thermal", [], set()),
])
def test_summary_truncation_mass_by_exact_run(tmp_path, scenario, extra, labels):
    # one schema for every scenario: exact-run label -> truncated + culled mass,
    out = tmp_path / "out"
    argv = ["run", scenario, "--t-max", "0.5", "--grid-points", "3", "--samples", "200"]
    assert main(argv + extra + ["--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    masses, census = summary["truncation_mass"], summary["classes"]
    assert set(masses) == labels
    assert all(isinstance(m, float) and 0.0 <= m <= 1.0 for m in masses.values())
    # and its final classes per jump count, the no-jump class first
    assert list(census) == list(masses)
    assert all(c[0] == 1 and all(isinstance(n, int) and n >= 0 for n in c) for c in census.values())


def test_summary_reports_non_ideal_feedback_runs(tmp_path):
    # both non-ideal feedback curves run on the configured --samples, and
    # summary.json says so
    out = tmp_path / "out"
    argv = ["run", "qutrit-protection", "--mode", "sampled", "--t-max", "0.2",
            "--grid-points", "3", "--samples", "4000", "--tau", "0.05", "--eta", "0.9"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tau_run"] == {"driver": "pure-sampled", "n_samples": 4000, "tau": 0.05}
    assert summary["eta_run"] == {"driver": "density-sampled", "n_samples": 4000, "eta": 0.9}


def test_range_violation_exit_code_2(tmp_path, capsys):
    rc = main(["run", "singlet-conversion", "--alpha", "0.7", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha" in err and "(0, 1/2]" in err


def test_truncated_exact_curve_exit_code_3(tmp_path, capsys, monkeypatch):
    # at gamma t = 1.5 E_3fho truncates 7.15e-6 at its jump budget of 12, the most of any run
    monkeypatch.setattr(trajectories, "TRUNCATION_BOUND", 7e-6)
    out = tmp_path / "out"
    rc = main(["run", "qutrit-protection", "--mode", "exact", "--eta", "1", "--tau", "0",
               "--t-max", "1.5", "--grid-points", "6", "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "E_3fho:" in err and "jump budget 12" in err and "--max-jumps" not in err
    assert not (out / "summary.json").exists()


def test_truncated_checkpoint_exit_code_3(tmp_path, capsys, monkeypatch):
    # the exact record at t* loses half its mass without a single jump
    ucfg = scenarios._ucfg
    monkeypatch.setattr(scenarios, "_ucfg", lambda cfg, t_max=None: dataclasses.replace(ucfg(cfg, t_max), max_jumps=0))
    out = tmp_path / "out"
    rc = main(["run", "singlet-conversion", "--t-max", "1", "--grid-points", "3",
               "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "t_star:" in err and "jump budget 0" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("argv, match", [
    (["bell-monitoring", "--dt", "0"], "dt must be positive"),
    (["bell-monitoring", "--dt", "-0.01"], "dt must be positive"),
    (["qutrit-protection", "--eta", "1.5"], "eta must lie in [0, 1], got 1.5"),
    (["bell-monitoring", "--seed", "-1"], "seed"),
    (["bell-monitoring", "--seed", str(2**64)], "seed"),
    (["bell-monitoring", "--mode", "both"], "mode"),
    (["cavity-2x3", "--mode", "sampled"], "mode must be 'exact' for cavity-2x3"),
    (["cavity-thermal", "--mode", "exact"], "mode must be 'sampled' for cavity-thermal"),
    (["cavity-thermal", "--nbar="], "nbar must list at least one value"),
    (["cavity-thermal", "--nbar", "0,0"], "nbar values must be distinct for cavity-thermal, got 0,0"),
    (["bell-monitoring", "--t-max", "0.01", "--grid-points", "51"],
     "grid-points 51 exceeds the 11 points of 10 steps"),
    (["bell-monitoring", "--gamma", "nan"], "gamma must be finite, got nan"),
    (["bell-monitoring", "--gamma", "inf"], "gamma must be finite, got inf"),
    (["singlet-conversion", "--alpha", "nan"], "alpha must be finite, got nan"),
    (["qutrit-protection", "--eta", "nan"], "eta must be finite, got nan"),
    (["qutrit-protection", "--tau", "nan"], "tau must be finite, got nan"),
    (["qutrit-protection", "--tau", "inf"], "tau must be finite, got inf"),
    (["bell-monitoring", "--dt", "nan"], "dt must be finite, got nan"),
    (["bell-monitoring", "--dt", "inf"], "dt must be finite, got inf"),
    (["bell-monitoring", "--t-max", "nan"], "t-max must be finite, got nan"),
    (["bell-monitoring", "--t-max", "inf"], "t-max must be finite, got inf"),
    (["cavity-thermal", "--nbar", "nan"], "nbar must be finite, got (nan,)"),
    (["cavity-thermal", "--nbar", "0,inf"], "nbar must be finite, got (0.0, inf)"),
    # a gamma so small that the default tau and dt, 0.08 / gamma and 0.005 / gamma, overflow
    (["qutrit-protection", "--gamma", "1e-320", "--grid-points", "2", "--mode", "exact", "--eta", "1"],
     "tau must be finite, got inf"),
    (["cavity-thermal", "--nbar", "0.5,5"], "gamma_max*dt = 0.03 exceeds 0.01"),
    (["qutrit-protection", "--dt", "0.05"], "gamma_max*dt = 0.05 exceeds 0.01"),
    (["bell-monitoring", "--gamma", "20", "--dt", "0.001"], "gamma_max*dt = 0.02 exceeds 0.01"),
    # the main grid passes; the t* checkpoint (t* = 0.4236) takes 42 steps of 0.01009
    (["singlet-conversion", "--alpha", "0.3", "--dt", "0.01"],
     "gamma_max*dt = 0.0101 exceeds 0.01 on the 42 steps to t = 0.423649"),
    # the no-jump class, of mass 2 alpha, would fall below the exact engine's cull floor
    (["singlet-conversion", "--alpha", "4e-13", "--t-max", "0.1", "--grid-points", "2"],
     "alpha must be >= 1e-12 for singlet-conversion, got 4e-13"),
    # step counts past 2**53, where round(t / dt) no longer recovers every count
    (["bell-monitoring", "--gamma", "1e20"], "steps to t = 0.2 exceed 2**53"),
    (["bell-monitoring", "--t-max", "1e20"], "steps to t = 1e+20 exceed 2**53"),
    (["bell-monitoring", "--dt", "1e-30"], "steps to t = 0.2 exceed 2**53"),
    # range checks of the shared keys
    (["bell-monitoring", "--gamma", "0"], "gamma must be positive, got 0.0"),
    (["qutrit-protection", "--tau", "-0.01"], "tau must be >= 0, got -0.01"),
    (["cavity-thermal", "--nbar", "0,-0.1"], "nbar values must be >= 0, got (0.0, -0.1)"),
    (["bell-monitoring", "--t-max", "0"], "t-max must be positive"),
    (["bell-monitoring", "--grid-points", "1"], "grid-points must be >= 2"),
    (["qutrit-protection", "--samples", "0"], "samples must be >= 1"),
])
def test_bad_config_exit_code_2(tmp_path, capsys, argv, match):
    # argv's own flags come last, so they win over the short defaults
    out = tmp_path / "out"
    rc = main(["run", argv[0], "--t-max", "0.2", "--grid-points", "3"] + argv[1:]
              + ["--out-dir", str(out)])
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_zero_step_run_takes_no_rate_check(tmp_path):
    # t-max resolves 100 steps of 0.01 from the requested 0.0100001; t* is 0 at alpha 1/2, and
    # its runs take no step of that 0.01, so no horizon rate-checks the requested step
    rc = main(["run", "singlet-conversion", "--alpha", "0.5", "--dt", "0.0100001", "--t-max", "1",
               "--grid-points", "3", "--out-dir", str(tmp_path / "out")])
    assert rc == 0


def test_unknown_config_file_key_exit_code_2(tmp_path, capsys):
    # the cavity-2x3 surfaces have a fixed resolution, which no config key sets; the exact
    # runs' jump budget follows from gamma and the horizon, so older config echoes' max_jumps fails
    for key, value in (("alpha_points", 0), ("max_jumps", 4)):
        cfg_file = tmp_path / f"{key}.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        rc = main(["run", "cavity-2x3", "--config", str(cfg_file), "--t-max", "0.2",
                   "--grid-points", "3", "--out-dir", str(out)])
        assert rc == 2
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
        assert not out.exists()


def test_ignored_flags_warned(tmp_path, capsys):
    # bell-monitoring reads neither alpha nor nbar; every scenario checks --mode
    cfg_file = tmp_path / "bell.cfg"
    cfg_file.write_text("alpha = 0.3\n")
    out = tmp_path / "out"
    argv = ["run", "bell-monitoring", "--config", str(cfg_file), "--t-max", "0.2",
            "--grid-points", "3", "--mode", "exact", "--nbar", "0.1", "--out-dir", str(out)]
    assert main(argv) == 0
    expected = ["flag --nbar is ignored by bell-monitoring"]
    assert [line for line in capsys.readouterr().err.splitlines() if "ignored" in line] == [
        f"warning: {w}" for w in expected]
    for name in ("summary.json", "manifest.json"):
        assert json.loads((out / name).read_text())["warnings"] == expected
    _, warnings = parse_config("cavity-2x3", None, {"n_samples": 200, "alpha": 0.3})
    assert warnings == ["flag --samples is ignored by cavity-2x3"]
    _, warnings = parse_config("cavity-2x3", None, {"seed": 5})
    assert warnings == ["flag --seed is ignored by cavity-2x3"]


def test_thermal_accepts_largest_seed(tmp_path):
    # each nbar curve draws from seed + i, which must stay a valid seed
    argv = ["run", "cavity-thermal", "--seed", str(2**64 - 1), "--t-max", "0.2",
            "--grid-points", "3", "--samples", "20"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0


def test_thermal_default_mode_round_trips(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "cavity-thermal", "--t-max", "0.2", "--grid-points", "3", "--samples", "50",
            "--nbar", "0"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert "mode request ignored" not in capsys.readouterr().err
    echo = out / "config_echo.txt"
    assert "mode = sampled" in echo.read_text().splitlines()
    cfg, _ = parse_config("cavity-thermal", str(echo), {})
    assert cfg.mode == "sampled"
    assert main(["run", "cavity-thermal", "--config", str(echo), "--out-dir", str(out)]) == 0


def test_missing_config_file_exit_code_2(tmp_path):
    rc = main(["run", "bell-monitoring", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["run", "singlet-conversion", "--alpha", "0.25", "--mode", "sampled",
            "--samples", "500", "--t-max", "1", "--grid-points", "5", "--dt", "0.005"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_echo_round_trip(tmp_path):
    out = tmp_path / "out"
    assert main(FAST_SINGLET + ["--out-dir", str(out)]) == 0
    echo = out / "config_echo.txt"
    cfg1, _ = parse_config("singlet-conversion", str(echo), {})
    cfg2, _ = parse_config(
        "singlet-conversion", None,
        {"alpha": 0.25, "t_max": 1.0, "grid_points": 5},
    )
    assert cfg1 == cfg2


def test_config_echo_reproduces_thermal_run(tmp_path):
    # nbar 0.1234567 has more digits than :g prints; its echo must keep them
    first, rerun = tmp_path / "a", tmp_path / "b"
    argv = ["run", "cavity-thermal", "--nbar", "0.1234567", "--t-max", "0.5",
            "--grid-points", "3", "--samples", "50"]
    assert main(argv + ["--out-dir", str(first)]) == 0
    echo = first / "config_echo.txt"
    assert "nbar = 0.1234567" in echo.read_text().splitlines()
    assert main(["run", "cavity-thermal", "--config", str(echo), "--out-dir", str(rerun)]) == 0
    csvs = sorted(name for name in os.listdir(first) if name.endswith(".csv"))
    assert csvs
    for name in csvs + ["config_echo.txt"]:
        assert (first / name).read_bytes() == (rerun / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["qutrit-protection", "--mode", "exact", "--eta", "1", "--tau", "0"],
    ["singlet-conversion"],
], ids=["qutrit-protection", "singlet-conversion"])
def test_config_echo_reproduces_run_after_preset_defaults_change(tmp_path, monkeypatch, argv):
    # the echo holds the step and alpha its run used, not the preset's current defaults
    first, rerun = tmp_path / "a", tmp_path / "b"
    horizon = ["--t-max", "0.3", "--grid-points", "4"]
    assert main(["run", *argv, *horizon, "--out-dir", str(first)]) == 0
    scenario = argv[0]
    spec = SCENARIOS[scenario]
    moved = dataclasses.replace(spec, gamma_dt=spec.gamma_dt / 2,
                                alpha=None if spec.alpha is None else spec.alpha + 0.1)
    monkeypatch.setitem(SCENARIOS, scenario, moved)
    assert main(["run", scenario, "--config", str(first / "config_echo.txt"), "--out-dir", str(rerun)]) == 0
    csvs = sorted(name for name in os.listdir(first) if name.endswith(".csv"))
    assert csvs
    for name in csvs + ["config_echo.txt"]:
        assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("JUMPGUARD_OUT_DIR", str(target))
    assert main(FAST_SINGLET) == 0
    assert (target / "manifest.json").exists()


def test_list_mentions_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "qutrit-protection → Fig. 1" in out
    assert "cavity-2x3 → Fig. 2a–c" in out
    assert "--gamma" in out and "defaults" in out


def test_list_parameters_are_run_flags_and_modes_named(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    parser = _build_parser()
    config_keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
    for sid, spec in SCENARIOS.items():
        i = out.index(f"  {sid} → {spec.figure}")
        modes, params = out[i + 2], out[i + 3]
        assert modes.strip().startswith(f"modes: {spec.modes[0]} (default)")
        assert all(m in modes for m in spec.modes)
        flags = params.split("parameters: ")[1].split(", ")
        for flag in flags:
            # an unknown flag exits; a known one sets exactly one config key
            args = vars(parser.parse_args(["run", sid, flag, "1"]))
            set_keys = {k for k, v in args.items() if v is not None} - {"command", "scenario"}
            assert len(set_keys) == 1 and set_keys <= config_keys, flag
        assert "--grid-points" in flags
        assert "--max-jumps" not in flags
    assert "modes: exact (default);" in out[out.index("  cavity-2x3 → Fig. 2a–c") + 2]
    assert "modes: sampled (default);" in out[out.index("  cavity-thermal → Fig. 2d") + 2]


def test_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("jumpguard ")


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["run", "unknown-scenario"])


def test_import_and_config_load_numpy_only():
    # numpy is the only dependency: a fresh interpreter that imports the
    # package and parses a config loads neither scipy nor threadpoolctl
    code = ("import sys, jumpguard.cli as cli; cli.parse_config('qutrit-protection', None, {}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'threadpoolctl')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(jumpguard.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
