"""Command-line front end: run a scenario, emit CSV curves and JSON summaries.

Exit codes: 0 success, 2 configuration error, 3 scenario error, 4 I/O error.
Config files are flat ``key = value`` text; command-line flags override file
values (with a warning). All output lands inside the chosen output
directory, written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .scenarios import (
    SCENARIO_IDS,
    ScenarioConfig,
    ScenarioError,
    ScenarioResult,
    run_scenario,
)

ENV_OUT_DIR = "JUMPGUARD_OUT_DIR"
DEFAULT_OUT_DIR = "jumpguard_out"


class ConfigError(Exception):
    pass


_SCENARIO_INFO = {
    "bell-monitoring": (
        "monitored qubit pair: E_F, trajectory-averaged E_2, no-jump probability",
        "Fig. 1 (E_F and E_2 curves)",
        ("gamma", "t-max", "grid-points", "mode", "samples", "seed", "dt"),
    ),
    "singlet-conversion": (
        "optimal conversion of sqrt(a)|00>+sqrt(1-a)|11> via monitored decay",
        "optimal singlet conversion protocol (p_ok = 2 alpha)",
        ("alpha", "gamma", "t-max", "mode", "samples", "seed", "dt"),
    ),
    "qutrit-protection": (
        "logical qubits in qutrits under cascade decay, with/without feedback",
        "Fig. 1",
        ("gamma", "eta", "tau", "t-max", "grid-points", "mode", "samples", "seed", "dt"),
    ),
    "cavity-2x3": (
        "atom flying from a leaky 3-level cavity: closed forms vs trajectories",
        "Fig. 2a–c",
        ("alpha", "gamma", "t-max", "grid-points", "seed", "dt"),
    ),
    "cavity-thermal": (
        "cavity channel with a thermal reservoir at several nbar",
        "Fig. 2d",
        ("alpha", "gamma", "nbar", "t-max", "grid-points", "samples", "seed", "dt"),
    ),
}

# config-file key -> ScenarioConfig field, with a parser each
_KEY_PARSERS = {
    "scenario": str,
    "gamma": float,
    "alpha": float,
    "eta": float,
    "tau": float,
    "nbar": lambda s: tuple(float(x) for x in str(s).split(",") if x.strip() != ""),
    "dt": float,
    "t_max": float,
    "grid_points": int,
    "mode": str,
    "n_samples": int,
    "seed": int,
    "max_jumps": int,
    "alpha_points": int,
    "surface_time_points": int,
}


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value' (nested structures are not supported)"
            )
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key '{key}'")
        try:
            values[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
    return values


def parse_config(scenario: str, file_path: str | None, flag_values: dict) -> tuple[ScenarioConfig, list[str]]:
    """Merge config file and flags into a validated ScenarioConfig.

    Flags win over file entries; each override is reported as a warning.
    """
    warnings = []
    merged: dict = {}
    if file_path is not None:
        merged.update(_parse_config_file(file_path))
    if "scenario" in merged and merged["scenario"] != scenario:
        warnings.append(
            f"config file names scenario '{merged['scenario']}', command line says "
            f"'{scenario}'; command line wins"
        )
    merged["scenario"] = scenario
    for key, value in flag_values.items():
        if value is None:
            continue
        if key in merged and key != "scenario" and merged[key] != value:
            warnings.append(f"flag --{key.replace('_', '-')} overrides config-file value")
        merged[key] = value
    try:
        cfg = ScenarioConfig(**merged)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg, warnings


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_outputs(result: ScenarioResult, out_dir: str, cfg: ScenarioConfig,
                  warnings: list[str], duration: float) -> dict:
    """Write curve CSVs, surfaces, config echo, summary and manifest."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    for curve in result.curves:
        fname = f"{result.scenario}__{curve.label}.csv"
        path = os.path.join(out_dir, fname)
        rows = [f"t,{curve.label},{curve.measure}"]
        for t, v in zip(curve.times, curve.values):
            rows.append(f"{_fmt(t)},{_fmt(v)},{curve.measure}")
        _atomic_write(path, "\n".join(rows) + "\n")
        outputs.append(fname)

    for label, (alphas, tgrid, matrix) in result.surfaces.items():
        fname = f"{result.scenario}__{label}.csv"
        path = os.path.join(out_dir, fname)
        rows = ["alpha," + ",".join(_fmt(t) for t in tgrid)]
        for a, row in zip(alphas, matrix):
            rows.append(_fmt(a) + "," + ",".join(_fmt(v) for v in row))
        _atomic_write(path, "\n".join(rows) + "\n")
        outputs.append(fname)

    echo_lines = []
    for key, value in result.metadata["config"].items():
        if value is None:
            continue
        if key == "nbar":
            value = ",".join(f"{v:g}" for v in value)
        echo_lines.append(f"{key} = {value}")
    _atomic_write(os.path.join(out_dir, "config_echo.txt"), "\n".join(echo_lines) + "\n")
    outputs.append("config_echo.txt")

    all_warnings = list(warnings) + list(result.metadata.get("warnings", []))
    sampling = {
        c.label: float(c.sem.max()) for c in result.curves if c.sem is not None
    }
    summary = {
        "scenario": result.scenario,
        "scalars": result.scalars,
        "truncation_mass": result.metadata["truncation_mass"],
        "sampling_sigma_max": sampling,
        "warnings": all_warnings,
    }
    # driver and sample count of qutrit-protection's non-ideal feedback curves
    summary.update({k: result.metadata[k] for k in ("tau_run", "eta_run") if k in result.metadata})
    _atomic_write(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    outputs.append("summary.json")

    manifest = {
        "tool": "jumpguard",
        "version": __version__,
        "scenario": result.scenario,
        "seed": cfg.seed,
        "duration_seconds": duration,
        "config": result.metadata["config"],
        "outputs": outputs + ["manifest.json"],
        "warnings": all_warnings,
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpguard",
        description="Quantum-jump trajectory scenarios with monitored environments and feedback.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario and write CSV/JSON outputs")
    run_p.add_argument("scenario", choices=SCENARIO_IDS)
    run_p.add_argument("--config", help="flat key=value config file")
    run_p.add_argument("--gamma", type=float)
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--eta", type=float)
    run_p.add_argument("--tau", type=float)
    run_p.add_argument("--nbar", type=_KEY_PARSERS["nbar"], help="comma-separated list")
    run_p.add_argument("--dt", type=float)
    run_p.add_argument("--t-max", dest="t_max", type=float)
    run_p.add_argument("--grid-points", dest="grid_points", type=int)
    run_p.add_argument("--mode", choices=("exact", "sampled"))
    run_p.add_argument("--samples", dest="n_samples", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--max-jumps", dest="max_jumps", type=int)
    run_p.add_argument("--out-dir", dest="out_dir")

    sub.add_parser("list", help="list scenarios, parameters, and reference figures")
    sub.add_parser("version", help="print the tool version")
    return parser


def list_scenarios() -> str:
    lines = ["available scenarios:"]
    for sid in SCENARIO_IDS:
        desc, fig, params = _SCENARIO_INFO[sid]
        lines.append(f"  {sid} → {fig}")
        lines.append(f"      {desc}")
        lines.append(f"      parameters: --" + ", --".join(params))
    defaults = ScenarioConfig(scenario="bell-monitoring")
    lines.append(
        "defaults: gamma=1, t-max=5, grid-points=51, mode=exact, samples="
        f"{defaults.n_samples}, seed={defaults.seed}, max-jumps={defaults.max_jumps}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "version":
        print(f"jumpguard {__version__}")
        return 0
    if args.command == "list":
        print(list_scenarios())
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    flag_values = {
        key: getattr(args, key)
        for key in (
            "gamma", "alpha", "eta", "tau", "nbar", "dt", "t_max",
            "grid_points", "mode", "n_samples", "seed", "max_jumps",
        )
    }
    try:
        cfg, warnings = parse_config(args.scenario, args.config, flag_values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR

    start = time.monotonic()
    try:
        result = run_scenario(cfg)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    duration = time.monotonic() - start

    try:
        manifest = write_outputs(result, out_dir, cfg, warnings, duration)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    for w in manifest["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(manifest['outputs'])} files to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
