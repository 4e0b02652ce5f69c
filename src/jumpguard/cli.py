"""Command-line front end: run a scenario, emit CSV curves and JSON summaries.

Exit codes: 0 success, 2 configuration error, 3 scenario error, 4 I/O error.
Config files are flat ``key = value`` text; command-line flags override file
values (with a warning). All output lands inside the chosen output
directory, written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing

from . import __version__
from .scenarios import (
    SCENARIO_IDS,
    SCENARIOS,
    ScenarioConfig,
    ScenarioError,
    ScenarioResult,
    run_scenario,
)

ENV_OUT_DIR = "JUMPGUARD_OUT_DIR"
DEFAULT_OUT_DIR = "jumpguard_out"


class ConfigError(Exception):
    pass


# config-file key -> ScenarioConfig field, parsed as the field's type (X | None as X);
# nbar is a comma-separated list
_KEY_PARSERS = {key: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
                for key, hint in typing.get_type_hints(ScenarioConfig).items()}
_KEY_PARSERS["nbar"] = lambda s: tuple(float(x) for x in str(s).split(",") if x.strip() != "")

# config key -> its `run` flag: the key with dashes, n_samples as --samples;
# the scenario and the cavity-2x3 surface resolution are config-file keys only
_FLAGS = {key: "--" + key.removeprefix("n_").replace("_", "-") for key in _KEY_PARSERS
          if key not in ("scenario", "alpha_points", "surface_time_points")}


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

    Flags win over file entries; each override is reported as a warning, and
    so is each flag other than ``--mode`` that the scenario does not read.
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
            warnings.append(f"flag {_FLAGS.get(key, key)} overrides config-file value")
        merged[key] = value
    try:
        cfg = ScenarioConfig(**merged)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    params = SCENARIOS[scenario].params
    warnings += [f"flag {flag} is ignored by {scenario}" for key, flag in _FLAGS.items()
                 if flag_values.get(key) is not None and key not in params and key != "mode"]
    return cfg, warnings


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _number(v: float) -> str:
    """``v`` with ``:g`` where that reads back as ``v``, else its full repr."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def _text(value) -> str:
    """A config value as config files spell it; nbar is comma-separated."""
    return ",".join(map(_number, value)) if isinstance(value, (list, tuple)) else str(value)


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_outputs(result: ScenarioResult, out_dir: str, cfg: ScenarioConfig,
                  warnings: list[str], duration: float) -> dict:
    """Write curve CSVs, surfaces, config echo, summary and manifest."""
    os.makedirs(out_dir, exist_ok=True)
    outputs, config = [], dataclasses.asdict(cfg)

    def write(fname: str, lines: list[str]):
        _atomic_write(os.path.join(out_dir, fname), "\n".join(lines) + "\n")
        outputs.append(fname)

    for c in result.curves:
        write(f"{result.scenario}__{c.label}.csv", [f"t,{c.label},{c.measure}"] + [
            f"{_fmt(t)},{_fmt(v)},{c.measure}" for t, v in zip(c.times, c.values)])
    for label, (alphas, tgrid, matrix) in result.surfaces.items():
        write(f"{result.scenario}__{label}.csv", ["alpha," + ",".join(_fmt(t) for t in tgrid)] + [
            _fmt(a) + "," + ",".join(_fmt(v) for v in row) for a, row in zip(alphas, matrix)])
    write("config_echo.txt", [f"{key} = {_text(value)}"
                              for key, value in config.items()
                              if value is not None])

    all_warnings = list(warnings) + list(result.metadata.get("warnings", []))
    sampling = {c.label: float(c.sem.max()) for c in result.curves if c.sem is not None}
    summary = {
        "scenario": result.scenario,
        "scalars": result.scalars,
        "truncation_mass": result.metadata["truncation_mass"],
        "sampling_sigma_max": sampling,
        "warnings": all_warnings,
    }
    # driver and sample count of qutrit-protection's non-ideal feedback curves
    summary.update({k: result.metadata[k] for k in ("tau_run", "eta_run") if k in result.metadata})
    write("summary.json", [json.dumps(summary, indent=2)])

    manifest = {
        "tool": "jumpguard",
        "version": __version__,
        "scenario": result.scenario,
        "seed": cfg.seed,
        "duration_seconds": duration,
        "config": config,
        "outputs": outputs + ["manifest.json"],
        "warnings": all_warnings,
    }
    write("manifest.json", [json.dumps(manifest, indent=2)])
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
    for key, flag in _FLAGS.items():
        run_p.add_argument(flag, dest=key, type=_KEY_PARSERS[key],
                           help="comma-separated list" if key == "nbar" else None)
    run_p.add_argument("--out-dir", dest="out_dir")

    sub.add_parser("list", help="list scenarios, parameters, and reference figures")
    sub.add_parser("version", help="print the tool version")
    return parser


def list_scenarios() -> str:
    lines = ["available scenarios:"]
    for sid, spec in SCENARIOS.items():
        modes = ", ".join([f"{spec.modes[0]} (default)", *spec.modes[1:]])
        alpha = "" if spec.alpha is None else f", alpha={spec.alpha:g}"
        lines += [
            f"  {sid} → {spec.figure}",
            f"      {spec.summary}",
            f"      modes: {modes}; defaults: dt={spec.gamma_dt:g}/gamma{alpha}",
            "      parameters: " + ", ".join(_FLAGS[key] for key in spec.params),
        ]
    shared = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    lines.append("defaults: " + ", ".join(
        f"{flag[2:]}={_text(shared[key])}" for key, flag in _FLAGS.items()
        if shared[key] is not None
    ))
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

    flag_values = {key: getattr(args, key) for key in _FLAGS}
    try:
        cfg, warnings = parse_config(args.scenario, args.config, flag_values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR

    start = time.monotonic()
    try:
        result = run_scenario(cfg)
    except (ValueError, RuntimeError) as exc:  # ScenarioError is a RuntimeError
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
