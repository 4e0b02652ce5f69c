"""Benchmark workloads: the CLI calls each one makes, and its output gates.

A workload is a list of ``jumpguard run`` calls, each given as a scenario
and its flag values. A gate reads the CSVs and ``summary.json`` the calls
wrote and returns a list of failures; an empty list means the outputs are
correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# qutrit-protection's default step, gamma * dt = 5e-3 at gamma = 1
QUTRIT_DT = 0.005
SINGLET_ALPHAS = (0.1, 0.25, 0.4)
# "tiny" keeps each workload's shape at a fraction of the work, for tests
TINY_HORIZON = {"t_max": 1.5, "grid_points": 6}

_FLAG_NAMES = {"n_samples": "samples"}


def cli_argv(scenario: str, flags: dict, out_dir) -> list[str]:
    """``jumpguard`` arguments for one call, flags in the CLI's spelling."""
    argv = ["run", scenario]
    for key, value in flags.items():
        argv += ["--" + _FLAG_NAMES.get(key, key).replace("_", "-"), str(value)]
    return argv + ["--out-dir", str(out_dir)]


def read_curve(out_dir: Path, scenario: str, label: str):
    """(times, values) of one curve CSV."""
    lines = (out_dir / f"{scenario}__{label}.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


def read_summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


def _check(failures: list[str], ok: bool, message: str):
    if not ok:
        failures.append(message)


def _ordered(failures, out_dir, chain, label):
    """chain[0] >= chain[1] >= ... pointwise for t in (0, t_max]."""
    curves = [read_curve(out_dir, "qutrit-protection", c)[1][1:] for c in chain]
    for hi, lo, a, b in zip(chain, chain[1:], curves, curves[1:]):
        bad = [i for i, (x, y) in enumerate(zip(a, b)) if x < y]
        _check(failures, not bad, f"{label}: {hi} < {lo} at {len(bad)} grid points")


def gate_qutrit_exact(out_dirs: list[Path], size: str) -> list[str]:
    out_dir, ref_dir = out_dirs[0], REFERENCE_DIR / size
    failures: list[str] = []
    got = sorted(p.name for p in out_dir.glob("*.csv"))
    want = sorted(p.name for p in ref_dir.glob("*.csv"))
    _check(failures, got == want, f"curve files {got} differ from reference {want}")
    for name in sorted(set(got) & set(want)):
        label = name.split("__", 1)[1][:-4]
        t, v = read_curve(out_dir, "qutrit-protection", label)
        rt, rv = read_curve(ref_dir, "qutrit-protection", label)
        err = max(abs(a - b) for a, b in zip(t + v, rt + rv)) if len(t) == len(rt) else math.inf
        _check(failures, err <= 1e-12, f"{label} differs from reference by {err:.3e}")
    _, e3f = read_curve(out_dir, "qutrit-protection", "E_3f")
    err = max(abs(x - 0.5) for x in e3f)
    _check(failures, err <= 10 * QUTRIT_DT, f"E_3f strays {err:.3e} from 1/2")
    _ordered(failures, out_dir, ("E_3f", "E_3", "E_2_neg", "E_F_neg"), "exact ordering")
    for label, mass in read_summary(out_dir)["truncation_mass"].items():
        _check(failures, mass <= 1e-4, f"truncation_mass[{label}] = {mass:.3e} > 1e-4")
    return failures


def gate_singlet_sampled(out_dirs: list[Path], size: str) -> list[str]:
    """The AC-03 checks, one call per alpha."""
    failures: list[str] = []
    for alpha, out_dir in zip(SINGLET_ALPHAS, out_dirs):
        s = read_summary(out_dir)["scalars"]
        sigma = max(s["p_ok_sampled_sigma"], 1e-12)
        _check(failures, abs(s["p_ok"] - 2 * alpha) < 1e-6,
               f"alpha={alpha}: p_ok {s['p_ok']} != 2 alpha")
        _check(failures, abs(s["entropy_at_t_star"] - 1.0) < 1e-8,
               f"alpha={alpha}: entropy at t* {s['entropy_at_t_star']} != 1")
        _check(failures, abs(s["p_ok_sampled"] - 2 * alpha) < 3 * sigma,
               f"alpha={alpha}: sampled p_ok {s['p_ok_sampled']} beyond 3 sigma of 2 alpha")
    return failures


def gate_feedback_sampled(out_dirs: list[Path], size: str) -> list[str]:
    out_dir, ref_dir = out_dirs[0], REFERENCE_DIR / size
    failures: list[str] = []
    sem = read_summary(out_dir)["sampling_sigma_max"]
    _, e3f = read_curve(out_dir, "qutrit-protection", "E_3f")
    err = max(abs(x - 0.5) for x in e3f)
    _check(failures, err <= 10 * QUTRIT_DT + 3 * sem["E_3f"],
           f"E_3f strays {err:.3e} from 1/2 (SEM {sem['E_3f']:.3e})")
    for variant in ("E_3f_tau", "E_3f_eta"):
        _ordered(failures, out_dir, ("E_3f", variant, "E_F_neg"), "feedback ordering")
    for label in ("E_3", "E_3ho"):
        _, v = read_curve(out_dir, "qutrit-protection", label)
        _, ref = read_curve(ref_dir, "qutrit-protection", label)
        err = max(abs(a - b) for a, b in zip(v, ref)) if len(v) == len(ref) else math.inf
        tol = 10 * QUTRIT_DT + 4 * sem[label]
        _check(failures, err <= tol, f"sampled {label} strays {err:.3e} from exact (tol {tol:.3e})")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[int, str], list[tuple[str, dict]]]  # (seed, size) -> calls
    gate: Callable[[list[Path], str], list[str]]


def _horizon(size: str) -> dict:
    return dict(TINY_HORIZON) if size == "tiny" else {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qutrit-exact",
            "Fig. 1 exact curves only: the exact engine, led by E_3's growing class count",
            lambda seed, size: [(
                "qutrit-protection",
                {"mode": "exact", "eta": 1.0, "tau": 0.0, "seed": seed, **_horizon(size)},
            )],
            gate_qutrit_exact,
        ),
        Workload(
            "singlet-sampled",
            "AC-03: wide, low-jump pure-state sampling with per-trajectory RNG set-up",
            lambda seed, size: [(
                "singlet-conversion",
                {"mode": "sampled", "n_samples": 2000 if size == "tiny" else 100000,
                 "dt": 0.005, "t_max": 1.0, "grid_points": 3, "alpha": alpha, "seed": seed},
            ) for alpha in SINGLET_ALPHAS],
            gate_singlet_sampled,
        ),
        Workload(
            "feedback-sampled",
            "Fig. 1 sampled: density sampler, jump-heavy feedback sampling, entanglement batches",
            lambda seed, size: [(
                "qutrit-protection",
                {"mode": "sampled", "n_samples": 50 if size == "tiny" else 1000,
                 "seed": seed, **_horizon(size)},
            )],
            gate_feedback_sampled,
        ),
    )
}
