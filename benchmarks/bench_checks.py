"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q benchmarks/bench_checks.py

They run every workload at ``--size tiny``, so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, csv_bytes  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, read_curve  # noqa: E402

NAMES = sorted(WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def run_child(workload: str, out_dir: Path, trace: bool) -> list[Path]:
    dirs, calls = [], []
    for i, (scenario, flags) in enumerate(WORKLOADS[workload].calls(12345, "tiny")):
        dirs.append(out_dir / f"call{i}")
        calls.append([scenario, flags, str(dirs[-1])])
    subprocess.run([sys.executable, str(HERE / "child.py"), "run", json.dumps(calls),
                    *(["--trace"] if trace else [])],
                   check=True, capture_output=True, timeout=120)
    return dirs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Tiny outputs of every workload, untraced and traced."""
    base = tmp_path_factory.mktemp("outputs")
    return {(w, trace): run_child(w, base / f"{w}-{trace}", trace)
            for w in NAMES for trace in (False, True)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(LAYER_METRICS if trace else END_TO_END)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_csvs_are_byte_identical(outputs, workload):
    plain, traced = csv_bytes(outputs[workload, False]), csv_bytes(outputs[workload, True])
    assert plain and plain == traced


def _rewrite_csv(path: Path, row: int, value: float):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[1] = repr(value)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rewrite_summary(out_dir: Path, edit):
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    edit(summary)
    path.write_text(json.dumps(summary), encoding="utf-8")


def _corrupt_exact_curve(d: Path):
    _, v = read_curve(d, "qutrit-protection", "E_3")
    _rewrite_csv(d / "qutrit-protection__E_3.csv", 3, v[2] + 1e-9)


def _corrupt_truncation(d: Path):
    _rewrite_summary(d, lambda s: s["truncation_mass"].update(E_3=2e-4))


def _corrupt_p_ok(d: Path):
    def edit(s):
        s["scalars"]["p_ok_sampled"] += 4 * s["scalars"]["p_ok_sampled_sigma"]
    _rewrite_summary(d, edit)


def _corrupt_ordering(d: Path):
    _, e3f = read_curve(d, "qutrit-protection", "E_3f")
    _rewrite_csv(d / "qutrit-protection__E_3f_tau.csv", 2, e3f[1] + 1e-6)


def _corrupt_sampled_e3(d: Path):
    _, v = read_curve(d, "qutrit-protection", "E_3ho")
    _rewrite_csv(d / "qutrit-protection__E_3ho.csv", 4, v[3] + 1.0)


@pytest.mark.parametrize("workload, corrupt, message", [
    ("qutrit-exact", _corrupt_exact_curve, "E_3 differs from reference"),
    ("qutrit-exact", _corrupt_truncation, "truncation_mass[E_3]"),
    ("singlet-sampled", _corrupt_p_ok, "beyond 3 sigma"),
    ("feedback-sampled", _corrupt_ordering, "E_3f < E_3f_tau"),
    ("feedback-sampled", _corrupt_sampled_e3, "sampled E_3ho strays"),
])
def test_corrupted_output_trips_its_gate(outputs, tmp_path, workload, corrupt, message):
    dirs = []
    for i, src in enumerate(outputs[workload, False]):
        dirs.append(tmp_path / f"call{i}")
        shutil.copytree(src, dirs[-1])
    gate = WORKLOADS[workload].gate
    assert gate(dirs, "tiny") == []
    corrupt(dirs[0])
    failures = gate(dirs, "tiny")
    assert any(message in f for f in failures), failures


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "qutrit-exact", "--size", "tiny", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_and_remainder_add_up_to_wall():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)

    start = time.perf_counter()
    tracer.call("outer", outer)
    time.sleep(0.01)
    wall = time.perf_counter() - start
    report = tracer.report(wall)
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert report["trace.unattributed_s"] >= 0.01
    assert sum(tracer.self_s.values()) + report["trace.unattributed_s"] == pytest.approx(wall)
