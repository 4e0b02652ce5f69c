"""jumpguard benchmark: one workload, closed loop, one client.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ``jumpguard`` is imported from its
``src/``. Every operation is one fresh process that runs the workload's
``jumpguard run`` calls (``child.py``); the next starts when the previous
has finished and its outputs have passed the workload's gates.

``--trace 0`` repeats the workload until its operations have taken
``--seconds`` in all, starts the package ``SETUP_PROBES`` times around them
to time set-up, and reports medians of ``wall_s``, ``cpu_s``,
``peak_rss_mb`` and ``setup_s``. ``--trace 1`` runs the workload once untraced and once
traced, and reports the per-layer metrics of the traced run (see
``tracing.py``); both must write byte-identical CSVs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the host, every operation and every gate failure. Exit code 0 means
a result was printed; 2 means there is no ``src/jumpguard`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # every run must end within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def blas_info() -> dict:
    """BLAS name and version from numpy's build, threads from the loaded library."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "numpy": numpy.__version__}


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas": blas_info(),
        "loadavg_before": os.getloadavg(),
    }


class Runner:
    """Runs operations of one workload and keeps their results."""

    def __init__(self, workload, seed: int, size: str, work_dir: Path, deadline: float):
        self.workload, self.seed, self.size = workload, seed, size
        self.work_dir, self.deadline = work_dir, deadline
        self.ops: list[dict] = []

    def _child(self, *args) -> tuple[dict | None, str]:
        """Run child.py; (its last JSON line or None, error text)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return json.loads(lines[-1]), ""

    def setup_time(self) -> float:
        scenario, flags = self.workload.calls(self.seed, self.size)[0]
        start = time.monotonic()
        out, err = self._child("setup", scenario, json.dumps(flags))
        if out is None:
            raise RuntimeError(f"set-up probe failed: {err}")
        return out["done_at"] - start

    def operation(self, trace: bool) -> dict:
        """One fresh-process run of the workload, gated on its outputs."""
        op_dir = self.work_dir / f"op{len(self.ops)}"
        dirs = []
        calls = []
        for i, (scenario, flags) in enumerate(self.workload.calls(self.seed, self.size)):
            dirs.append(op_dir / f"call{i}")
            calls.append([scenario, flags, str(dirs[-1])])
        out, err = self._child("run", json.dumps(calls), *(["--trace"] if trace else []))
        op = {"trace": trace, "dirs": dirs, "failures": []}
        if out is None:
            op["failures"].append(err)
            self.ops.append(op)
            return op
        op.update(out)
        if out["error"] is not None or any(code != 0 for code in out["codes"]):
            op["failures"].append(f"cli exit codes {out['codes']}, error {out['error']}")
        else:
            try:
                op["failures"] += self.workload.gate(dirs, self.size)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                op["failures"].append(f"unreadable output: {exc!r}")
        self.ops.append(op)
        return op


def csv_bytes(dirs: list[Path]) -> dict[str, bytes]:
    return {f"{i}/{p.name}": p.read_bytes()
            for i, d in enumerate(dirs) for p in sorted(d.glob("*.csv"))}


def measure(runner: Runner, seconds: float) -> dict:
    # set-up probes before and after the operations sample more host states
    setup = [runner.setup_time() for _ in range(SETUP_PROBES // 2)]
    measured = 0.0
    while measured < seconds:
        began = time.monotonic()
        runner.operation(trace=False)
        took = time.monotonic() - began
        measured += took
        if time.monotonic() + took > runner.deadline:
            break
    setup += [runner.setup_time() for _ in range(SETUP_PROBES - len(setup))]
    timed = [op for op in runner.ops if "wall_s" in op]
    if not timed:
        raise RuntimeError("no operation completed")
    values = {name: statistics.median(op[name] for op in timed)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(runner: Runner) -> dict:
    plain = runner.operation(trace=False)
    traced = runner.operation(trace=True)
    if "layers" not in traced or "wall_s" not in plain:
        raise RuntimeError("traced or untraced operation did not complete")
    if csv_bytes(plain["dirs"]) != csv_bytes(traced["dirs"]):
        traced["failures"].append("traced run wrote different CSV bytes than the untraced run")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small instance of the workload, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jumpguard" / "__init__.py").is_file():
        print(f"no jumpguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    host = host_info()
    work_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, args.size, work_dir,
                    deadline=began + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics = measure_traced(runner)
        else:
            metrics = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        for op in runner.ops:
            for failure in op["failures"]:
                print(f"operation {runner.ops.index(op)} failed: {failure}", file=sys.stderr)
    host["loadavg_after"] = os.getloadavg()

    failed = sum(1 for op in runner.ops if op["failures"])
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "host": host,
        "operations": [
            {k: op.get(k) for k in ("trace", "wall_s", "cpu_s", "peak_rss_mb", "failures")}
            for op in runner.ops
        ],
        "run_s": time.monotonic() - began,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
