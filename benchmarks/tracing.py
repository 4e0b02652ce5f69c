"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps public functions of the ``jumpguard`` modules from outside
the package: every module attribute bound to a traced function is replaced
by a wrapper that opens a span around the call. Nothing in ``src/`` changes
and no private ``_`` name is touched.

Spans nest as they are called: driver (``trajectories.run_*``), then the
scenario observable callbacks it invokes, then ``entanglement.*``. A span's
self time is its duration minus the time covered by its child spans, so
the self times of all spans add up to the time spent inside top-level
spans; the rest of the traced wall time is reported as unattributed.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import defaultdict

# traced layer names, in report order; every one is reported, as 0 when
# the workload does not reach it
ENTANGLEMENT_BATCH = (
    "negativity_batch_pure",
    "negativity_batch_density",
    "entropy_batch_pure",
    "eof_batch_pure_2q",
)
ENTANGLEMENT_SINGLE = ("eof_2q", "negativity")

# (metric name, unit) of every per-layer metric the traced run reports
LAYER_METRICS = (
    [
        ("trajectories.run_exact_grid.self_s", "s"),
        ("trajectories.run_exact_grid.calls", "count"),
        ("trajectories.run_exact_grid.classes_peak", "count"),
        ("trajectories.run_exact_grid.classes_final", "count"),
        ("trajectories.run_exact_grid.lost_mass", "prob"),
        ("trajectories.enumerate_trajectories.self_s", "s"),
        ("trajectories.enumerate_trajectories.calls", "count"),
        ("trajectories.enumerate_trajectories.records", "count"),
        ("trajectories.run_sampled_grid.self_s", "s"),
        ("trajectories.run_sampled_grid.traj_steps", "count"),
        ("trajectories.run_sampled_grid.traj_steps_per_s", "1/s"),
        ("trajectories.run_sampled_grid.jumps", "count"),
        ("trajectories.run_sampled_grid.jumps_per_traj", "count"),
        ("trajectories.run_density_grid.self_s", "s"),
        ("trajectories.run_density_grid.traj_steps", "count"),
        ("trajectories.run_density_grid.traj_steps_per_s", "1/s"),
        ("trajectories.run_density_grid.jumps", "count"),
        ("trajectories.StepOperators.self_s", "s"),
        ("trajectories.StepOperators.builds", "count"),
    ]
    + [
        (f"entanglement.{fn}.{m}", unit)
        for fn in ENTANGLEMENT_BATCH
        for m, unit in (("self_s", "s"), ("rows", "count"), ("rows_per_s", "1/s"))
    ]
    + [
        (f"entanglement.{fn}.{m}", unit)
        for fn in ENTANGLEMENT_SINGLE
        for m, unit in (("self_s", "s"), ("calls", "count"))
    ]
    + [
        ("scenarios.observables.self_s", "s"),
        ("scenarios.run_scenario.self_s", "s"),
        ("models.evolve_master.self_s", "s"),
        ("models.evolve_master.calls", "count"),
        ("linalg.rk4_step.calls", "count"),
        ("cli.parse_config.self_s", "s"),
        ("cli.write_outputs.self_s", "s"),
        ("cli.write_outputs.bytes", "B"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """In-memory span stack with per-name self time and named counters."""

    def __init__(self):
        self._open: list[list] = []  # [name, start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._open.pop()
            self.self_s[name] += duration - frame[2]
            if self._open:
                self._open[-1][2] += duration

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    def report(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer values by metric name (without ``trace.overhead_s``)."""
        c, s = self.counts, self.self_s
        out = {
            "trajectories.run_exact_grid.classes_peak": self.peaks["exact.classes_peak"],
            "trajectories.run_exact_grid.classes_final": self.peaks["exact.classes_final"],
        }
        for layer in ("run_exact_grid", "enumerate_trajectories", "run_sampled_grid",
                      "run_density_grid", "StepOperators"):
            out[f"trajectories.{layer}.self_s"] = s[f"trajectories.{layer}"]
        out["trajectories.run_exact_grid.calls"] = c["exact.calls"]
        out["trajectories.run_exact_grid.lost_mass"] = c["exact.lost_mass"]
        out["trajectories.enumerate_trajectories.calls"] = c["enumerate.calls"]
        out["trajectories.enumerate_trajectories.records"] = c["enumerate.records"]
        for layer in ("run_sampled_grid", "run_density_grid"):
            steps = c[f"{layer}.traj_steps"]
            busy = s[f"trajectories.{layer}"]
            out[f"trajectories.{layer}.traj_steps"] = steps
            out[f"trajectories.{layer}.traj_steps_per_s"] = steps / busy if busy > 0 else 0.0
            out[f"trajectories.{layer}.jumps"] = c[f"{layer}.jumps"]
        n_traj = c["run_sampled_grid.trajectories"]
        out["trajectories.run_sampled_grid.jumps_per_traj"] = (
            c["run_sampled_grid.jumps"] / n_traj if n_traj else 0.0
        )
        out["trajectories.StepOperators.builds"] = c["StepOperators.builds"]
        for fn in ENTANGLEMENT_BATCH:
            busy = s[f"entanglement.{fn}"]
            rows = c[f"{fn}.rows"]
            out[f"entanglement.{fn}.self_s"] = busy
            out[f"entanglement.{fn}.rows"] = rows
            out[f"entanglement.{fn}.rows_per_s"] = rows / busy if busy > 0 else 0.0
        for fn in ENTANGLEMENT_SINGLE:
            out[f"entanglement.{fn}.self_s"] = s[f"entanglement.{fn}"]
            out[f"entanglement.{fn}.calls"] = c[f"{fn}.calls"]
        out["scenarios.observables.self_s"] = s["scenarios.observables"]
        out["scenarios.run_scenario.self_s"] = s["scenarios.run_scenario"]
        out["models.evolve_master.self_s"] = s["models.evolve_master"]
        out["models.evolve_master.calls"] = c["evolve_master.calls"]
        out["linalg.rk4_step.calls"] = c["rk4_step.calls"]
        out["cli.parse_config.self_s"] = s["cli.parse_config"]
        out["cli.write_outputs.self_s"] = s["cli.write_outputs"]
        out["cli.write_outputs.bytes"] = c["write_outputs.bytes"]
        out["trace.wall_s"] = traced_wall_s
        out["trace.unattributed_s"] = traced_wall_s - sum(s.values())
        return out


def _replace_everywhere(modules, original, wrapper):
    """Rebind every module attribute that refers to ``original``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the traced public functions of an imported ``jumpguard``."""
    import jumpguard
    from jumpguard import cli, entanglement, models, scenarios, trajectories

    modules = (jumpguard, cli, scenarios, trajectories, entanglement, models)
    t = tracer

    def observed(observables, on_rows):
        """Span each observable callback; ``on_rows(index, states, counts)``."""
        calls = itertools.count()
        first = next(iter(observables), None)

        def wrap(label, fn):
            def callback(*args):
                if label == first:
                    on_rows(next(calls), args[0], args[-1])
                return t.call("scenarios.observables", fn, *args)

            return callback

        return {label: wrap(label, fn) for label, fn in observables.items()}

    def exact_grid(fn):
        def wrapper(model, psi0, config, policy, grid_steps, observables):
            last_rows = 0

            def on_rows(_i, states, _counts):
                nonlocal last_rows
                last_rows = states.shape[0]
                t.peak("exact.classes_peak", last_rows)

            curves, engine = t.call(
                "trajectories.run_exact_grid", fn, model, psi0, config, policy,
                grid_steps, observed(observables, on_rows),
            )
            t.counts["exact.calls"] += 1
            t.counts["exact.lost_mass"] += engine.truncation_mass + engine.culled_mass
            t.peak("exact.classes_final", last_rows)
            return curves, engine

        return wrapper

    def sampled_grid(fn, layer):
        def wrapper(model, x0, config, policy, grid_steps, observables):
            n_grid = len(set(int(g) for g in grid_steps))

            def on_rows(i, _states, counts):
                if i % n_grid == n_grid - 1:  # final grid point of a chunk
                    t.counts[f"{layer}.jumps"] += float(counts.sum())

            out = t.call(
                f"trajectories.{layer}", fn, model, x0, config, policy,
                grid_steps, observed(observables, on_rows),
            )
            t.counts[f"{layer}.traj_steps"] += config.n_samples * config.n_steps
            t.counts[f"{layer}.trajectories"] += config.n_samples
            return out

        return wrapper

    def enumerate_(fn):
        def wrapper(*args, **kwargs):
            res = t.call("trajectories.enumerate_trajectories", fn, *args, **kwargs)
            t.counts["enumerate.calls"] += 1
            t.counts["enumerate.records"] += len(res.records)
            return res

        return wrapper

    def counted(fn, key, name=None, rows=False):
        def wrapper(*args, **kwargs):
            t.counts[key] += args[0].shape[0] if rows else 1
            if name is None:
                return fn(*args, **kwargs)
            return t.call(name, fn, *args, **kwargs)

        return wrapper

    def write_outputs(fn):
        def wrapper(result, out_dir, *args, **kwargs):
            manifest = t.call("cli.write_outputs", fn, result, out_dir, *args, **kwargs)
            t.counts["write_outputs.bytes"] += sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in manifest["outputs"]
            )
            return manifest

        return wrapper

    traj = trajectories
    wrappers = [
        (traj.run_exact_grid, exact_grid(traj.run_exact_grid)),
        (traj.run_sampled_grid, sampled_grid(traj.run_sampled_grid, "run_sampled_grid")),
        (traj.run_density_grid, sampled_grid(traj.run_density_grid, "run_density_grid")),
        (traj.enumerate_trajectories, enumerate_(traj.enumerate_trajectories)),
        (traj.StepOperators, counted(traj.StepOperators, "StepOperators.builds",
                                     "trajectories.StepOperators")),
        (models.evolve_master, counted(models.evolve_master, "evolve_master.calls",
                                       "models.evolve_master")),
        (scenarios.run_scenario, t.spanned("scenarios.run_scenario", scenarios.run_scenario)),
        (cli.parse_config, t.spanned("cli.parse_config", cli.parse_config)),
        (cli.write_outputs, write_outputs(cli.write_outputs)),
    ]
    for fn in ENTANGLEMENT_BATCH:
        orig = getattr(entanglement, fn)
        wrappers.append((orig, counted(orig, f"{fn}.rows", f"entanglement.{fn}", rows=True)))
    for fn in ENTANGLEMENT_SINGLE:
        orig = getattr(entanglement, fn)
        wrappers.append((orig, counted(orig, f"{fn}.calls", f"entanglement.{fn}")))
    for original, wrapper in wrappers:
        _replace_everywhere(modules, original, wrapper)
    # linalg kernels are counted where models calls them, not traced inside
    models.rk4_step = counted(models.rk4_step, "rk4_step.calls")
