import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from jumpguard import entanglement as ent
from jumpguard import scenarios, trajectories
from jumpguard.linalg import make_layout, normalized, product_basis_state
from jumpguard.models import CascadeSpec, build_qubit_pair, build_qutrit_pair, evolve_master
from jumpguard.cli import main
from jumpguard.trajectories import FeedbackPolicy
from jumpguard.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioError,
    _cavity,
    _metadata,
    _run_curves,
    _thermal_ladder,
    _ucfg,
    cavity_closed_forms,
    cavity_oj_state,
    run_scenario,
)


def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="nope")
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="singlet-conversion", alpha=0.7)
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="singlet-conversion", alpha=0.0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="bell-monitoring", eta=1.2)
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="bell-monitoring", mode="both")
    with pytest.raises(ScenarioError):
        ScenarioConfig(scenario="cavity-2x3", alpha=1.5)


def test_default_mode_is_first_mode_of_scenario():
    assert ScenarioConfig(scenario="bell-monitoring").mode == "exact"
    assert ScenarioConfig(scenario="cavity-2x3").mode == "exact"
    assert ScenarioConfig(scenario="cavity-thermal").mode == "sampled"
    for scenario, mode in (("cavity-2x3", "sampled"), ("cavity-thermal", "exact")):
        with pytest.raises(ScenarioError, match="mode"):
            ScenarioConfig(scenario=scenario, mode=mode)


@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_config_holds_the_defaults_its_run_reads(gamma):
    # mode and the requested step for every preset, alpha where the preset table has one,
    # and the "8% delay" tau where the preset reads it
    for scenario, spec in SCENARIOS.items():
        cfg = ScenarioConfig(scenario=scenario, gamma=gamma, t_max=0.5, grid_points=2)
        assert cfg.mode == spec.modes[0]
        assert cfg.dt == spec.gamma_dt / gamma
        assert cfg.alpha == spec.alpha
        assert cfg.tau == (0.08 / gamma if scenario == "qutrit-protection" else None)


def test_grid_steps_strictly_increase():
    # every grid-point count a config accepts reads distinct steps from 0 to t-max
    for n_steps in (*range(1, 41), 599, 5000):
        cfg = ScenarioConfig(scenario="bell-monitoring", dt=1e-3, t_max=n_steps * 1e-3, grid_points=2)
        assert scenarios._resolve_steps(cfg)[1] == n_steps
        for points in range(2, n_steps + 2):
            grid = scenarios._grid(dataclasses.replace(cfg, grid_points=points))
            assert len(grid) == points and grid[0] == 0.0 and grid[-1] == cfg.t_max
            assert np.all(np.diff(grid) > 0), (n_steps, points)
        with pytest.raises(ScenarioError, match="grid-points"):
            dataclasses.replace(cfg, grid_points=n_steps + 2)


def test_preset_runs_import_no_masked_arrays(tmp_path):
    # numpy's np.unique imports numpy.ma on its first plain call; no preset run makes one,
    # including the master-mode and density-sampler negativities of qutrit-protection
    code = ("import sys\nfrom jumpguard.scenarios import SCENARIOS, ScenarioConfig, run_scenario\n"
            "for s, spec in SCENARIOS.items():\n"
            "    for mode in spec.modes:\n"
            "        run_scenario(ScenarioConfig(s, mode=mode, t_max=0.2, grid_points=3, n_samples=20))\n"
            "        assert 'numpy.ma' not in sys.modules, (s, mode)\n")
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                   check=True, capture_output=True)


def test_bell_monitoring_curves():
    cfg = ScenarioConfig(scenario="bell-monitoring", t_max=2.0, grid_points=21)
    res = run_scenario(cfg)
    pnj = res.curve("P_NJ")
    assert np.max(np.abs(pnj.values - np.exp(-pnj.times))) < 1e-9
    e2 = res.curve("E_2")
    ef = res.curve("E_F")
    assert np.max(np.abs(e2.values - np.exp(-e2.times))) < 1e-9
    assert np.all(e2.values[1:] >= ef.values[1:])
    assert res.curve("E_F").measure == "eof"


def test_bell_monitoring_sampled_mode():
    cfg = ScenarioConfig(
        scenario="bell-monitoring", mode="sampled", n_samples=5000,
        t_max=1.0, dt=5e-3, grid_points=5,
    )
    res = run_scenario(cfg)
    pnj = res.curve("P_NJ")
    sig = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / 5000)
    assert abs(pnj.values[-1] - math.exp(-1.0)) < 4 * sig
    assert pnj.sem is not None


def test_singlet_conversion_quarter():
    cfg = ScenarioConfig(scenario="singlet-conversion", alpha=0.25, t_max=2.0)
    res = run_scenario(cfg)
    s = res.scalars
    assert abs(s["t_star"] - 0.5 * math.log(3.0)) < 1e-12
    assert abs(s["p_ok"] - 0.5) < 1e-9
    assert abs(s["entropy_at_t_star"] - 1.0) < 1e-8
    pnj = res.curve("P_NJ")
    ana = res.curve("P_NJ_analytic")
    assert np.max(np.abs(pnj.values - ana.values)) < 1e-9


def test_singlet_conversion_boundary_alpha():
    cfg = ScenarioConfig(scenario="singlet-conversion", alpha=0.5, t_max=1.0)
    res = run_scenario(cfg)
    assert res.scalars["t_star"] == 0.0
    assert res.scalars["p_ok"] == 1.0
    assert abs(res.scalars["entropy_at_t_star"] - 1.0) < 1e-12


def test_sampled_singlet_at_half_reads_step_zero():
    # t* is 0 at alpha 1/2: the t* runs take no step, so every trajectory is jump-free and the
    # zero SEM is flagged as at any read where all are
    cfg = ScenarioConfig(scenario="singlet-conversion", alpha=0.5, mode="sampled", n_samples=20,
                         t_max=0.1, grid_points=2)
    res = run_scenario(cfg)
    assert res.scalars["t_star"] == 0.0
    assert res.scalars["p_ok_sampled"] == 1.0 and res.scalars["p_ok_sampled_sigma"] == 0.0
    assert [w for w in res.metadata["warnings"] if "p_ok_sampled_sigma is 0" in w]
    exact = run_scenario(dataclasses.replace(cfg, mode="exact")).metadata
    assert exact["warnings"] == []
    assert exact["classes"]["t_star"] == [1] and exact["truncation_mass"]["t_star"] == 0.0


@pytest.mark.parametrize("mode, policy, driver", [
    ("master", None, "evolve_master"),
    ("exact", None, "run_exact_grid"),
    ("sampled", None, "run_sampled_grid"),
    ("exact", FeedbackPolicy.qutrit_cyclic(efficiency=0.5), "run_density_grid"),
], ids=["master", "exact", "pure-sampled", "density-sampled"])
def test_zero_horizon_reads_the_initial_state(monkeypatch, mode, policy, driver):
    # a run whose last read time is 0 resolves no step and reads f(psi0) at step 0
    cfg = ScenarioConfig(scenario="qutrit-protection", mode="exact", t_max=0.2, grid_points=3, n_samples=50)
    layout = make_layout((3, 3))
    psi0 = normalized(product_basis_state(layout, (1, 2)) + product_basis_state(layout, (2, 1)))
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    horizons, run = [], getattr(scenarios, driver)

    def spy(model, x0, *args):
        horizons.append(list(args[0]) if driver == "evolve_master" else (args[0].n_steps, list(args[2])))
        return run(model, x0, *args)

    monkeypatch.setattr(scenarios, driver, spy)
    metadata = _metadata()
    curve, = _run_curves(cfg, metadata, model, psi0, {"E": scenarios._measure(ent.Measure.NEGATIVITY, layout)},
                         policy, mode, times=(0.0,))
    assert horizons == [[0.0] if driver == "evolve_master" else (0, [0])]
    assert list(curve.times) == [0.0]
    assert abs(curve.values[0] - ent.negativity(np.outer(psi0, psi0.conj()), layout)) < 1e-12
    if driver == "run_exact_grid":
        assert metadata["classes"] == {"E": [1]} and metadata["truncation_mass"] == {"E": 0.0}
    if mode == "sampled" or policy is not None:
        assert curve.sem[0] < 1e-12


def test_singlet_conversion_sampled_scalar():
    cfg = ScenarioConfig(
        scenario="singlet-conversion", alpha=0.25, mode="sampled",
        n_samples=20000, t_max=1.0, dt=5e-3,
    )
    res = run_scenario(cfg)
    s = res.scalars
    assert abs(s["p_ok_sampled"] - 0.5) < 3 * s["p_ok_sampled_sigma"]


def test_singlet_sampled_zero_sigma_warns():
    # all 20 sampled trajectories are jump-free at t*, so the Wald SEM reads 0 and bounds nothing
    cfg = ScenarioConfig(scenario="singlet-conversion", mode="sampled", alpha=0.499, n_samples=20,
                         t_max=0.1, grid_points=2)
    res = run_scenario(cfg)
    assert res.scalars["p_ok_sampled"] == 1.0 and res.scalars["p_ok_sampled_sigma"] == 0.0
    assert [w for w in res.metadata["warnings"] if "p_ok_sampled_sigma is 0" in w and "20 samples" in w]
    res = run_scenario(dataclasses.replace(cfg, alpha=0.25, n_samples=200))
    assert res.scalars["p_ok_sampled_sigma"] > 0.0 and res.metadata["warnings"] == []


@pytest.fixture(scope="module")
def qutrit_result():
    cfg = ScenarioConfig(scenario="qutrit-protection", t_max=2.0, grid_points=21, n_samples=2000)
    return run_scenario(cfg)


def test_qutrit_full_protection_curve(qutrit_result):
    e3f = qutrit_result.curve("E_3f")
    assert np.max(np.abs(e3f.values - 0.5)) < 1e-9
    ent_curve = qutrit_result.curve("E_3f_entropy")
    assert np.max(np.abs(ent_curve.values - 1.0)) < 1e-9


def test_qutrit_one_jump_keeps_entanglement(qutrit_result):
    e3 = qutrit_result.curve("E_3").values
    e2 = qutrit_result.curve("E_2_neg").values
    assert np.all(e3[1:] > e2[1:])


def test_qutrit_measures_are_labeled(qutrit_result):
    assert qutrit_result.curve("E_3").measure == "negativity"
    assert qutrit_result.curve("E_2").measure == "eof"
    assert qutrit_result.curve("E_3_entropy").measure == "entropy"


def test_qutrit_nonideal_curves_between_bounds(qutrit_result):
    e3f = qutrit_result.curve("E_3f").values
    ef = qutrit_result.curve("E_F_neg").values
    for label in ("E_3f_tau", "E_3f_eta"):
        v = qutrit_result.curve(label).values
        assert np.all(v[1:] < e3f[1:])
        assert np.all(v[1:] > ef[1:])


def test_qutrit_batched_references_equal_per_matrix_values(qutrit_result):
    # the master-equation references evaluate the whole rho(t) grid in one batch
    times = qutrit_result.curve("E_F").times
    layout = make_layout((2, 2))
    psi0 = normalized(product_basis_state(layout, (1, 0)) + product_basis_state(layout, (0, 1)))
    rhos = evolve_master(build_qubit_pair(1.0), np.outer(psi0, psi0.conj()), times)
    eof = [ent.eof_2q(r) for r in rhos]
    neg = [ent.negativity(r, layout) for r in rhos]
    assert qutrit_result.curve("E_F").values.tolist() == eof
    assert qutrit_result.curve("E_F_neg").values.tolist() == neg


def test_qutrit_truncation_reported(qutrit_result):
    masses = qutrit_result.metadata["truncation_mass"]
    for label in ("E_3", "E_3f", "E_3ho", "E_3fho"):
        assert masses[label] < 1e-4
    # one class census, classes per jump count, beside each lost mass
    census = qutrit_result.metadata["classes"]
    assert list(census) == list(masses)
    assert census["E_3f"] == [1] and census["E_2"] == [1, 1]


@pytest.mark.parametrize("gamma_dt", [5e-3, 1e-2])
@pytest.mark.parametrize("gamma_t", [0.5, 1.5, 2.0, 5.0])
def test_jump_budget_rule_keeps_feedback_truncation_under_a_tenth_of_the_bound(gamma_t, gamma_dt):
    # E_3fho truncates the most of any exact run; 7.15e-6 at gamma t = 1.5, its budget 12
    ucfg = _ucfg(ScenarioConfig(scenario="qutrit-protection", t_max=gamma_t, dt=gamma_dt))
    layout = make_layout((3, 3))
    psi0 = normalized(product_basis_state(layout, (1, 2)) + product_basis_state(layout, (2, 1)))
    model = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    _, engine = trajectories.run_exact_grid(model, psi0, ucfg, FeedbackPolicy.qutrit_cyclic(),
                                            [0, ucfg.n_steps], {})
    assert ucfg.max_jumps == max(12, math.ceil(8 * gamma_t))
    assert engine.truncation_mass < trajectories.TRUNCATION_BOUND / 10


@pytest.mark.parametrize("scenario, dt, n_compared", [
    ("bell-monitoring", 1e-3, 2),
    ("qutrit-protection", 5e-3, 8),
])
def test_sampled_mode_matches_exact_mode(scenario, dt, n_compared):
    # the same curves, measure by measure, whichever driver computes them
    exact, sampled = (
        run_scenario(ScenarioConfig(scenario=scenario, mode=mode, t_max=1.0, dt=dt,
                                    grid_points=5, n_samples=2000))
        for mode in ("exact", "sampled")
    )
    assert [(c.label, c.measure) for c in sampled.curves] == [
        (c.label, c.measure) for c in exact.curves
    ]
    compared = 0
    for ce, cs in zip(exact.curves, sampled.curves):
        if (ce.sem is None) == (cs.sem is None):
            continue  # same driver kind in both runs
        sem = cs.sem if cs.sem is not None else ce.sem
        assert np.all(np.abs(ce.values - cs.values) <= 10 * dt + 4 * sem), ce.label
        compared += 1
    assert compared == n_compared


@pytest.mark.parametrize("scenario, mode", [(s, m) for s, spec in SCENARIOS.items() for m in spec.modes])
def test_averaged_entanglement_never_rises(scenario, mode):
    # monitoring and feedback are local operations, so no averaged entanglement
    # curve may rise: exact, master and closed-form curves within rounding,
    # sampled ones within 4 SEM of a step; under ideal feedback E_3f stays put.
    # entropy_NJ, an average over the jump-free records only, is not one
    cfg = ScenarioConfig(scenario=scenario, mode=mode, t_max=1.0, grid_points=6, n_samples=300)
    checked = 0
    for c in run_scenario(cfg).curves:
        if c.measure == "probability" or c.label == "entropy_NJ":
            continue
        tol = 1e-12 if c.sem is None else np.maximum(4 * np.hypot(c.sem[:-1], c.sem[1:]), 1e-12)
        assert np.all(np.diff(c.values) <= tol), c.label
        if c.label in ("E_3f", "E_3f_entropy"):
            assert np.ptp(c.values) <= 1e-12, c.label
        checked += 1
    assert checked or scenario == "singlet-conversion"


@pytest.mark.parametrize("policy, driver", [
    (FeedbackPolicy.qutrit_cyclic(delay=0.05), "run_sampled_grid"),
    (FeedbackPolicy.qutrit_cyclic(efficiency=0.5), "run_density_grid"),
    (FeedbackPolicy.qutrit_cyclic(delay=0.05, efficiency=0.5), "run_density_grid"),
], ids=["delay", "efficiency", "both"])
def test_exact_mode_runs_non_ideal_feedback_on_a_sampler(monkeypatch, policy, driver):
    # exact enumeration takes immediate feedback at efficiency 1 only, so the
    # policy routes past it: a delay to the wavefunction sampler on psi0, an
    # efficiency below one to the density sampler on |psi0><psi0|
    cfg = ScenarioConfig(scenario="qutrit-protection", mode="exact", t_max=0.2, grid_points=3, n_samples=50)
    layout = make_layout((3, 3))
    psi0 = normalized(product_basis_state(layout, (1, 2)) + product_basis_state(layout, (2, 1)))
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    starts, run = [], getattr(scenarios, driver)

    def spy(model, x0, *args):
        starts.append(x0)
        return run(model, x0, *args)

    monkeypatch.setattr(scenarios, driver, spy)
    curve, = _run_curves(cfg, _metadata(), model, psi0, {"E": scenarios._measure(ent.Measure.NEGATIVITY, layout)},
                         policy)
    start, = starts
    assert np.array_equal(start, psi0 if driver == "run_sampled_grid" else np.outer(psi0, psi0.conj()))
    assert curve.sem is not None and abs(curve.values[0] - 0.5) < 1e-12


def test_cavity_closed_forms_limits():
    t = np.array([0.0, 0.5, 2.0])
    c = cavity_closed_forms(0.5, 1.0, t)
    assert abs(c["P_chi0"][0] - 1.0) < 1e-15
    assert abs(c["P_chi1"][0]) < 1e-15
    # mass below two jumps never exceeds one
    assert np.all(c["P_chi0"] + c["P_chi1"] <= 1.0 + 1e-12)


def test_cavity_oj_state_is_jump_time_independent():
    # the same normalized one-jump state no matter when the jump happened
    a, g, t = 0.3, 1.0, 1.0
    ref = cavity_oj_state(a, g, t)
    # recompute by explicit piecewise evolution for three jump times
    from jumpguard.linalg import make_layout, normalized, product_basis_state

    lay = make_layout((2, 3))
    base = (
        math.sqrt(a) * product_basis_state(lay, (1, 1))
        + math.sqrt(1 - a) * product_basis_state(lay, (0, 2))
    )
    L = np.zeros((3, 3))
    L[0, 1] = 1.0
    L[1, 2] = math.sqrt(2.0)
    L = np.kron(np.eye(2), L)
    n_cav = np.kron(np.ones(2), np.array([0.0, 1.0, 2.0]))  # diagonal generator

    def no_jump(tau):
        return np.diag(np.exp(-0.5 * g * tau * n_cav))

    for tj in (0.1 * t, 0.5 * t, 0.9 * t):
        psi = no_jump(t - tj) @ L @ no_jump(tj) @ base
        psi = normalized(psi)
        assert abs(abs(np.vdot(psi, ref)) ** 2 - 1.0) < 1e-12


@pytest.fixture(scope="module")
def cavity_result():
    cfg = ScenarioConfig(
        scenario="cavity-2x3", alpha=0.5, t_max=2.0, grid_points=21,
    )
    return run_scenario(cfg)


def test_cavity_engine_matches_closed_forms(cavity_result):
    s = cavity_result.scalars
    assert s["max_prob_error_nj"] < 1e-6
    assert s["max_prob_error_oj"] < 1e-6
    assert s["min_fidelity_nj"] > 1.0 - 1e-8
    assert s["min_fidelity_oj"] > 1.0 - 1e-8
    assert s["one_jump_classes"] == 1.0
    eng = cavity_result.curve("E_2x3").values
    ana = cavity_result.curve("E_2x3_analytic").values
    assert np.max(np.abs(eng - ana)) < 1e-6


def test_cavity_reports_only_the_checks_that_ran(cavity_result):
    # t-max below the first check time 0.2/gamma runs no state-level check: its scalars are
    # left out with a warning, not reported as perfect
    res = run_scenario(ScenarioConfig(scenario="cavity-2x3", t_max=0.1, grid_points=3))
    assert list(res.scalars) == ["alpha", "one_jump_classes"]
    assert [w for w in res.metadata["warnings"] if "no state-level check ran" in w]
    assert list(cavity_result.scalars) == ["alpha", "min_fidelity_nj", "min_fidelity_oj", "max_prob_error_nj",
                                           "max_prob_error_oj", "one_jump_classes"]
    assert cavity_result.metadata["warnings"] == []


def test_cavity_advantage_surface(cavity_result):
    alphas, tgrid, diff = cavity_result.surfaces["surface_2x3_minus_2x2"]
    assert diff.shape == (101, 201)
    assert diff.min() >= -1e-12


def test_checkpoints_read_no_engine_attribute(monkeypatch):
    # singlet conversion's t* run and cavity-2x3's check reads are observables of the one curve
    # driver: no preset reads an exact engine's records, and the scalars stay those that its
    # classes gave
    def unread(self):
        raise AssertionError("a preset read the records of an exact run")

    monkeypatch.setattr(trajectories._ExactEngine, "records", unread)
    expected = {"t_star": 0.5493061443340549, "p_ok_analytic": 0.5, "p_ok": 0.5000000000000115,
                "entropy_at_t_star": 1.0}
    singlet = run_scenario(ScenarioConfig(scenario="singlet-conversion"))
    assert singlet.scalars == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert singlet.metadata["classes"] == {"t_star": [1, 2, 1], "P_NJ": [1, 2, 1]}
    sampled = run_scenario(ScenarioConfig(scenario="singlet-conversion", mode="sampled")).scalars
    assert {k: sampled.pop(k) for k in expected} == singlet.scalars
    assert abs(sampled["p_ok_sampled"] - 0.5) < 4 * sampled["p_ok_sampled_sigma"]
    cavity = run_scenario(ScenarioConfig(scenario="cavity-2x3"))
    assert cavity.scalars == pytest.approx({
        "alpha": 0.5, "min_fidelity_nj": 0.9999999999999998, "min_fidelity_oj": 0.9999999999999996,
        "max_prob_error_nj": 1.27675647831893e-14, "max_prob_error_oj": 1.5569295686024276e-07,
        "one_jump_classes": 1.0}, rel=1e-9, abs=1e-12)
    assert cavity.metadata["classes"] == {"E_2x3": [1, 1, 1]}


def test_cavity_checks_are_reads_of_its_one_exact_run(monkeypatch):
    # the check times 0.2, 0.5, 1 and 2 /gamma are reads of the curve run, not runs of their own
    calls, run = [], scenarios.run_exact_grid

    def counted(*args):
        calls.append(args[4])
        return run(*args)

    monkeypatch.setattr(scenarios, "run_exact_grid", counted)
    res = run_scenario(ScenarioConfig(scenario="cavity-2x3"))
    grid, = calls
    assert list(grid) == list(range(0, 5001, 100))
    assert [len(c.times) for c in res.curves] == [51] * 7
    assert list(res.metadata["truncation_mass"]) == ["E_2x3"]


def test_cavity_checks_read_their_nearest_step_off_the_grid():
    # at dt 0.003 no check time is a step: each check reads the step nearest it, t_s, and
    # compares it with the closed forms and states at t_s; at the nominal times the
    # one-jump probability would be off by about 1e-4
    res = run_scenario(ScenarioConfig(scenario="cavity-2x3", dt=0.003))
    s = res.scalars
    assert s["max_prob_error_nj"] < 1e-5 and s["max_prob_error_oj"] < 1e-5
    assert s["min_fidelity_nj"] >= 1.0 - 1e-8 and s["min_fidelity_oj"] >= 1.0 - 1e-8
    assert s["one_jump_classes"] == 1.0
    assert len(res.curve("E_2x3").times) == 51 and res.metadata["warnings"] == []


def test_cavity_alpha_above_half_notes(cavity_result):
    cfg = ScenarioConfig(scenario="cavity-2x3", alpha=0.9, t_max=0.5, grid_points=5)
    res = run_scenario(cfg)
    assert any("alpha" in w for w in res.metadata["warnings"])


def test_thermal_zero_nbar_matches_analytic():
    cfg = ScenarioConfig(
        scenario="cavity-thermal", nbar=(0.0, 0.5), t_max=2.0,
        grid_points=11, n_samples=3000,
    )
    res = run_scenario(cfg)
    c0 = res.curve("E_2x3_nbar_0")
    analytic = cavity_closed_forms(0.5, 1.0, c0.times)["E_2x3"]
    assert np.max(np.abs(c0.values - analytic)) < 5 * max(c0.sem.max(), 1e-3)
    hot = res.curve("E_2x3_nbar_0.5")
    sl = slice(2, None)
    assert np.all(c0.values[sl] > hot.values[sl])
    assert "guard_population_nbar_0.5" in res.scalars


def test_thermal_ladder_guard_below_threshold_at_default_nbar():
    # the master-equation path alone: no trajectory is sampled
    cfg = ScenarioConfig(scenario="cavity-thermal")
    ladders = {nbar: _thermal_ladder(cfg, nbar) for nbar in cfg.nbar}
    assert {nbar: dim for nbar, (dim, _) in ladders.items()} == {0.0: 4, 0.05: 5, 0.5: 8}
    assert all(0.0 <= guard < 1e-3 for _, guard in ladders.values())


def test_thermal_ladder_past_cap_exits_3(tmp_path, capsys):
    assert main(["run", "cavity-thermal", "--nbar", "1", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "nbar=1" in err and "4.90e-03" in err and "8 levels" in err
    assert not list(tmp_path.iterdir())


def test_thermal_sampled_populations_match_master():
    cfg = ScenarioConfig(scenario="cavity-thermal", nbar=(0.5,), t_max=2.0, grid_points=5,
                         n_samples=500)
    dim, _ = _thermal_ladder(cfg, 0.5)
    model, psi0 = _cavity(cfg, 0.5, dim)

    def populations(rows):  # cavity levels 0, 1, 2 and all above them, of psi or rho rows
        diag = np.abs(rows) ** 2 if rows.ndim == 2 else np.diagonal(rows, axis1=1, axis2=2).real
        levels = diag.reshape(len(rows), 2, dim).sum(axis=1)
        return np.column_stack([levels[:, :3], levels[:, 3:].sum(axis=1)])

    observables = {f"P_{k}": ("probability", lambda s, c, k=k: populations(s)[:, k]) for k in range(4)}
    sampled = _run_curves(cfg, _metadata(), model, psi0, observables)
    master = _run_curves(cfg, _metadata(), model, psi0, observables, mode="master")
    assert master[-1].values.max() > 0.05  # absorption does reach past the code space
    for s, m in zip(sampled, master):
        assert np.all(np.abs(s.values - m.values) <= 4 * s.sem + 1e-12), s.label


def test_deterministic_rerun_identical():
    cfg = ScenarioConfig(
        scenario="qutrit-protection", mode="sampled", t_max=0.5,
        grid_points=5, n_samples=300,
    )
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for ca, cb in zip(a.curves, b.curves):
        assert np.array_equal(ca.values, cb.values)


def _bare(f):
    """f without its ``reads`` declaration, so a sampler groups its rows by (state, count)."""
    return lambda states, counts: f(states, counts)


@pytest.mark.parametrize("scenario, kw", [
    ("singlet-conversion", dict(alpha=0.25, n_samples=2000, t_max=1.0, dt=5e-3, grid_points=3)),
    ("bell-monitoring", dict(n_samples=500, t_max=1.0, grid_points=6)),
    ("qutrit-protection", dict(n_samples=200, t_max=0.5, grid_points=3)),
], ids=["singlet-conversion", "bell-monitoring", "qutrit-protection"])
def test_declared_reads_change_no_bit(monkeypatch, scenario, kw):
    # sampled grid reads take what the observables declare they read: counts
    # only (singlet conversion's jump-free fraction), states only (E_3f,
    # E_3fho, E_3f_tau, and E_3f_eta on the density sampler) or both
    # (bell-monitoring's E_2 with P_NJ); each curve, SEM and scalar equals
    # that of the same functions without the declaration, bit for bit
    assert scenarios._measure(ent.Measure.NEGATIVITY, (3, 3))[1].reads == "states"
    assert scenarios._jumps(0).reads == "counts"
    cfg = ScenarioConfig(scenario=scenario, mode="sampled", **kw)
    declared = run_scenario(cfg)
    measure, jumps = scenarios._measure, scenarios._jumps
    monkeypatch.setattr(scenarios, "_measure", lambda *args: (measure(*args)[0], _bare(measure(*args)[1])))
    monkeypatch.setattr(scenarios, "_jumps", lambda k: _bare(jumps(k)))
    bare = run_scenario(cfg)
    assert [c.label for c in declared.curves] == [c.label for c in bare.curves]
    for a, b in zip(declared.curves, bare.curves):
        assert a.values.tolist() == b.values.tolist(), a.label
        assert (a.sem is None and b.sem is None) or a.sem.tolist() == b.sem.tolist(), a.label
    assert declared.scalars == bare.scalars
