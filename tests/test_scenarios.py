import math

import numpy as np
import pytest

from jumpguard import entanglement as ent
from jumpguard import trajectories
from jumpguard.linalg import make_layout, normalized, product_basis_state
from jumpguard.models import build_qubit_pair, evolve_master
from jumpguard.cli import main
from jumpguard.scenarios import (
    ScenarioConfig,
    ScenarioError,
    _cavity,
    _metadata,
    _run_curves,
    _thermal_ladder,
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


def test_singlet_conversion_sampled_scalar():
    cfg = ScenarioConfig(
        scenario="singlet-conversion", alpha=0.25, mode="sampled",
        n_samples=20000, t_max=1.0, dt=5e-3,
    )
    res = run_scenario(cfg)
    s = res.scalars
    assert abs(s["p_ok_sampled"] - 0.5) < 3 * s["p_ok_sampled_sigma"]


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


def test_cavity_advantage_surface(cavity_result):
    alphas, tgrid, diff = cavity_result.surfaces["surface_2x3_minus_2x2"]
    assert diff.shape == (101, 201)
    assert diff.min() >= -1e-12


def test_checkpoints_read_engine_classes_not_records(monkeypatch):
    # singlet conversion's t* run and cavity-2x3's check-time runs read the exact engine's final
    # classes, with the scalars that its records gave
    def no_records(self):
        raise AssertionError("a preset read the records of an exact run")

    monkeypatch.setattr(trajectories._ExactEngine, "records", no_records)
    singlet = run_scenario(ScenarioConfig(scenario="singlet-conversion")).scalars
    assert singlet == pytest.approx({
        "t_star": 0.5493061443340549, "p_ok_analytic": 0.5, "p_ok": 0.5000000000000115,
        "entropy_at_t_star": 1.0}, rel=1e-9, abs=1e-12)
    cavity = run_scenario(ScenarioConfig(scenario="cavity-2x3", t_max=0.5, grid_points=3)).scalars
    assert cavity == pytest.approx({
        "alpha": 0.5, "min_fidelity_nj": 1.0, "min_fidelity_oj": 0.9999999999999998,
        "max_prob_error_nj": 1.2434497875801753e-14, "max_prob_error_oj": 1.3362820311391133e-07,
        "one_jump_classes": 1.0}, rel=1e-9, abs=1e-12)


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
