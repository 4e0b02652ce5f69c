"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each criterion's tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from jumpguard import entanglement as ent
from jumpguard.cli import main as cli_main
from jumpguard.linalg import make_layout, normalized, product_basis_state
from jumpguard.models import (
    CascadeSpec,
    DecayChannel,
    OpenSystemModel,
    build_qubit_pair,
    build_qutrit_cascade,
    build_qutrit_pair,
    evolve_master,
)
from jumpguard.scenarios import ScenarioConfig, cavity_oj_state, run_scenario
from jumpguard.trajectories import (
    FeedbackPolicy,
    UnravelingConfig,
    enumerate_trajectories,
    jump_step,
    kraus_defect,
    run_exact_grid,
    run_sampled_grid,
)

LAY2 = make_layout((2, 2))
LAY3 = make_layout((3, 3))


def bell2():
    return normalized(product_basis_state(LAY2, (1, 0)) + product_basis_state(LAY2, (0, 1)))


def code_bell3():
    return normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[AC-{number:02d}] FAIL  {description}")
        raise
    print(f"[AC-{number:02d}] PASS  {description}")


def test_ac01_no_jump_probability():
    with criterion(1, "P_NJ(gamma t = 1) = 1/e within 1e-9, under 1 s"):
        model = build_qubit_pair(1.0)
        start = time.monotonic()
        res = enumerate_trajectories(model, bell2(), UnravelingConfig(dt=1e-3, t_max=1.0))
        elapsed = time.monotonic() - start
        nj = next(r for r in res.records if r.n_jumps == 0)
        assert abs(nj.probability - math.exp(-1.0)) < 1e-9
        assert elapsed < 1.0


def test_ac02_no_jump_state_preservation():
    with criterion(2, "no-jump conditional state fidelity >= 1 - 1e-12 at gt in {0.5,1,5}"):
        model = build_qubit_pair(1.0)
        psi0 = bell2()
        for t in (0.5, 1.0, 5.0):
            res = enumerate_trajectories(model, psi0, UnravelingConfig(dt=1e-3, t_max=t))
            nj = next(r for r in res.records if r.n_jumps == 0)
            assert abs(np.vdot(nj.state, psi0)) ** 2 >= 1.0 - 1e-12


def test_ac03_singlet_conversion():
    with criterion(3, "p_ok = 2 alpha (1e-6 exact, 3 sigma sampled), entropy(t*) = 1 within 1e-8, under 10 s"):
        start = time.monotonic()
        for alpha in (0.1, 0.25, 0.4):
            cfg = ScenarioConfig(
                scenario="singlet-conversion", alpha=alpha, mode="sampled",
                n_samples=100_000, dt=5e-3, t_max=1.0, grid_points=3,
            )
            res = run_scenario(cfg)
            s = res.scalars
            assert abs(s["p_ok"] - 2 * alpha) < 1e-6
            assert abs(s["entropy_at_t_star"] - 1.0) < 1e-8
            sigma = max(s["p_ok_sampled_sigma"], 1e-12)
            assert abs(s["p_ok_sampled"] - 2 * alpha) < 3 * sigma
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"three alpha values took {elapsed:.1f} s (bound 10 s)"


def test_ac04_qutrit_one_jump_mapping():
    with criterion(4, "degenerate jump maps the code Bell state exactly; negativity 1/2 kept"):
        model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
        psi0 = code_bell3()
        out, _ = jump_step(model, psi0, 0, 1e-3)
        target = normalized(
            product_basis_state(LAY3, (0, 2)) + product_basis_state(LAY3, (1, 1))
        )
        assert abs(abs(np.vdot(normalized(out), target)) ** 2 - 1.0) < 1e-12
        for psi in (psi0, target):
            rho = np.outer(psi, psi.conj())
            assert abs(ent.negativity(rho, LAY3) - 0.5) < 1e-12


def test_ac05_full_protection():
    with criterion(5, "degenerate cascade + ideal feedback holds negativity at 1/2 on [0,5]"):
        model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
        psi0 = code_bell3()
        policy = FeedbackPolicy.qutrit_cyclic()
        dt = 1e-3
        tol = 10.0 * dt
        gsteps = list(range(0, 5001, 100))
        obs = {"neg": lambda s, c: ent.negativity_batch_pure(s, LAY3)}
        cfg = UnravelingConfig(dt=dt, t_max=5.0, max_jumps=4)
        curves, engine = run_exact_grid(model, psi0, cfg, policy, gsteps, obs)
        assert engine.truncation_mass < 1e-4
        assert np.max(np.abs(curves["neg"] - 0.5)) < tol

        cfg_s = UnravelingConfig(dt=dt, t_max=5.0, n_samples=10_000, rng_seed=2024)
        sampled = run_sampled_grid(model, psi0, cfg_s, policy, gsteps, obs)
        bound = tol + 3.0 * sampled.sem["neg"]
        assert np.all(np.abs(sampled.mean["neg"] - 0.5) <= bound)


def test_ac06_unraveling_master_consistency():
    with criterion(6, "exact trajectory average reproduces the master equation to 1e-4, under 30 s"):
        start = time.monotonic()
        qubit = build_qubit_pair(1.0)
        deg = build_qutrit_pair(CascadeSpec.degenerate(1.0))
        ho = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
        # ideal feedback: the master equation whose channels are the corrected jumps U_k L_k
        # (Wiseman & Milburn, PRL 70, 548 (1993))
        fb = FeedbackPolicy.qutrit_cyclic()
        fed = OpenSystemModel(LAY3, tuple(
            DecayChannel(slot, fb.unitaries[slot] @ op, rate)
            for slot in (0, 1) for op, rate in build_qutrit_cascade(CascadeSpec.degenerate(1.0))))
        # (trajectory model, initial state, feedback, master-equation model)
        cases = [
            (qubit, bell2(), None, qubit),
            (deg, code_bell3(), None, deg),
            (ho, code_bell3(), None, ho),
            (deg, code_bell3(), fb, fed),
        ]
        for model, psi0, policy, master in cases:
            rho0 = np.outer(psi0, psi0.conj())
            for t in (0.5, 1.0, 2.0):
                res = enumerate_trajectories(model, psi0, UnravelingConfig(dt=4e-3, t_max=t), policy)
                rho = sum(r.probability * np.outer(r.state, r.state.conj()) for r in res.records)
                rho_m = evolve_master(master, rho0, [0.0, t])[-1]
                assert trace_distance(rho, rho_m) < 1e-4
        assert time.monotonic() - start < 30.0


def test_ac07_unmonitored_concurrence_closed_form():
    with criterion(7, "concurrence of the unmonitored pair equals e^{-gamma t} within 1e-6"):
        model = build_qubit_pair(1.0)
        rho0 = np.outer(bell2(), bell2().conj())
        for t in (0.5, 1.0, 2.0):
            rho = evolve_master(model, rho0, [0.0, t])[-1]
            assert abs(ent.concurrence_2q(rho) - math.exp(-t)) < 1e-6


@pytest.fixture(scope="module")
def fig1_scenario():
    cfg = ScenarioConfig(scenario="qutrit-protection", n_samples=4000)
    return run_scenario(cfg)


def test_ac08_protection_curve_ordering(fig1_scenario):
    with criterion(8, "curve stacking E_3f >= E_3 >= E_2 >= E_F with non-ideal variants in between"):
        res = fig1_scenario
        ef = res.curve("E_F_neg").values
        e2 = res.curve("E_2_neg").values
        e3 = res.curve("E_3").values
        e3f = res.curve("E_3f").values
        sl = slice(1, None)  # gamma t in (0, 5]
        assert np.all(e3f[sl] >= e3[sl])
        assert np.all(e3[sl] >= e2[sl])
        assert np.all(e2[sl] >= ef[sl])
        for label in ("E_3f_tau", "E_3f_eta"):
            v = res.curve(label).values
            assert np.all(v[sl] <= e3f[sl])
            assert np.all(v[sl] >= ef[sl])


def test_ac09_cavity_2x3_analytics():
    with criterion(9, "cavity channel: engine matches closed forms; qutrit advantage everywhere"):
        cfg = ScenarioConfig(
            scenario="cavity-2x3", alpha=0.5, t_max=2.0,
            alpha_points=21, surface_time_points=21, grid_points=21,
        )
        res = run_scenario(cfg)
        s = res.scalars
        assert s["max_prob_error_nj"] < 1e-6
        assert s["max_prob_error_oj"] < 1e-6
        assert s["min_fidelity_nj"] >= 1.0 - 1e-8
        assert s["min_fidelity_oj"] >= 1.0 - 1e-8
        assert s["one_jump_classes"] == 1.0

        # jump-time independence, checked against piecewise propagation
        alpha, g, t = 0.5, 1.0, 1.0
        ref = cavity_oj_state(alpha, g, t)
        lay = make_layout((2, 3))
        base = normalized(
            math.sqrt(alpha) * product_basis_state(lay, (1, 1))
            + math.sqrt(1 - alpha) * product_basis_state(lay, (0, 2))
        )
        L = np.kron(np.eye(2), np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]]))
        gen = np.kron(np.ones(2), np.array([0.0, 1.0, 2.0]))
        for tj in (0.1, 0.5, 0.9):
            nb = np.diag(np.exp(-0.5 * g * (t - tj) * gen))
            na = np.diag(np.exp(-0.5 * g * tj * gen))
            psi = normalized(nb @ L @ na @ base)
            assert abs(abs(np.vdot(psi, ref)) ** 2 - 1.0) < 1e-10

        _, _, diff = res.surfaces["surface_2x3_minus_2x2"]
        assert diff.shape == (21, 21)
        assert diff.min() >= -1e-12


def test_ac10_kraus_completeness_scaling():
    with criterion(10, "first-order step operators complete to O(dt^2): log-log slope 2 +- 0.1"):
        model = build_qubit_pair(1.0)
        dts = np.array([1e-2, 1e-3, 1e-4])
        devs = np.array([kraus_defect(model, dt) for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(devs), 1)[0]
        assert abs(slope - 2.0) < 0.1


def test_ac11_determinism_byte_identical(tmp_path):
    with criterion(11, "same seed and config give byte-identical CSV outputs"):
        args = [
            "run", "qutrit-protection", "--mode", "sampled", "--samples", "400",
            "--t-max", "1", "--grid-points", "5", "--dt", "0.005", "--seed", "4242",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(args + ["--out-dir", str(out1)]) == 0
        assert cli_main(args + ["--out-dir", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
