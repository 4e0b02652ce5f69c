import math

import numpy as np
import pytest

from jumpguard import trajectories
from jumpguard.linalg import basis_state, make_layout, normalized, product_basis_state
from jumpguard.models import (
    CascadeSpec,
    DecayChannel,
    OpenSystemModel,
    ThermalSpec,
    build_qubit_pair,
    build_qutrit_cascade,
    build_qutrit_pair,
    build_thermal_oscillator,
    evolve_master,
)
from jumpguard.trajectories import (
    FeedbackPolicy,
    TruncationError,
    UnravelingConfig,
    apply_feedback,
    enumerate_trajectories,
    jump_step,
    kraus_defect,
    no_jump_step,
    run_density_grid,
    run_exact_grid,
    run_sampled_grid,
    sample_density_trajectories,
    sample_trajectories,
)

LAY2 = make_layout((2, 2))
LAY3 = make_layout((3, 3))


def bell2():
    return normalized(product_basis_state(LAY2, (1, 0)) + product_basis_state(LAY2, (0, 1)))


def code_bell3():
    return normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def average_projector(records):
    out = 0.0
    for r in records:
        out = out + r.probability * np.outer(r.state, r.state.conj())
    return out


# -- single-step operations -------------------------------------------------


def test_no_jump_probability_composes_to_exponential():
    model = build_qubit_pair(1.0)
    psi = bell2()
    dt, steps = 1e-2, 100
    total = 1.0
    for _ in range(steps):
        out, p = no_jump_step(model, psi, dt)
        total *= p
        psi = normalized(out)
    assert abs(total - math.exp(-1.0)) < 1e-12
    assert abs(abs(np.vdot(psi, bell2())) ** 2 - 1.0) < 1e-12


def test_no_jump_dark_state():
    model = build_qubit_pair(1.0)
    g = product_basis_state(LAY2, (0, 0))
    out, p = no_jump_step(model, g, 1e-3)
    assert abs(p - 1.0) < 1e-15
    assert np.allclose(out, g)


def test_no_jump_code_subspace_is_decoherence_free():
    # merged cascade: L+L acts as identity on span{|1>,|2>}^x2, so the
    # normalized no-jump state never moves
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    rng = np.random.default_rng(2)
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amp /= np.linalg.norm(amp)
    psi = (
        amp[0] * product_basis_state(LAY3, (1, 1))
        + amp[1] * product_basis_state(LAY3, (1, 2))
        + amp[2] * product_basis_state(LAY3, (2, 1))
        + amp[3] * product_basis_state(LAY3, (2, 2))
    )
    out, p = no_jump_step(model, psi, 1e-3)
    assert abs(abs(np.vdot(normalized(out), psi)) - 1.0) < 1e-12
    assert abs(p - math.exp(-2e-3)) < 1e-12


def test_first_order_no_jump_flag():
    model = build_qubit_pair(1.0)
    psi = bell2()
    out, p = no_jump_step(model, psi, 1e-3, first_order=True)
    expected = (np.eye(4) - 0.5e-3 * model.decay_generator) @ psi
    assert np.allclose(out, expected)


def test_jump_step_degenerate_mapping():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    out, p = jump_step(model, code_bell3(), 0, 1e-3)
    target = normalized(product_basis_state(LAY3, (0, 2)) + product_basis_state(LAY3, (1, 1)))
    assert abs(abs(np.vdot(normalized(out), target)) ** 2 - 1.0) < 1e-12
    assert abs(p - 1e-3) < 1e-15  # <L+L> = 1 on the code state


def test_jump_step_harmonic_oscillator_mapping():
    model = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    out, p = jump_step(model, code_bell3(), 0, 1e-3)
    target = normalized(
        product_basis_state(LAY3, (0, 2)) + math.sqrt(2.0) * product_basis_state(LAY3, (1, 1))
    )
    assert abs(abs(np.vdot(normalized(out), target)) ** 2 - 1.0) < 1e-12


def test_jump_step_on_ground_state_is_null():
    model = build_qubit_pair(1.0)
    out, p = jump_step(model, product_basis_state(LAY2, (0, 0)), 0, 1e-3)
    assert p == 0.0


def test_apply_feedback_restores_code_state():
    policy = FeedbackPolicy.qutrit_cyclic()
    jumped = normalized(product_basis_state(LAY3, (0, 2)) + product_basis_state(LAY3, (1, 1)))
    out = apply_feedback(policy, jumped, 0, LAY3)
    assert abs(abs(np.vdot(out, code_bell3())) ** 2 - 1.0) < 1e-12


def test_apply_feedback_identity_and_norm():
    policy = FeedbackPolicy(unitaries={0: np.eye(3), 1: np.eye(3)})
    psi = code_bell3()
    assert np.allclose(apply_feedback(policy, psi, 1, LAY3), psi)


def test_feedback_cannot_fix_double_decay():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    policy = FeedbackPolicy.qutrit_cyclic()
    once, _ = jump_step(model, code_bell3(), 0, 1e-3)
    twice, _ = jump_step(model, normalized(once), 0, 1e-3)
    repaired = apply_feedback(policy, normalized(twice), 0, LAY3)
    assert abs(np.vdot(repaired, code_bell3())) ** 2 < 0.6


def test_feedback_policy_rejects_non_unitary():
    with pytest.raises(ValueError):
        FeedbackPolicy(unitaries={0: np.array([[1.0, 0.0], [0.0, 0.5]])})
    with pytest.raises(ValueError):
        FeedbackPolicy(unitaries={}, efficiency=1.5)


def test_single_step_helpers_skip_step_operators(monkeypatch):
    # no_jump_step and kraus_defect need no feedback or pair sector
    monkeypatch.setattr(trajectories, "StepOperators", None)
    model = build_qubit_pair(1.0)
    no_jump_step(model, bell2(), 1e-3)
    no_jump_step(model, bell2(), 1e-3, first_order=True)
    assert kraus_defect(model, 1e-3) < 1e-5


def test_kraus_completeness_quadratic_scaling():
    model = build_qubit_pair(1.0)
    dts = np.array([1e-2, 1e-3, 1e-4])
    devs = np.array([kraus_defect(model, dt) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(devs), 1)[0]
    assert abs(slope - 2.0) < 0.1


# -- exact enumeration ------------------------------------------------------


def test_enumerate_zero_rate_single_record():
    model = build_qubit_pair(0.0)
    res = enumerate_trajectories(model, bell2(), UnravelingConfig(dt=1e-2, t_max=1.0))
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.probability == 1.0 and rec.n_jumps == 0
    assert np.allclose(rec.state, bell2())


def test_enumerate_bell_no_jump_record():
    model = build_qubit_pair(1.0)
    res = enumerate_trajectories(model, bell2(), UnravelingConfig(dt=1e-3, t_max=1.0))
    nj = next(r for r in res.records if r.n_jumps == 0)
    assert abs(nj.probability - math.exp(-1.0)) < 1e-9
    assert abs(abs(np.vdot(nj.state, bell2())) ** 2 - 1.0) < 1e-12


def test_enumerate_completeness():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    res = enumerate_trajectories(model, code_bell3(), UnravelingConfig(dt=2e-3, t_max=1.0))
    total = res.total_probability + res.truncation_mass + res.culled_mass
    assert abs(total - 1.0) < 1e-9


def test_enumerate_truncation_error_advises_depth():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=2e-3, t_max=1.0, max_jumps=0)
    with pytest.raises(TruncationError, match="max_jumps"):
        enumerate_trajectories(model, code_bell3(), cfg)


def test_enumerate_rejects_inefficient_policy():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=0.9)
    with pytest.raises(ValueError, match="efficiency"):
        enumerate_trajectories(model, code_bell3(), UnravelingConfig(dt=1e-3, t_max=0.1), policy)


@pytest.mark.parametrize("driver", [
    enumerate_trajectories,
    lambda *args: run_exact_grid(*args, grid_steps=[0], observables={}),
], ids=["enumerate_trajectories", "run_exact_grid"])
def test_exact_drivers_reject_delayed_feedback(driver):
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.005)
    with pytest.raises(ValueError, match="sample_trajectories"):
        driver(model, code_bell3(), UnravelingConfig(dt=1e-3, t_max=0.1), policy)


def test_rate_resolution_guard():
    model = build_qubit_pair(1.0)
    with pytest.raises(ValueError, match="gamma_max"):
        enumerate_trajectories(model, bell2(), UnravelingConfig(dt=0.1, t_max=1.0))


def test_enumerate_class_census():
    # interning must neither split nor over-merge branch classes
    deg = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    res = enumerate_trajectories(deg, code_bell3(), UnravelingConfig(dt=5e-3, t_max=1.0))
    assert len(res.records) == 803
    assert np.bincount([r.n_jumps for r in res.records]).tolist() == [1, 400, 401, 1]
    ho = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, max_jumps=40)
    res = enumerate_trajectories(ho, code_bell3(), cfg, FeedbackPolicy.qutrit_cyclic())
    assert len(res.records) == 67


def test_enumerate_slowly_relaxing_state_keeps_evolving():
    # the no-jump state of sqrt(a)|00> + sqrt(1-a)|11> relaxes towards |00>;
    # late on, one step moves it by less than the branch-key resolution, and
    # it must keep following the closed form rather than freeze
    a, t = 0.1, 20.0
    psi0 = normalized(
        math.sqrt(a) * product_basis_state(LAY2, (0, 0))
        + math.sqrt(1 - a) * product_basis_state(LAY2, (1, 1))
    )
    cfg = UnravelingConfig(dt=5e-3, t_max=t, max_jumps=2)
    nj = next(r for r in enumerate_trajectories(build_qubit_pair(1.0), psi0, cfg).records
              if r.n_jumps == 0)
    y = math.sqrt(1 - a) * math.exp(-t)
    assert abs(abs(nj.state[3]) / (y / math.sqrt(a + y * y)) - 1.0) < 1e-9
    assert abs(nj.probability / (a + y * y) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [None, CascadeSpec.degenerate(1.0), CascadeSpec.harmonic_oscillator(1.0)],
)
def test_unraveling_matches_master_equation(spec):
    if spec is None:
        model, psi0 = build_qubit_pair(1.0), bell2()
    else:
        model, psi0 = build_qutrit_pair(spec), code_bell3()
    for t in (0.5, 1.0, 2.0):
        res = enumerate_trajectories(model, psi0, UnravelingConfig(dt=4e-3, t_max=t))
        rho = average_projector(res.records)
        rho_m = evolve_master(model, np.outer(psi0, psi0.conj()), [0.0, t])[-1]
        assert trace_distance(rho, rho_m) < 1e-4


def test_full_protection_any_code_state():
    """Degenerate cascade plus ideal feedback pins every record to the
    initial state, whatever superposition the code subspace holds."""
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    policy = FeedbackPolicy.qutrit_cyclic()
    rng = np.random.default_rng(4)
    dt = 1e-3
    for _ in range(3):
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amp /= np.linalg.norm(amp)
        psi0 = (
            amp[0] * product_basis_state(LAY3, (1, 1))
            + amp[1] * product_basis_state(LAY3, (1, 2))
            + amp[2] * product_basis_state(LAY3, (2, 1))
            + amp[3] * product_basis_state(LAY3, (2, 2))
        )
        res = enumerate_trajectories(
            model, psi0, UnravelingConfig(dt=dt, t_max=1.0, max_jumps=12), policy
        )
        for rec in res.records:
            fid = abs(np.vdot(rec.state, psi0)) ** 2
            assert fid >= 1.0 - 10.0 * dt


def test_three_party_code_protection():
    ops = build_qutrit_cascade(CascadeSpec.degenerate(1.0))
    lay = make_layout((3, 3, 3))
    channels = tuple(DecayChannel(s, op, r) for s in range(3) for op, r in ops)
    model = OpenSystemModel(layout=lay, channels=channels)
    ghz = normalized(product_basis_state(lay, (1, 1, 1)) + product_basis_state(lay, (2, 2, 2)))
    policy = FeedbackPolicy.qutrit_cyclic(slots=(0, 1, 2))
    dt = 1e-3
    cfg = UnravelingConfig(dt=dt, t_max=1.0, n_samples=200, rng_seed=5)
    res = sample_trajectories(model, ghz, cfg, policy)
    for rec in res.records:
        assert abs(np.vdot(rec.state, ghz)) ** 2 >= 1.0 - 10.0 * dt


# -- Monte Carlo sampling ---------------------------------------------------


def test_sample_zero_rate_is_constant():
    model = build_qubit_pair(0.0)
    res = sample_trajectories(model, bell2(), UnravelingConfig(dt=1e-2, t_max=0.5, n_samples=20))
    for rec in res.records:
        assert np.allclose(rec.state, bell2())
        assert rec.n_jumps == 0


def test_sample_no_jump_fraction_binomial():
    model = build_qubit_pair(1.0)
    n = 20_000
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=n, rng_seed=17)
    res = sample_trajectories(model, bell2(), cfg)
    frac = sum(1 for r in res.records if r.n_jumps == 0) / n
    p = math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 3 * sigma


def test_sample_average_projector_matches_master():
    model = build_qubit_pair(1.0)
    n = 100_000
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=n, rng_seed=23)
    res = sample_trajectories(model, bell2(), cfg)
    states = np.stack([r.state for r in res.records])
    rho = np.einsum("ni,nj->ij", states, states.conj()) / n
    rho_m = evolve_master(model, np.outer(bell2(), bell2().conj()), [0.0, 1.0])[-1]
    assert trace_distance(rho, rho_m) < 5e-3


def test_sample_determinism_bit_identical_events():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=2e-3, t_max=1.0, n_samples=500, rng_seed=99)
    a = sample_trajectories(model, code_bell3(), cfg)
    b = sample_trajectories(model, code_bell3(), cfg)
    assert [r.events for r in a.records] == [r.events for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.state, rb.state)


def test_sample_trajectory_stream_independent_of_batch_size():
    # trajectory i depends only on (seed, i), not on how many others ran
    model = build_qubit_pair(1.0)
    cfg_small = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=10, rng_seed=31)
    cfg_large = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=40, rng_seed=31)
    small = sample_trajectories(model, bell2(), cfg_small)
    large = sample_trajectories(model, bell2(), cfg_large)
    for ra, rb in zip(small.records, large.records[:10]):
        assert ra.events == rb.events


def test_sample_events_independent_of_block_size(monkeypatch):
    # blocks of 7 rows (1 for the density sampler) must reproduce the events
    # of the default block size, for both samplers and with queued feedback
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    cfg = UnravelingConfig(dt=2e-3, t_max=0.5, n_samples=30, rng_seed=41)
    pure_policy = FeedbackPolicy.qutrit_cyclic(delay=0.02)
    dens_policy = FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9)

    def run_both():
        return (
            sample_trajectories(model, psi0, cfg, pure_policy).records,
            sample_density_trajectories(model, rho0, cfg, dens_policy).records,
        )

    default = run_both()
    monkeypatch.setattr(trajectories, "_SAMPLE_CHUNK", 7)
    small = run_both()
    assert sum(r.n_jumps for r in default[0]) > 0
    assert sum(r.n_jumps for r in default[1]) > 0
    for big_recs, small_recs in zip(default, small):
        assert len(big_recs) == len(small_recs) == cfg.n_samples
        for ra, rb in zip(big_recs, small_recs):
            assert ra.events == rb.events
            assert np.allclose(ra.state, rb.state, atol=1e-12)


# -- inefficiency and delay -------------------------------------------------


def _assert_eta_one_density_matches_pure_driver(delay):
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    policy = FeedbackPolicy.qutrit_cyclic(delay=delay, efficiency=1.0)
    cfg = UnravelingConfig(dt=2e-3, t_max=0.5, n_samples=50, rng_seed=13)
    pure = sample_trajectories(model, psi0, cfg, policy)
    dens = sample_density_trajectories(model, np.outer(psi0, psi0.conj()), cfg, policy)
    for rp, rd in zip(pure.records, dens.records):
        assert rp.events == rd.events
        proj = np.outer(rp.state, rp.state.conj())
        assert np.max(np.abs(proj - rd.state)) < 1e-10


def test_eta_one_density_matches_pure_driver():
    _assert_eta_one_density_matches_pure_driver(delay=0.0)


def test_eta_one_density_matches_pure_driver_with_delay():
    # with delay > 0 the queued corrections act on vec(rho) rows
    _assert_eta_one_density_matches_pure_driver(delay=0.02)


def test_inefficient_density_records_are_states():
    # eta < 1 with queued feedback: every record converted from its real
    # Hermitian-basis row is an exactly Hermitian, unit-trace, positive state
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.8)
    cfg = UnravelingConfig(dt=2e-3, t_max=1.0, n_samples=60, rng_seed=17)
    res = sample_density_trajectories(model, np.outer(psi0, psi0.conj()), cfg, policy)
    assert sum(r.n_jumps for r in res.records) > 0
    for rec in res.records:
        rho = rec.state
        assert rho.shape == (9, 9)
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_eta_zero_reduces_to_master_equation():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=0.0)
    cfg = UnravelingConfig(dt=1e-3, t_max=1.0, n_samples=2, rng_seed=1)
    res = sample_density_trajectories(model, np.outer(psi0, psi0.conj()), cfg, policy)
    rho_m = evolve_master(model, np.outer(psi0, psi0.conj()), [0.0, 1.0])[-1]
    for rec in res.records:
        assert rec.n_jumps == 0  # nothing is ever recorded
        assert trace_distance(rec.state, rho_m) < 1e-3


def test_partial_efficiency_curve_sits_between_limits():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    lay = LAY3
    from jumpguard import entanglement as ent

    gsteps = [0, 250, 500]
    cfg = UnravelingConfig(dt=4e-3, t_max=2.0, n_samples=400, rng_seed=21)
    obs = {"neg": lambda r, c: ent.negativity_batch_density(r, lay)}
    mid = run_density_grid(model, rho0, cfg, FeedbackPolicy.qutrit_cyclic(efficiency=0.92), gsteps, obs)
    rho_m = evolve_master(model, rho0, [0.0, 1.0, 2.0])
    for i, t in enumerate((1.0, 2.0)):
        lower = ent.negativity(rho_m[i + 1], lay)
        val = mid.mean["neg"][i + 1]
        assert lower < val < 0.5


def test_delayed_feedback_keeps_states_pure_and_entangled():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.08)
    cfg = UnravelingConfig(dt=2e-3, t_max=2.0, n_samples=300, rng_seed=8)
    from jumpguard import entanglement as ent

    out = run_sampled_grid(model, psi0, cfg, policy, [1000], {
        "neg": lambda s, c: ent.negativity_batch_pure(s, LAY3),
    })
    # protection with a small delay is still close to maximal at gamma t = 2
    assert 0.3 < out.mean["neg"][0] <= 0.5 + 1e-12


def test_long_delay_queue_grows_without_changing_records():
    # a thermal ladder jumps up to 18 times per trajectory within gamma t = 2,
    # so a 0.5 delay keeps many corrections pending at once; identity
    # corrections must leave every record equal to the run without feedback
    model = build_thermal_oscillator(1.0, ThermalSpec(1.0), 4)
    psi0 = basis_state(4, 2)
    cfg = UnravelingConfig(dt=2.5e-3, t_max=2.0, n_samples=200, rng_seed=7)
    policy = FeedbackPolicy(unitaries={0: np.eye(4)}, delay=0.5)
    plain = sample_trajectories(model, psi0, cfg).records
    queued = sample_trajectories(model, psi0, cfg, policy).records
    assert max(r.n_jumps for r in plain) > 8
    for ra, rb in zip(plain, queued, strict=True):
        assert ra.events == rb.events
        assert np.array_equal(ra.state, rb.state)


@pytest.mark.parametrize("driver, x0, match", [
    (enumerate_trajectories, np.ones(4) / 2.0, r"shape \(9,\), got \(4,\)"),
    (sample_trajectories, np.ones(4) / 2.0, r"shape \(9,\), got \(4,\)"),
    (sample_trajectories, np.ones(9), "unit norm"),
    (sample_density_trajectories, np.eye(4) / 4.0, r"shape \(9, 9\), got \(4, 4\)"),
    (sample_density_trajectories, np.diag([1.5, -0.5] + [0.0] * 7), "positive semidefinite"),
    (sample_density_trajectories, np.eye(9) / 9.0 + np.eye(9, k=1) / 9.0, "Hermitian"),
    (sample_density_trajectories, np.eye(9) / 8.0, "unit trace"),
])
def test_initial_state_checked_up_front(driver, x0, match):
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=1e-3, t_max=0.01, n_samples=4)
    with pytest.raises(ValueError, match=match):
        driver(model, x0, cfg)


@pytest.mark.parametrize("driver", [
    enumerate_trajectories,
    sample_trajectories,
    lambda model, psi, cfg: sample_density_trajectories(model, np.outer(psi, psi.conj()), cfg),
    lambda model, psi, cfg: no_jump_step(model, psi, cfg.dt),
], ids=["enumerate_trajectories", "sample_trajectories", "sample_density_trajectories",
        "no_jump_step"])
def test_trajectory_drivers_reject_model_hamiltonian(driver):
    # the drivers unravel the decay generator alone, so a Hamiltonian would
    # be dropped silently; only the master equation includes it
    base = build_qubit_pair(1.0)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    model = OpenSystemModel(layout=base.layout, channels=base.channels,
                            hamiltonian=np.kron(sx, np.eye(2)))
    cfg = UnravelingConfig(dt=1e-3, t_max=0.01, n_samples=4)
    with pytest.raises(ValueError, match="Hamiltonian"):
        driver(model, bell2(), cfg)


def test_pure_sampler_rejects_inefficiency():
    model = build_qubit_pair(1.0)
    policy = FeedbackPolicy(unitaries={0: np.eye(2), 1: np.eye(2)}, efficiency=0.5)
    with pytest.raises(ValueError, match="efficiency"):
        sample_trajectories(model, bell2(), UnravelingConfig(dt=1e-3, t_max=0.1), policy)


@pytest.mark.parametrize("driver, x0", [
    (run_exact_grid, bell2()),
    (run_sampled_grid, bell2()),
    (run_density_grid, np.outer(bell2(), bell2().conj())),
], ids=["run_exact_grid", "run_sampled_grid", "run_density_grid"])
@pytest.mark.parametrize("grid", [[0, 5, 50], [-1, 5]])
def test_grid_steps_checked_against_step_count(driver, x0, grid):
    # 10 steps: a grid step past 10 (or below 0) is never reached
    model = build_qubit_pair(1.0)
    cfg = UnravelingConfig(dt=1e-2, t_max=0.1, n_samples=8)
    one = {"one": lambda states, counts: np.ones(len(states))}
    with pytest.raises(ValueError, match="grid steps out of range"):
        driver(model, x0, cfg, None, grid, one)
    out = driver(model, x0, cfg, None, [0, 5, 10], one)
    mean = out[0] if isinstance(out, tuple) else out.mean
    assert np.allclose(mean["one"], 1.0, atol=1e-12)
