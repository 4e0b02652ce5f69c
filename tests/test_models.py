import math

import numpy as np
import pytest

from jumpguard.linalg import make_layout, normalized, product_basis_state, rk4_step
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
    lindblad_rhs,
    lowering_operator,
)
from jumpguard.scenarios import ScenarioConfig, _cavity, _grid_steps, _two_term, _ucfg

LAY2 = make_layout((2, 2))
LAY3 = make_layout((3, 3))


def bell_2q():
    return normalized(product_basis_state(LAY2, (1, 0)) + product_basis_state(LAY2, (0, 1)))


def bell_rho_closed_form(t, gamma=1.0):
    """e^{-gt} |Psi><Psi| + (1 - e^{-gt}) |00><00| for the monitored Bell pair."""
    psi = bell_2q()
    g00 = product_basis_state(LAY2, (0, 0))
    q = math.exp(-gamma * t)
    return q * np.outer(psi, psi.conj()) + (1 - q) * np.outer(g00, g00.conj())


def test_zero_rate_flow_vanishes():
    model = build_qubit_pair(0.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert np.max(np.abs(lindblad_rhs(model, rho))) == 0.0


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        build_qubit_pair(-1.0)


def test_closed_form_satisfies_generator():
    # substitute rho(t) into the generator: d/dt rho = -q P_psi + q P_00
    model = build_qubit_pair(1.0)
    psi = bell_2q()
    g00 = product_basis_state(LAY2, (0, 0))
    for t in (0.0, 0.3, 1.7):
        q = math.exp(-t)
        expected = -q * np.outer(psi, psi.conj()) + q * np.outer(g00, g00.conj())
        got = lindblad_rhs(model, bell_rho_closed_form(t))
        assert np.max(np.abs(got - expected)) < 1e-12


def test_master_evolution_matches_closed_form():
    model = build_qubit_pair(1.0)
    rho0 = bell_rho_closed_form(0.0)
    grid = [0.0, 0.5, 1.0, 2.0]
    out = evolve_master(model, rho0, grid)
    for t, rho in zip(grid, out):
        assert np.max(np.abs(rho - bell_rho_closed_form(t))) < 1e-9


def test_excitation_expectation_decays():
    model = build_qubit_pair(1.0)
    n_op = sum(
        L.conj().T @ L for L in model.embedded_ops
    )
    out = evolve_master(model, bell_rho_closed_form(0.0), [0.0, 0.7, 1.3])
    for t, rho in zip((0.0, 0.7, 1.3), out):
        assert abs(np.trace(n_op @ rho).real - math.exp(-t)) < 1e-9


def test_evolve_master_identity_cases():
    model = build_qubit_pair(1.0)
    rho0 = bell_rho_closed_form(0.0)
    assert np.array_equal(evolve_master(model, rho0, [0.0])[0], rho0)
    frozen = build_qubit_pair(0.0)
    out = evolve_master(frozen, rho0, [0.0, 2.0])
    assert np.max(np.abs(out[-1] - rho0)) < 1e-12


def test_evolve_master_builds_one_propagator_per_span_length(monkeypatch):
    # the 50 spans of the default 51-point grid are equal to rounding but
    # not bit for bit; they share one propagator
    cfg = ScenarioConfig("bell-monitoring")
    ucfg = _ucfg(cfg)
    times = _grid_steps(ucfg.n_steps, cfg.grid_points) * ucfg.dt
    assert len(set(np.diff(times).tolist())) > 1
    builds = []
    monkeypatch.setattr("jumpguard.models.rk4_step", lambda *args: builds.append(args) or rk4_step(*args))
    out = evolve_master(build_qubit_pair(1.0), bell_rho_closed_form(0.0), times)
    assert len(builds) == 1
    assert np.max(np.abs(out[-1] - bell_rho_closed_form(times[-1]))) < 1e-9


def test_evolve_master_grid_validation():
    model = build_qubit_pair(1.0)
    with pytest.raises(ValueError):
        evolve_master(model, bell_rho_closed_form(0.0), [0.0, 1.0, 0.5])


def test_trace_positivity_hermiticity_over_long_range():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    grid = list(np.linspace(0.0, 5.0, 11))
    for rho in evolve_master(model, np.outer(psi, psi.conj()), grid):
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-8


def test_degenerate_cascade_operator_actions():
    (op, rate), = build_qutrit_cascade(CascadeSpec.degenerate(2.0))
    assert rate == 2.0
    assert np.allclose(op @ [0, 0, 1], [0, 1, 0])  # |2> -> |1>
    assert np.allclose(op @ [0, 1, 0], [1, 0, 0])  # |1> -> |0>, same weight
    assert np.allclose(op @ [1, 0, 0], [0, 0, 0])  # ground is dark


def test_harmonic_oscillator_cascade_weights():
    (op, rate), = build_qutrit_cascade(CascadeSpec.harmonic_oscillator(1.0))
    assert rate == 1.0
    assert np.allclose(op @ [0, 0, 1], [0, math.sqrt(2), 0])
    assert np.allclose(op @ [0, 1, 0], [1, 0, 0])


def test_cascade_spec_validation():
    with pytest.raises(ValueError):
        CascadeSpec.custom(-1.0, 1.0)


@pytest.mark.parametrize("gamma", [0.7, 1.0, 3.0])
def test_merged_cascades_are_the_closed_form_operators(gamma):
    # the degenerate and oscillator cascades are the merged operator at rate
    # ratios 1 and 2, and must equal their closed forms bit for bit
    ket = lambda i, j: np.outer(np.eye(3, dtype=complex)[:, i], np.eye(3, dtype=complex)[j, :])
    (op, rate), = build_qutrit_cascade(CascadeSpec.degenerate(gamma))
    assert np.array_equal(op, ket(1, 2) + ket(0, 1)) and rate == gamma
    (op, rate), = build_qutrit_cascade(CascadeSpec.harmonic_oscillator(gamma))
    assert np.array_equal(op, lowering_operator(3)) and rate == gamma


def test_merged_cascade_with_stable_middle_level_is_the_upper_transition():
    # gamma10 = 0: the merged operator is |1><2| at gamma21, and the pair's generator is the
    # distinguishable cascade's, whose |0><1| channel has rate 0
    ket = lambda i, j: np.outer(np.eye(3, dtype=complex)[:, i], np.eye(3, dtype=complex)[j, :])
    (op, rate), = build_qutrit_cascade(CascadeSpec(1.5, 0.0))
    assert np.array_equal(op, ket(1, 2)) and rate == 1.5
    merged = build_qutrit_pair(CascadeSpec(1.5, 0.0))
    split = build_qutrit_pair(CascadeSpec.custom(1.5, 0.0))
    assert np.array_equal(merged.decay_generator, split.decay_generator)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_cavity_model_equals_oscillator_cascade_on_slot_1(alpha):
    # the cold 3-level ladder builds the 2x3 cavity exactly as the oscillator
    # cascade on the cavity slot does
    cfg = ScenarioConfig("cavity-2x3", gamma=0.7, alpha=alpha, t_max=0.5, grid_points=3)
    model, psi0 = _cavity(cfg)
    (op, rate), = build_qutrit_cascade(CascadeSpec.harmonic_oscillator(0.7))
    layout = make_layout((2, 3))
    reference = OpenSystemModel(layout=layout, channels=(DecayChannel(1, op, rate),))
    ref_psi0 = _two_term(layout, math.sqrt(alpha), (1, 1), math.sqrt(1.0 - alpha), (0, 2))
    assert model.layout == reference.layout
    assert [(ch.slot, ch.rate) for ch in model.channels] == [(1, 0.7)]
    assert np.array_equal(model.channels[0].jump_operator, op)
    assert np.array_equal(model.embedded_ops[0], reference.embedded_ops[0])
    assert np.array_equal(model.decay_generator, reference.decay_generator)
    assert np.array_equal(psi0, ref_psi0)


def test_distinguishable_cascade_has_two_channels():
    ops = build_qutrit_cascade(CascadeSpec.custom(1.0, 1.0, distinguishable=True))
    assert len(ops) == 2


def test_merged_and_distinguishable_generators_differ():
    """Spectral indistinguishability changes the generator: on a state with
    |2>-|1> coherence the merged single operator produces cross terms the
    two-channel model cannot."""
    merged = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    split = build_qutrit_pair(CascadeSpec.custom(1.0, 1.0, distinguishable=True))
    psi = normalized(product_basis_state(LAY3, (1, 0)) + product_basis_state(LAY3, (2, 0)))
    rho = np.outer(psi, psi.conj())
    diff = np.max(np.abs(lindblad_rhs(merged, rho) - lindblad_rhs(split, rho)))
    assert diff > 0.1


def test_lindblad_rhs_dark_state_and_tracelessness():
    model = build_qubit_pair(1.0)
    g00 = product_basis_state(LAY2, (0, 0))
    assert np.max(np.abs(lindblad_rhs(model, np.outer(g00, g00.conj())))) < 1e-15
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(lindblad_rhs(model, rho))) < 1e-12


@pytest.mark.parametrize("model", [
    build_thermal_oscillator(0.7, ThermalSpec(0.3), 4),
    build_qutrit_pair(CascadeSpec.custom(1.3, 0.6, distinguishable=True)),
], ids=["thermal-ladder", "distinguishable-cascade"])
def test_lindblad_rhs_matches_dissipator_sum(model):
    # oracle: sum_k gamma_k (L rho L+ - 1/2 {L+ L, rho}), channel by channel
    rng = np.random.default_rng(11)
    d = model.dim
    for _ in range(3):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        expected = np.zeros((d, d), dtype=np.complex128)
        for ch, L in zip(model.channels, model.embedded_ops):
            LdL = L.conj().T @ L
            expected += ch.rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
        assert np.max(np.abs(lindblad_rhs(model, rho) - expected)) < 1e-13


def test_bell_population_derivative():
    model = build_qubit_pair(1.0)
    psi = bell_2q()
    drho = lindblad_rhs(model, np.outer(psi, psi.conj()))
    assert abs(np.vdot(psi, drho @ psi).real + 1.0) < 1e-12


def test_thermal_zero_temperature_reduces_to_damping():
    cold = build_thermal_oscillator(1.0, ThermalSpec(0.0), 3)
    assert len(cold.channels) == 1
    (op, rate), = build_qutrit_cascade(CascadeSpec.harmonic_oscillator(1.0))
    assert np.array_equal(cold.channels[0].jump_operator, op)
    assert cold.channels[0].rate == rate


def test_thermal_steady_state_ratios():
    nbar = 0.3
    model = build_thermal_oscillator(1.0, ThermalSpec(nbar), 3)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    steady = evolve_master(model, rho0, [0.0, 40.0])[-1]
    pops = np.diag(steady).real
    r = nbar / (nbar + 1.0)
    assert abs(pops[1] / pops[0] - r) < 1e-6
    assert abs(pops[2] / pops[1] - r) < 1e-6


def test_thermal_mean_occupation_grows_with_nbar():
    n_op = np.diag(np.arange(3.0))
    means = []
    for nbar in (0.1, 0.5, 1.0):
        model = build_thermal_oscillator(1.0, ThermalSpec(nbar), 3)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        steady = evolve_master(model, rho0, [0.0, 40.0])[-1]
        means.append(np.trace(n_op @ steady).real)
    assert means[0] < means[1] < means[2]


def test_thermal_trace_preservation():
    model = build_thermal_oscillator(1.0, ThermalSpec(0.5), 4)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    for rho in evolve_master(model, rho0, [0.0, 0.5, 2.0]):
        assert abs(np.trace(rho).real - 1.0) < 1e-10


def test_thermal_validation():
    with pytest.raises(ValueError):
        ThermalSpec(-0.1)
    with pytest.raises(ValueError):
        build_thermal_oscillator(1.0, ThermalSpec(0.1), 1)


def test_model_rejects_bad_channel_dimensions():
    with pytest.raises(ValueError):
        OpenSystemModel(
            layout=make_layout((2, 2)),
            channels=(DecayChannel(0, np.zeros((3, 3)), 1.0),),
        )


def test_hamiltonian_term_enters_generator():
    h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    base = build_qubit_pair(1.0)
    model = OpenSystemModel(layout=base.layout, channels=base.channels, hamiltonian=h)
    psi = bell_2q()
    rho = np.outer(psi, psi.conj())
    diff = lindblad_rhs(model, rho) - lindblad_rhs(base, rho)
    assert np.max(np.abs(diff - (-1j) * (h @ rho - rho @ h))) < 1e-12


@pytest.mark.parametrize("derived", ["embedded_ops", "decay_generator"])
def test_derived_fields_are_not_settable(derived):
    base = build_qubit_pair(1.0)
    with pytest.raises(TypeError):
        OpenSystemModel(layout=base.layout, channels=base.channels, **{derived: getattr(base, derived)})
