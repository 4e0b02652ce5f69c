"""The abstract's protection claim for every code state, not one.

Each qutrit encodes its share in the code space span{|1>, |2>}. On it the
degenerate cascade's corrected jump U L is the identity and its decay
generator G is gamma times the identity, so neither a jump nor the no-jump
evolution moves a code state: monitoring plus the cyclic feedback keeps any
pure or mixed code state of the pair, entangled or not, for all time. The
harmonic-oscillator cascade breaks both identities, which is why its curve
E_3fho decays.
"""

import numpy as np
import pytest

from jumpguard.linalg import make_layout, normalized, product_basis_state
from jumpguard.models import CascadeSpec, build_qutrit_cascade, build_qutrit_pair
from jumpguard.trajectories import (
    FeedbackPolicy,
    UnravelingConfig,
    run_density_grid,
    run_exact_grid,
    run_sampled_grid,
)

LAY3 = make_layout((3, 3))
CODE = np.array([product_basis_state(LAY3, (a, b)) for a in (1, 2) for b in (1, 2)])  # (4, 9) rows
P1 = np.diag([0.0, 1.0, 1.0])  # one qutrit's code-space projector
FEEDBACK = FeedbackPolicy.qutrit_cyclic()
CFG = UnravelingConfig(dt=5e-3, t_max=5.0, n_samples=200, rng_seed=19)
GRID = range(0, CFG.n_steps + 1, 50)


def random_pure(rng):
    """A random complex code state of the pair, as a 9-vector."""
    return normalized((rng.normal(size=4) + 1j * rng.normal(size=4)) @ CODE)


def random_mixed(rng):
    """A random full-rank code density matrix of the pair: its weights and 9-vector eigenstates."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p, v = np.linalg.eigh(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    return p, v.T @ CODE


def fidelity(psi):
    return lambda s, c: np.abs(s @ psi.conj()) ** 2


def recording(worst, deviation):
    """An observable that appends the largest deviation(states) of each read to ``worst``."""
    def f(s, c):
        worst.append(deviation(s).max())
        return np.zeros(len(s))
    return {"deviation": f}


@pytest.mark.parametrize("spec, holds", [(CascadeSpec.degenerate, True),
                                         (CascadeSpec.harmonic_oscillator, False)])
def test_code_space_operator_identities(spec, holds):
    # U L P = P and G P = gamma P on each qutrit; the pair's G is then 2 gamma on the code space
    gamma = 0.7
    (L, rate), = build_qutrit_cascade(spec(gamma))
    U = FEEDBACK.unitaries[0]
    assert np.allclose(U @ L @ P1, P1, atol=1e-15) is holds
    assert np.allclose(rate * L.conj().T @ L @ P1, gamma * P1, atol=1e-15) is holds
    G = build_qutrit_pair(spec(gamma)).decay_generator
    assert np.allclose(G @ CODE.T, 2 * gamma * CODE.T, atol=1e-15) is holds


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_exact_engine_keeps_every_pure_and_mixed_code_state(seed):
    # one interned state, so one class at every step, with fidelity 1 to gamma t = 5; a mixed
    # state is the mixture of its eigenstates, each kept as one class, and its ensemble state
    # equals it entry by entry
    rng = np.random.default_rng(seed)
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi = random_pure(rng)
    curves, engine = run_exact_grid(model, psi, CFG, FEEDBACK, GRID, {"F": fidelity(psi)})
    assert engine.size == 1 and engine.ids.size == 1
    assert curves["F"].min() >= 1.0 - 1e-12
    p, states = random_mixed(rng)
    rho0 = np.einsum("i,ij,ik->jk", p, states, states.conj())
    rho = 0.0
    for weight, state in zip(p, states):
        _, engine = run_exact_grid(model, state, CFG, FEEDBACK, [], {})
        assert engine.size == 1 and engine.truncation_mass == engine.culled_mass == 0.0
        i, = engine.ids
        rho = rho + weight * engine.W[i] * np.outer(engine.table_states[i], engine.table_states[i].conj())
    assert np.abs(rho - rho0).max() <= 1e-12


@pytest.mark.parametrize("seed", [5, 6])
def test_samplers_leave_every_code_state_unchanged(seed):
    # every distinct row a grid read evaluates, so every row, equals its input: pure rows up to
    # a phase, density rows at eta = 1 entry by entry
    rng = np.random.default_rng(seed)
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi = random_pure(rng)
    worst = []
    run_sampled_grid(model, psi, CFG, FEEDBACK, GRID,
                     recording(worst, lambda s: 1.0 - fidelity(psi)(s, None)))
    assert len(worst) == len(GRID) and max(worst) <= 1e-12
    p, states = random_mixed(rng)
    rho0 = np.einsum("i,ij,ik->jk", p, states, states.conj())
    worst = []
    run_density_grid(model, rho0, CFG, FEEDBACK, GRID,
                     recording(worst, lambda s: np.abs(s - rho0).max(axis=(1, 2))))
    assert len(worst) == len(GRID) and max(worst) <= 1e-12


def test_oscillator_cascade_loses_the_code_state():
    # the same feedback on the oscillator cascade spreads the code Bell state over many classes
    model = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, max_jumps=40)
    curves, engine = run_exact_grid(model, psi, cfg, FEEDBACK, [0, cfg.n_steps], {"F": fidelity(psi)})
    assert engine.ids.size > 10
    assert 0.6 < curves["F"][-1] < 0.8
