"""The samplers against the master equation on seeded random models of the layouts
(2, 3), (2, 2) and (3, 3).

Each model has one or two random complex jump operators per slot, of unit
spectral norm, at the rates 0.5 and 2 in turn, a random pure initial state,
random local correction unitaries and three random Hermitian D x D observables O,
D the layout's total dimension.
The sampled <O> must match ``evolve_master`` within 4 SEM plus the samplers'
first-order allowance C_DT * dt. With feedback the reference model has the
channels U_k L_k at eta gamma_k plus L_k at (1 - eta) gamma_k. A delay of a
few dt has no master-equation reference; there the pure sampler must repeat
the density sampler at eta = 1, which shares its law, record for record.
"""

import numpy as np
import pytest

from jumpguard.linalg import make_layout, normalized
from jumpguard.models import DecayChannel, OpenSystemModel, evolve_master
from jumpguard.trajectories import (
    FeedbackPolicy,
    UnravelingConfig,
    run_density_grid,
    run_sampled_grid,
    sample_density_trajectories,
    sample_trajectories,
)

RATES = (0.5, 2.0)
DT, T_MAX, N_SAMPLES = 5e-3, 1.0, 4000
GRID = [0, 100, 200]
# the largest |<O>_sampled - <O>_master| / dt over both seeds, all three runs and
# observables, at t = 0.5 and 1, from 100,000 samples at dt 5e-3 and 2.5e-3, was 1.72
# on (2, 3); at dt 5e-3 it was 1.36 on (2, 2) and (3, 3)
C_DT = 2.0
# (layout, seed) pairs; the (2, 3) cases keep their bare seed ids
CASES = [pytest.param(make_layout(dims), seed, id=str(seed) if dims == (2, 3) else f"{dims[0]}x{dims[1]}-{seed}")
         for dims in ((2, 3), (2, 2), (3, 3)) for seed in (1, 2)]


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unitary(rng, d):
    q, r = np.linalg.qr(_complex_normal(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_case(layout, seed):
    """(jump operators as (slot, L, rate), psi0, correction unitaries by slot, observables)."""
    rng = np.random.default_rng(seed)
    dims, total = layout.subsystem_dims, layout.total_dim
    ops = [(slot, L / np.linalg.norm(L, 2)) for slot, d in enumerate(dims)
           for L in [_complex_normal(rng, (d, d)) for _ in range(rng.integers(1, 3))]]
    channels = [(slot, L, RATES[i % 2]) for i, (slot, L) in enumerate(ops)]
    psi0 = normalized(_complex_normal(rng, total))
    unitaries = {slot: _unitary(rng, d) for slot, d in enumerate(dims)}
    observables = [(A + A.conj().T) / 2 for A in (_complex_normal(rng, (total, total)) for _ in range(3))]
    return channels, psi0, unitaries, observables


def reference_model(layout, channels, unitaries=None, eta=1.0):
    """L_k at gamma_k; with ``unitaries``, U_k L_k at eta gamma_k and L_k at (1 - eta) gamma_k."""
    if unitaries is None:
        return OpenSystemModel(layout, tuple(DecayChannel(*c) for c in channels))
    fed = [DecayChannel(slot, unitaries[slot] @ L, eta * rate) for slot, L, rate in channels]
    lost = [DecayChannel(slot, L, (1.0 - eta) * rate) for slot, L, rate in channels if eta < 1.0]
    return OpenSystemModel(layout, tuple(fed + lost))


def _expectation(O, density):
    """<O> of each state vector row, or tr(O rho) of each density matrix row."""
    if density:
        return lambda rhos, counts: np.einsum("ij,nji->n", O, rhos).real
    return lambda states, counts: np.einsum("ni,ij,nj->n", states.conj(), O, states).real


@pytest.mark.parametrize("layout, seed", CASES)
@pytest.mark.parametrize("feedback, eta, density", [
    (False, 1.0, False),
    (True, 1.0, False),
    (True, 0.8, True),
], ids=["pure-no-feedback", "pure-feedback", "density-feedback-eta-0.8"])
def test_sampler_matches_master_equation_on_random_model(layout, seed, feedback, eta, density):
    channels, psi0, unitaries, observables = random_case(layout, seed)
    model = reference_model(layout, channels)
    reference = reference_model(layout, channels, unitaries, eta) if feedback else model
    policy = FeedbackPolicy(unitaries, efficiency=eta) if feedback else None
    rho0 = np.outer(psi0, psi0.conj())
    config = UnravelingConfig(dt=DT, t_max=T_MAX, n_samples=N_SAMPLES, rng_seed=seed)
    fns = {i: _expectation(O, density) for i, O in enumerate(observables)}
    driver, x0 = (run_density_grid, rho0) if density else (run_sampled_grid, psi0)
    out = driver(model, x0, config, policy, GRID, fns)
    rhos = evolve_master(reference, rho0, [g * DT for g in GRID])
    for i, O in enumerate(observables):
        expected = np.array([np.trace(O @ rho).real for rho in rhos])
        error = np.abs(out.mean[i] - expected)
        assert np.all(error <= 4 * out.sem[i] + C_DT * DT), (i, error, out.sem[i])


@pytest.mark.parametrize("layout, seed", CASES)
def test_delayed_feedback_pure_and_density_samplers_agree_on_random_model(layout, seed):
    # corrections land 3 dt after their jump, so jumps inside the window queue theirs
    channels, psi0, unitaries, _ = random_case(layout, seed)
    model = reference_model(layout, channels)
    policy = FeedbackPolicy(unitaries, delay=3 * DT)
    # 400 records put a jump inside an earlier jump's delay on every layout and seed
    config = UnravelingConfig(dt=DT, t_max=T_MAX, n_samples=400, rng_seed=seed)
    pure = sample_trajectories(model, psi0, config, policy).records
    density = sample_density_trajectories(model, np.outer(psi0, psi0.conj()), config, policy).records
    gaps = [b.time - a.time for r in pure for a, b in zip(r.events, r.events[1:])]
    assert min(gaps) < 3 * DT  # some jump falls inside an earlier jump's delay
    assert len(pure) == len(density) == config.n_samples
    for rp, rd in zip(pure, density):
        assert rp.events == rd.events
        assert np.max(np.abs(np.outer(rp.state, rp.state.conj()) - rd.state)) < 1e-10
