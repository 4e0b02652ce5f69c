import math
import tracemalloc

import numpy as np
import pytest

from jumpguard import trajectories
from jumpguard.entanglement import Measure, entropy_batch_pure, measure_rows, negativity_batch_pure
from jumpguard.linalg import (basis_state, hermitian_basis, make_layout, normalized, product_basis_state,
                              real_superoperator)
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
    lowering_operator,
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


def test_mass_fraction_matches_expm1_and_series():
    assert trajectories._mass_fraction(np.zeros(1))[0] == 1.0
    for u in (1e-300, 1e-12, 1e-8, 5e-3, 1.0):
        value = trajectories._mass_fraction(np.array([u]))[0]
        assert abs(value - -math.expm1(-u) / u) <= 1e-15 * value
        if u < 1e-6:
            assert abs(value - (1.0 - u / 2.0 + u * u / 6.0)) <= 1e-15 * value


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
    total = sum(r.probability for r in res.records) + res.truncation_mass + res.culled_mass
    assert abs(total - 1.0) < 1e-9


def test_enumerate_truncation_error_advises_depth():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=2e-3, t_max=1.0, max_jumps=0)
    with pytest.raises(TruncationError, match="max_jumps"):
        enumerate_trajectories(model, code_bell3(), cfg)


def test_enumerate_budget_beyond_reach_changes_nothing():
    # a run takes at most two jumps a step, so any larger budget is the same
    model = build_qubit_pair(1.0)
    runs = [enumerate_trajectories(model, bell2(), UnravelingConfig(dt=1e-2, t_max=0.1, max_jumps=j))
            for j in (20, 10**12)]
    assert [(r.events, r.probability) for r in runs[0].records] == \
        [(r.events, r.probability) for r in runs[1].records]


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


def assert_class_census():
    deg = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    res = enumerate_trajectories(deg, code_bell3(), UnravelingConfig(dt=5e-3, t_max=1.0))
    assert len(res.records) == 803
    assert np.bincount([r.n_jumps for r in res.records]).tolist() == [1, 400, 401, 1]
    ho = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, max_jumps=40)
    res = enumerate_trajectories(ho, code_bell3(), cfg, FeedbackPolicy.qutrit_cyclic())
    assert len(res.records) == 67


def test_enumerate_class_census():
    # interning must neither split nor over-merge branch classes
    assert_class_census()


def relaxing_state(a=0.1):
    """sqrt(a)|00> + sqrt(1-a)|11>, whose no-jump state relaxes towards |00>."""
    return normalized(
        math.sqrt(a) * product_basis_state(LAY2, (0, 0))
        + math.sqrt(1 - a) * product_basis_state(LAY2, (1, 1))
    )


def assert_relaxing_state_keeps_evolving():
    a, t = 0.1, 20.0
    cfg = UnravelingConfig(dt=5e-3, t_max=t, max_jumps=2)
    nj = next(r for r in enumerate_trajectories(build_qubit_pair(1.0), relaxing_state(a), cfg).records
              if r.n_jumps == 0)
    y = math.sqrt(1 - a) * math.exp(-t)
    assert abs(abs(nj.state[3]) / (y / math.sqrt(a + y * y)) - 1.0) < 1e-9
    assert abs(nj.probability / (a + y * y) - 1.0) < 1e-12
    return nj


def test_enumerate_slowly_relaxing_state_keeps_evolving():
    # the no-jump state of sqrt(a)|00> + sqrt(1-a)|11> relaxes towards |00>;
    # late on, one step moves it by less than the branch-key resolution, and
    # it must keep following the closed form rather than freeze
    assert_relaxing_state_keeps_evolving()


def three_product_fill(self, ids, stays):
    """``_ExactEngine._fill`` with the stays, the weight roots and the spawn
    maps each in their own product, as it was before the step table."""
    ops, K = self.ops, self.ops.n_channels
    psi = self.table_states[ids]
    adv = np.einsum("bi,ji->bj", psi, ops.no_jump)
    stay = np.einsum("bi,bi->b", adv.conj(), adv).real / np.einsum("bi,bi->b", psi.conj(), psi).real
    raw = np.einsum("bi,kji->kbj", psi, ops.spawn_roots)
    masses = np.einsum("jbi,jbi->jb", raw.conj(), raw).real
    singles, pairs = masses[:K], masses[K:]
    for l in range(K):
        singles = singles - pairs[l::K]
    masses = np.concatenate([stay[None], np.clip(singles, 0.0, None), pairs])
    raw = np.einsum("bi,kji->kbj", psi, ops.spawn_maps)
    nrm2 = np.einsum("jbi,jbi->jb", raw.conj(), raw).real
    maps, rows = np.nonzero(nrm2 > trajectories._NORM_FLOOR)
    dst = np.full(masses.shape, -1, dtype=np.int64)
    dst[0], dst[maps + 1, rows] = stays, self._intern(raw[maps, rows] / np.sqrt(nrm2[maps, rows])[:, None])
    dst[masses <= 0.0] = -1
    self.edge_bin[ids], self.edge_mass[ids] = dst.T + 2, masses.T
    return dst


FILL_CASES = {
    "qubit": (build_qubit_pair(1.0), None),
    "qutrit-feedback": (build_qutrit_pair(CascadeSpec.degenerate(1.0)), FeedbackPolicy.qutrit_cyclic()),
    "oscillator": (build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0)), None),
}


@pytest.mark.parametrize("start", ["random", "ground"])
@pytest.mark.parametrize("case", FILL_CASES)
def test_fill_edges_equal_three_products(monkeypatch, case, start):
    # one product over the step table gives, bit for bit, the edges of
    # separate stay, weight-root and spawn-map products: every filled id's
    # bins and masses by rank, and the stepped edges (source, bin, merge key
    # base, mass, in order); |00> has no spawn mass, so only its stay
    model, policy = FILL_CASES[case]
    if start == "ground":
        psi0 = basis_state(model.dim, 0)
    else:
        psi0 = normalized([1.0, 1.0j] @ np.random.default_rng(7).normal(size=(2, model.dim)))
    cfg = UnravelingConfig(dt=5e-3, t_max=0.1, max_jumps=6)

    def edges():
        engine = trajectories._ExactEngine(model, psi0, cfg, policy)
        engine.run()
        return ([engine.edge_bin[: engine.size], engine.edge_mass[: engine.size]]
                + [a[: engine.n_edges] for a in engine.edges[:4]])

    got = edges()
    monkeypatch.setattr(trajectories._ExactEngine, "_fill", three_product_fill)
    want = edges()
    n_edges = np.count_nonzero(want[1])
    assert n_edges == 1 if start == "ground" else n_edges > 100
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def counted(observables):
    """The observables, each counting the rows it is handed in ``rows``."""
    rows = dict.fromkeys(observables, 0)

    def wrap(label, fn):
        def fn_counted(states, counts):
            rows[label] += len(states)
            return fn(states, counts)
        return fn_counted

    return {label: wrap(label, fn) for label, fn in observables.items()}, rows


def uncached_sweep(model, psi0, cfg, policy, grid, observables):
    """Curves evaluated on every class row, and the (id, count) pairs seen."""
    engine = trajectories._ExactEngine(model, psi0, cfg, policy)
    curves = {label: [] for label in observables}
    pairs, n_rows = set(), 0
    for step in range(cfg.n_steps + 1):
        if step in grid:
            pairs.update(zip(engine.ids.tolist(), engine.counts.tolist()))
            n_rows += engine.ids.size
            for label, fn in observables.items():
                curves[label].append((fn(engine.table_states[engine.ids], engine.counts) * engine.W[engine.ids]).sum())
        if step < cfg.n_steps:
            engine._step(step)
    return curves, pairs, n_rows


def assert_cache_exact(model, psi0, cfg, policy, n_grid, observables):
    """Cached curves equal the uncached sums at every grid point, each
    observable sees each distinct (id, count) once; returns the pairs."""
    grid = np.linspace(0, cfg.n_steps, n_grid).astype(int)
    wrapped, rows = counted(observables)
    curves, engine = run_exact_grid(model, psi0, cfg, policy, grid, wrapped)
    want, pairs, n_rows = uncached_sweep(model, psi0, cfg, policy, set(grid.tolist()), observables)
    for label, fn in observables.items():
        assert curves[label].tolist() == want[label], label
        assert curves[label][-1] == (fn(engine.table_states[engine.ids], engine.counts) * engine.W[engine.ids]).sum()
        assert rows[label] == len(pairs) < n_rows, label
    return pairs


def test_exact_grid_evaluates_each_state_once():
    # E_3's model: most class states recur between grid points
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0)
    observables = {
        "neg": lambda s, c: negativity_batch_pure(s, LAY3),
        "entropy": lambda s, c: entropy_batch_pure(s, LAY3),
    }
    assert_cache_exact(model, code_bell3(), cfg, None, 11, observables)


def test_exact_grid_cache_keys_counts_under_feedback():
    # feedback spreads the classes over many jump counts, which the k-jump
    # indicators read; the relaxing-state test below has one id at two counts
    model = build_qutrit_pair(CascadeSpec.harmonic_oscillator(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, max_jumps=12)
    observables = {f"P{k}": (lambda s, c, k=k: (c == k).astype(float)) for k in (0, 1, 2)}
    observables["neg"] = lambda s, c: negativity_batch_pure(s, LAY3)
    pairs = assert_cache_exact(
        model, code_bell3(), cfg, FeedbackPolicy.qutrit_cyclic(), 11, observables
    )
    assert len({c for _, c in pairs}) > 3


def test_exact_grid_cache_follows_relaxing_state():
    # the no-jump state of the relaxing test above moves to a new id at each
    # step until its key reaches |00>, whose class then drops from 2 jumps to 0
    a = 0.1
    psi0 = normalized(
        math.sqrt(a) * product_basis_state(LAY2, (0, 0))
        + math.sqrt(1 - a) * product_basis_state(LAY2, (1, 1))
    )
    cfg = UnravelingConfig(dt=1e-2, t_max=25.0, max_jumps=2)
    observables = {
        "P11": lambda s, c: abs(s[:, 3]) ** 2,
        "P2": lambda s, c: (c == 2).astype(float),
    }
    pairs = assert_cache_exact(build_qubit_pair(1.0), psi0, cfg, None, 11, observables)
    ids = [i for i, _ in pairs]
    assert len(set(ids)) < len(ids)  # some id is seen with two jump counts


def test_exact_grid_cache_does_not_grow_with_the_jump_budget():
    # E_3 never counts past 3, so a budget of 400 changes no bit of its curves and, with the
    # cache holding one row per state id, costs no memory
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    observables = {
        "neg": lambda s, c: negativity_batch_pure(s, LAY3),
        "entropy": lambda s, c: entropy_batch_pure(s, LAY3),
    }
    curves, peaks = [], []
    for budget in (4, 400):
        cfg = UnravelingConfig(dt=5e-3, t_max=1.0, max_jumps=budget)
        tracemalloc.start()
        try:
            curves.append(run_exact_grid(model, code_bell3(), cfg, None, range(0, cfg.n_steps + 1, 20),
                                         observables)[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for label in observables:
        assert curves[0][label].tobytes() == curves[1][label].tobytes(), label
    assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20, peaks


def test_exact_grid_caches_nan_values():
    # a NaN is a value: each state id is evaluated once, not again at every read
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0)
    observables = {"neg": lambda s, c: np.where(c > 0, np.nan, negativity_batch_pure(s, LAY3))}
    grid = set(range(0, cfg.n_steps + 1, 20))
    wrapped, rows = counted(observables)
    curves, _ = run_exact_grid(model, code_bell3(), cfg, None, sorted(grid), wrapped)
    want, pairs, n_rows = uncached_sweep(model, code_bell3(), cfg, None, grid, observables)
    assert np.array_equal(curves["neg"], want["neg"], equal_nan=True)
    assert not np.isnan(curves["neg"][0]) and np.isnan(curves["neg"][-1])
    assert rows["neg"] == len(pairs) < n_rows


# the qutrit curve family at gamma t = 1: the feedback runs at the scenarios' budget floor of 12;
# E_3 and E_3ho end within 4 jumps
QUTRIT_FAMILY = {
    "E_3": (CascadeSpec.degenerate, False, 4),
    "E_3f": (CascadeSpec.degenerate, True, 12),
    "E_3ho": (CascadeSpec.harmonic_oscillator, False, 4),
    "E_3fho": (CascadeSpec.harmonic_oscillator, True, 12),
}


def qutrit_family_run(label, grid_steps, observables):
    """run_exact_grid on one family curve's config at gamma t = 1."""
    spec, feedback, budget = QUTRIT_FAMILY[label]
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, max_jumps=budget)
    policy = FeedbackPolicy.qutrit_cyclic() if feedback else None
    return run_exact_grid(build_qutrit_pair(spec(1.0)), code_bell3(), cfg, policy,
                          grid_steps(cfg.n_steps), observables)


@pytest.mark.parametrize("label", list(QUTRIT_FAMILY))
def test_exact_grid_books_balance(label):
    # kept + truncated + culled mass is one; E_3fho truncates and culls
    _, engine = qutrit_family_run(label, lambda n: [0, n], {})
    assert abs(engine.W[engine.ids].sum() + engine.truncation_mass + engine.culled_mass - 1.0) < 1e-12
    if label == "E_3fho":
        assert engine.truncation_mass > 1e-8 and engine.culled_mass > 1e-12


def test_exact_books_balance_past_the_truncation_bound():
    # a one-jump budget truncates about half the mass; the sweep finishes first
    engine = trajectories._ExactEngine(
        build_qutrit_pair(CascadeSpec.degenerate(1.0)), code_bell3(),
        UnravelingConfig(dt=5e-3, t_max=1.0, max_jumps=1), None)
    with pytest.raises(TruncationError):
        engine.run()
    assert engine.truncation_mass > 0.4
    assert set(engine.counts.tolist()) == {0, 1}
    assert abs(engine.W[engine.ids].sum() + engine.truncation_mass + engine.culled_mass - 1.0) < 1e-12


@pytest.mark.parametrize("label", ["E_3", "E_3fho"])
def test_exact_curves_independent_of_grid(label):
    # grid reads and table fills leave the weight and count vectors untouched
    observables = {"neg": lambda s, c: negativity_batch_pure(s, LAY3),
                   "P1": lambda s, c: (c == 1).astype(float)}
    coarse, c_engine = qutrit_family_run(label, lambda n: [0, n], observables)
    fine, f_engine = qutrit_family_run(
        label, lambda n: np.linspace(0, n, 51).astype(int), observables)
    for name in observables:
        assert coarse[name][0] == fine[name][0] and coarse[name][-1] == fine[name][-1]
    assert np.array_equal(c_engine.ids, f_engine.ids)
    assert np.array_equal(c_engine.counts, f_engine.counts)
    assert np.array_equal(c_engine.W[c_engine.ids], f_engine.W[f_engine.ids])
    assert c_engine.truncation_mass == f_engine.truncation_mass
    assert c_engine.culled_mass == f_engine.culled_mass


def counted_fills(monkeypatch):
    """Patch ``_ExactEngine._fill`` to count its product batches in the returned list."""
    batches, fill = [], trajectories._ExactEngine._fill

    def counting(self, *args):
        batches.append(len(args[0]))
        return fill(self, *args)

    monkeypatch.setattr(trajectories._ExactEngine, "_fill", counting)
    return batches


def e3_default_run():
    """run_exact_grid on E_3 at its scenario defaults: gamma t = 5, dt 5e-3, budget 4."""
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, max_jumps=4)
    _, engine = run_exact_grid(build_qutrit_pair(CascadeSpec.degenerate(1.0)), code_bell3(), cfg,
                               None, [0, cfg.n_steps], {})
    return cfg, engine


def singlet_no_jump_run():
    """run_exact_grid on singlet conversion's P_NJ run: alpha 0.25, dt 1e-3, gamma t = 5."""
    cfg = UnravelingConfig(dt=1e-3, t_max=5.0)
    _, engine = run_exact_grid(build_qubit_pair(1.0), relaxing_state(0.25), cfg, None,
                               [0, cfg.n_steps], {"P0": lambda s, c: (c == 0).astype(float)})
    return cfg, engine


def test_exact_fills_a_table_stretch_per_batch(monkeypatch):
    # E_3 gains about four classes a step; each is filled ahead with what it
    # reaches in the next stretch, one product per level of jumps, not one
    # product per step
    batches = counted_fills(monkeypatch)
    cfg, engine = e3_default_run()
    assert len(engine.ids) == 4003
    assert len(batches) <= math.ceil(cfg.n_steps / trajectories._TABLE_CAP) * (cfg.max_jumps + 2)


def test_exact_step_gathers_live_edges_only():
    # singlet conversion's no-jump state takes a new id every step and keeps
    # its class for that step only; the step must not gather the edges of
    # every id that ever had a class
    cfg, engine = singlet_no_jump_run()
    src = engine.edges[0][: engine.n_edges]
    live = np.count_nonzero(np.isin(src, engine.ids))
    assert engine.n_edges <= 8 * live
    assert cfg.n_steps < engine.size


def test_exact_step_drops_dead_edges_in_place(monkeypatch):
    # the no-jump sweep drops dead edges on most of its 5,000 steps; done in
    # place, the edge arrays keep their capacity and regrow only when full,
    # where a copy per drop would reallocate them on each of those steps
    cfg = UnravelingConfig(dt=1e-3, t_max=5.0)
    engine = trajectories._ExactEngine(build_qubit_pair(1.0), relaxing_state(0.25), cfg, None)
    grown, reallocations = trajectories._grown, []

    def counting(arr, size, fill=-1):
        out = grown(arr, size, fill)
        if out is not arr:
            reallocations.append(len(out))
        return out

    monkeypatch.setattr(trajectories, "_grown", counting)
    engine.run([0, cfg.n_steps], {"P0": lambda s, c: (c == 0).astype(float)})
    assert len(reallocations) <= 100  # state-table doublings included


def test_exact_books_balance_at_the_default_horizon():
    # kept + truncated + culled mass is one within rounding that grows with
    # the step count, also where dead edges have been dropped along the way
    cfg, engine = e3_default_run()
    assert abs(engine.W[engine.ids].sum() + engine.truncation_mass + engine.culled_mass - 1.0) <= 2e-15 * cfg.n_steps
    cfg, engine = singlet_no_jump_run()
    assert engine.n_edges < 100 < engine.size
    assert abs(engine.W[engine.ids].sum() + engine.truncation_mass + engine.culled_mass - 1.0) <= 2e-15 * cfg.n_steps


def test_exact_regained_class_steps_its_stored_edges():
    # an id whose edges were dropped with its class gets them back, unchanged,
    # when it has a class again: give a dropped no-jump id weight and step
    cfg = UnravelingConfig(dt=1e-3, t_max=0.1)
    engines = [trajectories._ExactEngine(build_qubit_pair(1.0), relaxing_state(0.25), cfg, None)
               for _ in range(2)]
    for engine in engines:
        for step in range(50):
            engine._step(step)
    regained, step = engines[0], 50
    gone = np.flatnonzero(regained.filled[: regained.size] & ~regained.active[: regained.size])
    x = int(gone[0])
    assert x not in regained.edges[0][: regained.n_edges]
    regained.W[x], regained.C[x] = 0.25, 0
    regained.ids = np.union1d(regained.ids, [x])
    regained._activate(regained.ids, step)
    for engine in engines:
        engine._step(step)
    rank = np.flatnonzero(regained.edge_mass[x] > 0.0)
    moved = np.zeros(regained.W.size + 2)
    np.add.at(moved, regained.edge_bin[x, rank], 0.25 * regained.edge_mass[x, rank])
    assert np.allclose(regained.W - engines[1].W, moved[2:], rtol=0.0, atol=1e-15)
    assert np.count_nonzero(moved[2:]) >= 3


def exact_classes(engine):
    """(states, counts, weights) of an engine's classes, ordered by state key."""
    states, weights = engine.table_states[engine.ids], engine.W[engine.ids]
    order = np.lexsort(trajectories._canonical_keys(states).T)
    return states[order], engine.counts[order], weights[order]


@pytest.mark.parametrize("cap", [1, 7])
def test_exact_results_independent_of_table_cap(monkeypatch, cap):
    # how far ahead the table is filled changes no class, count, weight or state
    observables = {"neg": lambda s, c: negativity_batch_pure(s, LAY3),
                   "P1": lambda s, c: (c == 1).astype(float)}

    def run_all():
        runs = [qutrit_family_run(label, lambda n: np.linspace(0, n, 11).astype(int), observables)
                for label in ("E_3", "E_3fho")]
        return runs, assert_relaxing_state_keeps_evolving()

    default, nj = run_all()
    monkeypatch.setattr(trajectories, "_TABLE_CAP", cap)
    short, nj_short = run_all()
    assert_class_census()
    for (c_default, e_default), (c_short, e_short) in zip(default, short):
        for name in observables:
            assert np.allclose(c_default[name], c_short[name], rtol=0.0, atol=1e-13)
        (s0, n0, w0), (s1, n1, w1) = exact_classes(e_default), exact_classes(e_short)
        assert np.array_equal(n0, n1)
        assert np.allclose(w0, w1, rtol=0.0, atol=1e-13)
        assert np.allclose(s0, s1, rtol=0.0, atol=1e-13)
    assert np.allclose(nj.state, nj_short.state, rtol=0.0, atol=1e-13)
    assert abs(nj.probability - nj_short.probability) < 1e-13


def test_merged_record_keeps_fewest_jump_events():
    # both channels take (|10> + |01>)/sqrt(2) to |00> in one jump: an
    # equal-count tie, which goes to the first branch (channel 0) at the
    # first step; later steps' jumps tie with the stay, which wins
    dt = 1e-2
    res = enumerate_trajectories(build_qubit_pair(1.0), bell2(), UnravelingConfig(dt=dt, t_max=1.0))
    one = next(r for r in res.records if r.n_jumps == 1)
    assert one.events == (trajectories.JumpEvent(time=0.5 * dt, slot=0, channel=0),)
    assert abs(one.probability - (1.0 - math.exp(-1.0))) < 1e-12
    assert abs(abs(one.state[0]) - 1.0) < 1e-12
    # from |11> the jump pairs (0, 1) and (1, 0) of the first step tie; the
    # first in branch order is kept
    psi0 = product_basis_state(LAY2, (1, 1))
    res = enumerate_trajectories(build_qubit_pair(1.0), psi0,
                                 UnravelingConfig(dt=dt, t_max=1.0, max_jumps=2))
    two = next(r for r in res.records if r.n_jumps == 2)
    assert [(e.time, e.channel) for e in two.events] == [(0.5 * dt, 0), (0.5 * dt, 1)]


def test_merged_record_keeps_fewest_jump_count():
    # the no-jump state of sqrt(a)|00> + sqrt(1-a)|11> relaxes onto |00>,
    # whose class already holds two-jump members: the merged class counts 0
    a = 0.1
    psi0 = normalized(
        math.sqrt(a) * product_basis_state(LAY2, (0, 0))
        + math.sqrt(1 - a) * product_basis_state(LAY2, (1, 1))
    )
    res = enumerate_trajectories(build_qubit_pair(1.0), psi0,
                                 UnravelingConfig(dt=1e-2, t_max=25.0, max_jumps=2))
    ground = res.records[0]
    assert abs(abs(ground.state[0]) - 1.0) < 1e-12
    assert ground.n_jumps == 0 and ground.events == ()
    assert ground.probability > 1.0 - 1e-9  # the two-jump mass, 1 - a, is in it


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


def _expected_first_jump(stays, split_masses, u):
    """(step, channel) of the first jump of a row whose every threshold is u.

    The step is the first whose running product of per-step no-jump
    probabilities ``stays`` falls below u; the channel is where
    (S_before - u) / (S_before - S_after) falls within that step's
    cumulative ``split_masses(step)``. Both are decided by more than 1e-12.
    """
    survival = np.concatenate([[1.0], np.cumprod(stays)])
    step = int(np.argmax(survival[1:] < u))
    before, after = survival[step], survival[step + 1]
    assert after < u - 1e-12 < u + 1e-12 < before
    cum = np.cumsum(split_masses(step))
    place = (before - u) / (before - after)
    assert np.min(np.abs(cum / cum[-1] - place)) > 1e-12
    return step, int((place >= cum / cum[-1]).sum())


def _first_jumps(records, dt):
    return {(round(r.events[0].time / dt - 0.5), r.events[0].channel) for r in records}


@pytest.mark.parametrize("u", [0.9, 0.5, 0.1, 1e-3])
def test_threshold_sets_first_jump(monkeypatch, u):
    # with every threshold fixed at u, a row first jumps at the first step
    # where the product of its per-step no-jump (no-record) probabilities,
    # computed here with the single-step helpers, falls below u, in the
    # channel that u's place within that step's drop picks; a density row's
    # per-step probability is the trace kept by the no-record map
    # N (x) N* + (1 - eta) sum_k B_k (x) B_k*
    monkeypatch.setattr(trajectories, "_thresholds", lambda keys, periods: np.full(keys.size, u))
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    cfg = UnravelingConfig(dt=5e-3, t_max=6.0, n_samples=3)

    splits = trajectories.StepOperators(model, cfg.dt).split_maps
    psi, psis, stays = psi0, [], []
    for _ in range(cfg.n_steps):
        psis.append(psi)
        psi, p = no_jump_step(model, psi, cfg.dt)
        stays.append(p)
        psi = psi / math.sqrt(p)
    expected = _expected_first_jump(
        stays, lambda s: [np.linalg.norm(B @ psis[s]) ** 2 for B in splits], u)
    assert _first_jumps(sample_trajectories(model, psi0, cfg).records, cfg.dt) == {expected}

    eta = 0.92
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=eta)
    ops = trajectories.StepOperators(model, cfg.dt, policy)
    N = ops.no_jump
    rho, rhos, stays = np.outer(psi0, psi0.conj()), [], []
    for _ in range(cfg.n_steps):
        rhos.append(rho)
        rho = N @ rho @ N.conj().T + (1.0 - eta) * sum(B @ rho @ B.conj().T for B in ops.split_maps)
        stays.append(np.trace(rho).real)
        rho = rho / stays[-1]
    expected = _expected_first_jump(
        stays, lambda s: [np.trace(B @ rhos[s] @ B.conj().T).real for B in ops.split_maps], u)
    records = sample_density_trajectories(model, np.outer(psi0, psi0.conj()), cfg, policy).records
    assert _first_jumps(records, cfg.dt) == {expected}


def test_eta_zero_records_no_jump_at_scale():
    # the split maps are complete, so at eta = 0 the no-record map
    # M = N (x) N* + sum_k B_k (x) B_k* keeps trace: over 1,000 steps
    # tr(M^k rho0), a density row's survival, stays within 1e-12 of 1, and
    # none of 2,000 rows records a jump
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=0.0)
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, n_samples=2000, rng_seed=5)
    ops = trajectories.StepOperators(model, cfg.dt, policy)
    rho = rho0
    assert cfg.n_steps == 1000
    for _ in range(cfg.n_steps):
        rho = ops.no_jump @ rho @ ops.no_jump.conj().T + sum(B @ rho @ B.conj().T for B in ops.split_maps)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
    out = run_density_grid(model, rho0, cfg, policy, [cfg.n_steps],
                           {"jumps": lambda rhos, counts: counts.astype(float)})
    assert out.mean["jumps"][0] == 0.0


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_grid_reads_leave_rows_untouched(density):
    # reading rows at grid points works on normalized copies, so a 51-point
    # grid gives the same jumps and states at t_max as a 2-point grid
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9 if density else 1.0)
    driver = run_density_grid if density else run_sampled_grid
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=100, rng_seed=19)
    obs = {"jumps": lambda states, counts: counts.astype(float),
           "p0": lambda states, counts: np.abs(states.reshape(len(states), -1)[:, 0])}
    coarse = driver(model, x0, cfg, policy, [0, cfg.n_steps], obs)
    fine = driver(model, x0, cfg, policy, np.linspace(0, cfg.n_steps, 51).astype(int), obs)
    assert coarse.mean["jumps"][-1] > 0
    for label in obs:
        assert coarse.mean[label][-1] == fine.mean[label][-1]
        assert coarse.sem[label][-1] == fine.sem[label][-1]


def recorded(observables):
    """The observables, each keeping copies of the (states, counts) of every call in ``calls``
    (None stays None) and its ``reads`` declaration, if it has one."""
    calls = {label: [] for label in observables}

    def wrap(label, fn):
        def fn_recorded(states, counts):
            calls[label].append(tuple(None if a is None else a.copy() for a in (states, counts)))
            return fn(states, counts)
        if hasattr(fn, "reads"):
            fn_recorded.reads = fn.reads
        return fn_recorded

    return {label: wrap(label, fn) for label, fn in observables.items()}, calls


# (density rows, policy) of the sampler's grid-read runs below
_GRID_READ_CASES = {
    "delayed": (False, FeedbackPolicy.qutrit_cyclic(delay=0.02)),
    "ideal": (False, FeedbackPolicy.qutrit_cyclic()),
    "density": (True, FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9)),
}
_NEG3 = {"neg": lambda states, counts: measure_rows(states, Measure.NEGATIVITY, LAY3)}


def grid_read_run(case, observables, n_samples=200, grid_points=11):
    density, policy = _GRID_READ_CASES[case]
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    driver = run_density_grid if density else run_sampled_grid
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=n_samples, rng_seed=29)
    grid = np.linspace(0, cfg.n_steps, grid_points).astype(int)
    return driver(model, x0, cfg, policy, grid, observables)


@pytest.mark.parametrize("case", list(_GRID_READ_CASES))
def test_grid_reads_evaluate_each_state_once(case):
    # an observable sees each (state, count) of a read once, bitwise; under
    # ideal feedback most rows share a few states, so a read of one block
    # hands it fewer rows than the block holds
    wrapped, calls = recorded(_NEG3)
    grid_read_run(case, wrapped)
    assert len(calls["neg"]) == 11
    for states, counts in calls["neg"]:
        assert len({(x.tobytes(), c) for x, c in zip(states, counts.tolist())}) == len(states)
    if case == "ideal":
        assert max(len(states) for states, _ in calls["neg"]) < 200


def test_negativity_reads_skip_lapack_below_3x3_blocks(monkeypatch):
    # E_3's rows have at most one nonzero per row and per column of their
    # 3 x 3 amplitude matrices, so their Schmidt coefficients are moduli and
    # no svd runs; E_3f_eta's partial transposes split into blocks of sizes
    # 3, 2, 1, 2 and 1, and only the 3 x 3 block reaches eigvalsh
    calls = {"svd": [], "eigvalsh": []}

    def counting(name, fn):
        return lambda a, *args, **kw: calls[name].append(a.shape) or fn(a, *args, **kw)

    def neg(states, counts):
        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
            return measure_rows(states, Measure.NEGATIVITY, LAY3)

    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=300, rng_seed=37)
    grid = np.linspace(0, cfg.n_steps, 6).astype(int)
    pure = run_sampled_grid(model, psi0, cfg, None, grid, {"neg": neg})
    density = run_density_grid(model, np.outer(psi0, psi0.conj()), cfg, FeedbackPolicy.qutrit_cyclic(efficiency=0.92),
                               grid, {"neg": neg})
    assert pure.mean["neg"][-1] < pure.mean["neg"][0] and density.mean["neg"][-1] > 0
    assert calls["svd"] == []
    assert calls["eigvalsh"] and {shape[-1] for shape in calls["eigvalsh"]} == {3}


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_hash_collisions_leave_curves_unchanged(monkeypatch, density):
    # with a zero mix every row of a read hashes alike and the sort leaves
    # equal rows apart; only a row bitwise equal to its neighbour is a
    # repeat, so more rows are evaluated, with the same bits
    case = "density" if density else "delayed"
    obs = {**_NEG3, "jumps": lambda states, counts: counts.astype(float),
           "p1": lambda states, counts: (counts == 1).astype(float)}
    wrapped, calls = recorded(obs)
    normal = grid_read_run(case, wrapped)
    n_normal = sum(len(states) for states, _ in calls["neg"])
    init = trajectories._Sampler.__init__

    def colliding(self, *args):
        init(self, *args)
        self.mix = np.zeros_like(self.mix)

    monkeypatch.setattr(trajectories._Sampler, "__init__", colliding)
    wrapped, calls = recorded(obs)
    collided = grid_read_run(case, wrapped)
    assert sum(len(states) for states, _ in calls["neg"]) > n_normal
    assert normal.mean["jumps"][-1] > 0
    for label in obs:
        assert collided.mean[label].tolist() == normal.mean[label].tolist(), label
        assert collided.sem[label].tolist() == normal.sem[label].tolist(), label


def test_grid_reads_keep_counts_of_equal_states():
    # ideal feedback restores the code state, so rows of one state carry
    # different jump counts; each keeps its own k-jump indicator, and P(k)
    # at t_max is the fraction of records with k jumps at the same seed
    ks = range(4)
    obs = {f"P{k}": (lambda states, counts, k=k: (counts == k).astype(float)) for k in ks}
    wrapped, calls = recorded(obs)
    curves = grid_read_run("ideal", wrapped, n_samples=400)
    shared = 0
    for states, counts in calls["P0"]:
        by_state = {}
        for x, c in zip(states, counts.tolist()):
            by_state.setdefault(x.tobytes(), set()).add(c)
        shared += sum(len(cs) > 1 for cs in by_state.values())
    assert shared > 0
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=400, rng_seed=29)
    records = sample_trajectories(model, code_bell3(), cfg, FeedbackPolicy.qutrit_cyclic()).records
    for k in ks:
        assert curves.mean[f"P{k}"][-1] == np.mean([r.n_jumps == k for r in records]), k
    assert 0.0 < curves.mean["P1"][-1] < 1.0


def declared(reads, fn):
    """fn, declared to read only its ``reads`` argument, "states" or "counts"."""
    def fn_declared(states, counts):
        return fn(states, counts)
    fn_declared.reads = reads
    return fn_declared


def _p0(states, counts):
    return (counts == 0).astype(float)


def _p1(states, counts):
    return (counts == 1).astype(float)


def _neg3(states, counts):
    return measure_rows(states, Measure.NEGATIVITY, LAY3)


@pytest.mark.parametrize("case", list(_GRID_READ_CASES))
def test_count_only_reads_form_no_states(monkeypatch, case):
    # an observable that reads counts only gets states None at every read,
    # no read places a state, and its curve keeps every bit
    places = []
    place = trajectories._Sampler._place
    monkeypatch.setattr(trajectories._Sampler, "_place", lambda self, keys: places.append(len(keys)) or place(self, keys))
    wrapped, calls = recorded({"p1": declared("counts", _p1)})
    out = grid_read_run(case, wrapped)
    assert len(calls["p1"]) == 11
    assert all(states is None and counts.size for states, counts in calls["p1"])
    assert places == []
    bare = grid_read_run(case, {"p1": _p1})
    assert 0.0 < out.mean["p1"][-1] < 1.0
    assert out.mean["p1"].tolist() == bare.mean["p1"].tolist()
    assert out.sem["p1"].tolist() == bare.sem["p1"].tolist()


def test_state_only_reads_evaluate_each_state_once():
    # under ideal feedback rows of one state carry different jump counts; an
    # observable that reads states only sees each distinct state of a read
    # once, with counts None: on E_3f's model 179 rows over 51 reads, where
    # grouping by (state, count) evaluates 1,569, with the same bits
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, n_samples=1000, rng_seed=12345)
    grid = np.arange(0, cfg.n_steps + 1, 20)

    def run(observables):
        return run_sampled_grid(model, code_bell3(), cfg, FeedbackPolicy.qutrit_cyclic(), grid, observables)

    wrapped, calls = recorded({"neg": declared("states", _neg3)})
    out = run(wrapped)
    assert len(calls["neg"]) == 51 and all(counts is None for _, counts in calls["neg"])
    for states, _ in calls["neg"]:
        assert len({x.tobytes() for x in states}) == len(states)
    assert sum(len(states) for states, _ in calls["neg"]) == 179
    wrapped, calls = recorded({"neg": _neg3})
    bare = run(wrapped)
    assert sum(len(states) for states, _ in calls["neg"]) == 1569
    assert out.mean["neg"].tolist() == bare.mean["neg"].tolist()
    assert out.sem["neg"].tolist() == bare.sem["neg"].tolist()


@pytest.mark.parametrize("marks", [(None, None), ("states", "counts")], ids=["unmarked", "states-and-counts"])
def test_reads_of_both_group_by_state_and_count(marks):
    # an undeclared observable reads both, and so do a run's observables when
    # one reads states and another counts: each call gets every distinct
    # (state, count) of a read once, and equal states with different counts
    # stay apart
    obs = {"neg": _neg3, "p1": _p1}
    wrapped, calls = recorded({lab: declared(m, fn) if m else fn for m, (lab, fn) in zip(marks, obs.items())})
    grid_read_run("ideal", wrapped, n_samples=400)
    shared = 0
    for (states, counts), (p1_states, p1_counts) in zip(calls["neg"], calls["p1"]):
        assert np.array_equal(states, p1_states) and np.array_equal(counts, p1_counts)
        assert len({(x.tobytes(), c) for x, c in zip(states, counts.tolist())}) == len(states)
        shared += len(states) - len({x.tobytes() for x in states})
    assert shared > 0


def generic_qutrit_pair(seed=3):
    """A qutrit pair whose jump operators have no zero entry: no coordinate of rho stays zero."""
    rng = np.random.default_rng(seed)
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    return OpenSystemModel(LAY3, tuple(DecayChannel(s, L / np.linalg.norm(L, 2), 1.0) for s, L in enumerate(ops)))


def test_density_states_equal_the_basis_product():
    # grid reads place rho from the rows' support coordinates in one product
    # with T^*: to rounding the full 81-coordinate row's product scaled by
    # 1/tr, and exactly Hermitian, on the cascade's 12-coordinate support
    # (immediate feedback), its 18-coordinate one (delayed feedback) and a
    # generic model's full one
    psi0 = code_bell3()
    cfg = UnravelingConfig(dt=5e-3, t_max=0.1, n_samples=4)
    cascade = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    for model, delay, width in ((cascade, 0.0, 12), (cascade, 0.02, 18), (generic_qutrit_pair(), 0.0, 81)):
        policy = FeedbackPolicy.qutrit_cyclic(delay=delay, efficiency=0.9)
        sampler = trajectories._Sampler(model, np.outer(psi0, psi0.conj()), 2, cfg, policy)
        support = sampler.support
        assert support.size == width
        rng = np.random.default_rng(41)
        rows = np.where(rng.random((300, width)) < 0.4, 0.0, rng.normal(size=(300, width)))
        n_diag = np.count_nonzero(support < 9)  # the diagonal coordinates come first
        rows[:, :n_diag] = np.abs(rows[:, :n_diag]) + 0.1
        full = np.zeros((300, 81))
        full[:, support] = rows
        product = (full @ hermitian_basis(9).conj()) / rows[:, :n_diag].sum(axis=1)[:, None]
        for n in (1, 7, 300):
            states = sampler._states(rows[:n])
            assert np.max(np.abs(states - product[:n].reshape(-1, 9, 9))) <= 4.5e-16
            assert np.array_equal(states, states.conj().transpose(0, 2, 1))
        assert sampler._advance(rows[:0], np.zeros(0, dtype=np.int64)).shape == (0, width)


def test_density_advance_independent_of_batch():
    # each row takes its own offset's power in one gathered product, so a
    # row's new coordinates do not depend on which rows share the call
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=4)
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=0.92)
    sampler = trajectories._Sampler(model, np.outer(psi0, psi0.conj()), 2, cfg, policy)
    rng = np.random.default_rng(43)
    rows = rng.normal(size=(500, sampler.x0.size))
    k = rng.integers(0, sampler.cap + 1, size=500)
    together = sampler._advance(rows, k)
    alone = np.concatenate([sampler._advance(rows[i:i + 1], k[i:i + 1]) for i in range(500)])
    assert np.array_equal(together, alone)


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_survival_independent_of_batch(density):
    # a row's survival is summed row by row, never by BLAS, so _next on a
    # lone row equals its row of _next on a 500-row block, bit for bit:
    # crossing step, jump flag and the survivals around it
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=0.9) if density else None
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=4)
    sampler = trajectories._Sampler(model, x0, x0.ndim, cfg, policy)
    rng = np.random.default_rng(47)
    rows = rng.normal(size=(500, sampler.x0.size)) + (0.0 if density else 1j * rng.normal(size=(500, sampler.x0.size)))
    if density:  # a positive trace
        rows[:, :sampler.n_diag] = np.abs(rows[:, :sampler.n_diag]) + 0.1
    at = rng.integers(0, cfg.n_steps, size=500)
    due = np.minimum(at + rng.integers(1, 80, size=500), cfg.n_steps + 1)
    u = rng.random(500) * sampler._weight(rows)
    together = sampler._next(rows, u, at, due)
    alone = [sampler._next(rows[i:i + 1], u[i:i + 1], at[i:i + 1], due[i:i + 1]) for i in range(500)]
    for j, got in enumerate(together):
        assert np.array_equal(got, np.concatenate([a[j] for a in alone])), j
    assert 0 < together[1].sum() < 500


def test_density_survival_is_the_trace_across_reanchors():
    # a density row's trace is its survival since its last jump: a row that
    # never crosses re-anchors every cap steps, and over 1,000 steps its
    # survival k steps on equals tr(M^k rho0), M = N (x) N* + (1 - eta)
    # sum_k B_k (x) B_k*, stepped here one 9 x 9 product at a time
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho = np.outer(psi0, psi0.conj())
    eta = 0.9
    policy = FeedbackPolicy.qutrit_cyclic(efficiency=eta)
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, n_samples=1)
    sampler = trajectories._Sampler(model, rho, 2, cfg, policy)
    ops, never = sampler.ops, cfg.n_steps + 1
    expected = [1.0]
    for _ in range(cfg.n_steps):
        rho = ops.no_jump @ rho @ ops.no_jump.conj().T + (1.0 - eta) * sum(B @ rho @ B.conj().T for B in ops.split_maps)
        expected.append(np.trace(rho).real)
    row, at, got, anchors = sampler.x0[None], np.zeros(1, dtype=np.int64), [1.0], 0
    while at[0] < cfg.n_steps:
        nxt, found, _, after = sampler._next(row, np.zeros(1), at, np.array([never]))
        end = min(int(nxt[0]), cfg.n_steps)
        k = np.arange(1, end - at[0] + 1)
        got += sampler._survival(k, np.repeat(sampler._mass(row), k.size, axis=0)).tolist()
        assert not found.any() and after[0] == got[-1]
        row, at, anchors = sampler._advance(row, np.array([end]) - at), np.array([end]), anchors + 1
    assert len(got) == cfg.n_steps + 1 == 1001 and anchors >= cfg.n_steps // trajectories._TABLE_CAP
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12
    assert expected[-1] < 0.5


def test_density_rows_stay_on_their_support():
    # the support closes x0's coordinates under the exact nonzeros of every
    # map that can act, so along whole trajectories of the 81-coordinate
    # per-step chain, with jumps, delayed corrections and unrecorded jumps,
    # every coordinate outside it stays exactly zero (the closure may hold
    # coordinates that no row reaches, but never misses one that a row
    # does); under immediate feedback the corrections act only folded into
    # the jumps, and the support is the 12 coordinates the rows reach
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=12, rng_seed=29)
    T = hermitian_basis(9)
    for delay, width in ((0.02, 18), (0.0, 12)):
        policy = FeedbackPolicy.qutrit_cyclic(delay=delay, efficiency=0.9)
        sampler = trajectories._Sampler(model, rho0, 2, cfg, policy)
        assert sampler.support.size == width
        outside = np.ones(81, dtype=bool)
        outside[sampler.support] = False
        chain = _per_step_chain(model, rho0, cfg, policy, list(range(cfg.n_steps + 1)))
        assert sum(len(events) for events, *_ in chain) > 12
        for _, _, reads, _ in chain:
            coords = (np.array(reads).reshape(len(reads), 81) @ T.T).real
            assert not coords[:, outside].any()


def test_pure_rows_keep_their_support():
    # pure rows live on the same closure in G's eigenbasis: the Bell pair
    # never reaches |11>, the qutrit pair without feedback or with
    # immediate feedback never reaches |22>, and delayed corrections, which
    # act on any state, close over all 9; x0 and the placement on the
    # support give back psi0
    psi0 = code_bell3()
    cascade = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=0.1, n_samples=4)
    cases = ((build_qubit_pair(1.0), bell2(), None, 3), (cascade, psi0, None, 8),
             (cascade, psi0, FeedbackPolicy.qutrit_cyclic(), 8),
             (cascade, psi0, FeedbackPolicy.qutrit_cyclic(delay=0.08), 9))
    for model, x0, policy, width in cases:
        sampler = trajectories._Sampler(model, x0, 1, cfg, policy)
        assert sampler.support.size == width == sampler.log_stay.size
        assert sampler.place.shape == (width, x0.size)
        assert np.max(np.abs(sampler._states(sampler.x0[None])[0] - x0)) < 1e-15


def test_density_rows_without_structure_keep_every_coordinate():
    # a generic model leaves no coordinate exactly zero: the support is all
    # 81, the maps are the unrestricted lifts bit for bit, and whole
    # trajectories follow the per-step chain
    model = generic_qutrit_pair()
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9)
    cfg = UnravelingConfig(dt=5e-3, t_max=0.5, n_samples=6, rng_seed=31)
    sampler = trajectories._Sampler(model, rho0, 2, cfg, policy)
    assert sampler.support.tolist() == list(range(81))
    ops, T = sampler.ops, hermitian_basis(9)
    lift = lambda A: real_superoperator(np.kron(A, A.conj()), T).T  # noqa: E731
    assert np.array_equal(sampler.jumps, np.stack([lift(S) for S in ops.spawn_maps[:2]]))
    assert np.array_equal(sampler.x0, (T @ rho0.reshape(-1)).real)
    chain = _per_step_chain(model, rho0, cfg, policy, [cfg.n_steps])
    records = sample_density_trajectories(model, rho0, cfg, policy).records
    assert sum(r.n_jumps for r in records) > 0
    for rec, (events, _, _, final) in zip(records, chain, strict=True):
        assert [(round(e.time / cfg.dt - 0.5), e.channel) for e in rec.events] == events
        assert np.max(np.abs(rec.state - final)) < 1e-12


def _per_step_chain(model, x0, cfg, policy, grid, thresholds=trajectories._thresholds):
    """Each trajectory of the samplers by the per-step law, as an explicit chain.

    Every step maps the unnormalized state by the no-jump map, or by the
    no-record map N (x) N* + (1 - eta) sum_k B_k (x) B_k* on density
    states; the survival is its norm or trace; the row jumps where it falls below
    its threshold, in the channel that (S_before - u) / (S_before - S_after)
    picks, each decided with more than 1e-12 to spare. Returns per row its
    events as (step, channel), its survival after every step, its normalized
    state at each grid step and at the end.
    """
    ops = trajectories.StepOperators(model, cfg.dt, policy)
    eta = policy.efficiency if policy is not None else 1.0
    density = x0.ndim == 2
    act = (lambda A, x: A @ x @ A.conj().T) if density else (lambda A, x: A @ x)
    size = (lambda x: np.trace(x).real) if density else (lambda x: np.vdot(x, x).real)
    keys = trajectories._trajectory_keys(cfg.rng_seed, 0, cfg.n_samples)
    out = []
    for key in keys:
        x, survival, jumps, pending = x0, 1.0, 0, []
        u = thresholds(key[None], np.array([0]))[0]
        events, curve, reads = [], [], []
        for step in range(cfg.n_steps + 1):
            while pending and pending[0][0] <= step:
                x = act(ops.unitaries_embedded[pending.pop(0)[1]], x)
            if step in grid:
                reads.append(x / (size(x) if density else math.sqrt(size(x))))
            if step == cfg.n_steps:
                break
            nxt = act(ops.no_jump, x) + (1.0 - eta) * sum((act(B, x) for B in ops.split_maps), 0.0 * x)
            after = size(nxt)
            assert abs(after - u) > 1e-12
            if after < u:
                cum = np.cumsum([size(act(B, x)) for B in ops.split_maps])
                place = (survival - u) / (survival - after) * cum[-1]
                assert np.min(np.abs(cum - place)) > 1e-12 * cum[-1]
                ch = int((place >= cum).sum())
                nxt = act(ops.spawn_maps[ch], x)
                nxt, after, jumps = nxt / (size(nxt) if density else math.sqrt(size(nxt))), 1.0, jumps + 1
                u = thresholds(key[None], np.array([jumps]))[0]
                events.append((step, ch))
                if ops.queued_feedback:
                    pending.append((int(ops.due_step(step)), ops.slots[ch]))
            x, survival = nxt, after
            curve.append(survival)
        out.append((events, np.array(curve), reads, reads[-1] if cfg.n_steps in grid else None))
    return out


_CHAIN_CASES = [(False, 1.0, 0.0), (False, 1.0, 0.05), (True, 1.0, 0.0), (True, 1.0, 0.05),
                (True, 0.9, 0.0), (True, 0.9, 0.05)]


@pytest.mark.parametrize("density, eta, delay", _CHAIN_CASES,
                         ids=[f"{'density' if d else 'pure'}-eta{e}-delay{t}" for d, e, t in _CHAIN_CASES])
def test_event_loop_matches_per_step_chain(density, eta, delay):
    # the event loop moves a row through closed forms between events; an
    # explicit per-step chain (x @ A every step) must give the same survival
    # at every step, the same jumps, and the same states at the grid steps
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    policy = FeedbackPolicy.qutrit_cyclic(delay=delay, efficiency=eta)
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=6, rng_seed=29)
    grid = list(range(0, cfg.n_steps + 1, 20))
    chain = _per_step_chain(model, x0, cfg, policy, grid)
    assert sum(len(ev) for ev, *_ in chain) > 3

    # survival and state k steps past the initial anchor, every k up to the
    # run's end (pure rows) or the power table's end (density rows)
    sampler = trajectories._Sampler(model, x0, x0.ndim, cfg, policy)
    n = min(cfg.n_steps, sampler.cap)
    rows, zero = np.repeat(sampler.x0[None], n, axis=0), np.zeros(n, dtype=np.int64)
    steps = np.arange(1, n + 1)
    no_jumps = _per_step_chain(model, x0, cfg, policy, list(range(n + 1)),
                               thresholds=lambda keys, periods: np.zeros(keys.size))[0]
    nxt, jumped, _, survival = sampler._next(rows, np.zeros(n), zero, steps)
    assert not jumped.any() and np.array_equal(nxt, steps)
    assert np.max(np.abs(survival - no_jumps[1][:n])) < 1e-12
    states = sampler._states(sampler._advance(rows, steps))
    assert np.max(np.abs(states - np.array(no_jumps[2][1:n + 1]))) < 1e-12

    # whole trajectories, with their jumps, corrections and table re-anchors
    sample = sample_density_trajectories if density else sample_trajectories
    records = sample(model, x0, cfg, policy).records
    dt = cfg.dt
    for rec, (events, _, reads, final) in zip(records, chain, strict=True):
        assert [(round(e.time / dt - 0.5), e.channel) for e in rec.events] == events
        assert np.max(np.abs(rec.state - final)) < 1e-12
    obs = {f"x{j}": (lambda j: lambda states, counts: states.reshape(len(states), -1)[:, j].real)(j)
           for j in range(0, x0.size, 4)}
    driver = run_density_grid if density else run_sampled_grid
    curves = driver(model, x0, cfg, policy, grid, obs)
    for j in range(0, x0.size, 4):
        expected = np.mean([[r.reshape(-1)[j].real for r in reads] for _, _, reads, _ in chain], axis=0)
        assert np.max(np.abs(curves.mean[f"x{j}"] - expected)) < 1e-12


def test_results_independent_of_table_cap(monkeypatch):
    # the density table's length and the stretch length are one constant;
    # at 3 steps every row re-anchors at least every third step, against
    # one table over the horizon, with the same events and states
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    rho0 = np.outer(psi0, psi0.conj())
    cfg = UnravelingConfig(dt=5e-3, t_max=1.0, n_samples=40, rng_seed=37)
    grid = np.linspace(0, cfg.n_steps, 11).astype(int)
    obs = {"p0": lambda states, counts: np.abs(states.reshape(len(states), -1)[:, 4]),
           "jumps": lambda states, counts: counts.astype(float)}

    def run_all():
        policies = (FeedbackPolicy.qutrit_cyclic(delay=0.02), FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9))
        return ([sample_trajectories(model, psi0, cfg, policies[0]).records,
                 sample_density_trajectories(model, rho0, cfg, policies[1]).records],
                [run_sampled_grid(model, psi0, cfg, policies[0], grid, obs),
                 run_density_grid(model, rho0, cfg, policies[1], grid, obs)])

    default = run_all()
    monkeypatch.setattr(trajectories, "_TABLE_CAP", 3)
    short = run_all()
    assert all(sum(r.n_jumps for r in recs) > 0 for recs in default[0])
    for big, small in zip(default[0], short[0]):
        for ra, rb in zip(big, small, strict=True):
            assert ra.events == rb.events
            assert np.allclose(ra.state, rb.state, rtol=0.0, atol=1e-12)
    for big, small in zip(default[1], short[1]):
        for label in obs:
            assert np.allclose(big.mean[label], small.mean[label], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_crossing_without_a_branch_steps_on(density):
    # a row whose survival falls below its threshold in a step with a zero
    # split total takes no jump and moves past that step: it is not found
    # again at the same step, and the run ends with the no-jump states
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    cfg = UnravelingConfig(dt=5e-3, t_max=0.5, n_samples=20, rng_seed=3)
    sampler = trajectories._Sampler(model, x0, x0.ndim, cfg, None)
    sampler.splits = np.zeros_like(sampler.splits)
    calls, search = [], sampler._next

    def counted(*args):
        # each event moves a row at least a step: no more searches than
        # steps after the first one (a row found again at its crossing
        # would loop for ever)
        calls.append(len(args[0]))
        assert len(calls) <= cfg.n_steps + 1
        return search(*args)

    sampler._next = counted
    records = sampler.run(collect_records=True)[1]
    assert all(r.n_jumps == 0 for r in records)
    assert len(calls) > 10  # rows crossed, and stepped on
    no_jump = _per_step_chain(model, x0, cfg, None, [cfg.n_steps],
                              thresholds=lambda keys, periods: np.zeros(keys.size))[0][3]
    for rec in records:
        assert np.max(np.abs(rec.state - no_jump)) < 1e-12


_FIRST_CASES = [(False, None, 1.0, 4096), (False, FeedbackPolicy.qutrit_cyclic(delay=0.02), 1.0, 4096),
                (True, None, 1.0, 4096), (True, FeedbackPolicy.qutrit_cyclic(delay=0.02), 1.0, 4096),
                (True, FeedbackPolicy.qutrit_cyclic(efficiency=0.9), 1.0, 4096),
                (False, None, 0.0, 4096), (True, None, 0.0, 4096), (False, None, 1.0, 1), (True, None, 1.0, 1)]


@pytest.mark.parametrize("density, policy, t_max, chunk", _FIRST_CASES,
                         ids=["pure", "pure-delay", "density", "density-delay", "density-eta", "pure-K0",
                              "density-K0", "pure-short", "density-short"])
def test_first_event_search_equals_next(monkeypatch, density, policy, t_max, chunk):
    # every row leaves x0 by the one survival curve of x0: its first event is
    # _next's on m copies of x0, bit for bit; a curve cut short of the run
    # (at _SAMPLE_CHUNK 1 a block holds d = 9 floats) acts as a due step there
    monkeypatch.setattr(trajectories, "_SAMPLE_CHUNK", chunk)
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    cfg = UnravelingConfig(dt=5e-3, t_max=t_max, n_samples=10)
    sampler = trajectories._Sampler(model, x0, x0.ndim, cfg, policy)
    curve, K = sampler.curve, len(sampler.curve) - 1
    assert np.all(np.diff(curve) <= 0.0)
    assert K == (0 if t_max == 0.0 else 9 if chunk == 1 else sampler.cap if density else cfg.n_steps)
    m = 4000
    u = trajectories._thresholds(trajectories._trajectory_keys(5, 0, m), np.zeros(m, dtype=np.int64))
    u[:4] = 1.0, curve[K], curve[K // 2], 1e-300  # an exact tie at the end and half way
    due = np.full(m, K if K < min(cfg.n_steps, sampler.cap) else cfg.n_steps + 1)
    rows, zero = np.repeat(sampler.x0[None], m, axis=0), np.zeros(m, dtype=np.int64)
    expected = sampler._next(rows, u, zero, due)
    for got, want in zip(sampler._first(u), expected, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if t_max > 0.0:
        assert 0 < expected[1].sum() < m


@pytest.mark.parametrize("case", ["delayed", "density"])
def test_count_reads_independent_of_state_reads(case):
    # a counts-only run takes one stretch on pure rows and reads its counts
    # from the jump log; an added state read buffers states in stretches of
    # _TABLE_CAP steps, and no bit of the count curves moves
    counts_only = {"p0": declared("counts", _p0), "p1": declared("counts", _p1)}
    alone = grid_read_run(case, counts_only)
    both = grid_read_run(case, {**counts_only, "neg": declared("states", _neg3)})
    assert 0.0 < alone.mean["p0"][-1] < 1.0 and alone.mean["p1"].max() > 0.0
    for label in counts_only:
        assert alone.mean[label].tobytes() == both.mean[label].tobytes(), label
        assert alone.sem[label].tobytes() == both.sem[label].tobytes(), label


def test_sampler_memory_does_not_grow_with_the_steps_or_grid():
    # a counts-only run holds no count per grid point and row, and x0's
    # curve stops at a block's floats: a 1,001-point grid over 2,048 rows
    # (16 MB of counts) and a run of 10^6 steps (8 MB of curve) stay small
    model = build_qubit_pair(1.0)
    obs = {"p0": declared("counts", _p0)}
    runs = [(UnravelingConfig(dt=1e-3, t_max=1.0, n_samples=2048, rng_seed=3), range(1001)),
            (UnravelingConfig(dt=1e-3, t_max=1000.0, n_samples=8, rng_seed=3), (0, 10**6))]
    for cfg, grid in runs:
        tracemalloc.start()
        try:
            curves = run_sampled_grid(model, bell2(), cfg, None, grid, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (cfg.n_steps, peak)
        assert curves.mean["p0"][-1] < 1.0


@pytest.mark.parametrize("delay", [0.0, 0.02], ids=["ideal", "delayed"])
def test_jump_dispatch_gathers_no_matrix_per_row(delay):
    # a jump, and a queued correction, takes one product per channel over
    # the rows that pick it, not a D x D matrix gathered per row: 4,096
    # pure qutrit rows to gamma t = 5 stay below 6 MB traced (a gathered
    # stack took 7.7 MB, 8.8 MB with delay)
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    cfg = UnravelingConfig(dt=5e-3, t_max=5.0, n_samples=4096, rng_seed=3)
    policy = FeedbackPolicy.qutrit_cyclic(delay=delay)
    tracemalloc.start()
    try:
        curves = run_sampled_grid(model, code_bell3(), cfg, policy, [cfg.n_steps], {"p0": declared("counts", _p0)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak
    assert curves.mean["p0"][-1] < 1.0


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_zero_step_run_keeps_initial_state(density):
    # with no step to take (t_max = 0) every row ends where it started, and
    # with one step the rows still reach the end
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi0 = code_bell3()
    x0 = np.outer(psi0, psi0.conj()) if density else psi0
    policy = FeedbackPolicy.qutrit_cyclic(delay=0.02, efficiency=0.9 if density else 1.0)
    sample = sample_density_trajectories if density else sample_trajectories
    for t_max in (0.0, 5e-3):
        cfg = UnravelingConfig(dt=5e-3, t_max=t_max, n_samples=3)
        records = sample(model, x0, cfg, policy).records
        assert len(records) == 3
        if t_max == 0.0:
            assert all(r.n_jumps == 0 and np.allclose(r.state, x0, rtol=0.0, atol=1e-12) for r in records)


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
    # corrections must leave every record equal to the run without feedback,
    # its state to rounding, as each one re-anchors the row's closed form
    model = build_thermal_oscillator(1.0, ThermalSpec(1.0), 4)
    psi0 = basis_state(4, 2)
    cfg = UnravelingConfig(dt=2.5e-3, t_max=2.0, n_samples=200, rng_seed=7)
    policy = FeedbackPolicy(unitaries={0: np.eye(4)}, delay=0.5)
    plain = sample_trajectories(model, psi0, cfg).records
    queued = sample_trajectories(model, psi0, cfg, policy).records
    assert max(r.n_jumps for r in plain) > 8
    for ra, rb in zip(plain, queued, strict=True):
        assert ra.events == rb.events
        assert np.allclose(ra.state, rb.state, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dt, delay", [(0.005, 0.08), (0.004, 0.1)])
def test_queued_correction_lands_on_its_due_step(dt, delay):
    # one decaying qubit from |1> with an X correction: a jump leaves |0>,
    # where it cannot jump again, until its correction restores |1>; so a
    # record ends in |1> exactly when its last correction fell due by the
    # final step, whose due corrections apply before the final state is read
    model = OpenSystemModel(make_layout((2,)), (DecayChannel(0, lowering_operator(2), 1.0),))
    policy = FeedbackPolicy(unitaries={0: np.array([[0.0, 1.0], [1.0, 0.0]])}, delay=delay)
    cfg = UnravelingConfig(dt=dt, t_max=0.5, n_samples=2000, rng_seed=3)
    ops = trajectories.StepOperators(model, dt, policy)
    n_steps = cfg.n_steps
    last_due = set()
    for rec in sample_trajectories(model, basis_state(2, 1), cfg, policy).records:
        due = ops.due_step(round(rec.events[-1].time / dt - 0.5)) if rec.events else 0
        last_due.add(due)
        expected = basis_state(2, 1 if due <= n_steps else 0)
        assert np.allclose(rec.state, expected, rtol=0.0, atol=1e-12)
    assert {n_steps, n_steps + 1} <= last_due


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


@pytest.mark.parametrize("driver", [
    sample_trajectories,
    lambda model, psi, cfg: sample_density_trajectories(model, np.outer(psi, psi.conj()), cfg),
    lambda model, psi, cfg: run_sampled_grid(model, psi, cfg, None, [0, 10], {}),
    lambda model, psi, cfg: run_density_grid(model, np.outer(psi, psi.conj()), cfg, None, [0, 10], {}),
], ids=["sample_trajectories", "sample_density_trajectories", "run_sampled_grid", "run_density_grid"])
def test_samplers_reject_a_model_without_channels(driver):
    # a sampler has no channel to draw; enumeration gives the one no-jump record
    model, cfg = OpenSystemModel(layout=LAY2, channels=()), UnravelingConfig(dt=1e-2, t_max=0.1)
    with pytest.raises(ValueError, match="at least one decay channel"):
        driver(model, bell2(), cfg)
    assert [r.probability for r in enumerate_trajectories(model, bell2(), cfg).records] == [1.0]


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
