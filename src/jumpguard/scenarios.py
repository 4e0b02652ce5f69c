"""Named experiment presets wiring models, unravelings, feedback, measures.

Each runner returns a :class:`ScenarioResult`: labeled curves over a time
grid (each curve tagged with the measure it reports, so entanglement of
formation and negativity never mix silently), scalar summaries, and
metadata with truncation/sampling diagnostics. All randomness derives from
the single configured seed.

Each preset is one :data:`SCENARIOS` entry: runner, default gamma*dt and
alpha, the modes it runs (the first is its default), figure, summary and the
config keys it reads. ``ScenarioConfig`` rejects a mode the preset does not
run; the command line lists presets from the same table.

Every curve is the average of one per-row observable f(states, counts) ->
value per row, defined once below and handed unchanged to whichever driver
runs (exact enumeration weights rows by probability, the samplers by 1/n;
the master mode reads the rows of rho(t) with counts None).
``metadata["truncation_mass"]`` maps the label of each exact run to its
truncated plus culled mass, and is empty without one.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import entanglement as ent
from .entanglement import Measure
from .linalg import make_layout, normalized, product_basis_state
from .models import (
    CascadeSpec,
    DecayChannel,
    OpenSystemModel,
    ThermalSpec,
    build_qubit_pair,
    build_qutrit_pair,
    evolve_master,
    thermal_channels,
)
from .trajectories import (
    MAX_GAMMA_DT,
    _CULL_FLOOR,
    FeedbackPolicy,
    TruncationError,
    UnravelingConfig,
    run_density_grid,
    run_exact_grid,
    run_sampled_grid,
)


class ScenarioError(RuntimeError):
    """A scenario could not run with the given configuration."""


THERMAL_CAVITY_DIM = 4  # three code levels plus one guard level for absorption
THERMAL_CAVITY_MAX_DIM = 8  # the largest thermal ladder, total dimension 16


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and numerical parameters of one scenario run."""

    scenario: str
    gamma: float = 1.0
    alpha: float | None = None
    eta: float = 0.92
    tau: float | None = None  # None -> 0.08 / gamma
    nbar: tuple[float, ...] = (0.0, 0.05, 0.5)
    dt: float | None = None
    t_max: float = 5.0
    grid_points: int = 51
    mode: str | None = None  # None -> the scenario's first mode
    n_samples: int = 10_000
    seed: int = 12345
    max_jumps: int = 4

    def __post_init__(self):
        spec = SCENARIOS.get(self.scenario)
        if spec is None:
            raise ScenarioError(f"unknown scenario '{self.scenario}'")
        for key in ("gamma", "alpha", "eta", "tau", "dt", "t_max", "nbar"):
            value = getattr(self, key)
            values = value if key == "nbar" else () if value is None else (value,)
            if not all(math.isfinite(v) for v in values):
                raise ScenarioError(f"{key.replace('_', '-')} must be finite, got {value}")
        if self.gamma <= 0:
            raise ScenarioError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.eta <= 1.0:
            raise ScenarioError(f"eta must lie in [0, 1], got {self.eta}")
        if self.tau is not None and self.tau < 0:
            raise ScenarioError(f"tau must be >= 0, got {self.tau}")
        object.__setattr__(self, "nbar", tuple(self.nbar))
        if any(n < 0 for n in self.nbar):
            raise ScenarioError(f"nbar values must be >= 0, got {self.nbar}")
        tags = [f"{n:g}" for n in self.nbar]  # each names one thermal curve and its files
        if self.scenario == "cavity-thermal" and not tags:
            raise ScenarioError("nbar must list at least one value for cavity-thermal")
        if self.scenario == "cavity-thermal" and len(set(tags)) < len(tags):
            raise ScenarioError(f"nbar values must be distinct for cavity-thermal, got "
                                f"{','.join(tags)}")
        if self.mode is None:
            object.__setattr__(self, "mode", spec.modes[0])
        if self.mode not in spec.modes:
            modes = " or ".join(f"'{m}'" for m in spec.modes)
            raise ScenarioError(f"mode must be {modes} for {self.scenario}, got '{self.mode}'")
        if self.t_max <= 0:
            raise ScenarioError("t-max must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ScenarioError(f"dt must be positive, got {self.dt}")
        if self.max_jumps < 0:
            raise ScenarioError(f"max-jumps must be >= 0, got {self.max_jumps}")
        if not 0 <= self.seed < 2**64:
            raise ScenarioError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.grid_points < 2:
            raise ScenarioError("grid-points must be >= 2")
        dt, n_steps = _resolve_steps(self)
        if self.grid_points > n_steps + 1:
            raise ScenarioError(f"grid-points {self.grid_points} exceeds the {n_steps + 1} "
                                f"points of {n_steps} steps of dt {dt:g} to t-max {self.t_max:g}")
        if self.n_samples < 1:
            raise ScenarioError("samples must be >= 1")
        if self.scenario == "singlet-conversion":
            a = self.resolved_alpha
            if not 0.0 < a <= 0.5:
                raise ScenarioError(
                    f"alpha must lie in (0, 1/2] for singlet-conversion, got {a}"
                )
            if a < _CULL_FLOOR:  # the no-jump class, of mass 2 alpha, would be culled
                raise ScenarioError(f"alpha must be >= {_CULL_FLOOR:g} for singlet-conversion, "
                                    f"got {a}")
        if self.scenario in ("cavity-2x3", "cavity-thermal"):
            a = self.resolved_alpha
            if not 0.0 <= a <= 1.0:
                raise ScenarioError(f"alpha must lie in [0, 1], got {a}")
        rate = self.gamma  # the largest channel rate of every preset but the thermal cavity's
        if self.scenario == "cavity-thermal":
            rate = _cavity(self, max(self.nbar), THERMAL_CAVITY_DIM)[0].max_rate
        for t in (self.t_max, *_checkpoints(self)):  # each run resolves its own dt
            dt, n_steps = _resolve_steps(self, t)
            if n_steps > 2**53:  # past it, round(t / dt) no longer recovers every step count
                raise ScenarioError(f"the {n_steps} steps to t = {t:.6g} exceed 2**53")
            if rate * dt > MAX_GAMMA_DT * (1 + 1e-9):
                raise ScenarioError(f"gamma_max*dt = {rate * dt:.3g} exceeds {MAX_GAMMA_DT} on the {n_steps} "
                                    f"steps to t = {t:.6g}; decrease dt")

    @property
    def resolved_alpha(self) -> float | None:
        return self.alpha if self.alpha is not None else SCENARIOS[self.scenario].alpha

    @property
    def resolved_tau(self) -> float:
        # "8% delay" read as 8% of the decay time 1/gamma
        return self.tau if self.tau is not None else 0.08 / self.gamma


@dataclass
class Curve:
    label: str
    measure: str
    times: np.ndarray
    values: np.ndarray
    sem: np.ndarray | None = None

    def __post_init__(self):
        if len(self.values) != len(self.times):
            raise ValueError(f"curve '{self.label}': {len(self.values)} values on "
                             f"{len(self.times)} grid points")


@dataclass
class ScenarioResult:
    scenario: str
    curves: list[Curve]
    scalars: dict[str, float]
    metadata: dict
    # label -> (alpha axis, time axis, value matrix)
    surfaces: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)

    def curve(self, label: str) -> Curve:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"no curve labeled '{label}'")


def _resolve_steps(cfg: ScenarioConfig, t_max: float | None = None):
    """Pick (dt, n_steps) so that n_steps * dt == t_max exactly."""
    t_max = cfg.t_max if t_max is None else t_max
    requested = cfg.dt if cfg.dt is not None else SCENARIOS[cfg.scenario].gamma_dt / cfg.gamma
    n_steps = max(1, int(round(t_max / requested)))
    return t_max / n_steps, n_steps


def _checkpoints(cfg: ScenarioConfig) -> list[float]:
    """Horizons of the checkpoint runs, each resolving its own dt: singlet conversion's t*,
    e^{-2 gamma t*} = alpha / (1 - alpha) (0, no run, from alpha = 1/2); cavity-2x3's check times."""
    gamma, alpha = cfg.gamma, cfg.resolved_alpha
    if cfg.scenario == "singlet-conversion":
        return [math.log((1.0 - alpha) / alpha) / (2.0 * gamma) if alpha < 0.5 else 0.0]
    if cfg.scenario == "cavity-2x3":
        return [t for t in (0.2 / gamma, 0.5 / gamma, 1.0 / gamma, 2.0 / gamma) if t <= cfg.t_max]
    return []


def _grid_steps(n_steps: int, grid_points: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_steps, grid_points)).astype(int))


def _ucfg(cfg: ScenarioConfig, t_max: float | None = None, **overrides) -> UnravelingConfig:
    """The unraveling controls of a run to ``t_max`` (default ``cfg.t_max``) on its own steps."""
    dt, n_steps = _resolve_steps(cfg, t_max)
    kw = dict(
        dt=dt,
        t_max=dt * n_steps,
        max_jumps=cfg.max_jumps,
        n_samples=cfg.n_samples,
        rng_seed=cfg.seed,
    )
    kw.update(overrides)
    return UnravelingConfig(**kw)


def _metadata(warnings=()) -> dict:
    """Warnings and the lost mass of every exact run by label."""
    return {"warnings": list(warnings), "truncation_mass": {}}


def _two_term(layout, x: float, a: tuple, y: float, b: tuple) -> np.ndarray:
    """x|a> + y|b> on the product basis of ``layout``, normalized."""
    return normalized(x * product_basis_state(layout, a) + y * product_basis_state(layout, b))


# ---------------------------------------------------------------------------
# per-row observables and the one curve driver
# ---------------------------------------------------------------------------

_PROB = "probability"


def _measure(measure: Measure, layout):
    """(measure tag, f) of one entanglement measure per state vector or density matrix row."""
    layout = make_layout(layout)
    return measure.value, lambda states, counts: ent.measure_rows(states, measure, layout)


def _jumps(k: int):
    """Indicator of the rows that recorded exactly ``k`` jumps."""
    return lambda states, counts: (counts == k).astype(float)


def _exact(metadata, label: str, model, psi0, ucfg, policy=None, gsteps=(), fns=None):
    """(curves, engine) of :func:`run_exact_grid`, whose final classes are the engine's
    ``weights``, ``counts`` and ``states``, its truncated plus culled mass booked under
    ``label``; past the truncation bound a :class:`ScenarioError`."""
    try:
        curves, engine = run_exact_grid(model, psi0, ucfg, policy, gsteps, fns or {})
    except TruncationError as exc:
        raise ScenarioError(f"exact run {label}: {exc} (jump budget {ucfg.max_jumps}, "
                            f"set by --max-jumps)") from exc
    metadata["truncation_mass"][label] = engine.truncation_mass + engine.culled_mass
    return curves, engine


def _classes(engine, k: int) -> np.ndarray:
    """Positions of the engine's final classes that recorded ``k`` jumps, heaviest first
    (id order on a tie)."""
    ids = np.flatnonzero(engine.counts == k)
    return ids[np.argsort(-engine.weights[ids], kind="stable")]


def _run_curves(cfg, metadata, model, x0, observables, policy=None, mode=None,
                t_max=None, grid_points=None, **overrides) -> list[Curve]:
    """Averages of per-row observables over the configured grid.

    ``observables`` maps label -> (measure, f), f(states, counts) giving one value
    per record row; f is row-local and deterministic, as every driver evaluates it
    once per distinct (state, count). ``mode`` (default ``cfg.mode``) 'master'
    evaluates f on the rows of the master-equation state rho(t) from x0 (a state
    vector x0 as |x0><x0|), with counts None and no SEM. Otherwise a density-matrix
    ``x0`` runs the density sampler; 'exact' runs exact enumeration, whose truncated
    plus culled mass is recorded under the first label (past the truncation bound it
    raises :class:`ScenarioError`), and 'sampled' the wavefunction sampler.
    ``overrides`` adjust the :class:`UnravelingConfig`.
    """
    ucfg = _ucfg(cfg, t_max, **overrides)
    gsteps = _grid_steps(ucfg.n_steps, grid_points or cfg.grid_points)
    times = gsteps * ucfg.dt
    fns = {label: f for label, (_, f) in observables.items()}
    mode, sem = mode or cfg.mode, {}
    if mode == "master":
        rho_grid = np.array(evolve_master(model, x0 if x0.ndim == 2 else np.outer(x0, x0.conj()), times))
        mean = {label: f(rho_grid, None) for label, f in fns.items()}
    elif x0.ndim == 1 and mode == "exact":
        mean = _exact(metadata, next(iter(fns)), model, x0, ucfg, policy, gsteps, fns)[0]
    else:
        driver = run_density_grid if x0.ndim == 2 else run_sampled_grid
        out = driver(model, x0, ucfg, policy, gsteps, fns)
        mean, sem = out.mean, out.sem
    return [
        Curve(label, measure, times, mean[label], sem.get(label))
        for label, (measure, _) in observables.items()
    ]


def _bell_qubit_pair(cfg):
    """The monitored qubit pair and (|10> + |01>)/sqrt(2)."""
    return build_qubit_pair(cfg.gamma), _two_term((2, 2), 1.0, (1, 0), 1.0, (0, 1))


# ---------------------------------------------------------------------------
# bell-monitoring
# ---------------------------------------------------------------------------


def run_bell_monitoring(cfg: ScenarioConfig) -> ScenarioResult:
    """Monitored qubit pair: E_F of the unmonitored state, the trajectory
    average E_2, and the no-jump probability P_NJ over the time grid."""
    metadata = _metadata()
    model, psi0 = _bell_qubit_pair(cfg)
    eof = _measure(Measure.ENTANGLEMENT_OF_FORMATION, (2, 2))
    curves = (_run_curves(cfg, metadata, model, psi0, {"E_F": eof}, mode="master")
              + _run_curves(cfg, metadata, model, psi0, {"E_2": eof, "P_NJ": (_PROB, _jumps(0))}))
    pnj = curves[-1]
    scalars = {
        "p_nj_final": float(pnj.values[-1]),
        "p_nj_analytic_final": math.exp(-cfg.gamma * pnj.times[-1]),
    }
    return ScenarioResult(cfg.scenario, curves, scalars, metadata)


# ---------------------------------------------------------------------------
# singlet-conversion
# ---------------------------------------------------------------------------


def run_singlet_conversion(cfg: ScenarioConfig) -> ScenarioResult:
    """Optimal singlet conversion by monitored local decay.

    Starting from sqrt(a)|00> + sqrt(1-a)|11>, the no-jump evolution tilts
    the amplitudes until e^{-gamma t*} = sqrt(a/(1-a)); stopping there on a
    jump-free record yields a maximally entangled state with probability
    p_ok = 2a. Curves are computed with the exact engine; sampled mode adds
    an empirical success estimate at t*.
    """
    alpha = cfg.resolved_alpha
    gamma = cfg.gamma
    model = build_qubit_pair(gamma)
    layout = model.layout
    psi0 = _two_term(layout, math.sqrt(alpha), (0, 0), math.sqrt(1.0 - alpha), (1, 1))
    t_star, = _checkpoints(cfg)

    metadata = _metadata()
    # the conditional no-jump class exactly at t*
    p_ok, state = 1.0, psi0
    if t_star > 0.0:
        engine = _exact(metadata, "t_star", model, psi0, _ucfg(cfg, t_star))[1]
        nj = _classes(engine, 0)[0]
        p_ok, state = float(engine.weights[nj]), engine.states[nj]
    scalars = {"t_star": t_star, "p_ok_analytic": 2.0 * alpha, "p_ok": p_ok,
               "entropy_at_t_star": ent.entanglement_entropy(state, layout)}

    no_jump = _jumps(0)
    if cfg.mode == "sampled" and t_star > 0.0:
        sampled, = _run_curves(cfg, metadata, model, psi0, {"no_jump": (_PROB, no_jump)},
                               t_max=t_star, grid_points=2)
        scalars["p_ok_sampled"] = float(sampled.values[-1])
        scalars["p_ok_sampled_sigma"] = float(sampled.sem[-1])

    # curves over the configured horizon (exact engine; cheap for two qubits);
    # the no-jump entropy is the no-jump-weighted average over P_NJ
    tag, entropy = _measure(Measure.ENTROPY_OF_ENTANGLEMENT, layout)
    pnj, entropy_nj = _run_curves(cfg, metadata, model, psi0, {
        "P_NJ": (_PROB, no_jump),
        "entropy_NJ": (tag, lambda s, c: no_jump(s, c) * entropy(s, c)),
    }, mode="exact")
    entropy_nj.values = np.divide(entropy_nj.values, pnj.values,
                                  out=np.zeros_like(pnj.values), where=pnj.values > 0)
    pnj_analytic = alpha + (1.0 - alpha) * np.exp(-2.0 * gamma * pnj.times)
    curves = [pnj, Curve("P_NJ_analytic", _PROB, pnj.times, pnj_analytic), entropy_nj]
    return ScenarioResult(cfg.scenario, curves, scalars, metadata)


# ---------------------------------------------------------------------------
# qutrit-protection
# ---------------------------------------------------------------------------


def run_qutrit_protection(cfg: ScenarioConfig) -> ScenarioResult:
    """Entanglement protection curves for logical qubits in qutrits.

    Emits the degenerate-cascade and harmonic-oscillator-cascade trajectory
    averages with and without ideal feedback (negativity, plus entropy
    variants for the degenerate pair), the qubit references E_2 and E_F in
    both negativity and entanglement-of-formation units, and the non-ideal
    feedback variants: delayed correction (tau, which reaches E_3f_tau
    only) and inefficient detection (eta, necessarily run through the
    density-matrix sampler; E_3f_eta takes immediate feedback).
    """
    gamma = cfg.gamma
    layout3 = make_layout((3, 3))
    psi0_3 = _two_term(layout3, 1.0, (1, 2), 1.0, (2, 1))
    neg3 = _measure(Measure.NEGATIVITY, layout3)
    entropy3 = _measure(Measure.ENTROPY_OF_ENTANGLEMENT, layout3)
    metadata = _metadata()

    # qubit references
    model2, psi0_2 = _bell_qubit_pair(cfg)
    eof2 = _measure(Measure.ENTANGLEMENT_OF_FORMATION, (2, 2))
    neg2 = _measure(Measure.NEGATIVITY, (2, 2))
    curves = (_run_curves(cfg, metadata, model2, psi0_2, {"E_F": eof2, "E_F_neg": neg2}, mode="master")
              + _run_curves(cfg, metadata, model2, psi0_2, {"E_2": eof2, "E_2_neg": neg2}))

    # qutrit curve family
    model_deg = build_qutrit_pair(CascadeSpec.degenerate(gamma))
    model_ho = build_qutrit_pair(CascadeSpec.harmonic_oscillator(gamma))
    fb_ideal = FeedbackPolicy.qutrit_cyclic()

    # With feedback the jump count recurs indefinitely; the branch classes
    # stay few (they are indexed by the net level skew), so a deep jump
    # budget is cheap and keeps the truncated mass negligible, short runs
    # included.
    fb_depth = max(cfg.max_jumps, int(math.ceil(8.0 * gamma * cfg.t_max)), 12)
    family = [
        ("E_3", model_deg, None, True, cfg.max_jumps),
        ("E_3f", model_deg, fb_ideal, True, fb_depth),
        ("E_3ho", model_ho, None, False, cfg.max_jumps),
        ("E_3fho", model_ho, fb_ideal, False, fb_depth),
    ]
    for label, model, policy, with_entropy, depth in family:
        observables = {label: neg3}
        if with_entropy:
            observables[label + "_entropy"] = entropy3
        curves += _run_curves(cfg, metadata, model, psi0_3, observables, policy, max_jumps=depth)

    # Delayed feedback runs on the sampler: exact enumeration takes no delay.
    tau = cfg.resolved_tau
    if tau > 0:
        fb_tau = FeedbackPolicy.qutrit_cyclic(delay=tau)
        curves += _run_curves(cfg, metadata, model_deg, psi0_3, {"E_3f_tau": neg3},
                              fb_tau, mode="sampled")
        metadata["tau_run"] = {"driver": "pure-sampled", "n_samples": cfg.n_samples, "tau": tau}

    # inefficient detection: density-matrix sampling is the only driver.
    if cfg.eta < 1.0:
        fb_eta = FeedbackPolicy.qutrit_cyclic(efficiency=cfg.eta)
        rho0 = np.outer(psi0_3, psi0_3.conj())
        curves += _run_curves(cfg, metadata, model_deg, rho0, {"E_3f_eta": neg3}, fb_eta)
        metadata["eta_run"] = {"driver": "density-sampled", "n_samples": cfg.n_samples,
                               "eta": cfg.eta}

    scalars = {"tau": tau, "eta": cfg.eta}
    return ScenarioResult(cfg.scenario, curves, scalars, metadata)


# ---------------------------------------------------------------------------
# cavity 2x3
# ---------------------------------------------------------------------------


def _cavity(cfg: ScenarioConfig, nbar: float = 0.0,
            dim: int = 3) -> tuple[OpenSystemModel, np.ndarray]:
    """Atom (stable) times a ``dim``-level cavity ladder in a reservoir at ``nbar``, and the
    code state sqrt(a)|1,1> + sqrt(1-a)|0,2>. The cold 3-level ladder is the oscillator cascade."""
    layout = make_layout((2, dim))
    channels = tuple(DecayChannel(1, op, rate)
                     for op, rate in thermal_channels(cfg.gamma, ThermalSpec(nbar), dim))
    alpha = cfg.resolved_alpha
    psi0 = _two_term(layout, math.sqrt(alpha), (1, 1), math.sqrt(1.0 - alpha), (0, 2))
    return OpenSystemModel(layout=layout, channels=channels), psi0


def cavity_closed_forms(alpha: float, gamma: float, times: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form probabilities and entanglement for the 2x3 cavity channel.

    No-jump branch: P0 = a e^{-gt} + (1-a) e^{-2gt}, Schmidt pair
    (sqrt(a) e^{-gt/2}, sqrt(1-a) e^{-gt}). One-jump branch: the state is the
    same whatever the jump time, with aggregated probability
    P1 = (a + 2(1-a) e^{-gt}) (1 - e^{-gt}); Schmidt pair
    (sqrt(a), sqrt(2(1-a)) e^{-gt/2}). Negativity of a Schmidt pair (x, y)
    normalized is x y, so each branch contributes its Schmidt product times
    its probability. The two-level reference keeps only the no-jump branch:
    E_2x2 = sqrt(a(1-a)) e^{-gt/2}.
    """
    g = gamma
    e1 = np.exp(-g * times)
    p0 = alpha * e1 + (1.0 - alpha) * e1**2
    p = alpha + 2.0 * (1.0 - alpha) * e1
    p1 = p * (1.0 - e1)
    root = np.sqrt(np.maximum(alpha * (1.0 - alpha), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        e_nj = np.where(p0 > 0, root * e1**1.5 / p0, 0.0)
        e_oj = np.where(p > 0, math.sqrt(2.0) * root * np.sqrt(e1) / p, 0.0)
    e_2x3 = e_nj * p0 + e_oj * p1
    e_2x2 = root * np.sqrt(e1)
    return {
        "P_chi0": p0,
        "P_chi1": p1,
        "E_NJ": e_nj,
        "E_OJ": e_oj,
        "E_2x3": e_2x3,
        "E_2x2": e_2x2,
    }


def cavity_nj_state(alpha: float, gamma: float, t: float) -> np.ndarray:
    return _two_term((2, 3), math.sqrt(alpha) * math.exp(-gamma * t / 2.0), (1, 1),
                     math.sqrt(1.0 - alpha) * math.exp(-gamma * t), (0, 2))


def cavity_oj_state(alpha: float, gamma: float, t: float) -> np.ndarray:
    return _two_term((2, 3), math.sqrt(alpha), (1, 0),
                     math.sqrt(2.0 * (1.0 - alpha)) * math.exp(-gamma * t / 2.0), (0, 1))


def run_cavity_2x3(cfg: ScenarioConfig) -> ScenarioResult:
    """Atom-cavity 2x3 channel: engine curves against closed forms, plus
    (alpha, t) surfaces for the branch contributions and the 2x3 - 2x2 gap."""
    alpha = cfg.resolved_alpha
    gamma = cfg.gamma
    model, psi0 = _cavity(cfg)
    layout = model.layout
    notes = []
    if alpha > 0.5:
        notes.append("alpha > 1/2: less population in the decaying branch than the protected one")
    metadata = _metadata(notes)

    engine_e, engine_p0, engine_p1 = _run_curves(cfg, metadata, model, psi0, {
        "E_2x3": _measure(Measure.NEGATIVITY, layout),
        "P_chi0": (_PROB, _jumps(0)),
        "P_chi1": (_PROB, _jumps(1)),
    })
    times = engine_e.times
    closed = cavity_closed_forms(alpha, gamma, times)
    curves = [
        engine_e,
        Curve("E_2x3_analytic", engine_e.measure, times, closed["E_2x3"]),
        Curve("E_2x2_analytic", engine_e.measure, times, closed["E_2x2"]),
        engine_p0,
        Curve("P_chi0_analytic", _PROB, times, closed["P_chi0"]),
        engine_p1,
        Curve("P_chi1_analytic", _PROB, times, closed["P_chi1"]),
    ]

    # state-level cross-checks at a few interior times
    fid_nj, fid_oj, dp0, dp1 = [], [], [], []
    n_oj_classes = 0
    for t in _checkpoints(cfg):
        engine = _exact(metadata, f"check_t{t:g}", model, psi0, _ucfg(cfg, t))[1]
        closed_t = cavity_closed_forms(alpha, gamma, np.array([t]))
        w, states = engine.weights, engine.states
        nj, oj = _classes(engine, 0)[0], _classes(engine, 1)
        n_oj_classes = max(n_oj_classes, oj.size)
        fid_nj.append(abs(np.vdot(states[nj], cavity_nj_state(alpha, gamma, t))) ** 2)
        dp0.append(abs(float(w[nj]) - closed_t["P_chi0"][0]))
        if oj.size:
            fid_oj.append(abs(np.vdot(states[oj[0]], cavity_oj_state(alpha, gamma, t))) ** 2)
            dp1.append(abs(sum(w[oj].tolist()) - closed_t["P_chi1"][0]))

    scalars = {
        "alpha": alpha,
        "min_fidelity_nj": float(min(fid_nj)) if fid_nj else 1.0,
        "min_fidelity_oj": float(min(fid_oj)) if fid_oj else 1.0,
        "max_prob_error_nj": float(max(dp0)) if dp0 else 0.0,
        "max_prob_error_oj": float(max(dp1)) if dp1 else 0.0,
        "one_jump_classes": float(n_oj_classes),
    }

    alphas = np.linspace(0.0, 1.0, 101)
    tgrid = np.linspace(0.0, cfg.t_max, 201)
    c = cavity_closed_forms(alphas[:, None], gamma, tgrid[None, :])
    surfaces = {
        "surface_nj_contribution": (alphas, tgrid, c["E_NJ"] * c["P_chi0"]),
        "surface_oj_contribution": (alphas, tgrid, c["E_OJ"] * c["P_chi1"]),
        "surface_2x3_minus_2x2": (alphas, tgrid, c["E_2x3"] - c["E_2x2"]),
    }

    return ScenarioResult(cfg.scenario, curves, scalars, metadata, surfaces)


# ---------------------------------------------------------------------------
# cavity thermal
# ---------------------------------------------------------------------------


def _thermal_ladder(cfg: ScenarioConfig, nbar: float) -> tuple[int, float]:
    """The smallest cavity ladder, of THERMAL_CAVITY_DIM to THERMAL_CAVITY_MAX_DIM levels, whose
    guard level, the last, holds below 1e-3 of rho(t) on the run's grid, and that population;
    past the cap a :class:`ScenarioError`."""
    for dim in range(THERMAL_CAVITY_DIM, THERMAL_CAVITY_MAX_DIM + 1):
        guard = lambda rho, c: np.trace(rho[:, dim - 1::dim, dim - 1::dim], axis1=1, axis2=2).real
        curve, = _run_curves(cfg, None, *_cavity(cfg, nbar, dim), {"guard": (_PROB, guard)}, mode="master")
        if (population := float(curve.values.max())) < 1e-3:
            return dim, population
    raise ScenarioError(f"guard-level population {population:.2e} at nbar={nbar:g} exceeds 1e-3 "
                        f"on the largest cavity ladder, {dim} levels")


def run_cavity_thermal(cfg: ScenarioConfig) -> ScenarioResult:
    """Thermal-cavity variant of the 2x3 channel, one curve per nbar.

    Absorption out of |2> needs levels above the code space, so each nbar's
    cavity ladder is the smallest of 4 to 8 levels whose top (guard) level
    holds below 1e-3 population in the master-equation state rho(t) on the
    run's grid; the ladders are chosen before any sampling, and past 8 levels
    the run fails. Monitoring records both emission and absorption, so the
    trajectory states stay pure and the runs are Monte Carlo sampled.
    """
    ladders = [_thermal_ladder(cfg, nbar) for nbar in cfg.nbar]
    metadata = _metadata()
    curves = []
    scalars: dict[str, float] = {"alpha": cfg.resolved_alpha}
    for i, (nbar, (dim, guard)) in enumerate(zip(cfg.nbar, ladders)):
        model, psi0 = _cavity(cfg, nbar, dim)
        tag = f"{nbar:g}"
        curves += _run_curves(cfg, metadata, model, psi0,
                              {f"E_2x3_nbar_{tag}": _measure(Measure.NEGATIVITY, (2, dim))},
                              rng_seed=(cfg.seed + i) % 2**64)
        scalars[f"cavity_dim_nbar_{tag}"] = float(dim)
        scalars[f"guard_population_nbar_{tag}"] = guard
    return ScenarioResult(cfg.scenario, curves, scalars, metadata)


# ---------------------------------------------------------------------------
# the preset table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    run: Callable[[ScenarioConfig], ScenarioResult]
    gamma_dt: float  # default time resolution gamma * dt
    modes: tuple[str, ...]  # the first is the default
    alpha: float | None  # default alpha; None where the preset takes none
    figure: str
    summary: str
    params: tuple[str, ...]  # the ScenarioConfig keys a run reads


_EXACT_SAMPLED = ("exact", "sampled")

# The qutrit and thermal runs are heavier and tolerate a coarser step at
# second-order accuracy.
SCENARIOS = {
    "bell-monitoring": _Scenario(
        run_bell_monitoring, 1e-3, _EXACT_SAMPLED, None, "Fig. 1 (E_F and E_2 curves)",
        "monitored qubit pair: E_F, trajectory-averaged E_2, no-jump probability",
        ("gamma", "t_max", "grid_points", "mode", "n_samples", "seed", "dt", "max_jumps")),
    "singlet-conversion": _Scenario(
        run_singlet_conversion, 1e-3, _EXACT_SAMPLED, 0.25,
        "optimal singlet conversion protocol (p_ok = 2 alpha)",
        "optimal conversion of sqrt(a)|00>+sqrt(1-a)|11> via monitored decay",
        ("alpha", "gamma", "t_max", "grid_points", "mode", "n_samples", "seed", "dt",
         "max_jumps")),
    "qutrit-protection": _Scenario(
        run_qutrit_protection, 5e-3, _EXACT_SAMPLED, None, "Fig. 1",
        "logical qubits in qutrits under cascade decay, with/without feedback",
        ("gamma", "eta", "tau", "t_max", "grid_points", "mode", "n_samples", "seed", "dt",
         "max_jumps")),
    "cavity-2x3": _Scenario(
        run_cavity_2x3, 1e-3, ("exact",), 0.5, "Fig. 2a–c",
        "atom flying from a leaky 3-level cavity: closed forms vs trajectories",
        ("alpha", "gamma", "t_max", "grid_points", "dt", "max_jumps")),
    "cavity-thermal": _Scenario(
        run_cavity_thermal, 5e-3, ("sampled",), 0.5, "Fig. 2d",
        "cavity channel with a thermal reservoir at several nbar",
        ("alpha", "gamma", "nbar", "t_max", "grid_points", "n_samples", "seed", "dt")),
}
SCENARIO_IDS = tuple(SCENARIOS)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    return SCENARIOS[cfg.scenario].run(cfg)
