"""Named experiment presets wiring models, unravelings, feedback, measures.

Each runner returns a :class:`ScenarioResult`: labeled curves over a time
grid (each curve tagged with the measure it reports, so entanglement of
formation and negativity never mix silently), scalar summaries, and
metadata with truncation/sampling diagnostics. All randomness derives from
the single configured seed.

Each preset is one :data:`SCENARIOS` entry: runner, default gamma*dt and
alpha, the modes it runs (the first is its default), figure, summary and the
config keys it reads. ``ScenarioConfig`` rejects a mode the preset does not
run and fills in each default a run reads (mode, alpha, dt, tau); the command
line lists presets from the same table.

Every curve and scalar read is the average of one per-row observable f(states,
counts) -> value per row, defined once below. :func:`_run_curves`, the one caller
of every driver, hands it unchanged to the driver that :func:`_driver` picks from
the mode and the feedback policy: exact enumeration weights rows by probability,
the samplers by 1/n, and the master mode reads the rows of rho(t) with counts None.
f is row-local and deterministic, as the drivers reuse its values (exact
enumeration keeps one row per state id, whatever the jump budget). ``f.reads =
"states"`` or ``"counts"`` declares that f reads only that argument, and sampler
reads skip the other. A run steps to the last of its read times (by default the
configured grid) and reads each at its nearest step: singlet conversion's t* is a run
that reads (0, t*), a run of no step at alpha 1/2, and cavity-2x3's check times are
extra reads of its curve run.
Every exact run takes its jump budget from gamma and its horizon (:func:`_ucfg`); no
config key sets it.
``metadata["truncation_mass"]`` maps its label to its truncated plus culled mass,
``metadata["classes"]`` to its final classes per jump count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

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
    """Physical and numerical parameters of one scenario run.

    A field left None holds, once built, the value the run uses: ``mode`` the preset's first
    mode, ``alpha`` the preset's (None where it takes none), ``dt`` the requested step
    gamma_dt / gamma, and ``tau`` 0.08 / gamma where the preset reads it. ``replace`` keeps
    them, so a replaced ``gamma`` keeps the old ``dt`` and ``tau``."""

    scenario: str
    gamma: float = 1.0
    alpha: float | None = None
    eta: float = 0.92
    tau: float | None = None
    nbar: tuple[float, ...] = (0.0, 0.05, 0.5)
    dt: float | None = None
    t_max: float = 5.0
    grid_points: int = 51
    mode: str | None = None
    n_samples: int = 10_000
    seed: int = 12345

    def __post_init__(self):
        spec = SCENARIOS.get(self.scenario)
        if spec is None:
            raise ScenarioError(f"unknown scenario '{self.scenario}'")
        if self.gamma <= 0:
            raise ScenarioError(f"gamma must be positive, got {self.gamma}")
        # the defaults a run reads, resolved once; the "8% delay" tau is 8% of the decay time 1/gamma
        for key, value in (("mode", spec.modes[0]), ("alpha", spec.alpha), ("dt", spec.gamma_dt / self.gamma),
                           ("tau", 0.08 / self.gamma if "tau" in spec.params else None)):
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        for key in ("gamma", "alpha", "eta", "tau", "dt", "t_max", "nbar"):  # a tiny gamma resolves dt, tau to inf
            value = getattr(self, key)
            values = value if key == "nbar" else () if value is None else (value,)
            if not all(math.isfinite(v) for v in values):
                raise ScenarioError(f"{key.replace('_', '-')} must be finite, got {value}")
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
        if self.mode not in spec.modes:
            modes = " or ".join(f"'{m}'" for m in spec.modes)
            raise ScenarioError(f"mode must be {modes} for {self.scenario}, got '{self.mode}'")
        if self.t_max <= 0:
            raise ScenarioError("t-max must be positive")
        if self.dt <= 0:
            raise ScenarioError(f"dt must be positive, got {self.dt}")
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
        a = self.alpha
        if self.scenario == "singlet-conversion":
            if not 0.0 < a <= 0.5:
                raise ScenarioError(
                    f"alpha must lie in (0, 1/2] for singlet-conversion, got {a}"
                )
            if a < _CULL_FLOOR:  # the no-jump class, of mass 2 alpha, would be culled
                raise ScenarioError(f"alpha must be >= {_CULL_FLOOR:g} for singlet-conversion, "
                                    f"got {a}")
        if self.scenario in ("cavity-2x3", "cavity-thermal") and not 0.0 <= a <= 1.0:
            raise ScenarioError(f"alpha must lie in [0, 1], got {a}")
        rate = self.gamma  # the largest channel rate of every preset but the thermal cavity's
        if self.scenario == "cavity-thermal":
            rate = _cavity(self, max(self.nbar), THERMAL_CAVITY_DIM)[0].max_rate
        horizons = (self.t_max, _t_star(self)) if self.scenario == "singlet-conversion" else (self.t_max,)
        for t in horizons:  # each run resolves its own dt
            dt, n_steps = _resolve_steps(self, t)
            if n_steps > 2**53:  # past it, round(t / dt) no longer recovers every step count
                raise ScenarioError(f"the {n_steps} steps to t = {t:.6g} exceed 2**53")
            if rate * dt > MAX_GAMMA_DT * (1 + 1e-9):
                raise ScenarioError(f"gamma_max*dt = {rate * dt:.3g} exceeds {MAX_GAMMA_DT} on the {n_steps} "
                                    f"steps to t = {t:.6g}; decrease dt")


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
    """Pick (dt, n_steps) nearest the requested step ``cfg.dt`` so that n_steps * dt == t_max
    exactly (default ``cfg.t_max``); each run resolves its own. A zero horizon takes no step of
    the configured run's dt, which the step operators still build and rate-check."""
    if t_max == 0.0:
        return _resolve_steps(cfg)[0], 0
    t_max = cfg.t_max if t_max is None else t_max
    n_steps = max(1, int(round(t_max / cfg.dt)))
    return t_max / n_steps, n_steps


def _t_star(cfg: ScenarioConfig) -> float:
    """Singlet conversion's t*, e^{-2 gamma t*} = alpha / (1 - alpha): 0 at alpha = 1/2."""
    alpha = cfg.alpha
    return math.log((1.0 - alpha) / alpha) / (2.0 * cfg.gamma)


def _grid(cfg: ScenarioConfig) -> np.ndarray:
    """The configured grid's times, the last exactly t-max, so that a run to them resolves
    the configured steps and reads each grid step."""
    _, n_steps = _resolve_steps(cfg)
    return np.round(np.linspace(0, n_steps, cfg.grid_points)) / n_steps * cfg.t_max


def _ucfg(cfg: ScenarioConfig, t_max: float | None = None) -> UnravelingConfig:
    """The unraveling controls of a run to ``t_max`` (default ``cfg.t_max``) on its own steps,
    with the jump budget max(12, ceil(8 gamma t_max)). No model of an exact run jumps more
    than 4 times without feedback; under feedback the jump count recurs, but the classes stay
    few (indexed by the net level skew), so a deep budget is cheap."""
    t_max = cfg.t_max if t_max is None else t_max
    dt, n_steps = _resolve_steps(cfg, t_max)
    return UnravelingConfig(
        dt=dt,
        t_max=dt * n_steps,
        max_jumps=max(12, math.ceil(8.0 * cfg.gamma * t_max)),
        n_samples=cfg.n_samples,
        rng_seed=cfg.seed,
    )


def _metadata(warnings=()) -> dict:
    """Warnings, and the lost mass and class census of every exact run by label."""
    return {"warnings": list(warnings), "truncation_mass": {}, "classes": {}}


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
    f = lambda states, counts: ent.measure_rows(states, measure, layout)  # noqa: E731
    f.reads = "states"
    return measure.value, f


def _jumps(k: int):
    """Indicator of the rows that recorded exactly ``k`` jumps."""
    f = lambda states, counts: (counts == k).astype(float)  # noqa: E731
    f.reads = "counts"
    return f


def _driver(mode: str, policy) -> str:
    """'master' in master mode; else 'density-sampled' below efficiency one, 'pure-sampled'
    for a delay or in sampled mode, and 'exact' for the rest."""
    if mode == "master":
        return "master"
    if policy is not None and policy.efficiency < 1.0:
        return "density-sampled"
    return "pure-sampled" if mode == "sampled" or (policy is not None and policy.delay > 0.0) else "exact"


def _run_curves(cfg, metadata, model, psi0, observables, policy=None, mode=None, times=None) -> list[Curve]:
    """Averages of per-row observables at ``times`` (default the configured grid), from the
    state vector psi0.

    The run steps to the last of ``times`` on the steps :func:`_ucfg` resolves for it (none
    when that is 0) and reads each time at its nearest step; a curve lists its values in the order of ``times``,
    each at its step's time. ``observables`` maps label -> (measure, f), f(states, counts)
    giving one value per record row (see the module docstring; by ``f.reads`` a sampler
    passes states None to a count-only run, counts None to a state-only one).
    :func:`_driver` picks the driver from ``mode`` (default ``cfg.mode``) and ``policy``.
    The master mode has no SEM, and it and the density sampler start from |psi0><psi0|.
    An exact run books, under its first label, its truncated plus culled mass and its
    class census; past the truncation bound it raises :class:`ScenarioError`.
    """
    times = _grid(cfg) if times is None else np.asarray(times, dtype=float)
    ucfg = _ucfg(cfg, float(times.max()))
    steps, at = np.unique(np.round(times / ucfg.dt).astype(np.int64), return_inverse=True)
    fns = {label: f for label, (_, f) in observables.items()}
    driver, sem = _driver(mode or cfg.mode, policy), {}
    if driver == "master":
        rho_grid = np.array(evolve_master(model, np.outer(psi0, psi0.conj()), steps * ucfg.dt))
        mean = {label: f(rho_grid, None) for label, f in fns.items()}
    elif driver == "exact":
        label = next(iter(fns))
        try:
            mean, engine = run_exact_grid(model, psi0, ucfg, policy, steps, fns)
        except TruncationError as exc:
            raise ScenarioError(f"exact run {label}: {exc} (jump budget {ucfg.max_jumps})") from exc
        metadata["truncation_mass"][label] = engine.truncation_mass + engine.culled_mass
        metadata["classes"][label] = np.bincount(engine.counts).tolist()
    else:
        density = driver == "density-sampled"
        x0 = np.outer(psi0, psi0.conj()) if density else psi0
        out = (run_density_grid if density else run_sampled_grid)(model, x0, ucfg, policy, steps, fns)
        mean, sem = out.mean, out.sem
    return [
        Curve(label, measure, steps[at] * ucfg.dt, mean[label][at], sem[label][at] if label in sem else None)
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
    alpha = cfg.alpha
    gamma = cfg.gamma
    model = build_qubit_pair(gamma)
    layout = model.layout
    psi0 = _two_term(layout, math.sqrt(alpha), (0, 0), math.sqrt(1.0 - alpha), (1, 1))
    t_star = _t_star(cfg)

    metadata = _metadata()
    no_jump = _jumps(0)
    tag, entropy = _measure(Measure.ENTROPY_OF_ENTANGLEMENT, layout)
    # the no-jump-weighted entropy, over P_NJ the entropy of the conditional no-jump state
    weighted_entropy = (tag, lambda s, c: no_jump(s, c) * entropy(s, c))
    p_ok, weighted = (float(c.values[-1]) for c in _run_curves(cfg, metadata, model, psi0, {
        "t_star": (_PROB, no_jump), "entropy_t_star": weighted_entropy}, mode="exact", times=(0.0, t_star)))
    scalars = {"t_star": t_star, "p_ok_analytic": 2.0 * alpha, "p_ok": p_ok,
               "entropy_at_t_star": weighted / p_ok}

    if cfg.mode == "sampled":
        sampled, = _run_curves(cfg, metadata, model, psi0, {"no_jump": (_PROB, no_jump)}, times=(0.0, t_star))
        scalars["p_ok_sampled"] = float(sampled.values[-1])
        scalars["p_ok_sampled_sigma"] = sigma = float(sampled.sem[-1])
        if sigma == 0.0:  # a Wald SEM reads 0 when every or no trajectory is jump-free
            metadata["warnings"].append(f"p_ok_sampled_sigma is 0 at p_ok_sampled {scalars['p_ok_sampled']:g} "
                                        f"from {cfg.n_samples} samples: a sigma-based check on it is void")

    # curves over the configured horizon (exact engine; cheap for two qubits)
    pnj, entropy_nj = _run_curves(cfg, metadata, model, psi0, {
        "P_NJ": (_PROB, no_jump), "entropy_NJ": weighted_entropy}, mode="exact")
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

    # qutrit curve family; the delayed and inefficient feedback run on the samplers in either mode
    model_deg = build_qutrit_pair(CascadeSpec.degenerate(gamma))
    model_ho = build_qutrit_pair(CascadeSpec.harmonic_oscillator(gamma))
    fb_ideal = FeedbackPolicy.qutrit_cyclic()
    family = [
        ("E_3", model_deg, None, True),
        ("E_3f", model_deg, fb_ideal, True),
        ("E_3ho", model_ho, None, False),
        ("E_3fho", model_ho, fb_ideal, False),
    ]
    tau = cfg.tau
    for key, value, policy in (("tau", tau, FeedbackPolicy.qutrit_cyclic(delay=tau)),
                               ("eta", cfg.eta, FeedbackPolicy.qutrit_cyclic(efficiency=cfg.eta))):
        if policy.delay > 0.0 or policy.efficiency < 1.0:
            family.append((f"E_3f_{key}", model_deg, policy, False))
            metadata[f"{key}_run"] = {"driver": _driver(cfg.mode, policy), "n_samples": cfg.n_samples, key: value}
    for label, model, policy, with_entropy in family:
        observables = {label: neg3}
        if with_entropy:
            observables[label + "_entropy"] = entropy3
        curves += _run_curves(cfg, metadata, model, psi0_3, observables, policy)

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
    alpha = cfg.alpha
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
    alpha = cfg.alpha
    gamma = cfg.gamma
    model, psi0 = _cavity(cfg)
    layout = model.layout
    notes = []
    if alpha > 0.5:
        notes.append("alpha > 1/2: less population in the decaying branch than the protected one")
    metadata = _metadata(notes)

    # state-level checks read the step nearest each check time, at t_s: each branch's probability and
    # weighted fidelity 1[c = k] |<phi_k(t_s)|psi>|^2, against the closed forms at t_s
    dt, _ = _resolve_steps(cfg)
    checks = [round(t / dt) * dt for t in (0.2 / gamma, 0.5 / gamma, 1.0 / gamma, 2.0 / gamma) if t <= cfg.t_max]
    fidelity = lambda k, phi: lambda s, c: (c == k) * np.abs(s @ phi.conj()) ** 2  # noqa: E731
    observables = {
        "E_2x3": _measure(Measure.NEGATIVITY, layout),
        "P_chi0": (_PROB, _jumps(0)),
        "P_chi1": (_PROB, _jumps(1)),
    }
    for i, t in enumerate(checks):
        observables[f"F0_{i}"] = ("fidelity", fidelity(0, cavity_nj_state(alpha, gamma, t)))
        observables[f"F1_{i}"] = ("fidelity", fidelity(1, cavity_oj_state(alpha, gamma, t)))
    grid = _grid(cfg)
    engine_e, engine_p0, engine_p1, *fids = _run_curves(cfg, metadata, model, psi0, observables,
                                                         times=np.append(grid, checks))
    n = len(grid)  # the rows past the grid are the check reads
    p0, p1 = engine_p0.values[n:], engine_p1.values[n:]
    f0, f1 = (np.array([f.values[n + i] for i, f in enumerate(fids[k::2])]) for k in (0, 1))
    closed_t = cavity_closed_forms(alpha, gamma, np.array(checks))
    engine_e, engine_p0, engine_p1 = (Curve(c.label, c.measure, c.times[:n], c.values[:n])
                                      for c in (engine_e, engine_p0, engine_p1))
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

    scalars = {"alpha": alpha}
    if checks:
        scalars["min_fidelity_nj"] = float(np.min(f0 / p0))
        scalars["min_fidelity_oj"] = float(np.min(f1 / p1))
        scalars["max_prob_error_nj"] = float(np.max(np.abs(p0 - closed_t["P_chi0"])))
        scalars["max_prob_error_oj"] = float(np.max(np.abs(p1 - closed_t["P_chi1"])))
    else:
        metadata["warnings"].append(f"t-max {cfg.t_max:g} is below the first check time {0.2 / gamma:g}: no "
                                    "state-level check ran; min_fidelity_* and max_prob_error_* are left out")
    scalars["one_jump_classes"] = float((metadata["classes"]["E_2x3"] + [0, 0])[1])

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
    scalars: dict[str, float] = {"alpha": cfg.alpha}
    for i, (nbar, (dim, guard)) in enumerate(zip(cfg.nbar, ladders)):
        model, psi0 = _cavity(cfg, nbar, dim)
        tag = f"{nbar:g}"
        curves += _run_curves(replace(cfg, seed=(cfg.seed + i) % 2**64), metadata, model, psi0,
                              {f"E_2x3_nbar_{tag}": _measure(Measure.NEGATIVITY, (2, dim))})
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
        ("gamma", "t_max", "grid_points", "mode", "n_samples", "seed", "dt")),
    "singlet-conversion": _Scenario(
        run_singlet_conversion, 1e-3, _EXACT_SAMPLED, 0.25,
        "optimal singlet conversion protocol (p_ok = 2 alpha)",
        "optimal conversion of sqrt(a)|00>+sqrt(1-a)|11> via monitored decay",
        ("alpha", "gamma", "t_max", "grid_points", "mode", "n_samples", "seed", "dt")),
    "qutrit-protection": _Scenario(
        run_qutrit_protection, 5e-3, _EXACT_SAMPLED, None, "Fig. 1",
        "logical qubits in qutrits under cascade decay, with/without feedback",
        ("gamma", "eta", "tau", "t_max", "grid_points", "mode", "n_samples", "seed", "dt")),
    "cavity-2x3": _Scenario(
        run_cavity_2x3, 1e-3, ("exact",), 0.5, "Fig. 2a–c",
        "atom flying from a leaky 3-level cavity: closed forms vs trajectories",
        ("alpha", "gamma", "t_max", "grid_points", "dt")),
    "cavity-thermal": _Scenario(
        run_cavity_thermal, 5e-3, ("sampled",), 0.5, "Fig. 2d",
        "cavity channel with a thermal reservoir at several nbar",
        ("alpha", "gamma", "nbar", "t_max", "grid_points", "n_samples", "seed", "dt")),
}
SCENARIO_IDS = tuple(SCENARIOS)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    return SCENARIOS[cfg.scenario].run(cfg)
