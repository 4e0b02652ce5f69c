"""Quantum-jump unraveling of an open-system model.

Continuous monitoring of every decay channel splits the master-equation
evolution into records: smooth no-detection stretches interrupted by
discrete jumps. Three drivers are provided.

* Exact enumeration (`enumerate_trajectories`): a depth-limited tree over
  jump patterns on the dt grid, without feedback or with immediate
  feedback. Branches whose conditional states share one direction are
  merged, with their probabilities summed; this is exact for every
  downstream use and keeps the tree finite when ideal feedback keeps
  restoring the initial state. Each distinct state is interned once, with
  its spawn masses and memoized successor and child ids, so a step is a
  table lookup. A merged record keeps the events of its fewest-jump pattern
  (earliest on ties). Delayed feedback and detection efficiency below one
  run on the samplers only.

* Monte Carlo sampling (`sample_trajectories`): standard wavefunction
  stepping, one uniform draw per step, channels resolved by cumulative
  probability in (slot, channel) order. A step jumps with probability
  q_tot = 1 - |N psi|^2, read off the no-jump advance N psi that the step
  computes anyway. The draw of trajectory ``i`` at step ``s`` is a
  counter-based uniform u(rng_seed, i, s): a SplitMix64 finalizer of the
  key derived from (rng_seed, i) plus the step counter, top 53 bits. No
  generator state is carried, so results are reproducible and independent
  of trajectory order and of the block or batch size. A delayed correction
  waits in its trajectory's FIFO queue until its due step.

* Density-matrix sampling (`sample_density_trajectories`): required when
  detection efficiency eta < 1. The same sampler steps real rows T vec(rho)
  in an orthonormal Hermitian basis T, where a map A acts as the real
  T (A (x) A*) T^+; rows become matrices only at grid points and records.
  Recorded jumps update the state projectively and trigger feedback;
  unrecorded jumps fold into the no-record map N (x) N* + (1 - eta) sum_k
  S_k (x) S_k*, which mixes the observer's conditional state.

Per step of length dt the no-jump update is the exact exponential
exp(-1/2 G dt) with G = sum_k gamma_k L_k+ L_k, so the no-jump probability
composes multiplicatively and survives machine-exact over any horizon.
Jump branches are weighted through W = sqrt((1 - e^{-G dt}) / (G dt)), which
makes the per-step splitting exactly complete; their states are placed at
mid-step. Exact enumeration keeps an explicit two-jumps-in-one-step sector,
so its ensemble averages converge at second order in dt. The samplers take
at most one jump per step; their order in dt under delayed feedback is not
yet measured. The first-order no-jump operator 1 - (dt/2) G is kept behind
a flag for scaling tests.

The trajectory drivers unravel the decay generator alone: a model with a
Hamiltonian is rejected, since only the master equation includes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (as_matrix, as_vector, dagger, embed, hermitian_basis, make_layout,
                     real_superoperator)
from .models import OpenSystemModel

MAX_GAMMA_DT = 1e-2
_SAMPLE_CHUNK = 16384
_NORM_FLOOR = 1e-250


class TruncationError(RuntimeError):
    """Raised when the untracked jump-pattern mass exceeds the configured bound."""


@dataclass(frozen=True)
class JumpEvent:
    time: float
    slot: int
    channel: int

    def __post_init__(self):
        if self.time < 0 or self.slot < 0 or self.channel < 0:
            raise ValueError(f"invalid jump event ({self.time}, {self.slot}, {self.channel})")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One unraveling record: events, conditional state, probability/weight.

    ``state`` is a normalized state vector, or a unit-trace density matrix
    for inefficient-monitoring records.
    """

    events: tuple[JumpEvent, ...]
    state: np.ndarray
    probability: float

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1.0 + 1e-9:
            raise ValueError(f"record probability {self.probability} outside [0, 1]")
        size = np.trace(self.state).real if self.state.ndim == 2 else np.vdot(self.state, self.state).real
        if abs(size - 1.0) > 1e-8:
            raise ValueError(f"record state not normalized (got {size})")

    @property
    def n_jumps(self) -> int:
        return len(self.events)

    @property
    def is_density(self) -> bool:
        return self.state.ndim == 2


@dataclass(frozen=True)
class FeedbackPolicy:
    """Per-slot correction unitary with delay tau and detection efficiency eta.

    The correction is applied to the slot that jumped, a time ``delay``
    after the recorded jump; jumps during the delay window are processed
    first and corrections queue FIFO. ``efficiency`` is the probability
    that a physical jump is recorded at all. Exact enumeration takes delay
    0 and efficiency 1 only; the samplers take any.
    """

    unitaries: dict[int, np.ndarray]
    delay: float = 0.0
    efficiency: float = 1.0
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        fixed = {}
        for slot, u in dict(self.unitaries).items():
            u = as_matrix(u)
            defect = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))
            if defect > 1e-10:
                raise ValueError(f"correction for slot {slot} is not unitary (defect {defect:.2e})")
            fixed[int(slot)] = u
        object.__setattr__(self, "unitaries", fixed)

    @classmethod
    def qutrit_cyclic(cls, slots=(0, 1), **kwargs) -> "FeedbackPolicy":
        """Standard cascade correction |1> -> |2>, |0> -> |1|, cyclically completed."""
        u = np.zeros((3, 3), dtype=np.complex128)
        u[2, 1] = 1.0
        u[1, 0] = 1.0
        u[0, 2] = 1.0
        return cls(unitaries={s: u for s in slots}, **kwargs)


@dataclass(frozen=True)
class UnravelingConfig:
    """Numerical controls shared by the exact and sampled drivers."""

    dt: float
    t_max: float
    max_jumps: int = 4
    n_samples: int = 10_000
    rng_seed: int = 12345
    truncation_bound: float = 1e-4
    cull_floor: float = 1e-12

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        if self.max_jumps < 0:
            raise ValueError("max_jumps must be >= 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


def _check_rate_resolution(model: OpenSystemModel, dt: float):
    if model.max_rate * dt > MAX_GAMMA_DT * (1 + 1e-9):
        raise ValueError(
            f"gamma_max*dt = {model.max_rate * dt:.3g} exceeds {MAX_GAMMA_DT}; decrease dt"
        )


def _initial_state(x0, dim: int, ndim: int) -> np.ndarray:
    """``x0`` as a complex array, checked before any step: a normalized state
    vector (``ndim`` 1) or a unit-trace, Hermitian, positive semidefinite
    density matrix (``ndim`` 2) on the model's ``dim``-dimensional space."""
    x0 = np.asarray(x0, dtype=np.complex128)
    what, unit = ("initial density matrix", "trace") if ndim == 2 else ("initial state", "norm")
    if x0.shape != (dim,) * ndim:
        raise ValueError(f"{what} must have shape {(dim,) * ndim}, got {x0.shape}")
    if ndim == 2 and np.max(np.abs(x0 - dagger(x0))) > 1e-10:
        raise ValueError("initial density matrix is not Hermitian")
    if ndim == 2 and np.linalg.eigvalsh(x0)[0] < -1e-10:
        raise ValueError("initial density matrix is not positive semidefinite")
    value = np.trace(x0).real if ndim == 2 else np.vdot(x0, x0).real
    if abs(value - 1.0) > 1e-10:
        raise ValueError(f"{what} must have unit {unit}, got {value:.12g}")
    return x0


def _checked_grid(grid_steps, n_steps: int) -> list[int]:
    """Sorted distinct grid steps, each within [0, n_steps]."""
    grid = sorted(set(int(g) for g in grid_steps))
    if grid and (grid[0] < 0 or grid[-1] > n_steps):
        raise ValueError(f"grid steps out of range [0, {n_steps}]")
    return grid


def _mass_fraction(u: np.ndarray) -> np.ndarray:
    """(1 - exp(-u)) / u, stable at u -> 0."""
    out = np.empty_like(u)
    small = u < 1e-8
    us = u[small]
    out[small] = 1.0 - us / 2.0 + us * us / 6.0
    ub = u[~small]
    out[~small] = -np.expm1(-ub) / ub
    return out


def _function_of_generator(model: OpenSystemModel):
    """f -> f(G) for the decay generator G, through its clipped eigenvalues."""
    if model.hamiltonian is not None:
        raise ValueError("trajectory drivers take no Hamiltonian; use evolve_master")
    lam, V = np.linalg.eigh(model.decay_generator)
    lam = np.clip(lam, 0.0, None)
    Vd = dagger(V)
    return lambda f: (V * f(lam)[None, :]) @ Vd


class StepOperators:
    """Precomputed per-step matrices for one (model, dt, policy) combination."""

    def __init__(self, model: OpenSystemModel, dt: float, policy: FeedbackPolicy | None = None):
        _check_rate_resolution(model, dt)
        self.model = model
        self.dt = float(dt)
        self.policy = policy if (policy is not None and policy.enabled) else None
        self.immediate_feedback = self.policy is not None and self.policy.delay == 0.0
        self.queued_feedback = self.policy is not None and self.policy.delay > 0.0

        func_of_g = _function_of_generator(model)
        self.no_jump = func_of_g(lambda lam: np.exp(-lam * dt / 2.0))
        self.no_jump_half = func_of_g(lambda lam: np.exp(-lam * dt / 4.0))
        self.weight_root = func_of_g(lambda lam: np.sqrt(_mass_fraction(lam * dt)))  # W

        self.slots = [ch.slot for ch in model.channels]
        self.unitaries_embedded = {}
        if self.policy is not None:
            for slot in set(self.slots):
                if slot not in self.policy.unitaries:
                    raise ValueError(f"feedback policy has no correction unitary for slot {slot}")
                self.unitaries_embedded[slot] = embed(
                    self.policy.unitaries[slot], slot, model.layout
                )

        self.split_maps = []      # B_k = sqrt(gamma_k dt) L W; channel k's mass is |B_k psi|^2
        self.jump_maps = []       # sqrt(gamma_k dt) N_half L N_half
        self.jump_maps_fb = []    # immediate feedback: U folded in; else jump_maps
        for ch, L in zip(model.channels, model.embedded_ops):
            g = ch.rate * dt
            W = self.weight_root
            self.split_maps.append(math.sqrt(g) * (L @ W))
            self.jump_maps.append(math.sqrt(g) * (self.no_jump_half @ L @ self.no_jump_half))
            if self.immediate_feedback:
                u = self.unitaries_embedded[ch.slot]
                self.jump_maps_fb.append(math.sqrt(g) * (self.no_jump_half @ u @ L @ self.no_jump_half))
            else:
                self.jump_maps_fb.append(self.jump_maps[-1])

    @property
    def n_channels(self) -> int:
        return len(self.model.channels)

    def due_step(self, jump_step_index: int) -> int:
        assert self.policy is not None
        return int(math.ceil(jump_step_index + 0.5 + self.policy.delay / self.dt - 1e-12))


def no_jump_step(model: OpenSystemModel, psi: np.ndarray, dt: float, first_order: bool = False):
    """No-detection update: unnormalized psi' and its probability |psi'|^2.

    Default is the exact exponential exp(-1/2 G dt); ``first_order`` selects
    the truncated operator 1 - (dt/2) G instead.
    """
    psi = as_vector(psi)
    _check_rate_resolution(model, dt)
    func_of_g = _function_of_generator(model)
    if first_order:
        op = np.eye(model.dim, dtype=np.complex128) - 0.5 * dt * model.decay_generator
    else:
        op = func_of_g(lambda lam: np.exp(-lam * dt / 2.0))
    out = op @ psi
    return out, float(np.vdot(out, out).real)


def jump_step(model: OpenSystemModel, psi: np.ndarray, channel: int, dt: float):
    """Detection in ``channel``: psi' = sqrt(gamma dt) L psi and p = |psi'|^2."""
    psi = as_vector(psi)
    ch = model.channels[channel]
    L = model.embedded_ops[channel]
    out = math.sqrt(ch.rate * dt) * (L @ psi)
    return out, float(np.vdot(out, out).real)


def apply_feedback(policy: FeedbackPolicy, psi: np.ndarray, slot: int, layout) -> np.ndarray:
    """Apply the slot's correction unitary, embedded in the full space."""
    if not policy.enabled:
        raise ValueError("feedback policy is disabled")
    layout = make_layout(layout)
    u = embed(policy.unitaries[slot], slot, layout)
    return u @ as_vector(psi)


def kraus_defect(model: OpenSystemModel, dt: float) -> float:
    """Operator norm of Pi0+ Pi0 + sum_k Pi1k+ Pi1k - 1 for the first-order set."""
    _check_rate_resolution(model, dt)
    first_order = np.eye(model.dim, dtype=np.complex128) - 0.5 * dt * model.decay_generator
    total = dagger(first_order) @ first_order
    for ch, L in zip(model.channels, model.embedded_ops):
        J = math.sqrt(ch.rate * dt) * L  # literal jump operator
        total = total + dagger(J) @ J
    defect = total - np.eye(model.dim)
    return float(np.max(np.abs(np.linalg.eigvalsh(defect))))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


@dataclass
class EnumerationResult:
    records: list[TrajectoryRecord]
    truncation_mass: float
    culled_mass: float

    @property
    def total_probability(self) -> float:
        return float(sum(r.probability for r in self.records))


def _canonical_keys(states: np.ndarray) -> np.ndarray:
    """Quantized phase-fixed directions.

    Rows that agree within ~1e-9 per component key identically; distinct
    branch classes in every model here differ by at least ~gamma*dt.
    """
    mags = np.abs(states)
    mx = mags.max(axis=1)
    pivot = np.argmax(mags >= (mx * (1.0 - 1e-6))[:, None], axis=1)
    ph = states[np.arange(states.shape[0]), pivot]
    ph = ph / np.abs(ph)
    canon = states * np.conj(ph)[:, None]
    re = np.round(canon.real * 1e9).astype(np.int64)
    im = np.round(canon.imag * 1e9).astype(np.int64)
    return np.concatenate([re, im], axis=1)


def _grown(arr: np.ndarray, size: int, axis: int = 0, fill=-1) -> np.ndarray:
    """``arr`` with room for ``size`` entries along ``axis`` (capacity
    doubles); new entries hold ``fill``."""
    if arr.shape[axis] >= size:
        return arr
    shape = list(arr.shape)
    shape[axis] = max(size, 2 * arr.shape[axis])
    out = np.full(shape, fill, dtype=arr.dtype)
    out[tuple(slice(n) for n in arr.shape)] = arr
    return out


class _ExactEngine:
    """Branch-merged tree enumeration on the dt grid over interned states.

    A state's id keys its direction. Its table entry, filled when it first
    carries a class, holds the no-jump probability, the spawn mass of each
    map per unit weight, and the successor and child ids (-1: culled). A
    class is an (id, weight, count, node) entry; merged classes keep the
    fewest-jump member's count and events, ties going to the earliest row
    (parents, then children in map order).
    """

    def __init__(self, model, psi0, config: UnravelingConfig, policy: FeedbackPolicy | None):
        if policy is not None and policy.enabled and policy.efficiency < 1.0:
            raise ValueError(
                "exact enumeration supports efficiency 1 only; "
                "use sample_density_trajectories for eta < 1"
            )
        if policy is not None and policy.enabled and policy.delay > 0.0:
            raise ValueError(
                "exact enumeration supports immediate feedback only; "
                "use sample_trajectories for delay > 0"
            )
        psi0 = _initial_state(psi0, model.dim, ndim=1)
        self.ops = ops = StepOperators(model, config.dt, policy)
        self.config = config
        K = ops.n_channels

        # spawn maps: the K single jumps, then the two-jumps-in-one-step
        # sector (k then l) with weight roots sqrt(g_k g_l / 2) dt L_l L_k and
        # mid-step placed state maps. Keeping this sector makes the per-step
        # splitting second order in dt.
        self.chans = [(k,) for k in range(K)] + [(k, l) for k in range(K) for l in range(K)]
        self.needed = np.array([len(c) for c in self.chans])
        d = model.dim
        self.split_maps = np.reshape(ops.split_maps, (K, d, d))
        pair_weight_ops = []
        maps = list(ops.jump_maps_fb)
        for k, l in self.chans[K:]:
            Lk, Ll = model.embedded_ops[k], model.embedded_ops[l]
            scale = math.sqrt(model.channels[k].rate * model.channels[l].rate / 2.0) * config.dt
            pair_weight_ops.append(scale * (Ll @ Lk))
            if ops.immediate_feedback:
                uk = ops.unitaries_embedded[model.channels[k].slot]
                ul = ops.unitaries_embedded[model.channels[l].slot]
                Ll, Lk = ul @ Ll, uk @ Lk
            maps.append(scale * (ops.no_jump_half @ Ll @ Lk @ ops.no_jump_half))
        self.pair_weight_ops = np.reshape(pair_weight_ops, (K * K, d, d))
        self.maps = np.reshape(maps, (len(maps), d, d))

        # state table, one row per id; succ stays -1 until the row is filled
        J = len(maps)
        self.table_states = np.empty((0, d), dtype=np.complex128)
        self.stay, self.succ = np.empty(0), np.empty(0, dtype=np.int64)
        self.mass, self.child = np.empty((0, J)), np.empty((0, J), dtype=np.int64)
        self.index: dict[bytes, int] = {}  # key -> id of its latest entry
        self.size = 0

        self.ids = self._intern(psi0[None, :])
        self.weights = np.ones(1)
        self.counts = np.zeros(1, dtype=np.int64)
        self.nodes: list[tuple[int, float, int, int]] = []  # (parent, time, slot, channel)
        self.node_of = np.array([-1], dtype=np.int64)
        self.truncation_mass = 0.0
        self.culled_mass = 0.0

    @property
    def states(self) -> np.ndarray:
        return np.take(self.table_states, self.ids, axis=0)

    # -- state table --------------------------------------------------------

    def _intern(self, states: np.ndarray) -> np.ndarray:
        """Ids of the rows' states, adding the ones whose key is new."""
        keys = list(map(bytes, _canonical_keys(states)))
        first = {}
        for i, key in enumerate(keys):
            if key not in self.index:
                first.setdefault(key, i)
        rows = list(first.values())
        self.index.update(zip(first, self._add(states[rows])))
        return np.array([self.index[key] for key in keys], dtype=np.int64)

    def _add(self, states: np.ndarray) -> np.ndarray:
        """New table entries for the rows' states; returns their ids."""
        ids = np.arange(self.size, self.size + len(states))
        self.size += len(states)
        for name in ("table_states", "stay", "succ", "mass", "child"):
            setattr(self, name, _grown(getattr(self, name), self.size))
        self.table_states[ids] = states
        return ids

    def _fill(self, ids: np.ndarray):
        """Fill the table entries of the ids in ``ids`` that have none yet."""
        new = ids[self.succ[ids] < 0]
        if new.size == 0:
            return
        ops, K, m = self.ops, self.ops.n_channels, new.size
        psi = self.table_states[new]
        # per-channel raw masses |B_k psi|^2 (sum exactly to 1 - |N psi|^2)
        # less the two-jump sector split off them; pair masses are >= 0, so
        # one clip after the subtractions equals a clip after each
        raw1 = psi @ self.split_maps.transpose(0, 2, 1)
        singles = np.einsum("kbi,kbi->kb", raw1.conj(), raw1).real
        raw2 = psi @ self.pair_weight_ops.transpose(0, 2, 1)
        pairs = np.einsum("pbi,pbi->pb", raw2.conj(), raw2).real
        for l in range(K):
            singles = singles - pairs[l::K]  # the pairs (k, l), k = 0..K-1
        self.mass[new] = np.concatenate([np.clip(singles, 0.0, None), pairs]).T

        adv = psi @ ops.no_jump.T
        adv2 = np.einsum("bi,bi->b", adv.conj(), adv).real
        # a stored state serves every visit, so its no-jump probability is
        # taken relative to its own norm, whose rounding would compound per step
        stay = adv2 / np.einsum("bi,bi->b", psi.conj(), psi).real
        raw = psi @ self.maps.transpose(0, 2, 1)
        nrm2 = np.einsum("jbi,jbi->jb", raw.conj(), raw).real
        maps, rows = np.nonzero(nrm2 > _NORM_FLOOR)
        states = np.concatenate(
            [adv / np.sqrt(adv2)[:, None], raw[maps, rows] / np.sqrt(nrm2[maps, rows])[:, None]]
        )
        reached = self._intern(states)
        # a successor keyed like its own state without equalling it relaxes
        # more slowly than the key resolves; it gets a new entry (which takes
        # over the key), or its class would stop evolving
        moving = np.nonzero((reached[:m] == new) & (abs(states[:m] - psi).max(axis=1) > 1e-14))[0]
        if moving.size:
            reached[moving] = self._add(states[moving])
            keys = map(bytes, _canonical_keys(states[moving]))
            self.index.update(zip(keys, reached[moving]))

        self.stay[new] = stay
        self.succ[new] = reached[:m]
        child = np.full(nrm2.shape, -1, dtype=np.int64)
        child[maps, rows] = reached[m:]
        self.child[new] = child.T

    # -- main sweep --------------------------------------------------------

    def run(self, grid_steps=(), observables=None):
        """Sweep to t_max; evaluate ``observables`` at each grid step.

        observables: dict label -> per-row fn(states, counts) -> float array,
        called on every class row and reduced here as the weighted sum
        sum(fn(states, counts) * weights). Returns {label: np.ndarray over
        grid_steps}. Raises :class:`TruncationError` when the mass of
        patterns deeper than ``max_jumps`` exceeds ``truncation_bound``.
        """
        observables = observables or {}
        n_steps = self.config.n_steps
        grid = _checked_grid(grid_steps, n_steps)
        curves = {label: np.empty(len(grid)) for label in observables}
        grid_pos = 0
        for step in range(n_steps + 1):
            while grid_pos < len(grid) and grid[grid_pos] == step:
                states = self.states
                for label, fn in observables.items():
                    curves[label][grid_pos] = float((fn(states, self.counts) * self.weights).sum())
                grid_pos += 1
            if step == n_steps:
                break
            self._step(step)
        if self.truncation_mass > self.config.truncation_bound:
            raise TruncationError(
                f"truncation mass {self.truncation_mass:.3e} exceeds bound "
                f"{self.config.truncation_bound:.1e}; increase max_jumps"
            )
        return curves

    def _step(self, step: int):
        cfg = self.config
        ids, counts = self.ids, self.counts
        B = ids.size
        self._fill(ids)

        # (map, class) arrays; flat indices run through maps, then classes
        mass = np.take(self.mass, ids, axis=0).T * self.weights
        child = np.take(self.child, ids, axis=0).T
        eligible = counts <= cfg.max_jumps - self.needed[:, None]
        self.truncation_mass += float(mass[~eligible].sum())
        spawn = eligible & (mass > 0.0)
        culled = spawn & (child < 0)
        self.culled_mass += float(mass[culled].sum())
        flat = np.flatnonzero(spawn & ~culled)
        maps = flat // B
        rows = flat - maps * B

        all_ids = np.concatenate([np.take(self.succ, ids), np.take(child, flat)])
        all_weights = np.concatenate([self.weights * np.take(self.stay, ids), np.take(mass, flat)])
        all_counts = np.concatenate([counts, counts[rows] + self.needed[maps]])
        # merge by id; each class is represented by its fewest-jump row,
        # ties going to the earliest, and classes follow their representatives
        n = all_ids.size
        order = all_counts * n + np.arange(n)
        rank = np.full(self.size, np.iinfo(np.int64).max)
        np.minimum.at(rank, all_ids, order)
        rep = np.nonzero(rank[all_ids] == order)[0]
        rank[all_ids[rep]] = np.arange(rep.size)
        weights = np.bincount(rank[all_ids], weights=all_weights, minlength=rep.size)

        # cull negligible classes (their mass is reported, not lost silently)
        tiny = weights < cfg.cull_floor
        self.culled_mass += float(weights[tiny].sum())
        rep, self.weights = rep[~tiny], weights[~tiny]
        self.ids, self.counts = all_ids[rep], all_counts[rep]
        # a child representing a class records its jumps as new event nodes
        node_of = np.concatenate([self.node_of, self.node_of[rows]])
        t_mid = (step + 0.5) * cfg.dt
        for r in rep[rep >= B]:
            for c in self.chans[maps[r - B]]:
                self.nodes.append((int(node_of[r]), t_mid, self.ops.slots[c], int(c)))
                node_of[r] = len(self.nodes) - 1
        self.node_of = node_of[rep]

    def _events_for(self, node: int) -> tuple[JumpEvent, ...]:
        out = []
        while node >= 0:
            parent, t, slot, ch = self.nodes[node]
            out.append(JumpEvent(time=t, slot=slot, channel=ch))
            node = parent
        return tuple(reversed(out))

    def records(self) -> list[TrajectoryRecord]:
        order = np.argsort(-self.weights, kind="stable")
        states = self.states
        return [
            TrajectoryRecord(
                events=self._events_for(int(self.node_of[i])),
                state=states[i],
                probability=float(self.weights[i]),
            )
            for i in order
        ]


def enumerate_trajectories(
    model: OpenSystemModel,
    psi0: np.ndarray,
    config: UnravelingConfig,
    policy: FeedbackPolicy | None = None,
) -> EnumerationResult:
    """Exact depth-limited enumeration of jump-pattern classes up to t_max.

    Returned probabilities plus the reported truncation mass sum to one.
    Raises :class:`TruncationError` when the mass of patterns deeper than
    ``max_jumps`` exceeds ``config.truncation_bound``.
    """
    engine = _ExactEngine(model, psi0, config, policy)
    engine.run()
    return EnumerationResult(
        records=engine.records(),
        truncation_mass=engine.truncation_mass,
        culled_mass=engine.culled_mass,
    )


def run_exact_grid(model, psi0, config, policy, grid_steps, observables):
    """Scenario-facing sweep: observable curves over a step grid.

    Observables are per-row functions fn(states, counts) -> float array, as
    for the samplers; each curve value is the probability-weighted sum over
    the classes. Returns (curves, engine) so callers can read truncation
    diagnostics; raises :class:`TruncationError` as enumeration does.
    """
    engine = _ExactEngine(model, psi0, config, policy)
    curves = engine.run(grid_steps, observables)
    return curves, engine


# ---------------------------------------------------------------------------
# Monte Carlo samplers
# ---------------------------------------------------------------------------


@dataclass
class SampleResult:
    records: list[TrajectoryRecord]


@dataclass
class SampledCurves:
    """Per-grid mean and standard error of each observable."""

    mean: dict[str, np.ndarray]
    sem: dict[str, np.ndarray]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 counter increment


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _trajectory_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Keys of trajectories i = lo..hi-1: SplitMix64(SplitMix64(seed) + (i+1) * golden)."""
    base = _splitmix64(np.array([seed], dtype=np.uint64))
    return _splitmix64(base + np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN))


def _step_uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    """u(seed, i, step) in [0, 1): top 53 bits of SplitMix64(key_i + (step+1) * golden)."""
    offset = np.uint64(((step + 1) * _GOLDEN) & _MASK64)
    return (_splitmix64(keys + offset) >> np.uint64(11)).astype(np.float64) * 2.0**-53


_EMPTY = np.iinfo(np.int64).max  # free pending-queue entry


def _pop_due_corrections(states, queues, limit, n_slots, corrections):
    """Apply and dequeue the pending corrections whose codes lie below ``limit``.

    A code is (due step) * n_slots + slot; column 0 holds each row's next
    correction and one entry per row is popped per pass, so a row's
    corrections act in queue order. ``corrections`` maps slot -> the
    transposed row map, applied as ``rows @ corrections[slot]``.
    """
    while queues.shape[1]:
        rows = np.nonzero(queues[:, 0] < limit)[0]
        if rows.size == 0:
            return
        for slot, ut in corrections.items():
            sel = rows[queues[rows, 0] % n_slots == slot]
            if sel.size:
                states[sel] = states[sel] @ ut
        queues[rows, :-1] = queues[rows, 1:]
        queues[rows, -1] = _EMPTY


class _Sampler:
    """Vectorized Monte Carlo unraveling over blocks of trajectory rows.

    A row is a state vector psi, or the real coordinates T vec(rho) of a
    density matrix in the Hermitian basis T (`linalg.hermitian_basis`). A
    per-step map A acts through its lift, A itself or the real
    T (A (x) A*) T^+ (rho -> A rho A^+), as ``rows @ lift(A).T``. A row's
    weight is |psi|^2 or tr rho, the sum of its first d coordinates. Recorded
    jumps (a fraction eta of the physical ones) update the row projectively
    and trigger feedback; unrecorded jumps fold into the no-record map
    N (x) N* + (1 - eta) sum_k S_k (x) S_k*. Observables are per-row
    functions fn(states, counts) -> float array, density rows as complex
    (n, d, d) matrices, averaged with weight 1/n_samples.
    """

    def __init__(self, model, x0, config: UnravelingConfig, policy: FeedbackPolicy | None):
        self.config = config
        if not 0 <= config.rng_seed <= _MASK64:
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {config.rng_seed}")
        self.ops = ops = StepOperators(model, config.dt, policy)
        self.eta = eta = ops.policy.efficiency if ops.policy is not None else 1.0
        self.d = d = model.dim
        self.density = x0.ndim == 2
        if eta < 1.0 and not self.density:
            raise ValueError("pure-state sampling supports efficiency 1 only; "
                             "use sample_density_trajectories for eta < 1")
        self.basis = T = hermitian_basis(d) if self.density else None
        self.x0 = (T @ x0.reshape(-1)).real if self.density else x0
        lift = (lambda A: real_superoperator(np.kron(A, A.conj()), T)) if self.density else (lambda A: A)

        # transposed row maps: rows @ map
        no_jump = lift(ops.no_jump)
        self.advance = (no_jump + (1.0 - eta) * sum(map(lift, ops.jump_maps))).T
        # tr(N rho N^+) per row, needed when the advance holds unrecorded jumps
        self.no_jump_trace = no_jump[:d].sum(axis=0) if eta < 1.0 else None
        self.jumps = np.concatenate([lift(S).T for S in ops.jump_maps_fb], axis=1)
        self.splits = np.concatenate([lift(B).T for B in ops.split_maps], axis=1)
        self.corrections = {slot: lift(u).T for slot, u in ops.unitaries_embedded.items()}

    def _weight(self, rows):
        """|psi|^2 or tr rho along the last axis."""
        if self.density:
            return rows[..., : self.d].sum(axis=-1)
        return np.einsum("...i,...i->...", rows.view(np.float64), rows.view(np.float64))

    def _normalize(self, rows, weight):
        """Scale freshly computed rows to unit weight in place."""
        rows.view(np.float64)[:] *= (1.0 / (weight if self.density else np.sqrt(weight)))[:, None]
        return rows

    def _states(self, rows):
        return (rows @ self.basis.conj()).reshape(-1, self.d, self.d) if self.density else rows

    def run(self, grid_steps=(), observables=None, collect_records=False):
        observables = observables or {}
        cfg, ops = self.config, self.ops
        n_steps = cfg.n_steps
        grid = _checked_grid(grid_steps, n_steps)
        n = cfg.n_samples
        K = ops.n_channels
        n_slots = ops.model.layout.n_subsystems
        D = self.x0.size  # row length
        acc = {lab: np.zeros((2, len(grid))) for lab in observables}  # sums of f and f^2
        records: list[TrajectoryRecord] = []
        block = max(1, _SAMPLE_CHUNK * self.d // D)

        for lo in range(0, n, block):
            hi = min(lo + block, n)
            m = hi - lo
            keys = _trajectory_keys(cfg.rng_seed, lo, hi)
            states = np.repeat(self.x0[None], m, axis=0)
            counts = np.zeros(m, dtype=np.int64)
            events = [[] for _ in range(m)] if collect_records else None
            # FIFO queues of (due step) * n_slots + slot codes, widened on demand
            pending = np.full((m, 0), _EMPTY, dtype=np.int64)
            grid_pos = 0

            for step in range(n_steps + 1):
                if ops.queued_feedback:
                    _pop_due_corrections(states, pending, (step + 1) * n_slots, n_slots,
                                         self.corrections)
                while grid_pos < len(grid) and grid[grid_pos] == step:
                    for lab, fn in observables.items():
                        vals = fn(self._states(states), counts)
                        acc[lab][:, grid_pos] += vals.sum(), (vals * vals).sum()
                    grid_pos += 1
                if step == n_steps:
                    break

                # N^+ N = 1 - dt W G W, so the no-jump weight gives the total
                # (recorded) jump probability of the step
                adv = states @ self.advance
                weight = self._weight(adv)
                stay = weight if self.no_jump_trace is None else states @ self.no_jump_trace
                q_tot = self.eta * (1.0 - stay)
                u = _step_uniforms(keys, step)
                jumpers = np.nonzero(u < q_tot)[0]
                pre = states[jumpers]
                states = self._normalize(adv, weight)

                if jumpers.size:
                    split = self._weight((pre @ self.splits).reshape(jumpers.size, K, D))
                    cum = np.cumsum(split, axis=1)
                    ok = cum[:, -1] > 0.0
                    jumpers, pre, cum = jumpers[ok], pre[ok], cum[ok]
                    # rescale the draw so the channel split uses the same
                    # floating-point total as the jump decision did
                    r = u[jumpers] * (cum[:, -1] / q_tot[jumpers])
                    chosen = np.minimum((r[:, None] >= cum).sum(axis=1), K - 1)
                    y = (pre @ self.jumps).reshape(-1, K, D)[np.arange(chosen.size), chosen]
                    states[jumpers] = self._normalize(y, self._weight(y))
                    counts[jumpers] += 1
                    slots = np.asarray(ops.slots)[chosen]
                    if ops.queued_feedback:
                        depth = (pending[jumpers] != _EMPTY).sum(axis=1)
                        pending = _grown(pending, depth.max(initial=0) + 1, axis=1, fill=_EMPTY)
                        pending[jumpers, depth] = ops.due_step(step) * n_slots + slots
                    if events is not None:
                        t_mid = (step + 0.5) * cfg.dt
                        for i, slot, k in zip(jumpers, slots.tolist(), chosen.tolist()):
                            events[i].append(JumpEvent(time=t_mid, slot=slot, channel=k))

            if collect_records:
                records += [TrajectoryRecord(tuple(ev), x.copy(), 1.0 / n)
                            for ev, x in zip(events, self._states(states))]

        mean = {lab: a[0] / n for lab, a in acc.items()}
        sem = {lab: np.sqrt(np.clip(a[1] / n - mean[lab] ** 2, 0.0, None) / n)
               for lab, a in acc.items()}
        return SampledCurves(mean=mean, sem=sem), records


def sample_trajectories(
    model: OpenSystemModel,
    psi0: np.ndarray,
    config: UnravelingConfig,
    policy: FeedbackPolicy | None = None,
) -> SampleResult:
    """Monte Carlo wavefunction records; weight 1/n_samples each."""
    sampler = _Sampler(model, _initial_state(psi0, model.dim, ndim=1), config, policy)
    return SampleResult(records=sampler.run(collect_records=True)[1])


def sample_density_trajectories(
    model: OpenSystemModel,
    rho0: np.ndarray,
    config: UnravelingConfig,
    policy: FeedbackPolicy | None = None,
) -> SampleResult:
    """Inefficient-monitoring records: density matrices conditioned on recorded jumps."""
    sampler = _Sampler(model, _initial_state(rho0, model.dim, ndim=2), config, policy)
    return SampleResult(records=sampler.run(collect_records=True)[1])


def run_sampled_grid(model, psi0, config, policy, grid_steps, observables) -> SampledCurves:
    """Wavefunction Monte Carlo mean and SEM of per-row fn(states, counts) observables."""
    sampler = _Sampler(model, _initial_state(psi0, model.dim, ndim=1), config, policy)
    return sampler.run(grid_steps, observables)[0]


def run_density_grid(model, rho0, config, policy, grid_steps, observables) -> SampledCurves:
    """Density-matrix Monte Carlo mean and SEM of per-row fn(rhos, counts) observables."""
    sampler = _Sampler(model, _initial_state(rho0, model.dim, ndim=2), config, policy)
    return sampler.run(grid_steps, observables)[0]
