"""Quantum-jump unraveling of an open-system model.

Continuous monitoring of every decay channel splits the master-equation
evolution into records: smooth no-detection stretches interrupted by
discrete jumps. Three drivers are provided.

* Exact enumeration (`enumerate_trajectories`): a depth-limited tree over
  jump patterns on the dt grid, without feedback or with immediate
  feedback. Branches whose conditional states share one direction are
  merged, with their probabilities summed; this is exact for every
  downstream use and keeps the tree finite when ideal feedback keeps
  restoring the initial state. Each distinct state is interned once with
  fixed edges to its successor and children, filled ahead: a new class's
  stay chain and jump children over the next ``_TABLE_CAP`` steps, one
  product per level. A step moves a dense weight vector along the edges of
  the states that have had a class with one `bincount`. A merged record
  keeps the events of its fewest-jump pattern (ties: stays, then branch
  order, then lower source id), tracked only when records are asked for.
  Delayed feedback and detection efficiency below one run on the samplers
  only.

* Monte Carlo sampling (`sample_trajectories`): event-driven norm-threshold
  (waiting-time) sampling with the law of a per-step draw that jumps with
  probability 1 - |N psi|^2 / |psi|^2 and picks channels by cumulative
  probability in (slot, channel) order. A row moves from event to event (a
  threshold crossing, a due correction, a table's end, the end), its state
  and survival in between in closed form (see `_Sampler`), its first event
  on the initial state's one survival curve. Trajectory i's threshold for
  its waiting period j is a counter-based u(rng_seed, i, j) in (0, 1]: one
  minus the top 53 bits of a SplitMix64 finalizer of the key derived from
  (rng_seed, i) plus j. No generator state is carried, so results are
  reproducible and, to rounding, independent of trajectory order and of
  the block or batch size; they never depend on the time grid.

* Density-matrix sampling (`sample_density_trajectories`): required when
  detection efficiency eta < 1. The same sampler moves real rows T vec(rho)
  in an orthonormal Hermitian basis T, where a map A acts as the real
  T (A (x) A*) T^+. Recorded jumps update the state projectively and trigger
  feedback; unrecorded jumps fold into the no-record map M = N (x) N* +
  (1 - eta) sum_k B_k (x) B_k*, which mixes the observer's conditional state.

Per step of length dt the no-jump update is the exact exponential
exp(-1/2 G dt) with G = sum_k gamma_k L_k+ L_k, so the no-jump probability
composes multiplicatively and survives machine-exact over any horizon.
Jump branches are weighted through W = sqrt((1 - e^{-G dt}) / (G dt)), which
makes the per-step splitting exactly complete; their states are placed at
mid-step. :class:`StepOperators` builds every branch once, in one spawn
table of single jumps and jump pairs with immediate feedback folded in: the
exact engine spawns all of them, the samplers the single jumps only.
Exact enumeration, with its two-jumps-in-one-step sector, is second order in
dt without feedback but first order under immediate feedback on the
harmonic-oscillator cascade (a jump pair's weight omits the first correction
U_k); a merged class keeps the counts of its fewest-jump member, so under
feedback a k-jump indicator differs between the drivers. The samplers are
first order, their thresholds keeping the per-step law: one jump per step,
and a delayed correction's due step is rounded up.

An exact run fails with :class:`TruncationError` when the mass of patterns
deeper than ``max_jumps`` exceeds ``TRUNCATION_BOUND``; classes lighter than
``_CULL_FLOOR`` are culled, their mass reported.

The trajectory drivers unravel the decay generator alone: a model with a
Hamiltonian is rejected, since only the master equation includes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linalg import (as_matrix, as_vector, dagger, embed, hermitian_basis, make_layout,
                     real_superoperator)
from .models import OpenSystemModel

MAX_GAMMA_DT = 1e-2
TRUNCATION_BOUND = 1e-4
_CULL_FLOOR = 1e-12
_SAMPLE_CHUNK = 4096
_TABLE_CAP = 32  # sampler stretch length, and the most steps a density row takes in one product
_NORM_FLOOR = 1e-250


class TruncationError(RuntimeError):
    """Raised when the untracked jump-pattern mass exceeds ``TRUNCATION_BOUND``."""


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


@dataclass(frozen=True)
class FeedbackPolicy:
    """Per-slot correction unitary with delay tau and detection efficiency eta.

    The correction is applied to the slot that jumped, a time ``delay``
    after the recorded jump; jumps during the delay window are processed
    first and corrections queue FIFO. ``efficiency`` is the probability
    that a physical jump is recorded at all. Exact enumeration takes delay
    0 and efficiency 1 only; the samplers take any. A driver given no policy
    (``None``) runs without feedback.
    """

    unitaries: dict[int, np.ndarray]
    delay: float = 0.0
    efficiency: float = 1.0

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
        """Standard cascade correction |1> -> |2>, |0> -> |1>, cyclically completed."""
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
    """(1 - exp(-u)) / u, exactly 1 at u = 0; expm1 keeps it accurate as u -> 0."""
    return np.divide(-np.expm1(-u), u, out=np.ones_like(u), where=u != 0.0)


def _function_of_generator(model: OpenSystemModel):
    """(f -> f(G), lam, V) for the decay generator G = V diag(lam) V^+, lam clipped at 0."""
    if model.hamiltonian is not None:
        raise ValueError("trajectory drivers take no Hamiltonian; use evolve_master")
    lam, V = np.linalg.eigh(model.decay_generator)
    lam = np.clip(lam, 0.0, None)
    Vd = dagger(V)
    return (lambda f: (V * f(lam)[None, :]) @ Vd), lam, V


class StepOperators:
    """Per-step matrices for one (model, dt, policy) combination.

    The spawn table lists a step's jump branches: the K single jumps, then
    the K^2 jump pairs (k then l), the two-jumps-in-one-step sector that
    makes exact enumeration second order in dt. Branch b has a weight root
    R_b, whose |R_b psi|^2 is its mass per unit weight, and a mid-step state
    map with immediate feedback folded in. Singles: R_k = B_k =
    sqrt(gamma_k dt) L_k W and map sqrt(gamma_k dt) N_half U L_k N_half.
    Pairs: R_kl = sqrt(gamma_k gamma_l / 2) dt L_l L_k and map
    sqrt(gamma_k gamma_l / 2) dt N_half U L_l U L_k N_half. A pair's mass
    is split off its first jump's single mass. ``split_maps`` are the B_k,
    complete with N (N^+ N + sum_k B_k^+ B_k = 1), and ``lam`` and
    ``eigvecs`` G's clipped eigenvalues and eigenvectors.
    """

    def __init__(self, model: OpenSystemModel, dt: float, policy: FeedbackPolicy | None = None):
        _check_rate_resolution(model, dt)
        self.model = model
        self.dt = float(dt)
        self.policy = policy
        self.immediate_feedback = self.policy is not None and self.policy.delay == 0.0
        self.queued_feedback = self.policy is not None and self.policy.delay > 0.0

        func_of_g, self.lam, self.eigvecs = _function_of_generator(model)
        self.no_jump = func_of_g(lambda lam: np.exp(-lam * dt / 2.0))
        half = func_of_g(lambda lam: np.exp(-lam * dt / 4.0))  # N_half
        W = func_of_g(lambda lam: np.sqrt(_mass_fraction(lam * dt)))

        self.slots = [ch.slot for ch in model.channels]
        self.unitaries_embedded = {}
        if self.policy is not None:
            for slot in set(self.slots):
                if slot not in self.policy.unitaries:
                    raise ValueError(f"feedback policy has no correction unitary for slot {slot}")
                self.unitaries_embedded[slot] = embed(
                    self.policy.unitaries[slot], slot, model.layout
                )

        ops, rates, K = model.embedded_ops, [ch.rate for ch in model.channels], self.n_channels
        fed = [self.unitaries_embedded[s] @ L if self.immediate_feedback else L
               for s, L in zip(self.slots, ops)]
        self.branches = [(k,) for k in range(K)] + [(k, l) for k in range(K) for l in range(K)]
        roots, maps = [], []
        for k in range(K):
            g = math.sqrt(rates[k] * dt)
            roots.append(g * (ops[k] @ W))
            maps.append(g * (half @ fed[k] @ half))
        for k, l in self.branches[K:]:
            scale = math.sqrt(rates[k] * rates[l] / 2.0) * dt
            roots.append(scale * (ops[l] @ ops[k]))
            maps.append(scale * (half @ fed[l] @ fed[k] @ half))
        d = model.dim
        self.spawn_roots = np.reshape(roots, (len(roots), d, d))
        self.spawn_maps = np.reshape(maps, (len(maps), d, d))
        self.split_maps = self.spawn_roots[:K]

    @property
    def n_channels(self) -> int:
        return len(self.model.channels)

    def due_step(self, jump_step):
        """The step at whose start a correction for a jump in ``jump_step`` (int or array) lands."""
        assert self.policy is not None
        return np.ceil(np.asarray(jump_step) + 0.5 + self.policy.delay / self.dt - 1e-12).astype(np.int64)


def no_jump_step(model: OpenSystemModel, psi: np.ndarray, dt: float):
    """No-detection update exp(-1/2 G dt): unnormalized psi' and its probability |psi'|^2."""
    psi = as_vector(psi)
    _check_rate_resolution(model, dt)
    out = _function_of_generator(model)[0](lambda lam: np.exp(-lam * dt / 2.0)) @ psi
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


def _grown(arr: np.ndarray, size: int, fill=-1) -> np.ndarray:
    """``arr`` with room for ``size`` rows (capacity doubles); new rows hold ``fill``."""
    if len(arr) >= size:
        return arr
    out = np.full((max(size, 2 * len(arr)),) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


class _ExactEngine:
    """Branch-merged tree enumeration on the dt grid over interned states.

    A state's id keys its direction. A filled id has fixed edges, each with
    a mass per unit weight, a jump count and a rank: the stay (table rank 0)
    to its no-jump successor and one per spawn branch b with mass (rank
    b + 1) to its child (culled below the norm floor). When a step first
    gives a class to an unfilled id, what it reaches in ``_TABLE_CAP`` steps
    within the jump budget is filled, one level of stay chains and one
    product at a time. A step moves the dense weight vector ``W`` over ids
    along the edges of the ids that have had a class, and drops those of
    ids that lost it, in place, once they outnumber the live ones, so the
    edge arrays regrow only when full. A class is a nonzero
    entry of ``W``, with the count ``C`` (``empty`` without a class) of its
    fewest-jump member, ties going to stays, then branch order, then the
    lower source id, and with ``events`` its event ``node``.
    """

    def __init__(self, model, psi0, config: UnravelingConfig, policy: FeedbackPolicy | None,
                 events: bool = False):
        if policy is not None and policy.efficiency < 1.0:
            raise ValueError(
                "exact enumeration supports efficiency 1 only; "
                "use sample_density_trajectories for eta < 1"
            )
        if policy is not None and policy.delay > 0.0:
            raise ValueError(
                "exact enumeration supports immediate feedback only; "
                "use sample_trajectories for delay > 0"
            )
        psi0 = _initial_state(psi0, model.dim, ndim=1)
        self.ops = ops = StepOperators(model, config.dt, policy)
        self.config, self.events = config, events
        self.needed = np.array([0] + [len(b) for b in ops.branches])  # jumps per edge rank
        # the step table for psi @ table: weight roots R_b, no-jump map N (rank 0), spawn maps (rank b + 1)
        self.step_table = np.hstack([A.T for A in (*ops.spawn_roots, ops.no_jump, *ops.spawn_maps)])
        # N, N^2, .., N^cap side by side: a stay chain's successors in one product
        powers = accumulate([ops.no_jump] * max(1, min(_TABLE_CAP, config.n_steps)), np.matmul)
        self.chain_table = np.hstack([P.T for P in powers])
        # merge key (count, rank, source id): count << shift | rank << 32 | source
        self.shift = 32 + len(ops.branches).bit_length()
        # the count of an id with no class, above the budget (at most two jumps a step)
        self.empty = min(config.max_jumps, 2 * config.n_steps) + 1

        # the state table and dense vectors over its ids, with each filled
        # id's edge bins (destination id + 2; 1: culled) and masses by rank
        self.table_states = np.empty((0, model.dim), dtype=np.complex128)
        self.W, self.C, self.node, self.filled, self.active = (
            np.empty(0, dtype=t) for t in ("f8", "i8", "i8", "?", "?"))
        self.edge_bin, self.edge_mass = (np.empty((0, len(self.needed)), dtype=t) for t in ("i8", "f8"))
        self.index: dict[bytes, int] = {}  # key -> id of its latest entry
        # the stepped edges: source, bin, merge key base (jumps, rank, source)
        # and mass, then _step's scratch key, bin and flow
        self.edges = [np.empty(0, dtype=t) for t in ("i8", "i8", "i8", "f8", "i8", "i8", "f8")]
        self.nodes = np.empty((0, 3), dtype=np.int64)  # (parent, step, edge rank) per spawn
        self.size = self.n_edges = self.n_nodes = 0

        self.ids = self._intern(psi0[None, :])  # the classes, in id order
        self.W[self.ids], self.C[self.ids] = 1.0, 0
        self._activate(self.ids, 0)
        self.truncation_mass = self.culled_mass = 0.0

    counts = property(lambda self: self.C[self.ids])

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
        for name, fill in (("table_states", 0), ("W", 0), ("C", self.empty), ("node", -1),
                           ("filled", False), ("active", False), ("edge_bin", 1), ("edge_mass", 0)):
            setattr(self, name, _grown(getattr(self, name), self.size, fill))
        self.table_states[ids] = states
        return ids

    def _chain(self, heads, times, counts, end: int):
        """The stay chains of the unfilled ``heads`` at ``times`` to step ``end``:
        their members, now filled, with steps, counts and stays. A successor
        keyed like its own state without equalling it relaxes more slowly than
        the key resolves and gets a new entry (which takes over the key), or its
        class would stop evolving. A chain goes on through new and unfilled ids;
        the first round looks one step ahead, as most chains stop at once."""
        d, out, span = self.table_states.shape[1], [], 1
        while heads.size:
            L, psi, n0 = min(span, end - times.min()), self.table_states[heads], len(out)
            images = np.einsum("hi,ij->hj", psi, self.chain_table[:, : L * d]).reshape(-1, L, d)
            images /= np.sqrt(np.einsum("hji,hji->hj", images.conj(), images).real)[..., None]
            prev = np.concatenate([psi[:, None], images[:, :-1]], 1)
            moved = (abs(images - prev).max(axis=2) > 1e-14).tolist()
            keys, new, restart = list(map(bytes, _canonical_keys(images.reshape(-1, d)))), [], []
            for h, (cur, t, c) in enumerate(zip(heads.tolist(), times.tolist(), counts.tolist())):
                if self.filled[cur]:
                    continue
                self.filled[cur] = True
                for j in range(min(L, end - t)):
                    nxt = self.index.get(keys[h * L + j])
                    if fresh := nxt is None or (nxt == cur and moved[h][j]):
                        nxt = self.index[keys[h * L + j]] = self.size + len(new)
                        new.append(h * L + j)
                    out.append((cur, t + j, c, nxt))
                    if not fresh:
                        break
                    cur = nxt
                if t + j + 1 < end and (fresh or nxt >= self.size or not self.filled[nxt]):
                    restart.append((nxt, t + j + 1, c))
            self._add(images.reshape(-1, d)[new])
            self.filled[[o[0] for o in out[n0:]]] = True
            heads, times, counts = np.array([r for r in restart if not self.filled[r[0]]],
                                            dtype=np.int64).reshape(-1, 3).T
            span = _TABLE_CAP
        return np.array(out, dtype=np.int64).reshape(-1, 4).T

    def _fill(self, ids: np.ndarray, stays: np.ndarray) -> np.ndarray:
        """Store the edges of ``ids``, stays to ``stays``, from one batch-invariant
        product with the step table; returns their destinations (-1: none)."""
        K, J, m = self.ops.n_channels, len(self.ops.branches), ids.size
        psi = self.table_states[ids]
        images = np.einsum("bi,ij->bj", psi, self.step_table).reshape(m, 2 * J + 1, -1)
        norms = np.einsum("bji,bji->jb", images.conj(), images).real
        # edge masses per unit weight by rank. A stored state serves every
        # visit, so its stay mass |N psi|^2 is taken relative to its own norm,
        # whose rounding would compound per step. Spawn masses are |R_b psi|^2;
        # the singles (raw |B_k psi|^2, summing exactly to 1 - |N psi|^2) lose
        # the pairs split off them; pair masses are >= 0, so one clip after the
        # subtractions equals a clip after each
        stay = norms[J] / np.einsum("bi,bi->b", psi.conj(), psi).real
        singles, pairs = norms[:K], norms[K:J]
        for l in range(K):
            singles = singles - pairs[l::K]  # the pairs (k, l), k = 0..K-1
        masses = np.concatenate([stay[None], np.clip(singles, 0.0, None), pairs])

        b, rows = np.nonzero(norms[J + 1:] > _NORM_FLOOR)  # the reached spawn images
        dst = np.full(masses.shape, -1, dtype=np.int64)
        dst[0] = stays
        dst[b + 1, rows] = self._intern(images[rows, J + 1 + b] / np.sqrt(norms[J + 1 + b, rows])[:, None])
        dst[masses <= 0.0] = -1
        self.edge_bin[ids], self.edge_mass[ids] = dst.T + 2, masses.T
        return dst

    def _activate(self, ids: np.ndarray, step: int):
        """Step the edges of the classes ``ids`` at ``step`` from now on, by rank,
        then id; unfilled ones first fill what they reach in ``_TABLE_CAP`` steps."""
        new = ids[~self.active[ids]]
        if new.size == 0 or step == self.config.n_steps:
            return
        end = min(step + _TABLE_CAP, self.config.n_steps)
        heads = new[~self.filled[new]]
        times, counts = np.full(heads.size, step), self.C[heads]
        while heads.size:
            members, times, counts, stays = self._chain(heads, times, counts, end)
            rank, row = np.nonzero((dst := self._fill(members, stays)[1:]) >= 0)
            heads, times, counts = dst[rank, row], times[row] + 1, counts[row] + self.needed[rank + 1]
            # the unfilled children within the window and budget, by step (a repeated one from its first)
            ok = (times < end) & (counts <= self.config.max_jumps) & ~self.filled[heads]
            ok = np.argsort(np.where(ok, times, end), kind="stable")[: np.count_nonzero(ok)]
            heads, times, counts = heads[ok], times[ok], counts[ok]
        self.active[new] = True
        rank, row = np.nonzero(self.edge_mass[new].T > 0.0)
        lo, hi, src = self.n_edges, self.n_edges + rank.size, new[row]
        base = (self.needed[rank] << self.shift) + (rank << 32) + src
        self.n_edges, self.edges = hi, [_grown(a, hi) for a in self.edges]
        for a, v in zip(self.edges, (src, self.edge_bin[src, rank], base, self.edge_mass[src, rank])):
            a[lo:hi] = v

    # -- main sweep --------------------------------------------------------

    def run(self, grid_steps=(), observables=None):
        """Sweep to t_max; evaluate ``observables`` at each grid step.

        observables: dict label -> row-local fn(states, counts) -> float
        array (a row's value depends only on its state and count). Table
        states never change, so an id caches every value with the count it
        was read at, and is evaluated again when read at another count; the
        cache does not grow with ``max_jumps``. Returns {label: sum(values *
        weights) per grid step}. Raises :class:`TruncationError` when the mass
        of patterns deeper than ``max_jumps`` exceeds ``TRUNCATION_BOUND``.
        """
        observables = observables or {}
        n_steps = self.config.n_steps
        at = {g: pos for pos, g in enumerate(_checked_grid(grid_steps, n_steps))}
        curves = {label: np.empty(len(at)) for label in observables}
        # per id: each observable's value and the count it was taken at (-1: never read)
        values, taken = np.empty((0, len(observables))), np.empty(0, dtype=np.int64)
        for step in range(n_steps + 1):
            if step in at:
                ids, weights = self.ids, self.W[self.ids]
                values, taken = _grown(values, self.size, np.nan), _grown(taken, self.size)
                if (new := ids[taken[ids] != self.C[ids]]).size:  # fresh ids, in id order
                    taken[new] = self.C[new]
                    for j, fn in enumerate(observables.values()):
                        values[new, j] = fn(self.table_states[new], taken[new])
                for j, label in enumerate(observables):
                    curves[label][at[step]] = float((values[ids, j] * weights).sum())
            if step < n_steps:
                self._step(step)
        if self.truncation_mass > TRUNCATION_BOUND:
            raise TruncationError(
                f"truncation mass {self.truncation_mass:.3e} exceeds bound "
                f"{TRUNCATION_BOUND:.1e}; increase max_jumps"
            )
        return curves

    def _step(self, step: int):
        src, dst, base, mass, key, bins, flow = (a[: self.n_edges] for a in self.edges)
        np.take(self.W, src, out=flow, mode="clip")
        if 2 * (live := np.count_nonzero(flow)) < flow.size:
            # edges of ids that lost their class add +0.0 to the truncated bin
            # and never win the merge key: dropping them stably, in place, moves no bit
            keep = flow != 0.0
            self.active[src[~keep]] = False
            for a in (src, dst, base, mass, flow):
                a[:live] = a[keep]
            self.n_edges = live
            src, dst, base, mass, key, bins, flow = (a[:live] for a in (src, dst, base, mass, key, bins, flow))
        flow *= mass
        # each edge's member of its destination class, keyed (count, rank, source id)
        np.take(self.C, src, out=key, mode="clip")
        key <<= self.shift
        key += base
        np.less(key, self.empty << self.shift, out=bins)
        bins *= dst  # 0: truncated (beyond the budget), 1: culled, id + 2: kept
        out = np.bincount(bins, weights=flow, minlength=self.W.size + 2)
        best = np.full(out.size, self.empty << self.shift)  # no member within the budget
        np.minimum.at(best, bins, key)
        self.truncation_mass += float(out[0])
        self.culled_mass += float(out[1])

        # cull negligible classes (their mass is reported, not lost silently)
        self.W = W = out[2:]
        ids = np.flatnonzero(W > 0.0)  # faster than on the floats themselves
        if (tiny := W[ids] < _CULL_FLOOR).any():
            self.culled_mass += float(W[ids[tiny]].sum())
            W[ids[tiny]] = 0.0
            ids = ids[~tiny]
        rep = best[2:][ids]
        self.C[self.ids] = self.empty
        self.C[ids] = rep >> self.shift
        self.ids = ids
        if self.events:
            rank, node = (rep >> 32) & ((1 << (self.shift - 32)) - 1), self.node[rep & 0xFFFFFFFF]
            # a class represented by a spawn records its branch as a new event node
            spawned = np.flatnonzero(rank)
            if spawned.size:
                lo, hi = self.n_nodes, self.n_nodes + spawned.size
                self.n_nodes, self.nodes = hi, _grown(self.nodes, hi)
                self.nodes[lo:hi] = np.stack([node[spawned], np.full(spawned.size, step), rank[spawned]], 1)
                node[spawned] = np.arange(lo, hi)
            self.node[ids] = node  # read for classes only
        self._activate(ids, step + 1)

    def _events_for(self, node: int) -> tuple[JumpEvent, ...]:
        out = []
        while node >= 0:
            node, step, rank = self.nodes[node].tolist()
            for ch in reversed(self.ops.branches[rank - 1]):
                out.append(JumpEvent((step + 0.5) * self.config.dt, self.ops.slots[ch], ch))
        return tuple(reversed(out))

    def records(self) -> list[TrajectoryRecord]:
        if not self.events:
            raise RuntimeError("records need an engine with event nodes; use enumerate_trajectories")
        ids = self.ids
        return [TrajectoryRecord(self._events_for(int(self.node[i])), self.table_states[i].copy(),
                                 float(self.W[i]))
                for i in ids[np.argsort(-self.W[ids], kind="stable")]]


def enumerate_trajectories(
    model: OpenSystemModel,
    psi0: np.ndarray,
    config: UnravelingConfig,
    policy: FeedbackPolicy | None = None,
) -> EnumerationResult:
    """Exact depth-limited enumeration of jump-pattern classes up to t_max.

    Returned probabilities plus the reported truncation mass sum to one.
    Raises :class:`TruncationError` when the mass of patterns deeper than
    ``max_jumps`` exceeds ``TRUNCATION_BOUND``.
    """
    engine = _ExactEngine(model, psi0, config, policy, events=True)
    engine.run()
    return EnumerationResult(
        records=engine.records(),
        truncation_mass=engine.truncation_mass,
        culled_mass=engine.culled_mass,
    )


def run_exact_grid(model, psi0, config, policy, grid_steps, observables):
    """Scenario-facing sweep: observable curves over a step grid.

    Observables are row-local, deterministic fn(states, counts) -> float array,
    as for the samplers; each curve value is the probability-weighted sum
    over the classes, each observable evaluated once per state id and again
    only when the id is read at another jump count. Returns (curves, engine), the
    engine for ``truncation_mass``, ``culled_mass`` and its final classes' jump
    ``counts``; raises :class:`TruncationError` as enumeration does.
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


def _thresholds(keys: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """u(seed, i, j) in (0, 1]: 1 - 2**-53 top53(SplitMix64(key_i + (j+1) * golden))."""
    offset = (periods.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    return 1.0 - (_splitmix64(keys + offset) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _dispatch(rows, maps, pick):
    """Each row times maps[pick], one einsum per map: no BLAS, so no row depends on its batch."""
    out = np.empty_like(rows)
    for c, A in enumerate(maps):
        out[pick == c] = np.einsum("ri,ij->rj", rows[pick == c], A)
    return out


class _Sampler:
    """Event-driven norm-threshold Monte Carlo unraveling over blocks of rows.

    A row is V^+ psi (V: G's eigenvectors) or T vec(rho) in the Hermitian basis T on its
    support, x0's nonzero coordinates closed under the exact nonzeros of every lifted
    map (no-record, jumps, splits, queued corrections): on the qutrit pair 8 of 9 for
    psi, 12 of 81 for rho, 18 with delay. A shared map A acts as ``rows @ lift(A)``, M^k
    by step offset k as one gathered product from a stack, a jump or queued correction as
    one product per channel, so no row's new state depends on its batch. Unnormalized
    between jumps, a row weighs its survival since its last jump: |psi|^2, or tr rho
    under the no-record map M = N (x) N* + (1 - eta) sum_k B_k (x) B_k*. It keeps an
    anchor, its state and step when it last changed, and moves from event to event: its
    first survival below its threshold u, its next due correction, ``cap`` steps on, or
    the end. In between V^+ psi scales by e^{-lam k dt/2}, rho takes the tabulated M^k
    (M can be defective), and the survival is one row-wise sum, |c_i|^2 against
    e^{-lam_i k dt} or x against tr(M^k .). A crossing is bisected, a row's first on x0's
    survival curve (at most a block's floats long; a row that outlasts it moves to its
    end). (S_before - u) / (S_before - S_after), scaled by the split total, picks the
    channel; a jumped row is normalized and starts a new period, which corrections keep.
    u is recomputed from (seed, trajectory, period), never stored. Rows take one event per
    round in stretches of ``_TABLE_CAP`` steps (pure rows that buffer no state: one, [0,
    n_steps]), so which rows share a product never depends on the grid. A block's jump
    log (step * K + channel by jump number), kept if counts are read, corrections delayed
    or records collected, gives counts, due steps, corrections and records. A read takes
    what the row-local, deterministic fn(states, counts) read (``fn.reads`` "states" or
    "counts", else both): if none reads states, (None, counts) of all rows; else each
    distinct normalized row as a state, psi = c V^T or rho = x T^*, with counts None if
    none reads counts, else once per (state, count).
    """

    def __init__(self, model, x0, ndim: int, config: UnravelingConfig, policy: FeedbackPolicy | None):
        if not model.channels:
            raise ValueError("sampling needs at least one decay channel; the model has none")
        self.config = config
        x0 = _initial_state(x0, model.dim, ndim)
        if not 0 <= config.rng_seed <= _MASK64:
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {config.rng_seed}")
        self.ops = ops = StepOperators(model, config.dt, policy)
        eta = ops.policy.efficiency if ops.policy is not None else 1.0
        self.d = d = model.dim
        self.density = ndim == 2
        if eta < 1.0 and not self.density:
            raise ValueError("pure-state sampling supports efficiency 1 only; "
                             "use sample_density_trajectories for eta < 1")
        if self.density:  # rho = x @ T^*
            place = (T := hermitian_basis(d)).conj()
            x0, lift = (T @ x0.reshape(-1)).real, lambda A: real_superoperator(np.kron(A, A.conj()), T).T  # noqa: E731
        else:  # psi = c @ V^T
            place = (V := ops.eigvecs).T
            x0, lift = x0 @ V.conj(), lambda A: V.T @ A.T @ V.conj()  # noqa: E731
        jumps, splits = [lift(S) for S in ops.spawn_maps[:ops.n_channels]], [lift(B) for B in ops.split_maps]
        corrections = [lift(ops.unitaries_embedded[s]) for s in ops.slots] if ops.queued_feedback else []  # by channel
        advance = lift(ops.no_jump) + (1.0 - eta) * sum(splits)
        # the support: x0's coordinates closed under the exact nonzeros R of every map that acts, through (1 + R)^D
        reach = np.any([A != 0 for A in (np.eye(x0.size), advance, *jumps, *splits, *corrections)], axis=0)
        self.support = on = np.flatnonzero((x0 != 0) @ np.linalg.matrix_power(reach, x0.size))
        self.x0, self.place, cut = x0[on], place[on], lambda A: A[..., on, :][..., on]  # noqa: E731
        self.jumps, self.corrections = cut(np.stack(jumps)), [cut(A) for A in corrections]  # picked per row
        self.splits = np.concatenate([cut(A) for A in splits], axis=1)  # taken by every row: one matrix
        self.cap = min(_TABLE_CAP, config.n_steps) if self.density else config.n_steps + 1
        if self.density:  # M^k for k <= cap, and per k the row giving tr(M^k x)
            self.n_diag = n = np.count_nonzero(on < d)  # the support's diagonal coordinates come first
            self.powers = np.stack(list(accumulate([cut(advance)] * self.cap, np.matmul, initial=np.eye(on.size))))
            self.traces = self.powers[:, :, :n].sum(axis=2)
        else:  # log_stay: -lam dt, the log of each eigencomponent's per-step survival
            self.log_stay = -ops.lam[on] * config.dt
        # x0's survival j = 0..min(n_steps, cap, a block's floats) steps on, as _next has it: each row's first wait
        j = np.arange(min(config.n_steps, self.cap, _SAMPLE_CHUNK * d) + 1)
        self.curve = self._survival(j, np.broadcast_to(self._mass(self.x0), (j.size, on.size)))
        self.mix = _trajectory_keys(0, 0, self.x0.nbytes // 8 + 1) | np.uint64(1)  # odd hash weights of a key's words

    def _weight(self, rows):
        """|psi|^2 or tr rho (the sum of the support's diagonal coordinates) along the last axis."""
        if self.density:
            return rows[..., : self.n_diag].sum(axis=-1)
        return np.einsum("...i,...i->...", rows.view(np.float64), rows.view(np.float64))

    def _normalize(self, rows, weight):
        """Scale rows of the given weights to unit weight in place."""
        rows.view(np.float64)[:] *= (1.0 / (weight if self.density else np.sqrt(weight)))[:, None]
        return rows

    def _keys(self, rows):
        """Normalized copies of the rows' coordinates."""
        return self._normalize(rows.copy(), self._weight(rows))

    def _place(self, keys):
        """States from keys in one product: psi (n, d) = c @ V^T, or rho (n, d, d) = x @ T^*."""
        return (keys @ self.place).reshape(len(keys), *(self.d,) * (1 + self.density))

    def _states(self, rows):  # the rows' normalized states, psi (n, d) or rho (n, d, d)
        return self._place(self._keys(rows))

    def _observe(self, observables, rows, counts, acc, g):
        """Add sums of f and f^2 over the rows to acc[:, g]. Without rows each f runs on (None,
        counts); else once per distinct state with counts None, or per distinct (state, count)."""
        back = slice(None)
        if rows is not None:
            tag = np.zeros(len(rows), dtype=np.int64) if counts is None else counts  # the counts, if read
            words = (keys := self._keys(rows)).view(np.uint64)
            order = np.argsort(words @ self.mix[:-1] + tag.astype(np.uint64) * self.mix[-1])  # wraps
            ws, cs = np.take(words, order, axis=0), tag[order]  # a row equal to the one before repeats it
            differ = np.ascontiguousarray((ws[1:] != ws[:-1]).T).any(axis=0)  # any() is slow over short rows
            new = np.concatenate([[True], differ | (cs[1:] != cs[:-1])])
            back = np.empty_like(order)
            back[order] = np.cumsum(new) - 1
            rows, counts = self._place(keys[order[new]]), None if counts is None else cs[new]
            del keys, words, ws  # the full keys go before any evaluation
        for lab, fn in observables.items():
            vals = fn(rows, counts)[back]
            acc[lab][:, g] += vals.sum(), (vals * vals).sum()

    def _advance(self, rows, k):
        """The rows k steps past their anchors."""
        if not self.density:
            return rows * np.exp(0.5 * np.multiply.outer(k, self.log_stay))
        return np.einsum("ri,rij->rj", rows, self.powers[k])  # each row by its own offset's power

    def _mass(self, rows):  # what a row's survival weighs: |c_i|^2, or the density row itself
        return rows if self.density else rows.real ** 2 + rows.imag ** 2

    def _survival(self, j, mass):
        """Survival j steps past the anchors, row by row (no row's sum depends on its batch)."""
        return np.einsum("ij,ij->i", mass, self.traces[j] if self.density else np.exp(j[:, None] * self.log_stay))

    def _next(self, rows, u, at, due):
        """(step, jumps, S_before, S_after) of each row's next event: the first
        step whose survival falls below u, if before its next due correction,
        ``cap`` steps and the end; else the first of those, or past the end."""
        K = np.minimum(np.minimum(due, self.config.n_steps), at + self.cap) - at
        found = (K > 0) & (self._survival(K, mass := self._mass(rows)) < u)
        on, k, before = np.flatnonzero(found), K.copy(), np.ones(K.size)
        # bisect the crossing rows: survival(lo) >= u > survival(hi), or lo = 0
        lo, hi, u_on, mass_on = np.zeros(on.size, dtype=np.int64), K[on], u[on], mass[on]
        for _ in range(int(hi.max(initial=0)).bit_length()):
            mid = (lo + hi) // 2
            below = self._survival(mid, mass_on) < u_on
            hi, lo = np.where(below & (mid > lo), mid, hi), np.where(below, lo, mid)
        k[on], before[on] = hi, self._survival(hi - 1, mass_on)
        idle = ~found & ((K == 0) | (np.minimum(at + self.cap, due) > self.config.n_steps))
        return np.where(idle, self.config.n_steps + 1, at + k), found, before, self._survival(k, mass)

    def _first(self, u):
        """_next for rows at x0 with thresholds u, on x0's curve; a row outlasting a cut curve moves to its end."""
        curve, n_steps, K = self.curve, self.config.n_steps, len(self.curve) - 1
        found = (K > 0) & (curve[K] < u)
        k = np.where(found, np.maximum(1, np.searchsorted(-curve, -u, side="right")), K)
        idle = ~found & (K == 0 or K == n_steps < self.cap)
        return np.where(idle, n_steps + 1, k), found, np.where(found, curve[k - 1], 1.0), curve[k]

    def run(self, grid_steps=(), observables=None, collect_records=False):
        observables = observables or {}
        cfg, ops = self.config, self.ops
        n_steps, n, K, D = cfg.n_steps, cfg.n_samples, ops.n_channels, self.x0.size  # D: row length
        grid = _checked_grid(grid_steps, n_steps)
        acc = {lab: np.zeros((2, len(grid))) for lab in observables}  # sums of f and f^2
        marks = [getattr(fn, "reads", None) for fn in observables.values()]  # "states", "counts" or both
        with_states, with_counts = any(r != "counts" for r in marks), any(r != "states" for r in marks)
        records: list[TrajectoryRecord] = []
        block, never = max(1, _SAMPLE_CHUNK * self.d // D), n_steps + 1
        # stretches of _TABLE_CAP steps, the last ending at or past the last step read; pure rows
        # that buffer no state take one, [0, n_steps]
        span = _TABLE_CAP if self.density or with_states else max(n_steps, 1)
        last = n_steps if collect_records else grid[-1] if grid else -1
        stops = [min(s, n_steps) for s in range(0, last + span, span)] if last >= 0 else []

        for lo in range(0, n, block):
            m = min(block, n - lo)
            keys = _trajectory_keys(cfg.rng_seed, lo, lo + m)
            rows = np.repeat(self.x0[None], m, axis=0)
            at, counts, applied = (np.zeros(m, dtype=np.int64) for _ in range(3))  # applied: corrections
            log = np.full((1, m), never * K)  # the jump log: by jump number, step * K + channel (never * K: none)
            nxt, jump, before, after = self._first(_thresholds(keys, counts))
            reads, g1 = {}, 0  # grid index -> rows advanced to it; a stretch's g0..g1-1

            def due(sel):  # the steps at whose start the rows' next corrections land (never: no delay)
                return ops.due_step(log[applied[sel], sel] // K - 1) if ops.queued_feedback else never

            def read(sel, until):  # the rows sel at the stretch's grid steps from their anchors to until
                for g in range(g0, g1) if with_states else ():  # else no f reads states: none is formed
                    on = sel[(at[sel] <= grid[g]) & (grid[g] < until)]
                    if g not in reads:  # a grid point's buffer, at its first read
                        reads[g] = np.empty_like(rows)
                    reads[g][on] = self._advance(rows[on], grid[g] - at[on])

            for stop in stops:  # one event per row and round
                g0, g1 = g1, np.searchsorted(grid, stop + 1)
                while (sel := np.flatnonzero(nxt <= stop)).size:
                    read(sel, nxt[sel])
                    old, k, jumped = rows[sel], nxt[sel] - at[sel], jump[sel]
                    new, hit = np.empty_like(old), np.flatnonzero(jumped)
                    if hit.size:
                        pre = self._advance(old[hit], k[hit] - 1)
                        cum = self._weight((pre @ self.splits).reshape(hit.size, K, D))
                        for c in range(1, K):  # in place: np.cumsum is slow along a short axis
                            cum[:, c] += cum[:, c - 1]
                        ok = cum[:, -1] > 0.0
                        jumped[hit[~ok]] = False  # nothing to jump into: it steps past its crossing
                        hit, pre, cum, i = hit[ok], pre[ok], cum[ok], sel[hit[ok]]
                        drop = (before[i] - _thresholds(keys[i], counts[i])) / (before[i] - after[i])
                        chosen = np.minimum(((drop * cum[:, -1])[:, None] >= cum).sum(axis=1), K - 1)
                        new[hit] = self._normalize(y := _dispatch(pre, self.jumps, chosen), self._weight(y))
                        if with_counts or ops.queued_feedback or collect_records:  # the log is read
                            log = _grown(log, counts[i].max(initial=-1) + 2, never * K)  # one row past the last
                            log[counts[i], i] = nxt[i] * K + chosen
                        counts[i] += 1
                    rest = np.flatnonzero(~jumped)
                    new[rest], at[sel] = self._advance(old[rest], k[rest]), nxt[sel]
                    if ops.queued_feedback:  # the corrections due there
                        r = sel[landed := np.flatnonzero(due(sel) == at[sel])]
                        new[landed] = _dispatch(new[landed], self.corrections, log[applied[r], r] % K)
                        applied[r] += 1
                    rows[sel] = new
                    nxt[sel], jump[sel], before[sel], after[sel] = self._next(
                        new, _thresholds(keys[sel], counts[sel]), at[sel], due(sel))
                read(np.arange(m), stop + 1)
                for g in range(g0, g1):  # read at every row; a jump counts from its step on
                    counts_g = (log < (grid[g] + 1) * K).sum(axis=0) if with_counts else None
                    self._observe(observables, reads.pop(g, None), counts_g, acc, g)

            if collect_records:  # row r's jumps: step[r, :counts[r]], by channel ch
                step, ch = np.divmod(log.T, K)
                times, slots = ((step - 0.5) * cfg.dt).tolist(), np.asarray(ops.slots)[ch].tolist()
                final = self._states(self._advance(rows, n_steps - at))
                records += [TrajectoryRecord(tuple(map(JumpEvent, t[:c], s[:c], h[:c])), x, 1.0 / n)
                            for t, s, h, c, x in zip(times, slots, ch.tolist(), counts.tolist(), final)]

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
    return SampleResult(records=_Sampler(model, psi0, 1, config, policy).run(collect_records=True)[1])


def sample_density_trajectories(
    model: OpenSystemModel,
    rho0: np.ndarray,
    config: UnravelingConfig,
    policy: FeedbackPolicy | None = None,
) -> SampleResult:
    """Inefficient-monitoring records: density matrices conditioned on recorded jumps."""
    return SampleResult(records=_Sampler(model, rho0, 2, config, policy).run(collect_records=True)[1])


def run_sampled_grid(model, psi0, config, policy, grid_steps, observables) -> SampledCurves:
    """Wavefunction Monte Carlo mean and SEM of row-local, deterministic fn(states, counts),
    each read taking only what ``fn.reads`` declares ("states" or "counts"; see _Sampler)."""
    return _Sampler(model, psi0, 1, config, policy).run(grid_steps, observables)[0]


def run_density_grid(model, rho0, config, policy, grid_steps, observables) -> SampledCurves:
    """Density-matrix Monte Carlo mean and SEM of row-local, deterministic fn(rhos, counts),
    each read taking only what ``fn.reads`` declares ("states" or "counts"; see _Sampler)."""
    return _Sampler(model, rho0, 2, config, policy).run(grid_steps, observables)[0]
