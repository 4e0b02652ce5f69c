"""Open-system models and deterministic master-equation integration.

A model is a tensor layout plus a list of local decay channels (jump
operator + rate per subsystem) and an optional Hamiltonian. The density
matrix evolves under

    drho/dt = -i[H, rho] + sum_k gamma_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho})

with the interaction picture implied, so H defaults to absent.

Three channel families cover every scenario in this package: two-level
lowering (qubit pair), the three-level cascade |2> -> |1> -> |0>, and a
finite thermal ladder. The cascade's physical switch is whether its two
transitions are spectrally distinguishable. When they are not, the
environment carries no which-channel information, forcing one merged
coherent-sum jump operator rather than two separate ones; that changes the
generator, and ``CascadeSpec.distinguishable`` surfaces it. The degenerate
cascade (|1><2| + |0><1|) and the harmonic-oscillator cascade (the
truncated lowering operator) are the merged operator at two rate ratios,
gamma21 / gamma10 = 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SpaceLayout,
    as_matrix,
    dagger,
    embed,
    is_hermitian,
    make_layout,
    rk4_step,
)

# Conservative default: gamma_max * dt for the RK4 master-equation stepper.
MASTER_MAX_GAMMA_DT = 1e-3


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated oscillator lowering operator a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)).astype(np.complex128), k=1)


@dataclass(frozen=True)
class DecayChannel:
    """One monitored decay channel: local jump operator at ``rate`` on ``slot``."""

    slot: int
    jump_operator: np.ndarray
    rate: float

    def __post_init__(self):
        op = as_matrix(self.jump_operator)
        if op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be square")
        if self.rate < 0:
            raise ValueError(f"decay rate must be >= 0, got {self.rate}")
        object.__setattr__(self, "jump_operator", op)
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class CascadeSpec:
    """Three-level cascade decay: rates of |2> -> |1> and |1> -> |0>.

    ``distinguishable`` is the physical switch. A distinguishable cascade
    has two separate operators |1><2| at gamma21 and |0><1| at gamma10; a
    merged one has the single operator |0><1| + sqrt(gamma21/gamma10)|1><2|
    at gamma10. The degenerate (gamma21 = gamma10) and harmonic-oscillator
    (gamma21 = 2*gamma10) cascades are the merged operator at those two
    rate ratios.
    """

    gamma21: float
    gamma10: float
    distinguishable: bool = False

    def __post_init__(self):
        if self.gamma21 < 0 or self.gamma10 < 0:
            raise ValueError("cascade rates must be >= 0")

    @classmethod
    def degenerate(cls, gamma: float) -> "CascadeSpec":
        return cls(gamma, gamma)

    @classmethod
    def harmonic_oscillator(cls, gamma: float) -> "CascadeSpec":
        return cls(2.0 * gamma, gamma)


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal environment with mean excitation number nbar >= 0."""

    nbar: float

    def __post_init__(self):
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class OpenSystemModel:
    """Immutable model: layout, decay channels, optional Hamiltonian.

    Full-dimension embedded operators are precomputed once so that both the
    master-equation integrator and the trajectory engines share them.
    """

    layout: SpaceLayout
    channels: tuple[DecayChannel, ...]
    hamiltonian: np.ndarray | None = None

    # derived, filled in __post_init__
    embedded_ops: tuple[np.ndarray, ...] = field(init=False, repr=False)
    decay_generator: np.ndarray = field(init=False, repr=False)  # sum_k gamma_k L_k+ L_k

    def __post_init__(self):
        layout = make_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        channels = tuple(self.channels)
        dim = layout.total_dim
        embedded = []
        G = np.zeros((dim, dim), dtype=np.complex128)
        for ch in channels:
            if not (0 <= ch.slot < layout.n_subsystems):
                raise ValueError(f"channel slot {ch.slot} invalid for layout {layout.subsystem_dims}")
            d = layout.subsystem_dims[ch.slot]
            if ch.jump_operator.shape != (d, d):
                raise ValueError(
                    f"jump operator dim {ch.jump_operator.shape} does not match slot {ch.slot} (dim {d})"
                )
            L = embed(ch.jump_operator, ch.slot, layout)
            embedded.append(L)
            G += ch.rate * (dagger(L) @ L)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "embedded_ops", tuple(embedded))
        object.__setattr__(self, "decay_generator", G)
        if self.hamiltonian is not None:
            H = as_matrix(self.hamiltonian)
            if H.shape != (dim, dim):
                raise ValueError("Hamiltonian dimension does not match layout")
            if not is_hermitian(H):
                raise ValueError("Hamiltonian is not Hermitian within 1e-10")
            object.__setattr__(self, "hamiltonian", H)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def max_rate(self) -> float:
        return max((ch.rate for ch in self.channels), default=0.0)


def _local(dims, ops, slots) -> OpenSystemModel:
    """The model on ``dims`` with every (operator, rate) of ``ops`` on each of ``slots``."""
    channels = tuple(DecayChannel(slot, op, rate) for slot in slots for op, rate in ops)
    return OpenSystemModel(layout=make_layout(dims), channels=channels)


def build_qubit_pair(gamma: float) -> OpenSystemModel:
    """Two qubits, each with local spontaneous emission at rate gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return _local((2, 2), [(lowering_operator(2), gamma)], (0, 1))


def build_qutrit_cascade(spec: CascadeSpec) -> list[tuple[np.ndarray, float]]:
    """Local cascade jump operator(s) with rates for one qutrit.

    A merged cascade returns a single (operator, rate) pair; a
    distinguishable one returns the two transition operators separately.
    """
    ket = lambda i, j: np.outer(
        np.eye(3, dtype=np.complex128)[:, i], np.eye(3, dtype=np.complex128)[j, :]
    )
    if spec.distinguishable:
        return [(ket(1, 2), spec.gamma21), (ket(0, 1), spec.gamma10)]
    # merged: weight the upper transition so it carries gamma21
    if spec.gamma10 == 0.0:
        return [(ket(1, 2), spec.gamma21)]
    return [(ket(0, 1) + math.sqrt(spec.gamma21 / spec.gamma10) * ket(1, 2), spec.gamma10)]


def build_qutrit_pair(spec: CascadeSpec) -> OpenSystemModel:
    """Two qutrits, each with the cascade channels of ``spec``."""
    return _local((3, 3), build_qutrit_cascade(spec), (0, 1))


def thermal_channels(gamma: float, spec: ThermalSpec, dim: int) -> list[tuple[np.ndarray, float]]:
    """Lowering at gamma*(nbar+1) and raising at gamma*nbar, truncated at dim."""
    if dim < 2:
        raise ValueError(f"thermal ladder needs dim >= 2, got {dim}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    a = lowering_operator(dim)
    out = [(a, gamma * (spec.nbar + 1.0))]
    if spec.nbar > 0:
        out.append((dagger(a), gamma * spec.nbar))
    return out


def build_thermal_oscillator(gamma: float, spec: ThermalSpec, dim: int) -> OpenSystemModel:
    """Single truncated oscillator coupled to a thermal reservoir."""
    return _local((dim,), thermal_channels(gamma, spec, dim), (0,))


def lindblad_rhs(model: OpenSystemModel, rho: np.ndarray) -> np.ndarray:
    """Time derivative of rho under the model's generator. Traceless output."""
    rho = as_matrix(rho)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"state dimension {rho.shape} does not match model dim {model.dim}")
    return (_superoperator(model) @ rho.reshape(-1)).reshape(rho.shape)


def _superoperator(model: OpenSystemModel) -> np.ndarray:
    """Matrix form of the generator acting on row-major vec(rho):
    sum_k gamma_k L_k (x) L_k* - 1/2 (G (x) 1 + 1 (x) G^T), plus the Hamiltonian part."""
    d = model.dim
    eye = np.eye(d, dtype=np.complex128)
    S = np.zeros((d * d, d * d), dtype=np.complex128)
    if model.hamiltonian is not None:
        H = model.hamiltonian
        S += -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for ch, L in zip(model.channels, model.embedded_ops):
        S += ch.rate * np.kron(L, np.conj(L))
    G = model.decay_generator
    return S - 0.5 * (np.kron(G, eye) + np.kron(eye, G.T))


def evolve_master(model: OpenSystemModel, rho0: np.ndarray, t_grid) -> list[np.ndarray]:
    """Fixed-step RK4 integration of the master equation over ``t_grid``.

    The grid must ascend from 0; the internal step is chosen so that
    gamma_max * dt <= 1e-3 and grid points are hit exactly. The substeps of
    a grid span act as one propagator, the RK4 step matrix raised to their
    count, built once per (count, step to 12 significant digits).
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) == 0 or t_grid[0] != 0.0 or any(
        b <= a for a, b in zip(t_grid, t_grid[1:])
    ):
        raise ValueError("t_grid must ascend strictly from 0")
    rho = as_matrix(rho0).copy()
    if rho.shape != (model.dim, model.dim):
        raise ValueError("initial state dimension does not match model")

    S = _superoperator(model)
    dt_max = MASTER_MAX_GAMMA_DT / model.max_rate if model.max_rate > 0 else math.inf
    eye = np.eye(S.shape[0], dtype=np.complex128)
    propagators = {}  # (n_sub, rounded h) -> n_sub RK4 substeps as one matrix

    out = [rho.copy()]
    v = rho.reshape(-1)
    t_prev = 0.0
    for t in t_grid[1:]:
        span = t - t_prev
        n_sub = max(1, int(math.ceil(span / dt_max - 1e-12))) if math.isfinite(dt_max) else 1
        h = span / n_sub
        key = n_sub, float(f"{h:.12g}")  # the spans of a uniform grid differ in their last bits
        if key not in propagators:
            propagators[key] = np.linalg.matrix_power(rk4_step(eye, lambda m: S @ m, h), n_sub)
        v = propagators[key] @ v
        out.append(v.reshape(model.dim, model.dim).copy())
        t_prev = t
    return out
