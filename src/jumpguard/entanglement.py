"""Bipartite entanglement quantifiers and trajectory-ensemble averaging.

Pure-state measures are functions of the Schmidt coefficients s_1 >= s_2 >=
..., the singular values of psi's d_A x d_B amplitude matrix A (row-major),
or its sorted moduli if A has at most one nonzero per row and per column:

* negativity N = sum_{i<j} s_i s_j, the partial transpose of |psi><psi|
  having eigenvalues s_i^2 and +-s_i s_j (Vidal and Werner);
* entropy of entanglement S = -sum_i s_i^2 log2 s_i^2;
* two-qubit concurrence C = 2 s_1 s_2 = 2 |det A|.

For a density matrix the negativity is the absolute sum of the negative
eigenvalues of the partial transpose, (||rho^Tb||_1 - 1) / 2 <= (d_min - 1)/2,
and the two-qubit concurrence Wootters' C = max(0, l1 - l2 - l3 - l4), l_i
the descending square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
One clip holds for both negativities: an eigenvalue or a product s_i s_j
below 1e-12 in modulus counts as zero; the entropy skips s_i^2 <= 1e-12.
Two-qubit entanglement of formation is E_F = h((1 + sqrt(1 - C^2)) / 2), h
the binary entropy, base 2. Trajectory averages weight the per-record
measure by the record probability, E = sum_i E(psi_i) P_i.
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import SpaceLayout, as_matrix, as_vector, make_layout, partial_transpose

_EIG_CLIP = 1e-12


class Measure(enum.Enum):
    CONCURRENCE = "concurrence"
    ENTANGLEMENT_OF_FORMATION = "eof"
    NEGATIVITY = "negativity"
    ENTROPY_OF_ENTANGLEMENT = "entropy"


# Batched kernels on stacks of state vectors (n, d) or density matrices (n, d, d),
# picked by measure_rows; the scalar functions below are batches of one.


def _schmidt(states: np.ndarray, layout) -> np.ndarray:
    """Schmidt coefficients, descending, of each row of a stack (n, d_A d_B)."""
    layout = make_layout(layout)
    layout.require_bipartite()
    nonzero = (moduli := np.abs(states)).reshape(len(states), *layout.subsystem_dims) != 0
    dense = (nonzero.sum(axis=1).max(axis=1) > 1) | (nonzero.sum(axis=2).max(axis=1) > 1)
    s = np.sort(moduli, axis=1)[:, ::-1][:, :min(layout.subsystem_dims)]
    if dense.any():  # a monomial amplitude matrix's singular values are its moduli
        s[dense] = np.linalg.svd(states[dense].reshape(-1, *layout.subsystem_dims), compute_uv=False)
    return s


def negativity_batch_pure(states: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    s = _schmidt(states, layout)
    i, j = np.triu_indices(s.shape[1], 1)
    products = s[:, i] * s[:, j]
    return np.where(products < _EIG_CLIP, 0.0, products).sum(axis=1)


def _eigvalsh(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian block of a stack (..., k, k), in closed form for k <= 2."""
    if blocks.shape[-1] != 2:  # a 1 x 1 block is its entry
        return blocks.real[..., 0] if blocks.shape[-1] == 1 else np.linalg.eigvalsh(blocks)
    a, c = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    m, r = (a + c) / 2, np.hypot((a - c) / 2, np.abs(blocks[..., 1, 0]))
    return np.stack([m - r, m + r], axis=-1)


def negativity_batch_density(rhos: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Negativity of each matrix of a stack (n, d, d), from the eigenvalues of
    its partial transpose by block. Indices joined by a nonzero entry of any
    matrix of the batch share a block (connected components of the batch's
    exact zeros), so each block is one diagonal block of every matrix up to
    an index permutation, gathered straight from the rows; ``eigvalsh`` runs
    once per block size of 3 or more. A dense batch is one block of size d."""
    source = partial_transpose(np.arange(np.prod(rhos.shape[1:])).reshape(rhos.shape[1:]), 1, layout)
    flat = rhos.reshape(len(rhos), source.size)  # rho^Tb[:, r, c] = flat[:, source[r, c]]
    nonzero = (flat != 0).any(axis=0)[source] | np.eye(len(source), dtype=bool)
    linked = np.linalg.matrix_power(nonzero | nonzero.T, len(nonzero))  # linked[i, j]: i and j share a block
    blocks = {}  # block size -> the index rows of its blocks
    for first in np.flatnonzero(linked.argmax(axis=1) == np.arange(len(linked))):  # each block's first index
        blocks.setdefault(np.count_nonzero(linked[first]), []).append(np.flatnonzero(linked[first]))
    eig = np.concatenate([_eigvalsh(flat[:, source[idx[:, :, None], idx[:, None, :]]]).reshape(len(flat), idx.size)
                          for idx in map(np.array, blocks.values())], axis=1)
    eig = np.where(np.abs(eig) < _EIG_CLIP, 0.0, eig)
    return -np.where(eig < 0, eig, 0.0).sum(axis=-1)


def entropy_batch_pure(states: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    lam = _schmidt(states, layout) ** 2
    safe = np.where(lam > _EIG_CLIP, lam, 1.0)
    return -(lam * np.log2(safe)).sum(axis=1)


def _pure_concurrence(states: np.ndarray) -> np.ndarray:
    s = _schmidt(states, (2, 2))
    return 2.0 * s[:, 0] * s[:, 1]


def _binary_entropy(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    interior = (p > 0.0) & (p < 1.0)
    q = np.where(interior, p, 0.5)
    return np.where(interior, -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q)), 0.0)


def _eof(c) -> np.ndarray:
    c = np.clip(c, 0.0, 1.0)
    return _binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))


def eof_batch_pure_2q(states: np.ndarray) -> np.ndarray:
    return _eof(_pure_concurrence(states))


_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SY2 = np.kron(_SY, _SY)


def _wootters(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each matrix of a two-qubit stack (n, 4, 4)."""
    rho_tilde = _SY2 @ rhos.conj() @ _SY2
    lam = np.sqrt(np.clip(np.linalg.eigvals(rhos @ rho_tilde).real, 0.0, None))
    lam.sort(axis=-1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])


def measure_rows(rows: np.ndarray, measure: Measure, layout) -> np.ndarray:
    """One value of ``measure`` per row of state vectors (n, d) or density matrices (n, d, d)."""
    layout = make_layout(layout)
    pure = rows.ndim == 2
    if measure is Measure.NEGATIVITY:
        kernel = negativity_batch_pure if pure else negativity_batch_density
        return kernel(rows, layout)
    if measure is Measure.ENTROPY_OF_ENTANGLEMENT:
        if not pure:
            raise ValueError("entropy of entanglement is defined for pure records only")
        n2 = np.einsum("ij,ij->i", rows.conj(), rows).real
        if np.any(np.abs(n2 - 1.0) > 1e-8):
            raise ValueError(f"state not normalized (|psi|^2 = {n2[np.argmax(np.abs(n2 - 1.0))]})")
        return entropy_batch_pure(rows, layout)
    if layout.subsystem_dims != (2, 2):
        raise ValueError(f"{measure.value} requires a two-qubit layout")
    if measure is Measure.CONCURRENCE:
        return _pure_concurrence(rows) if pure else _wootters(rows)
    if measure is Measure.ENTANGLEMENT_OF_FORMATION:
        return eof_batch_pure_2q(rows) if pure else _eof(_wootters(rows))
    raise ValueError(f"unknown measure {measure}")


# Scalar measures: batches of one


def measure_state(state: np.ndarray, measure: Measure, layout: SpaceLayout) -> float:
    """Evaluate one measure on a pure state vector or a density matrix."""
    return float(measure_rows(np.asarray(state, dtype=np.complex128)[None], measure, layout)[0])


def _two_qubit_density(rho: np.ndarray, measure: Measure) -> float:
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"two-qubit state required, got shape {rho.shape}")
    return measure_state(rho, measure, (2, 2))


def concurrence_2q(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    return _two_qubit_density(rho, Measure.CONCURRENCE)


def eof_2q(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state (exact via concurrence)."""
    return _two_qubit_density(rho, Measure.ENTANGLEMENT_OF_FORMATION)


def negativity(rho: np.ndarray, layout: SpaceLayout) -> float:
    """Absolute sum of negative eigenvalues of the partial transpose."""
    return measure_state(as_matrix(rho), Measure.NEGATIVITY, layout)


def entanglement_entropy(psi: np.ndarray, layout: SpaceLayout) -> float:
    """Von Neumann entropy (base 2) of either reduced state of a pure state."""
    return measure_state(as_vector(psi), Measure.ENTROPY_OF_ENTANGLEMENT, layout)


def average_entanglement(records, measure: Measure, layout: SpaceLayout) -> float:
    """Probability-weighted measure over trajectory records: one batch of state
    vectors and one of density matrices (from inefficient monitoring)."""
    records = list(records)
    total = 0.0
    for ndim in {np.ndim(rec.state) for rec in records}:
        batch = [rec for rec in records if np.ndim(rec.state) == ndim]
        values = measure_rows(np.array([rec.state for rec in batch], dtype=np.complex128),
                              measure, layout)
        total += sum(rec.probability * value for rec, value in zip(batch, values))
    return float(total)
