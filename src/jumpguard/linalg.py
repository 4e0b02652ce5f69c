"""Dense complex linear algebra on small composite Hilbert spaces.

Everything here works on plain ``numpy`` arrays of ``complex128``, except
the real superoperators in the Hermitian basis. Total dimensions in this
package never exceed ~100 (two qutrits is 9, the atom-cavity channel is 6),
so dense storage and direct eigensolves are the right tool throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    m = as_matrix(m)
    return bool(np.max(np.abs(m - dagger(m))) <= atol)


@dataclass(frozen=True)
class SpaceLayout:
    """Tensor structure of the composite space: one dimension per subsystem."""

    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.subsystem_dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {self.subsystem_dims}")
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystem_dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.subsystem_dims))

    def require_bipartite(self):
        if self.n_subsystems != 2:
            raise ValueError(
                f"operation requires a bipartite layout, got {self.n_subsystems} slots"
            )


def make_layout(dims) -> SpaceLayout:
    if isinstance(dims, SpaceLayout):
        return dims
    return SpaceLayout(tuple(dims))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def embed(local: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Embed a local operator at ``slot``, identity on every other slot.

    Equals the iterated Kronecker product I x ... x local x ... x I.
    """
    layout = make_layout(layout)
    local = as_matrix(local)
    if not (0 <= slot < layout.n_subsystems):
        raise ValueError(f"slot {slot} out of range for layout {layout.subsystem_dims}")
    d = layout.subsystem_dims[slot]
    if local.shape != (d, d):
        raise ValueError(
            f"local operator shape {local.shape} does not match slot dimension {d}"
        )
    out = np.eye(1, dtype=np.complex128)
    for i, di in enumerate(layout.subsystem_dims):
        out = np.kron(out, local if i == slot else np.eye(di, dtype=np.complex128))
    return out


def partial_trace(rho: np.ndarray, keep: int, layout: SpaceLayout) -> np.ndarray:
    """Reduced density matrix on the kept slot of a bipartite state."""
    layout = make_layout(layout)
    layout.require_bipartite()
    rho = as_matrix(rho)
    da, db = layout.subsystem_dims
    if rho.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho.shape} does not match layout {layout.subsystem_dims}")
    r = rho.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ajbj->ab", r)
    if keep == 1:
        return np.einsum("iaib->ab", r)
    raise ValueError(f"keep must be 0 or 1, got {keep}")


def partial_transpose(rho: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Transpose the chosen slot's indices of a matrix or of each matrix in a
    stack (..., d, d); Hermiticity is preserved."""
    layout = make_layout(layout)
    layout.require_bipartite()
    rho = np.asarray(rho, dtype=np.complex128)
    da, db = layout.subsystem_dims
    if rho.shape[-2:] != (da * db, da * db):
        raise ValueError(f"state shape {rho.shape} does not match layout {layout.subsystem_dims}")
    r = rho.reshape(rho.shape[:-2] + (da, db, da, db))
    if slot == 0:
        r = np.swapaxes(r, -4, -2)
    elif slot == 1:
        r = np.swapaxes(r, -3, -1)
    else:
        raise ValueError(f"slot must be 0 or 1, got {slot}")
    return r.reshape(rho.shape)


def hermitian_basis(dim: int) -> np.ndarray:
    """Unitary T whose rows map a row-major vec(rho) to real coordinates.

    T vec(rho) lists the ``dim`` diagonal entries, then sqrt(2) Re rho_ij and
    then sqrt(2) Im rho_ij over i < j in row-major order; it is real exactly
    when rho is Hermitian, and ``x @ T.conj()`` maps coordinates back.
    """
    i, j = np.triu_indices(dim, k=1)
    upper, lower = i * dim + j, j * dim + i
    n, p = dim * dim, upper.size
    T = np.zeros((n, n), dtype=np.complex128)
    T[np.arange(dim), np.arange(dim) * (dim + 1)] = 1.0
    rows = np.arange(dim, dim + p)
    T[rows, upper] = T[rows, lower] = 1.0 / np.sqrt(2.0)
    T[rows + p, upper] = -1j / np.sqrt(2.0)
    T[rows + p, lower] = 1j / np.sqrt(2.0)
    return T


def real_superoperator(superop: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """T S T^+ for the Hermitian basis T, as a real matrix.

    S acts on row-major vec(rho), e.g. A (x) A* for rho -> A rho A^+. Raises
    when the discarded imaginary part exceeds 1e-12: S does not preserve
    Hermiticity.
    """
    out = basis @ superop @ dagger(basis)
    defect = np.abs(out.imag).max()
    if defect > 1e-12:
        raise ValueError(f"map does not preserve Hermiticity (imaginary part {defect:.2e})")
    return np.ascontiguousarray(out.real)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Backed by LAPACK's symmetric eigensolver; rejects non-Hermitian input.
    """
    m = as_matrix(m)
    if not is_hermitian(m, atol=HERMITIAN_ATOL):
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(m)


def rk4_step(state, derivative, dt: float):
    """One classical 4th-order Runge-Kutta update of an autonomous flow."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = derivative(state)
    k2 = derivative(state + 0.5 * dt * k1)
    k3 = derivative(state + 0.5 * dt * k2)
    k4 = derivative(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def normalized(psi: np.ndarray) -> np.ndarray:
    psi = as_vector(psi)
    n = np.linalg.norm(psi)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def basis_state(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def product_basis_state(layout: SpaceLayout, indices) -> np.ndarray:
    """Computational basis state |i0 i1 ...> for the given layout."""
    layout = make_layout(layout)
    if len(indices) != layout.n_subsystems:
        raise ValueError("one index per subsystem required")
    v = np.ones(1, dtype=np.complex128)
    for d, i in zip(layout.subsystem_dims, indices):
        v = np.kron(v, basis_state(d, i))
    return v
