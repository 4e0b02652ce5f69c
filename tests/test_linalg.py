import numpy as np
import pytest

from jumpguard.linalg import (
    SpaceLayout,
    embed,
    hermitian_basis,
    hermitian_eigenvalues,
    kron,
    make_layout,
    normalized,
    partial_trace,
    partial_transpose,
    product_basis_state,
    real_superoperator,
    rk4_step,
)

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)
LOWER2 = np.array([[0, 1], [0, 0]], dtype=complex)
LOWER3 = np.zeros((3, 3), dtype=complex)
LOWER3[1, 2] = 1.0
LOWER3[0, 1] = 1.0  # |1><2| + |0><1|


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_kron_identity():
    assert np.allclose(kron(I2, I2), np.eye(4))


def test_kron_basis_action():
    lay = make_layout((2, 2))
    psi = product_basis_state(lay, (1, 0))
    out = kron(LOWER2, I2) @ psi
    assert np.allclose(out, product_basis_state(lay, (0, 0)))


def test_kron_degenerate_jump_preserves_bell():
    # the merged cascade operator maps (|12>+|21>)/sqrt2 to (|02>+|11>)/sqrt2
    lay = make_layout((3, 3))
    psi = normalized(product_basis_state(lay, (1, 2)) + product_basis_state(lay, (2, 1)))
    out = kron(LOWER3, I3) @ psi
    target = normalized(product_basis_state(lay, (0, 2)) + product_basis_state(lay, (1, 1)))
    assert np.allclose(normalized(out), target)


def test_kron_associativity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-14


def test_embed_matches_kron():
    assert np.allclose(embed(I2, 0, make_layout((2, 2))), np.eye(4))
    assert np.allclose(embed(LOWER2, 1, make_layout((2, 2))), kron(I2, LOWER2))


def test_embed_against_kron_oracle_qutrits():
    x3 = np.zeros((3, 3), dtype=complex)
    x3[2, 1] = 1.0
    x3[1, 0] = 1.0
    lay = make_layout((3, 3))
    assert np.allclose(embed(x3, 0, lay), kron(x3, I3))
    assert np.allclose(embed(x3, 1, lay), kron(I3, x3))
    # three slots, middle embedding
    lay3 = make_layout((2, 3, 2))
    assert np.allclose(embed(x3, 1, lay3), kron(kron(I2, x3), I2))


def test_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        embed(I2, 0, make_layout((3, 3)))


def _ptrace_loop_oracle(rho, keep, dims):
    # direct index summation, independent of the reshape implementation
    da, db = dims
    r = np.zeros((dims[keep], dims[keep]), dtype=complex)
    for i1 in range(da):
        for j1 in range(db):
            for i2 in range(da):
                for j2 in range(db):
                    if keep == 0 and j1 == j2:
                        r[i1, i2] += rho[i1 * db + j1, i2 * db + j2]
                    if keep == 1 and i1 == i2:
                        r[j1, j2] += rho[i1 * db + j1, i2 * db + j2]
    return r


def test_partial_trace_product_state():
    lay = make_layout((2, 2))
    rho = np.outer(product_basis_state(lay, (0, 0)), product_basis_state(lay, (0, 0)).conj())
    assert np.allclose(partial_trace(rho, 0, lay), [[1, 0], [0, 0]])


def test_partial_trace_bell_is_maximally_mixed():
    lay = make_layout((2, 2))
    psi = normalized(product_basis_state(lay, (1, 0)) + product_basis_state(lay, (0, 1)))
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, 0, lay), np.eye(2) / 2)


def test_partial_trace_qutrit_against_loop_oracle():
    lay = make_layout((3, 3))
    psi = normalized(product_basis_state(lay, (0, 2)) + product_basis_state(lay, (1, 1)))
    rho = np.outer(psi, psi.conj())
    got = partial_trace(rho, 0, lay)
    assert np.allclose(got, _ptrace_loop_oracle(rho, 0, (3, 3)))
    assert np.allclose(np.diag(got).real, [0.5, 0.5, 0.0])


def test_partial_trace_random_against_oracle():
    rng = np.random.default_rng(5)
    lay = make_layout((2, 3))
    rho = random_density(rng, 6)
    for keep in (0, 1):
        assert np.allclose(partial_trace(rho, keep, lay), _ptrace_loop_oracle(rho, keep, (2, 3)))


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(6)
    ra, rb = random_density(rng, 2), random_density(rng, 3)
    lay = make_layout((2, 3))
    assert np.max(np.abs(partial_trace(kron(ra, rb), 0, lay) - ra)) < 1e-12


def test_partial_transpose_product_state_stays_positive():
    rng = np.random.default_rng(7)
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    lay = make_layout((2, 2))
    eig = np.linalg.eigvalsh(partial_transpose(kron(ra, rb), 1, lay))
    assert eig.min() > -1e-12


def test_partial_transpose_bell_minimum_eigenvalue():
    lay = make_layout((2, 2))
    psi = normalized(product_basis_state(lay, (1, 0)) + product_basis_state(lay, (0, 1)))
    pt = partial_transpose(np.outer(psi, psi.conj()), 1, lay)
    assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-12


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(8)
    lay = make_layout((2, 3))
    rho = random_density(rng, 6)
    for slot in (0, 1):
        pt = partial_transpose(rho, slot, lay)
        assert np.allclose(partial_transpose(pt, slot, lay), rho)
        assert abs(np.linalg.eigvalsh(pt).sum() - 1.0) < 1e-9
    # a stack (..., d, d) is transposed matrix by matrix
    stack = np.array([[random_density(rng, 6) for _ in range(3)] for _ in range(2)])
    for slot in (0, 1):
        pts = partial_transpose(stack, slot, lay)
        assert pts.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(pts[idx], partial_transpose(stack[idx], slot, lay))
        assert np.array_equal(partial_transpose(pts, slot, lay), stack)


@pytest.mark.parametrize("dim", [2, 3])
def test_hermitian_basis_real_lift_matches_conjugation(dim):
    # T is unitary, T vec(rho) is real for Hermitian rho, and the real lift
    # of A (x) A* maps T vec(rho) to T vec(A rho A^+)
    rng = np.random.default_rng(dim)
    T = hermitian_basis(dim)
    assert np.allclose(T @ T.conj().T, np.eye(dim * dim), atol=1e-15)
    for _ in range(5):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = h + h.conj().T
        x = T @ rho.reshape(-1)
        assert np.max(np.abs(x.imag)) < 1e-15
        assert np.allclose(x.real[:dim], np.diag(rho).real, atol=0.0)
        assert np.allclose((x.real @ T.conj()).reshape(dim, dim), rho, atol=1e-14)
        lift = real_superoperator(np.kron(a, a.conj()), T)
        assert lift.dtype == np.float64
        want = T @ (a @ rho @ a.conj().T).reshape(-1)
        assert np.max(np.abs(lift @ x.real - want)) < 1e-13


def test_real_superoperator_rejects_non_hermiticity_preserving_map():
    # rho -> A rho B^+ with B != A does not keep rho Hermitian
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    with pytest.raises(ValueError, match="Hermiticity"):
        real_superoperator(np.kron(a, b.conj()), hermitian_basis(3))


def test_hermitian_eigenvalues_sorted():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(pauli_x), [-1, 1])


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rk4_constant_flow():
    x = np.array([1.0 + 0j, 2.0])
    assert np.array_equal(rk4_step(x, lambda s: 0.0 * s, 0.1), x)


def test_rk4_exponential_decay():
    x = np.array([1.0 + 0j])
    for _ in range(100):
        x = rk4_step(x, lambda s: -s, 0.01)
    assert abs(x[0].real - np.exp(-1)) < 1e-8


def test_rk4_trace_preserving_lindblad_flow():
    from jumpguard.models import build_qubit_pair, lindblad_rhs

    model = build_qubit_pair(1.0)
    rng = np.random.default_rng(10)
    rho = random_density(rng, 4)
    out = rk4_step(rho, lambda r: lindblad_rhs(model, r), 1e-3)
    assert abs(np.trace(out).real - 1.0) < 1e-10


def test_layout_validation():
    lay = SpaceLayout((2, 3))
    assert lay.total_dim == 6
    with pytest.raises(ValueError):
        SpaceLayout((0, 2))
    with pytest.raises(ValueError):
        partial_trace(np.eye(8), 0, make_layout((2, 2, 2)))
