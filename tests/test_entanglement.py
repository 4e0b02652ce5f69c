import math

import numpy as np
import pytest

from jumpguard import entanglement as ent
from jumpguard.entanglement import (
    Measure,
    average_entanglement,
    concurrence_2q,
    entanglement_entropy,
    eof_2q,
    measure_state,
    negativity,
)
from jumpguard.linalg import (
    kron,
    make_layout,
    normalized,
    partial_trace,
    partial_transpose,
    product_basis_state,
)
from jumpguard.models import CascadeSpec, build_qubit_pair, build_qutrit_pair, evolve_master
from jumpguard.trajectories import FeedbackPolicy, TrajectoryRecord, UnravelingConfig, enumerate_trajectories

LAY2 = make_layout((2, 2))
LAY3 = make_layout((3, 3))

SY = np.array([[0, -1j], [1j, 0]])


def bell2():
    return normalized(product_basis_state(LAY2, (1, 0)) + product_basis_state(LAY2, (0, 1)))


def wootters_oracle(rho):
    """Independent route: eigenvalues of the Hermitian sqrt(rho) rho~ sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))[None, :]) @ v.conj().T
    syy = kron(SY, SY)
    rho_tilde = syy @ rho.conj() @ syy
    m = sqrt_rho @ rho_tilde @ sqrt_rho
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m), 0, None))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def random_local_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def test_concurrence_maximal_and_product():
    assert abs(concurrence_2q(np.outer(bell2(), bell2().conj())) - 1.0) < 1e-12
    prod = product_basis_state(LAY2, (1, 0))
    assert concurrence_2q(np.outer(prod, prod.conj())) < 1e-12


def test_concurrence_closed_form_decay():
    model = build_qubit_pair(1.0)
    rho0 = np.outer(bell2(), bell2().conj())
    for t in (0.5, 1.0, 2.0):
        rho = evolve_master(model, rho0, [0.0, t])[-1]
        assert abs(concurrence_2q(rho) - math.exp(-t)) < 1e-9
        assert abs(concurrence_2q(rho) - wootters_oracle(rho)) < 1e-9


def test_concurrence_matches_oracle_on_random_states():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert abs(concurrence_2q(rho) - wootters_oracle(rho)) < 1e-9


def test_pure_concurrence_equals_mixed_formula():
    rng = np.random.default_rng(13)
    for _ in range(10):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        # sqrt of the near-degenerate zero eigenvalues limits the mixed route
        assert abs(measure_state(psi, Measure.CONCURRENCE, LAY2) - concurrence_2q(proj)) < 1e-7


def test_eof_endpoints_and_value():
    assert ent._eof(1.0) == 1.0
    assert ent._eof(0.0) == 0.0
    c = math.exp(-1.0)
    expected = float(ent._binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c))))
    assert abs(ent._eof(c) - expected) < 1e-12
    assert abs(expected - 0.21918031073460847) < 1e-12  # frozen from the formula


def test_eof_monotone_in_concurrence():
    cs = np.linspace(0, 1, 21)
    es = [ent._eof(c) for c in cs]
    assert all(b >= a for a, b in zip(es, es[1:]))


def test_negativity_product_state_zero():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    assert negativity(np.outer(psi, psi.conj()), LAY3) < 1e-12


def _negativity_loop_oracle(rho, dims):
    # explicit partial transpose on slot 1 plus eigensolve
    da, db = dims
    pt = np.zeros_like(rho)
    for i1 in range(da):
        for j1 in range(db):
            for i2 in range(da):
                for j2 in range(db):
                    pt[i1 * db + j2, i2 * db + j1] = rho[i1 * db + j1, i2 * db + j2]
    eig = np.linalg.eigvalsh(pt)
    return float(-eig[eig < 0].sum())


def test_negativity_one_half_for_code_bell_states():
    before = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    after = normalized(product_basis_state(LAY3, (0, 2)) + product_basis_state(LAY3, (1, 1)))
    for psi in (before, after):
        rho = np.outer(psi, psi.conj())
        assert abs(negativity(rho, LAY3) - 0.5) < 1e-12
        assert abs(negativity(rho, LAY3) - _negativity_loop_oracle(rho, (3, 3))) < 1e-12


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(15)
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    rho = np.outer(psi, psi.conj())
    base = negativity(rho, LAY3)
    for _ in range(5):
        u = kron(random_local_unitary(rng, 3), random_local_unitary(rng, 3))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated, LAY3) - base) < 1e-9


def test_negativity_convexity():
    rng = np.random.default_rng(16)
    for _ in range(5):
        psis = [rng.standard_normal(9) + 1j * rng.standard_normal(9) for _ in range(3)]
        rhos = [np.outer(p, p.conj()) / np.vdot(p, p).real for p in psis]
        w = rng.random(3)
        w /= w.sum()
        mix = sum(wi * ri for wi, ri in zip(w, rhos))
        bound = sum(wi * negativity(ri, LAY3) for wi, ri in zip(w, rhos))
        assert negativity(mix, LAY3) <= bound + 1e-10


def test_entropy_values():
    prod = product_basis_state(LAY3, (1, 2))
    assert entanglement_entropy(prod, LAY3) < 1e-12
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    assert abs(entanglement_entropy(psi, LAY3) - 1.0) < 1e-12
    a = 0.25
    tilted = math.sqrt(a) * product_basis_state(LAY2, (0, 0)) + math.sqrt(1 - a) * product_basis_state(LAY2, (1, 1))
    assert abs(entanglement_entropy(tilted, LAY2) - ent._binary_entropy(0.25)) < 1e-12
    assert abs(ent._binary_entropy(0.25) - 0.8112781244591328) < 1e-15


def test_entropy_symmetric_between_slots():
    rng = np.random.default_rng(17)
    lay = make_layout((2, 3))
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    s0 = entanglement_entropy(psi, lay)
    # swap the slots explicitly and recompute
    swapped = psi.reshape(2, 3).T.reshape(-1)
    s1 = entanglement_entropy(swapped, make_layout((3, 2)))
    assert abs(s0 - s1) < 1e-9


def test_entropy_rejects_unnormalized():
    with pytest.raises(ValueError):
        entanglement_entropy(2.0 * bell2(), LAY2)
    with pytest.raises(ValueError, match="not normalized"):
        ent.measure_state(2.0 * bell2(), Measure.ENTROPY_OF_ENTANGLEMENT, LAY2)


def test_measure_dimension_guards():
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    rec = TrajectoryRecord(events=(), state=psi, probability=1.0)
    with pytest.raises(ValueError):
        average_entanglement([rec], Measure.CONCURRENCE, LAY3)
    rho = np.outer(psi, psi.conj())
    rec_mixed = TrajectoryRecord(events=(), state=rho, probability=1.0)
    with pytest.raises(ValueError):
        average_entanglement([rec_mixed], Measure.ENTROPY_OF_ENTANGLEMENT, LAY3)


def test_average_single_record_is_plain_measure():
    psi = bell2()
    rec = TrajectoryRecord(events=(), state=psi, probability=1.0)
    assert abs(average_entanglement([rec], Measure.NEGATIVITY, LAY2) - 0.5) < 1e-12


def test_average_equal_records_equals_single_state():
    psi = bell2()
    recs = [TrajectoryRecord(events=(), state=psi, probability=0.25) for _ in range(4)]
    val = average_entanglement(recs, Measure.ENTANGLEMENT_OF_FORMATION, LAY2)
    assert abs(val - 1.0) < 1e-12


def test_average_over_bell_trajectories_is_exponential():
    model = build_qubit_pair(1.0)
    for t in (0.5, 1.0):
        res = enumerate_trajectories(model, bell2(), UnravelingConfig(dt=1e-3, t_max=t))
        val = average_entanglement(res.records, Measure.ENTANGLEMENT_OF_FORMATION, LAY2)
        assert abs(val - math.exp(-t)) < 1e-9


def test_average_protected_qutrits():
    model = build_qutrit_pair(CascadeSpec.degenerate(1.0))
    psi = normalized(product_basis_state(LAY3, (1, 2)) + product_basis_state(LAY3, (2, 1)))
    policy = FeedbackPolicy.qutrit_cyclic()
    res = enumerate_trajectories(
        model, psi, UnravelingConfig(dt=1e-3, t_max=1.0, max_jumps=12), policy
    )
    assert abs(average_entanglement(res.records, Measure.ENTROPY_OF_ENTANGLEMENT, LAY3) - 1.0) < 1e-9
    assert abs(average_entanglement(res.records, Measure.NEGATIVITY, LAY3) - 0.5) < 1e-9


def test_average_mixed_records():
    psi = bell2()
    rho = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.diag([1.0, 0, 0, 0]).astype(complex)
    recs = [TrajectoryRecord(events=(), state=rho, probability=1.0)]
    direct = negativity(rho, LAY2)
    assert abs(average_entanglement(recs, Measure.NEGATIVITY, LAY2) - direct) < 1e-12
    assert abs(average_entanglement(recs, Measure.ENTANGLEMENT_OF_FORMATION, LAY2) - eof_2q(rho)) < 1e-12


def _reference_negativity(psi, layout):
    eig = np.linalg.eigvalsh(partial_transpose(np.outer(psi, psi.conj()), 1, layout))
    return -eig[eig < 0].sum()


def _reference_entropy(psi, layout):
    lam = np.linalg.eigvalsh(partial_trace(np.outer(psi, psi.conj()), 0, layout))
    lam = lam[lam > 1e-12]
    return -(lam * np.log2(lam)).sum()


def _reference_eof(psi):
    c = concurrence_2q(np.outer(psi, psi.conj()))
    p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    return 0.0 if p >= 1.0 else -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _local_rotations(rng, n, layout, amplitudes):
    """Rows (U_A x U_B) sum_i amplitudes[i] |i i> with Haar-random U_A, U_B."""
    da, db = layout.subsystem_dims
    out = np.empty((n, da * db), dtype=complex)
    for row in range(n):
        ua, ub = random_local_unitary(rng, da), random_local_unitary(rng, db)
        out[row] = sum(a * np.kron(ua[:, i], ub[:, i]) for i, a in enumerate(amplitudes))
    return out


def test_batched_helpers_agree_with_scalar_paths():
    """Batch kernels against independent per-state routes: the partial
    transpose and the reduced state of the projector, and Wootters'
    concurrence of the projector."""
    rng = np.random.default_rng(18)
    generic = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    generic /= np.linalg.norm(generic, axis=1)[:, None]
    product = _local_rotations(rng, 200, LAY3, [1.0])
    p = 0.3
    rank2 = _local_rotations(rng, 20, LAY3, [math.sqrt(p), math.sqrt(1.0 - p)])
    for states in (generic, product, rank2):
        negs = ent.negativity_batch_pure(states, LAY3)
        ents = ent.entropy_batch_pure(states, LAY3)
        for i, psi in enumerate(states):
            assert abs(negs[i] - _reference_negativity(psi, LAY3)) < 1e-10
            assert abs(ents[i] - _reference_entropy(psi, LAY3)) < 1e-10
    # a product state's products s_1 s_j are at rounding level, so zero
    assert np.all(ent.negativity_batch_pure(product, LAY3) == 0.0)
    assert ent.entropy_batch_pure(product, LAY3).max() < 1e-12
    assert np.allclose(ent.negativity_batch_pure(rank2, LAY3), math.sqrt(p * (1.0 - p)), atol=1e-12)
    assert np.allclose(ent.entropy_batch_pure(rank2, LAY3), ent._binary_entropy(p), atol=1e-12)

    generic2 = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    generic2 /= np.linalg.norm(generic2, axis=1)[:, None]
    for states in (generic2, _local_rotations(rng, 5, LAY2, [1.0])):
        eofs = ent.eof_batch_pure_2q(states)
        for i, psi in enumerate(states):
            # sqrt of the near-degenerate zero eigenvalues limits the Wootters route
            assert abs(eofs[i] - _reference_eof(psi)) < 1e-6

def _random_rows(rng, n, layout):
    """n random normalized state vectors and n random full-rank density matrices."""
    d = layout.total_dim
    psis = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    rhos = g @ np.conj(np.swapaxes(g, 1, 2))
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
    return psis, rhos


# the scalar function of each measure on a pure and on a mixed two-qubit state
# (None: measure_state is the only one)
_SCALAR = {
    Measure.CONCURRENCE: (lambda psi: measure_state(psi, Measure.CONCURRENCE, LAY2), concurrence_2q),
    Measure.ENTANGLEMENT_OF_FORMATION: (
        lambda psi: float(ent._eof(measure_state(psi, Measure.CONCURRENCE, LAY2))), eof_2q),
    Measure.NEGATIVITY: (None, lambda rho: negativity(rho, LAY2)),
    Measure.ENTROPY_OF_ENTANGLEMENT: (lambda psi: entanglement_entropy(psi, LAY2), None),
}


@pytest.mark.parametrize("measure", list(Measure))
def test_measure_rows_equals_scalar_functions(measure):
    psis, rhos = _random_rows(np.random.default_rng(7), 12, LAY2)
    pure_fn, mixed_fn = _SCALAR[measure]
    for rows, fn in ((psis, pure_fn), (rhos, mixed_fn)):
        if rows is rhos and measure is Measure.ENTROPY_OF_ENTANGLEMENT:
            continue  # rejected, see below
        batch = ent.measure_rows(rows, measure, LAY2).tolist()
        assert batch == [ent.measure_state(r, measure, LAY2) for r in rows]
        if fn is not None:
            assert batch == [fn(r) for r in rows]


def test_measure_rows_rejects_entropy_of_density_rows():
    _, rhos = _random_rows(np.random.default_rng(5), 2, LAY2)
    for fn, rows in ((ent.measure_rows, rhos), (ent.measure_state, rhos[0])):
        with pytest.raises(ValueError, match="defined for pure records only"):
            fn(rows, Measure.ENTROPY_OF_ENTANGLEMENT, LAY2)


@pytest.mark.parametrize("measure", [Measure.NEGATIVITY, Measure.ENTROPY_OF_ENTANGLEMENT])
@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_measure_rows_equals_scalar_functions_beyond_qubits(measure, dims):
    layout = make_layout(dims)
    psis, rhos = _random_rows(np.random.default_rng(11), 12, layout)
    batch = ent.measure_rows(psis, measure, layout).tolist()
    assert batch == [ent.measure_state(r, measure, layout) for r in psis]
    if measure is Measure.ENTROPY_OF_ENTANGLEMENT:
        assert batch == [entanglement_entropy(r, layout) for r in psis]
    else:
        batch = ent.measure_rows(rhos, measure, layout).tolist()
        assert batch == [negativity(r, layout) for r in rhos]
        assert batch == [ent.measure_state(r, measure, layout) for r in rhos]


@pytest.mark.parametrize("measure", [Measure.CONCURRENCE, Measure.ENTANGLEMENT_OF_FORMATION])
def test_measure_rows_two_qubit_measures_reject_other_layouts(measure):
    psis, rhos = _random_rows(np.random.default_rng(3), 2, LAY3)
    for fn, rows in ((ent.measure_rows, psis), (ent.measure_rows, rhos),
                     (ent.measure_state, psis[0]), (ent.measure_state, rhos[0])):
        with pytest.raises(ValueError, match=f"{measure.value} requires a two-qubit layout"):
            fn(rows, measure, LAY3)


def _random_density(rng, n, d, pattern=None):
    """n random full-rank density matrices (n, d, d); entries outside ``pattern`` exactly zero."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = a @ a.conj().transpose(0, 2, 1)
    if pattern is not None:
        rho = np.where(pattern, rho, 0.0)  # a principal block of a PSD matrix stays PSD
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _negativity_against_full_eigvalsh(monkeypatch, rhos, layout):
    """The density kernel's negativities, their largest distance from one
    eigvalsh of the full partial transposes, and the shapes eigvalsh saw."""
    full_eigvalsh = np.linalg.eigvalsh
    eig = full_eigvalsh(partial_transpose(rhos, 1, layout))
    eig = np.where(np.abs(eig) < 1e-12, 0.0, eig)
    want = -np.where(eig < 0, eig, 0.0).sum(axis=-1)
    shapes = []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or full_eigvalsh(a))
        got = ent.negativity_batch_density(rhos, layout)
    assert got.shape == want.shape
    return got, np.max(np.abs(got - want), initial=0.0), shapes


def test_negativity_by_block_matches_full_eigvalsh(monkeypatch):
    # the density kernel gathers each block of the partial transpose along
    # the batch's exact zeros and takes 1 x 1 and 2 x 2 blocks in closed
    # form; it must agree with one eigvalsh of the full matrices, and call
    # eigvalsh once per block size of 3 or more
    rng = np.random.default_rng(23)
    excitation = np.add.outer(np.arange(3), np.arange(3)).reshape(-1)  # n1 + n2 on the qutrit pair
    x_pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]  # two-qubit X-state
    cases = [
        (_random_density(rng, 40, 9), LAY3, [9]),
        (_random_density(rng, 40, 9, excitation[:, None] == excitation[None, :]), LAY3, [3]),
        (_random_density(rng, 40, 4, x_pattern), LAY2, []),
        (np.zeros((0, 9, 9), dtype=np.complex128), LAY3, []),
    ]
    for rhos, layout, sizes in cases:
        got, err, shapes = _negativity_against_full_eigvalsh(monkeypatch, rhos, layout)
        assert err < 1e-14
        assert sorted(shape[-1] for shape in shapes) == sizes
        assert len(rhos) == 0 or got.max() > 0.01
    for shape in ((2, 8, 8), (0, 4, 4)):  # the index map carries the partial transpose's shape check
        with pytest.raises(ValueError, match="does not match layout"):
            ent.negativity_batch_density(np.zeros(shape, dtype=np.complex128), LAY3)


def _x_state(p, z, w):
    """Two-qubit X-state diag(p) + z |00><11| + w |01><10| + h.c.: its partial
    transpose has the 2 x 2 blocks [[p0, w], [w*, p3]] and [[p1, z], [z*, p2]]."""
    rho = np.diag(np.asarray(p, dtype=np.complex128))
    rho[0, 3], rho[3, 0], rho[1, 2], rho[2, 1] = z, np.conj(z), w, np.conj(w)
    return rho


def test_negativity_closed_form_2x2_near_degenerate_and_at_the_clip(monkeypatch):
    # equal diagonals a = c with |b| = 0, 1e-15 and 1e-9; then a block whose
    # negative eigenvalue a - |z| sits at -1e-13 (clipped) or -1e-11 (kept)
    phase = np.exp(0.7j)
    rhos = np.array([_x_state([0.25] * 4, z * phase, 0.1) for z in (0.0, 1e-15, 1e-9)]
                    + [_x_state([0.4, 0.1, 0.1, 0.4], (0.1 + gap) * phase, 0.0) for gap in (1e-13, 1e-11)])
    got, err, shapes = _negativity_against_full_eigvalsh(monkeypatch, rhos, LAY2)
    assert err < 1e-14
    assert shapes == []
    assert got[:4].tolist() == [0.0] * 4
    assert abs(got[4] - 1e-11) < 1e-14


def _monomial_rows(rng, n, dims):
    """n normalized rows whose amplitude matrices have at most one nonzero per
    row and per column, with 1 to min(dims) nonzeros at random places."""
    da, db = dims
    out = np.zeros((n, da, db), dtype=np.complex128)
    for a in out:
        k = rng.integers(1, min(dims) + 1)
        rows, cols = rng.permutation(da)[:k], rng.permutation(db)[:k]
        a[rows, cols] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return (out / np.linalg.norm(out, axis=(1, 2))[:, None, None]).reshape(n, da * db)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_schmidt_moduli_equal_the_svd(monkeypatch, dims):
    # a row whose amplitude matrix is a scaled partial permutation has its
    # moduli for Schmidt coefficients; only the other rows go through svd
    rng = np.random.default_rng(31)
    layout = make_layout(dims)
    full_svd = np.linalg.svd
    shapes = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or full_svd(a, **kw))

    def want(rows):
        return full_svd(rows.reshape(len(rows), *dims), compute_uv=False)

    monomial = _monomial_rows(rng, 200, dims)
    got = ent._schmidt(monomial, layout)
    assert shapes == [] and got.shape == (200, min(dims))
    assert np.max(np.abs(got - want(monomial))) < 1e-15

    dense = rng.standard_normal((30, layout.total_dim)) + 1j * rng.standard_normal((30, layout.total_dim))
    mixed = np.concatenate([monomial[:50], dense / np.linalg.norm(dense, axis=1)[:, None]])[rng.permutation(80)]
    got = ent._schmidt(mixed, layout)
    assert [shape[0] for shape in shapes] == [30]
    assert np.max(np.abs(got - want(mixed))) < 1e-15

    assert ent._schmidt(np.zeros((0, layout.total_dim), dtype=np.complex128), layout).shape == (0, min(dims))
    assert len(shapes) == 1

    # a product row has one nonzero coefficient: its negativity is exactly 0
    product = monomial[np.count_nonzero(monomial, axis=1) == 1]
    assert len(product) > 0
    assert ent.negativity_batch_pure(product, layout).tolist() == [0.0] * len(product)
