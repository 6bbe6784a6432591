"""The shared corrector operator, its multigrid hierarchy and the solvers on it.

References are built here independently of `grid.py`: a per-cell Q1
assembly (einsum over Gauss points, COO scatter) and an edge-by-edge
five-point lattice assembly, both solved with Jacobi-preconditioned scipy
Krylov methods.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from exhom.averaging import _tensor_from_gradients, build_filter, solve_corrector_bundle
from exhom.coeffs import catalog
from exhom.corrector import richardson_combine
from exhom.grid import (
    COARSE_DOFS,
    CorrectorOperator,
    DofVector,
    SolverError,
    SparseSystem,
    StructuredGrid,
    _prolongation_1d,
    assemble,
    mass_matrix,
    solve,
)
from exhom.lattice import default_pattern, lattice_hom

_G = 1.0 / math.sqrt(3.0)
GAUSS = [(-_G, -_G), (_G, -_G), (-_G, _G), (_G, _G)]


def _reference_system(grid, field, inv_T, xi, bc):
    """Cell-by-cell Q1 assembly: (K + inv_T M, rhs) on the free dofs."""
    nx, ny = grid.nx, grid.ny
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I, J = I.ravel(), J.ravel()
    if bc == "periodic":
        dof = lambda i, j: (i % nx) * ny + (j % ny)
        ndof = nx * ny
    else:
        dof = lambda i, j: i * (ny + 1) + j
        ndof = (nx + 1) * (ny + 1)
    conn = np.stack([dof(I, J), dof(I + 1, J), dof(I, J + 1), dof(I + 1, J + 1)], axis=1)
    A_q = field(grid.quad_points()).reshape(nx * ny, 4, 2, 2)
    w = 0.25 * grid.hx * grid.hy
    Kloc = np.zeros((nx * ny, 4, 4))
    rhs = np.zeros(ndof)
    for g, (s, t) in enumerate(GAUSS):
        N = 0.25 * np.array([(1 - s) * (1 - t), (1 + s) * (1 - t), (1 - s) * (1 + t), (1 + s) * (1 + t)])
        dN = 0.25 * np.array([[-(1 - t), -(1 - s)], [1 - t, -(1 + s)], [-(1 + t), 1 - s], [1 + t, 1 + s]])
        dNdx = dN / np.array([0.5 * grid.hx, 0.5 * grid.hy])
        Kloc += w * np.einsum("ia,cab,jb->cij", dNdx, A_q[:, g], dNdx) + inv_T * w * np.outer(N, N)
        np.add.at(rhs, conn, -w * (A_q[:, g] @ xi) @ dNdx.T)
    rows, cols = np.repeat(conn, 4, axis=1).ravel(), np.tile(conn, (1, 4)).ravel()
    K = sp.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    if bc == "periodic":
        free = np.arange(1 if inv_T == 0.0 else 0, ndof)
    else:
        free = (np.arange(1, nx)[:, None] * (ny + 1) + np.arange(1, ny)).ravel()
    return K[free][:, free], rhs[free]


def _jacobi_krylov(A, b, rel_tol, symmetric=True, x0=None):
    krylov = spla.cg if symmetric else spla.bicgstab
    x, info = krylov(A, b, rtol=rel_tol, atol=0.0, maxiter=20000, M=sp.diags(1.0 / A.diagonal()), x0=x0)
    assert info == 0
    return x


@pytest.fixture
def krylov_iterations(monkeypatch):
    """Count the Krylov iterations of every scipy cg/bicgstab call."""
    count = [0]
    for name in ("cg", "bicgstab"):
        original = getattr(spla, name)

        def counting(A, b, *args, _original=original, **kwargs):
            def callback(xk):
                count[0] += 1

            return _original(A, b, *args, callback=callback, **kwargs)

        monkeypatch.setattr(spla, name, counting)
    return count


@pytest.mark.parametrize(
    "nx, ny, bc, inv_T, name",
    [
        (16, 16, "dirichlet0", 0.0, "mat2"),
        (12, 7, "dirichlet0", 2.5, "mat4"),
        (9, 9, "periodic", 0.0, "mat4"),
        (10, 6, "periodic", 0.0, "mat2"),
        (8, 13, "periodic", 0.7, "mat5"),
        (2, 5, "periodic", 0.7, "mat4"),  # two neighbours wrap onto one node along x
    ],
)
def test_operator_matches_cellwise_assembly(nx, ny, bc, inv_T, name):
    grid = StructuredGrid.from_box((0.3, 1.9, -0.4, 0.8), nx, ny)
    field = catalog(name)
    xi = np.array([0.6, -0.8])
    K_ref, b_ref = _reference_system(grid, field, inv_T, xi, bc)
    op = CorrectorOperator.from_field(grid, field, bc)
    system = op.system(inv_T, op.rhs(xi))
    assert system.pinned == (bc == "periodic" and inv_T == 0.0)
    scale = abs(K_ref).max()
    assert abs(system.matrix - K_ref).max() <= 1e-13 * scale
    assert np.abs(system.rhs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
    legacy = assemble(grid, field, inv_T, xi=xi, bc=bc)
    assert abs(legacy.matrix - K_ref).max() <= 1e-13 * scale
    # the dual operator is the transpose field's
    if not field.is_symmetric:
        K_t, b_t = _reference_system(grid, field.transpose(), inv_T, xi, bc)
        dual = op.transpose()
        dual_system = dual.system(inv_T, dual.rhs(xi))
        assert abs(dual_system.matrix - K_t).max() <= 1e-13 * scale
        assert np.abs(dual_system.rhs - b_t).max() <= 1e-13 * np.abs(b_t).max()


def _batch_of_patches(nx=12, ny=8):
    """Grids with equal cell counts and different spacings, like clipped HMM patches."""
    boxes = ((0.0, 0.37, 0.1, 0.4), (0.21, 0.6, 0.0, 0.29), (0.5, 0.83, 0.3, 0.62))
    return [StructuredGrid.from_box(b, nx, ny) for b in boxes]


@pytest.mark.parametrize("bc, shifts", [("dirichlet0", (0.0, 2.5)), ("periodic", (0.7,))])
def test_batch_blocks_match_cellwise_assembly(bc, shifts):
    field = catalog("mat4")
    grids = _batch_of_patches()
    batch = CorrectorOperator.from_field(grids, field, bc)
    n = batch.K.shape[0] // len(grids)
    xi = np.array([0.6, -0.8])
    assert batch.grid is None and len(batch.grids) == 3
    for inv_T in shifts:
        A = batch.matrix(inv_T)
        nnz = 0
        for b, g in enumerate(grids):
            K_ref, b_ref = _reference_system(g, field, inv_T, xi, bc)
            blk = slice(b * n, (b + 1) * n)
            nnz += A[blk, blk].nnz
            assert abs(A[blk, blk] - K_ref).max() <= 1e-13 * abs(K_ref).max()
            assert np.abs(batch.rhs(xi)[blk] - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
            K_t, b_t = _reference_system(g, field.transpose(), inv_T, xi, bc)
            assert abs(batch.transpose().matrix(inv_T)[blk, blk] - K_t).max() <= 1e-13 * abs(K_t).max()
            # a batch of one is the one-grid operator
            one = CorrectorOperator.from_field([g], field, bc)
            assert one.grid is g
            assert abs(one.matrix(inv_T) - K_ref).max() <= 1e-13 * abs(K_ref).max()
            assert np.abs(one.rhs(xi) - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        assert A.nnz == nnz  # block-diagonal
    # each level of the hierarchy prolongs block by block
    one = CorrectorOperator.from_field(grids[0], field, bc)
    for P, P1 in zip(batch.prolongations, one.prolongations, strict=True):
        assert abs(P - sp.block_diag([P1] * 3)).max() == 0.0
    if bc == "periodic":
        with pytest.raises(ValueError, match="positive shift"):
            batch.system(0.0, batch.rhs(xi))


def test_batch_rejects_grids_of_different_shape():
    grids = [StructuredGrid.square(1.0, 8), StructuredGrid.square(1.0, 10)]
    with pytest.raises(ValueError, match="cell counts"):
        CorrectorOperator.from_field(grids, catalog("mat2"))


@pytest.mark.parametrize("name", ["mat2", "mat4"])
def test_batched_solve_matches_one_grid_solves(name):
    field = catalog(name)
    grids = _batch_of_patches(32, 24)
    batch = CorrectorOperator.from_field(grids, field)
    system = batch.system(3.0, batch.rhs((0.6, 0.8)))
    assert system.blocks == 3 and system.grid is None
    stacked = solve(system, rel_tol=1e-10).values
    for g, u in zip(grids, batch.split(stacked)):
        one = CorrectorOperator.from_field(g, field)
        ref = solve(one.system(3.0, one.rhs((0.6, 0.8))), rel_tol=1e-10).values
        assert u.grid is g and np.shares_memory(u.values, stacked)
        assert np.linalg.norm(u.values - ref) <= 1e-7 * np.linalg.norm(ref)


def test_equilibrated_solve_meets_the_tolerance_on_every_block():
    grids = _batch_of_patches(32, 24)  # two levels, so the V-cycle is not a direct solve
    op = CorrectorOperator.from_field(grids, catalog("mat2"))
    loads = op.rhs((1.0, 0.0)).reshape(3, -1).copy()
    loads[0] *= 1e6
    loads[2] = 0.0
    system = op.system(1.0, loads.ravel())
    x0 = np.ones(system.rhs.size)  # a warm start is scaled with its block
    u = solve(system, rel_tol=1e-8, x0=x0).values.reshape(3, -1)
    r = loads - (system.matrix @ u.ravel()).reshape(3, -1)
    for i in range(2):
        assert np.linalg.norm(r[i]) <= 1e-8 * np.linalg.norm(loads[i])
    assert np.all(u[2] == 0.0)
    with pytest.raises(SolverError, match="block") as exc:
        solve(system, rel_tol=1e-12, max_iter=1)
    assert exc.value.residual > 1e-12


def test_coarsening_rule():
    mat2 = catalog("mat2")
    # grids halve while a level has more than COARSE_DOFS dofs
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 24), mat2)
    assert [P.shape for P in op.prolongations] == [(23 * 23, 11 * 11)]
    op = CorrectorOperator.from_field(StructuredGrid.square(0.5, 64), mat2, "periodic")
    assert [P.shape[1] for P in op.prolongations] == [32 * 32, 16 * 16]
    assert 16 * 16 <= COARSE_DOFS
    # odd cell counts halve too, to ceil(n/2): 131 -> 66 -> 33 -> 17 cells
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 131), mat2)
    assert [P.shape for P in op.prolongations] == [(130**2, 65**2), (65**2, 32**2), (32**2, 16**2)]
    op = CorrectorOperator.from_field(StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 45, 90), mat2, "periodic")
    assert [P.shape for P in op.prolongations] == [(45 * 90, 23 * 45), (23 * 45, 12 * 23)]
    # coarse node i sits at fine node min(2i, n): the last coarse cell is one fine cell wide
    assert np.array_equal(
        _prolongation_1d(5, "dirichlet0").toarray(), [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
    )
    assert np.array_equal(
        _prolongation_1d(5, "periodic").toarray(),
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
    )
    # every bottom is factorized
    for n in (17, 81, 131):
        system = CorrectorOperator.from_field(StructuredGrid.square(2.0, n), mat2).system(1.0, np.ones((n - 1) ** 2))
        assert system.multigrid.levels[-1].shape[0] <= COARSE_DOFS
        assert system.multigrid.lu is not None


def test_stiffness_and_mass_share_one_sorted_pattern():
    for grid, bc in ((StructuredGrid.square(1.0, 12), "dirichlet0"),
                     (StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 9, 2), "periodic")):
        op = CorrectorOperator.from_field(grid, catalog("mat4"), bc)
        assert np.shares_memory(op.K.indices, op.M.indices) and np.shares_memory(op.K.indptr, op.M.indptr)
        assert op.K.has_canonical_format
        M = op.M.copy()
        op.systems(0.5, [op.rhs((1.0, 0.0))])  # in-place canonicalization would corrupt M
        assert (op.M != M).nnz == 0
        assert (op.M != mass_matrix(grid, bc)).nnz == 0


@pytest.mark.parametrize("name, inv_T, bound", [("mat2", 1.0, 12), ("mat4", 0.0, 8)])
def test_multigrid_iterations_bounded_under_refinement(krylov_iterations, name, inv_T, bound):
    field = catalog(name)
    counts = []
    for n in (64, 128, 256):
        op = CorrectorOperator.from_field(StructuredGrid.square(2.0, n), field)
        system = op.system(inv_T, op.rhs((1.0, 0.0)))
        krylov_iterations[0] = 0
        u = solve(system, rel_tol=1e-8)
        res = np.linalg.norm(system.rhs - system.matrix @ u.values) / np.linalg.norm(system.rhs)
        assert res <= 1e-8
        counts.append(krylov_iterations[0])
    assert max(counts) <= bound, counts


def test_odd_grid_halves_and_solves_in_few_iterations(krylov_iterations):
    # 322 cells halve to 161, 81, 41 and 21: before odd grids halved, the
    # 161-cell level was a 25600-dof bottom that was only smoothed, and the
    # two directions at 1/T = 4 took 306 CG iterations (131 cells: 368)
    for n in (322, 131):
        op = CorrectorOperator.from_field(StructuredGrid.square(4.0 * n / 322, n), catalog("mat2"))
        assert len(op.prolongations) >= 3
        krylov_iterations[0] = 0
        for system in op.systems(4.0, [op.rhs(xi) for xi in np.eye(2)]):
            u = solve(system, rel_tol=1e-8)
            assert np.linalg.norm(system.rhs - system.matrix @ u.values) <= 1e-8 * np.linalg.norm(system.rhs)
        assert krylov_iterations[0] <= 30, (n, krylov_iterations[0])


def test_system_without_grid_is_a_direct_solve(krylov_iterations):
    rng = np.random.default_rng(5)
    B = sp.random(40, 40, density=0.2, random_state=rng)
    A = (B @ B.T + 40 * sp.identity(40)).tocsr()
    b = rng.standard_normal(40)
    u = solve(SparseSystem(matrix=A, rhs=b, symmetric=True), rel_tol=1e-12)
    assert krylov_iterations[0] == 1
    assert np.allclose(A @ u.values, b, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name, T, k", [("mat2", 0.1, 2), ("mat4", 0.2, 2), ("mat4", math.inf, 1)])
def test_bundle_tensor_matches_jacobi_reference(name, T, k):
    field = catalog(name)
    grid = StructuredGrid.square(3.0, 48, center=(0.25, 0.5))
    bundle = solve_corrector_bundle(field, grid, T, k, rel_tol=1e-10)
    grads = {}
    for dual, eff in ((False, field), (True, field.transpose())):
        for d in range(2):
            base, x0 = [], None
            for j in range(k):
                inv_T = 0.0 if math.isinf(T) else 1.0 / (T * 2.0**j)
                A, b = _reference_system(grid, eff, inv_T, np.eye(2)[d], "dirichlet0")
                x0 = _jacobi_krylov(A, b, 1e-10, symmetric=field.is_symmetric, x0=x0)
                base.append(x0)
            grads[dual, d] = DofVector(richardson_combine(base), grid, "dirichlet0")
    filt = build_filter(4)
    A_q = field(grid.quad_points())
    ref = _tensor_from_gradients(grid, A_q, [grads[False, d] for d in range(2)],
                                 [grads[True, d] for d in range(2)], filt, 1.0, project=True)[0]
    primal = [s.u for s in bundle.primal]
    dual = primal if bundle.dual is bundle.primal else [s.u for s in bundle.dual]
    got = _tensor_from_gradients(grid, bundle.A_q, primal, dual, filt, 1.0, project=True)[0]
    assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()


def _reference_lattice_correctors(field, R, T, k, rel_tol):
    """Edge-by-edge five-point assembly, Jacobi-CG ladders, Richardson combine."""
    S = R
    coords = np.arange(-(S // 2), S // 2 + 1)
    X1, X2 = np.meshgrid(coords, coords, indexing="ij")
    ah, av = field.a_h(X1, X2), field.a_v(X1, X2)
    node = lambda i, j: (i - 1) * (S - 1) + (j - 1)
    n = (S - 1) ** 2
    rows, cols, vals = [], [], []
    rhs = np.zeros((2, n))
    for (i, j), (p, q), a, d in [((i, j), (i + 1, j), ah[i, j], 0) for i in range(S) for j in range(S + 1)] + [
        ((i, j), (i, j + 1), av[i, j], 1) for i in range(S + 1) for j in range(S)
    ]:
        ends = [(node(i, j), 1) if 0 < i < S and 0 < j < S else None,
                (node(p, q), -1) if 0 < p < S and 0 < q < S else None]
        for end in ends:
            if end is not None:
                rhs[d, end[0]] += end[1] * a  # -a (xi . e) (delta_q - delta_p)
        for e1 in ends:
            for e2 in ends:
                if e1 is not None and e2 is not None:
                    rows.append(e1[0])
                    cols.append(e2[0])
                    vals.append(a * e1[1] * e2[1])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    out = []
    for d in range(2):
        base, x0 = [], None
        for j in range(k):
            x0 = _jacobi_krylov((K + sp.identity(n) / (T * 2.0**j)).tocsr(), rhs[d], rel_tol, x0=x0)
            base.append(x0)
        nodal = np.zeros((S + 1, S + 1))
        nodal[1:-1, 1:-1] = richardson_combine(base).reshape(S - 1, S - 1)
        out.append(nodal)
    return out, ah, av, X1, X2


def test_lattice_hom_matches_jacobi_reference():
    field, R, T, k, L = default_pattern(), 64, 8.0, 2, 16.0
    filt = build_filter("inf")
    corr, ah, av, X1, X2 = _reference_lattice_correctors(field, R, T, k, 1e-12)
    wh = filt.weights_nd(np.stack([(X1[:-1] + 0.5).ravel(), X2[:-1].ravel()], axis=1), L).reshape(R, R + 1)
    wv = filt.weights_nd(np.stack([X1[:, :-1].ravel(), (X2[:, :-1] + 0.5).ravel()], axis=1), L).reshape(R + 1, R)
    g1 = [c[1:, :] - c[:-1, :] for c in corr]
    g2 = [c[:, 1:] - c[:, :-1] for c in corr]
    eye = np.eye(2)
    ref = np.array([
        [
            (wh * ah[:-1] * (eye[a, 0] + g1[a]) * (eye[b, 0] + g1[b])).sum() / wh.sum()
            + (wv * av[:, :-1] * (eye[a, 1] + g2[a]) * (eye[b, 1] + g2[b])).sum() / wv.sum()
            for b in range(2)
        ]
        for a in range(2)
    ])
    got = lattice_hom(field, R, T, k, L, filt, rel_tol=1e-12)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()
