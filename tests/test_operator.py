"""The shared corrector operator, its multigrid hierarchy and the solvers on it.

References are built here independently of `grid.py`: a per-cell Q1
assembly (einsum over Gauss points, COO scatter) and an edge-by-edge
five-point lattice assembly, both solved with Jacobi-preconditioned scipy
Krylov methods.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from exhom.averaging import _tensor_from_gradients, build_filter, solve_corrector_bundle
from exhom import grid as grid_module
from exhom.coeffs import catalog
from exhom.corrector import richardson_combine, solve_ladder
from exhom.grid import (
    BAND_ENTRIES,
    CorrectorOperator,
    DofVector,
    SolverError,
    SparseSystem,
    StructuredGrid,
    _Level,
    _prolongation_1d,
    _q1_loads,
    _q1_stiffness_local,
    _restriction,
    _stencil_data,
    solve,
)
from exhom.lattice import _lattice_operator, default_pattern, lattice_hom

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
    """Count the iterations of every Krylov loop (`grid._cg`, `grid._bicgstab`) that `solve` runs."""
    count = [0]
    for name in ("_cg", "_bicgstab"):
        def counting(*args, _original=getattr(grid_module, name)):
            iterations, converged = _original(*args)
            count[0] += iterations
            return iterations, converged

        monkeypatch.setattr(grid_module, name, counting)
    return count


@pytest.fixture
def v_cycles(monkeypatch):
    """One entry per preconditioner application (V-cycle, or direct bottom solve), from any thread."""
    calls, original = [], grid_module._Multigrid.__call__

    def counting(self, r):
        calls.append(1)
        return original(self, r)

    monkeypatch.setattr(grid_module._Multigrid, "__call__", counting)
    return calls


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
        A, A_t = batch.matrix(inv_T).tocsr(), batch.transpose().matrix(inv_T).tocsr()
        nnz = 0
        for b, g in enumerate(grids):
            K_ref, b_ref = _reference_system(g, field, inv_T, xi, bc)
            blk = slice(b * n, (b + 1) * n)
            nnz += A[blk, blk].nnz
            assert abs(A[blk, blk] - K_ref).max() <= 1e-13 * abs(K_ref).max()
            assert np.abs(batch.rhs(xi)[blk] - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
            K_t, b_t = _reference_system(g, field.transpose(), inv_T, xi, bc)
            assert abs(A_t[blk, blk] - K_t).max() <= 1e-13 * abs(K_t).max()
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


# origins of a batch that cut the unit period at different phases
ORIGINS = ((0.3, -0.4), (1.05, 0.2), (-2.7, 3.33))


def _tiled_batch(nx, ny, hx, hy):
    return [StructuredGrid(x0, y0, nx, ny, hx, hy) for x0, y0 in ORIGINS]


def _on_grid(A_p, nx, ny):
    """A at every Gauss point of each grid, (B * nx * ny, 4, 2, 2), read off one period A_p (B, cx, cy, 4, 2, 2)."""
    cx, cy = A_p.shape[1:3]
    return A_p[:, np.arange(nx) % cx][:, :, np.arange(ny) % cy].reshape(-1, 4, 2, 2)


@pytest.mark.parametrize(
    "name, bc, grid, cells",
    [
        ("mat2", "dirichlet0", (24, 16, 0.125, 0.125), (8, 8)),
        ("mat4", "dirichlet0", (20, 13, 0.1, 0.25), (10, 4)),  # c does not divide a Dirichlet grid
        ("mat4", "dirichlet0", (24, 16, 0.125, 0.15), (8, 16)),  # tiled along x only
        ("mat2", "periodic", (24, 16, 0.125, 0.125), (8, 8)),
        ("mat4", "periodic", (16, 12, 0.125, 0.25), (8, 4)),
    ],
)
def test_tiled_operator_matches_cellwise_assembly(name, bc, grid, cells):
    field = catalog(name)
    grids = _tiled_batch(*grid)
    op = CorrectorOperator.from_field(grids, field, bc)
    assert op.A_p.shape[1:3] == cells
    inv_T, n = 0.7, op.K.shape[0] // len(grids)
    A_q = _on_grid(op.A_p, *grid[:2]).reshape(len(grids), -1, 4, 2, 2)
    dual = op.transpose()
    for b, g in enumerate(grids):
        block = slice(b * n, (b + 1) * n)
        assert np.abs(A_q[b] - field(g.quad_points()).reshape(-1, 4, 2, 2)).max() <= 1e-12 * np.abs(A_q).max()
        for o, f in ((op, field), (dual, field.transpose())):
            K_ref, _ = _reference_system(g, f, inv_T, np.zeros(2), bc)
            assert abs(o.matrix(inv_T).tocsr()[block, block] - K_ref).max() <= 1e-12 * abs(K_ref).max()
            for x, xi in enumerate(np.eye(2)):
                _, b_ref = _reference_system(g, f, inv_T, xi, bc)
                assert np.abs(o.loads[x, block] - b_ref).max() <= 1e-12 * np.abs(b_ref).max()


def _stencil_rows_matrix(rows, nx, ny, bc, B):
    """CSR of nine-point rows (B * n, 9) on the free dofs: entry (dx, dy) of dof (i, j) at dof (i + dx, j + dy).

    A Dirichlet row drops its neighbours on the boundary, a periodic one
    wraps around; explicit zeros are dropped.
    """
    periodic = bc == "periodic"
    mx, my = (nx, ny) if periodic else (nx - 1, ny - 1)
    b, i, j = (a.ravel() for a in np.meshgrid(np.arange(B), np.arange(mx), np.arange(my), indexing="ij"))
    entries = []
    for k, (dx, dy) in enumerate(itertools.product((-1, 0, 1), repeat=2)):
        p, q = i + dx, j + dy
        keep = np.ones(p.size, dtype=bool) if periodic else (0 <= p) & (p < mx) & (0 <= q) & (q < my)
        col = (b * mx + p % mx) * my + q % my
        entries.append((((b * mx + i) * my + j)[keep], col[keep], rows[:, k][keep]))
    r, c, v = (np.concatenate(a) for a in zip(*entries))
    K = sp.coo_matrix((v, (r, c)), shape=(B * mx * my,) * 2).tocsr()
    K.eliminate_zeros()
    return K


def _direct_path(grids, field, bc):
    """K, loads and A_q summed over every cell of every grid, as without a period."""
    A_q = field(np.concatenate([g.quad_points() for g in grids])).reshape(-1, 4, 2, 2)
    rows = _stencil_data(grids, bc, _q1_stiffness_local(grids, A_q))
    K = _stencil_rows_matrix(rows, grids[0].nx, grids[0].ny, bc, len(grids))
    return K, _q1_loads(grids, bc, A_q), A_q


@pytest.mark.parametrize(
    "name, bc, grid",
    [
        ("mat4", "dirichlet0", (20, 14, 0.15, 0.15)),  # the period is not a whole number of cells
        ("mat2", "periodic", (12, 20, 0.125, 0.125)),  # c = 8 divides neither periodic count
        ("mat4", "dirichlet0", (8, 6, 0.125, 0.125)),  # c = 8 is at least the grid
        ("mat3", "dirichlet0", (24, 16, 0.125, 0.125)),  # no period
        ("mat5", "periodic", (16, 16, 0.125, 0.125)),
    ],
)
def test_untiled_operator_is_bitwise_the_direct_sum(name, bc, grid):
    field = catalog(name)
    grids = _tiled_batch(*grid)
    op = CorrectorOperator.from_field(grids, field, bc)
    assert op.A_p.shape[1:3] == grid[:2]
    K, loads, A_q = _direct_path(grids, field, bc)
    got = op.K.tocsr()  # without its explicit zeros, sorted like the reference
    assert np.array_equal(got.indptr, K.indptr) and np.array_equal(got.indices, K.indices)
    assert np.array_equal(got.data, K.data)
    assert np.array_equal(op.loads, loads) and np.array_equal(_on_grid(op.A_p, *grid[:2]), A_q)
    if not field.is_symmetric:
        assert np.array_equal(op.transpose().loads, _q1_loads(grids, bc, np.swapaxes(A_q, -1, -2)))


def test_field_is_evaluated_on_one_period_per_grid():
    calls = []
    mat2 = catalog("mat2")

    def counting(points):
        calls.append(len(points))
        return mat2.evaluate(points)

    grids = _tiled_batch(24, 16, 0.125, 0.25)
    op = CorrectorOperator.from_field(grids, dataclasses.replace(mat2, evaluate=counting))
    assert op.A_p.shape[1:3] == (8, 4) and calls == [4 * len(grids) * 8 * 4]


def _held_bytes_per_dof(grid, field, bc):
    """Bytes per dof that an operator holds after `from_field`, and with the systems of one shift."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op = CorrectorOperator.from_field(grid, field, bc)
        after_setup = tracemalloc.get_traced_memory()[0] - base
        systems = op.systems(1.0, [op.rhs(xi) for xi in np.eye(2)])
        with_systems = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    dofs = systems[0].matrix.shape[0]
    return op, after_setup / dofs, with_systems / dofs


def test_operator_holds_a_on_one_period_and_int32_indices():
    # a full-grid A (128 B per cell), an index array per matrix entry (36 B
    # per dof on the finest level alone) or int64 restriction indices push
    # the held bytes per dof over these bounds
    field, grid = catalog("mat2"), StructuredGrid.square(4.0, 128)
    op, after_setup, with_systems = _held_bytes_per_dof(grid, field, "dirichlet0")
    assert after_setup <= 75 and with_systems <= 225, (after_setup, with_systems)
    assert op.A_p.shape[1:3] == tuple(np.rint(field.period / grid.h).astype(int)) == (16, 16)
    assert len(op.levels) >= 3
    for level in op.levels:  # no level holds an index array
        assert not [k for k, v in vars(level).items() if isinstance(v, np.ndarray) and v.dtype.kind in "iu"]
    for R in op.restrictions:
        assert R.indices.dtype == R.indptr.dtype == np.int32
    # a periodic grid's matrices hold their wrap-around couplings on 12 more
    # diagonals (the other wrap couplings share an inner offset's diagonal)
    op, after_setup, with_systems = _held_bytes_per_dof(grid, field, "periodic")
    assert len(op.levels) >= 3 and len(op.K.offsets) == 9 + 12
    assert after_setup <= 75 and with_systems <= 360, (after_setup, with_systems)


def test_index_tables_beyond_int32_are_refused():
    # I_B (x) Px^T (x) Py^T for 7 x 7 fine dofs per block: 2^26 blocks hold
    # 49 * 2^26 fine dofs, more than int32 can index; refused before any
    # array of the batch's size is allocated
    px = _prolongation_1d(8, "dirichlet0")
    with pytest.raises(ValueError, match="int32"):
        _restriction(px, px, 1 << 26)


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
    grids = _batch_of_patches(96, 72)  # two levels, so the V-cycle is not a direct solve
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
    # grids halve while a block holds more than BAND_ENTRIES band-factor
    # entries, free dofs times the shorter free extent
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 96), mat2)
    assert [P.shape for P in op.prolongations] == [(95 * 95, 47 * 47)]
    assert 95**3 > BAND_ENTRIES >= 47**3
    op = CorrectorOperator.from_field(StructuredGrid.square(0.5, 128), mat2, "periodic")
    assert [P.shape[1] for P in op.prolongations] == [64 * 64, 32 * 32]
    assert 64**3 > BAND_ENTRIES >= 32**3
    # the shorter extent sets the band: a thin grid of many dofs is factorized whole
    op = CorrectorOperator.from_field(StructuredGrid.from_box((0.0, 1.0, 0.0, 8.0), 9, 400), mat2)
    assert op.shapes == [(9, 400)]
    assert 8 * 399 * 8 <= BAND_ENTRIES
    # odd cell counts halve too, to ceil(n/2): 261 -> 131 -> 66 -> 33 cells
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 261), mat2)
    assert [P.shape for P in op.prolongations] == [(260**2, 130**2), (130**2, 65**2), (65**2, 32**2)]
    op = CorrectorOperator.from_field(StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 90, 180), mat2, "periodic")
    assert [P.shape for P in op.prolongations] == [(90 * 180, 45 * 90), (45 * 90, 23 * 45)]
    # coarse node i sits at fine node min(2i, n): the last coarse cell is one fine cell wide
    assert np.array_equal(
        _prolongation_1d(5, "dirichlet0").toarray(), [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
    )
    assert np.array_equal(
        _prolongation_1d(5, "periodic").toarray(),
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
    )
    # every bottom is factorized, and is cheap to factor
    for n in (17, 81, 131):
        system = CorrectorOperator.from_field(StructuredGrid.square(2.0, n), mat2).system(1.0, np.ones((n - 1) ** 2))
        m = math.isqrt(system.multigrid.levels[-1].shape[0])
        assert m**3 <= BAND_ENTRIES
        assert system.multigrid.bottom.cholesky


def test_stiffness_and_mass_share_one_sorted_pattern():
    for grid, bc in ((StructuredGrid.square(1.0, 12), "dirichlet0"),
                     (StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 9, 2), "periodic")):
        field = catalog("mat4")
        op = CorrectorOperator.from_field(grid, field, bc)
        assert np.array_equal(op.K.offsets, op.M.offsets) and np.all(np.diff(op.K.offsets) > 0)
        M = op.M.copy()
        op.systems(0.5, [op.rhs((1.0, 0.0))])  # a shift's systems leave M as it is
        assert (op.M != M).nnz == 0
        # the cellwise reference's mass: two large shifts, so the stiffness cancels to roundoff (and
        # neither shift is 0, where the periodic reference pins a node)
        s, xi = 1e6, np.array([1.0, 0.0])
        M_ref = (_reference_system(grid, field, 2 * s, xi, bc)[0] - _reference_system(grid, field, s, xi, bc)[0]) / s
        assert abs(op.M - M_ref).max() <= 1e-14 * abs(M_ref).max()


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
    assert 0 < min(counts) and max(counts) <= bound, counts


@pytest.mark.parametrize(
    "make, T, rel_tol, bound",
    [
        # the lattice-box workload's rungs at side 64 (two levels): 18 V-cycles per solve
        (lambda: _lattice_operator(default_pattern(), 64), 8.0, 1e-12, 20),
        # the tensor-ladder workload's rungs on a 96-cell mat2 box (two levels): 6.5
        (lambda: CorrectorOperator.from_field(StructuredGrid.square(3.0, 96), catalog("mat2")), 0.1, 1e-8, 8),
    ],
)
def test_v_cycles_per_solve_are_bounded(v_cycles, make, T, rel_tol, bound):
    op = make()
    assert len(op.shapes) == 2
    k = 2
    ladders = solve_ladder(op, T, k, np.eye(2), rel_tol=rel_tol)
    assert all(len(lad) == k for lad in ladders)
    assert 0 < len(v_cycles) <= bound * 2 * k, len(v_cycles) / (2 * k)


def test_odd_grid_halves_and_solves_in_few_iterations(krylov_iterations):
    # 322 cells halve to 161, 81 and 41, and 261 to 131, 66 and 33:
    # before odd grids halved, the 161-cell level was a 25600-dof bottom that
    # was only smoothed, and the two directions at 1/T = 4 took 306 CG
    # iterations (131 cells: 368)
    for n in (322, 261):
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
    A_q = field(grid.quad_points()).reshape(1, grid.nx, grid.ny, 4, 2, 2)  # the whole grid as the period
    ref = _tensor_from_gradients(grid, A_q, [grads[False, d] for d in range(2)],
                                 [grads[True, d] for d in range(2)], filt, 1.0, project=True)[0]
    primal = [s.u for s in bundle.primal]
    dual = primal if bundle.dual is bundle.primal else [s.u for s in bundle.dual]
    got = _tensor_from_gradients(grid, bundle.A_p, primal, dual, filt, 1.0, project=True)[0]
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


def _dense_solve_of_bottom(system, b):
    """The bottom level solved densely, block by block (every level is block-diagonal)."""
    A, n = system.multigrid.levels[-1].tocsr(), b.size // system.blocks
    blocks = [slice(i * n, (i + 1) * n) for i in range(system.blocks)]
    assert sum(A[blk, blk].nnz for blk in blocks) == A.nnz
    return np.concatenate([np.linalg.solve(A[blk, blk].toarray(), b[blk]) for blk in blocks])


@pytest.mark.parametrize(
    "grids, bc, inv_T, name",
    [
        ([StructuredGrid.from_box((0.0, 1.0, 0.0, 0.6), 13, 9)], "dirichlet0", 2.0, "mat2"),  # a bottom of one level
        ([StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 24, 41)], "dirichlet0", 2.0, "mat2"),  # longer along y
        ([StructuredGrid.from_box((0.0, 1.0, 0.0, 0.6), 10, 7)], "periodic", 0.7, "mat2"),
        ([StructuredGrid.from_box((0.0, 1.0, 0.0, 0.6), 10, 7)], "periodic", 0.0, "mat2"),  # pinned
        (_batch_of_patches(), "dirichlet0", 2.5, "mat2"),
        (_batch_of_patches(120, 40), "dirichlet0", 2.5, "mat4"),  # non-symmetric, batched, halved
        ([StructuredGrid.from_box((0.0, 1.0, 0.0, 0.6), 36, 22)], "periodic", 0.7, "mat4"),
    ],
)
def test_band_lu_bottom_matches_dense_solve(grids, bc, inv_T, name):
    op = CorrectorOperator.from_field(grids, catalog(name), bc)
    system = op.system(inv_T, op.rhs((0.6, -0.8)))
    assert system.pinned == (inv_T == 0.0)
    b = np.random.default_rng(3).standard_normal(system.multigrid.levels[-1].shape[0])
    ref = _dense_solve_of_bottom(system, b)
    bottom = system.multigrid.bottom
    assert bottom.cholesky == (name == "mat2")  # Cholesky for the symmetric field, LU for the other
    assert np.abs(bottom.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("nx, ny, bc", [(3, 2000, "dirichlet0"), (2000, 3, "dirichlet0"), (3, 2000, "periodic")])
def test_thin_grid_gets_a_thin_band(nx, ny, bc):
    # too thin to halve: the whole grid is the bottom, numbered along its long axis
    grid = StructuredGrid.from_box((0.0, 0.03 * nx, 0.0, 0.03 * ny), nx, ny)
    op = CorrectorOperator.from_field(grid, catalog("mat2"), bc)
    system = op.system(1.0, op.rhs((1.0, 0.0)))
    assert not op.prolongations
    bottom = system.multigrid.bottom
    short = min(nx, ny) - (bc == "dirichlet0")
    band = max(bottom.kl, bottom.ku)
    assert band <= (short + 1 if bc == "dirichlet0" else 2 * short + 2), band
    u = solve(system, rel_tol=1e-10)
    assert np.linalg.norm(system.rhs - system.matrix @ u.values) <= 1e-10 * np.linalg.norm(system.rhs)


def test_system_without_grid_sums_duplicate_entries(krylov_iterations):
    # (0, 0) is stored twice, 1 + 3: the band factorization holds the summed matrix, so one iteration solves
    data, indices, indptr = np.array([1.0, 3.0, 1.0, 1.0, 5.0]), np.array([0, 0, 1, 0, 1]), np.array([0, 3, 5])
    A = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
    u = solve(SparseSystem(matrix=A, rhs=np.array([5.0, 6.0]), symmetric=True), rel_tol=1e-12)
    assert krylov_iterations[0] == 1
    assert np.allclose(u.values, [1.0, 1.0], rtol=0, atol=1e-12)


def test_singular_system_without_grid_raises_solver_error():
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(SolverError, match="singular"):
        solve(SparseSystem(matrix=A, rhs=np.ones(3), symmetric=True), rel_tol=1e-10)
    with pytest.raises(SolverError, match="singular"):
        solve(SparseSystem(matrix=A, rhs=np.ones(3), symmetric=False), rel_tol=1e-10)


def test_symmetric_indefinite_system_raises_failed_cholesky():
    # no LU stands in for a symmetric level that is not positive definite
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(SolverError, match="band Cholesky .* failed .*not positive definite"):
        solve(SparseSystem(matrix=A, rhs=np.ones(3), symmetric=True), rel_tol=1e-10)
    u = solve(SparseSystem(matrix=A, rhs=np.ones(3), symmetric=False), rel_tol=1e-10)  # LU takes it
    assert np.allclose(A @ u.values, 1.0, rtol=0, atol=1e-12)


def test_hmm_patch_batch_is_one_cholesky_level(krylov_iterations):
    # 24 x 24-cell patches (529 free dofs, band 23) are cheap to factor: the
    # batch is one level, factorized by Cholesky, and CG solves each
    # direction in one iteration with no hierarchy built
    boxes = ((0.0, 0.19, 0.1, 0.28), (0.21, 0.4, 0.0, 0.2), (0.5, 0.68, 0.3, 0.49))
    grids = [StructuredGrid.from_box(b, 24, 24) for b in boxes]
    op = CorrectorOperator.from_field(grids, catalog("mat2"))
    assert op.shapes == [(24, 24)] and not op.prolongations and 23**3 <= BAND_ENTRIES
    systems = op.systems(128.0, [op.rhs(xi) for xi in np.eye(2)])  # 1 / (T eps^2) at T = 2, eps = 1/16
    assert len(op.levels) == 1
    for system in systems:
        assert len(system.multigrid.levels) == 1 and system.multigrid.bottom.cholesky
        assert max(system.multigrid.bottom.kl, system.multigrid.bottom.ku) == 24
        krylov_iterations[0] = 0
        u = solve(system, rel_tol=1e-10).values.reshape(3, -1)
        assert krylov_iterations[0] == 1
        r = (system.rhs - system.matrix @ u.ravel()).reshape(3, -1)
        assert np.all(np.linalg.norm(r, axis=1) <= 1e-10 * np.linalg.norm(system.rhs.reshape(3, -1), axis=1))


def _galerkin_masses(op):
    """P^T M P down the hierarchy, from the finest mass."""
    out, M = [], op.M
    for P in op.prolongations:
        M = (P.T @ M @ P).tocsr()
        out.append(M)
    return out


def _level_matrices(op):
    """(K, M) of every level of the operator's hierarchy, finest first."""
    return [(level.matrix(level.K), level.matrix(level.M)) for level in op.levels]


@pytest.mark.parametrize(
    "make",
    [
        lambda: CorrectorOperator.from_field(StructuredGrid.square(1.0, 160), catalog("mat4")),  # even halvings
        lambda: CorrectorOperator.from_field(StructuredGrid.from_box((0.0, 1.0, 0.0, 0.8), 161, 145), catalog("mat4")),
        lambda: CorrectorOperator.from_field(StructuredGrid.square(1.0, 160), catalog("mat4"), "periodic"),
        lambda: CorrectorOperator.from_field(StructuredGrid.from_box((0.0, 1.0, 0.0, 0.8), 161, 151), catalog("mat2"),
                                             "periodic"),
        lambda: CorrectorOperator.from_field(_batch_of_patches(192, 120), catalog("mat4")),
        lambda: _lattice_operator(default_pattern(), 128),
        # tiled on a 16-cell period, Dirichlet: 106 cells halve to 53, then (odd) to 27
        lambda: CorrectorOperator.from_field(StructuredGrid.from_box((0.3, 6.925, -0.4, 6.225), 106, 106),
                                             catalog("mat2")),
        # a period of 9 cells, odd: on a Dirichlet grid, and on a periodic one halving 126 -> 63 -> 32
        lambda: CorrectorOperator.from_field(StructuredGrid.from_box((0.3, 16.3, -0.4, 15.6), 144, 144),
                                             catalog("mat4")),
        lambda: CorrectorOperator.from_field(StructuredGrid.from_box((0.1, 14.1, 0.2, 14.2), 126, 126), catalog("mat4"),
                                             "periodic"),
    ],
)
def test_mass_levels_are_galerkin_products_on_the_stiffness_pattern(make):
    op = make()
    op.systems(1.0, [op.rhs((1.0, 0.0))])
    levels = _level_matrices(op)
    assert len(levels) >= 3
    ops = [op] if op.symmetric else [op, op.transpose()]
    for o in ops:
        for K, M in _level_matrices(o):
            assert set(M.offsets) <= set(K.offsets)
    for (_, M), ref in zip(levels[1:], _galerkin_masses(op), strict=True):
        assert abs(M - ref).max() <= 1e-14 * abs(ref).max()
    # the coarse stiffness is the Galerkin product, on the mass's pattern
    for (K, _), (Kf, _), P in zip(levels[1:], levels, op.prolongations):
        ref = P.T @ Kf @ P
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()
    # and the dual operator's is its transpose
    if not op.symmetric:
        for (K, _), (Kf, _), P in zip(_level_matrices(op.transpose())[1:], levels, op.prolongations):
            ref = (P.T @ Kf @ P).T
            assert abs(K - ref).max() <= 1e-14 * abs(ref).max()


def test_lattice_stiffness_is_five_point():
    op = _lattice_operator(default_pattern(), 64)
    assert list(op.K.offsets) == [-63, -1, 0, 1, 63] and list(op.M.offsets) == [0]
    assert np.diff(op.K.tocsr().indptr).max() == 5


@pytest.fixture
def sparse_products(monkeypatch):
    """Count the sparse-sparse matrix products scipy computes."""
    from scipy.sparse._compressed import _cs_matrix

    count, original = [0], _cs_matrix._matmul_sparse

    def counting(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(_cs_matrix, "_matmul_sparse", counting)
    return count


@pytest.mark.parametrize(
    "make",
    [
        lambda: CorrectorOperator.from_field(StructuredGrid.square(3.0, 192, center=(0.25, 0.5)), catalog("mat2")),
        lambda: _lattice_operator(default_pattern(), 160),
    ],
)
def test_set_up_makes_no_sparse_product(sparse_products, make):
    op = make()
    op.systems(1.0, [op.rhs(xi) for xi in np.eye(2)])
    assert len(op.levels) >= 3
    assert sparse_products[0] == 0
    op.prolongations[0].T @ op.K  # the counter sees a product
    assert sparse_products[0] == 1


@pytest.mark.parametrize("nx, ny, B", [(2, 2, 1), (2, 7, 1), (9, 2, 2), (5, 5, 3), (17, 11, 1), (24, 24, 4), (40, 33, 2)])
def test_dirichlet_pattern_is_the_kronecker_product_of_1d_tridiagonal_patterns(nx, ny, B):
    # every entry of a table on a 2 x 3 torus is its own flat index + 1, so
    # each stored value names the table entry it came from
    tx, ty = 2, 3
    table = 1.0 + np.arange(B * tx * ty * 9).reshape(B, tx, ty, 3, 3)
    A = _Level((nx, ny), "dirichlet0", table, (np.ones(B), np.ones((tx, 3)), np.ones((ty, 3)))).matrix(table)
    assert A.format == "dia" and A.offsets.dtype == np.int32
    A = A.tocsr()
    tri = lambda m: sp.csr_matrix(np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= 1)
    ref = sp.kron(sp.identity(B, format="csr"), sp.kron(tri(nx - 1), tri(ny - 1)), format="csr")
    ref.eliminate_zeros()  # kron may store dense blocks
    ref.sort_indices()
    assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
    # entry (row, col) of block b, free dof (i, j), holds the table's [b, (i + 1) mod tx, (j + 1) mod ty, dx, dy]
    b, r, s, dx, dy = np.unravel_index(A.data.astype(int) - 1, table.shape)
    rows = np.repeat(np.arange(B * (nx - 1) * (ny - 1)), np.diff(A.indptr))
    bi, i, j = np.unravel_index(rows, (B, nx - 1, ny - 1))
    assert np.array_equal(b, bi) and np.array_equal(r, (i + 1) % tx) and np.array_equal(s, (j + 1) % ty)
    assert np.array_equal(A.indices, rows + (dx - 1) * (ny - 1) + dy - 1)
