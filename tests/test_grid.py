import dataclasses
import math

import numpy as np
import pytest

from exhom.coeffs import catalog
from exhom.grid import (
    CorrectorOperator,
    SolverError,
    StructuredGrid,
    gradient_field,
    interpolate_gradient,
    solve,
    values_at_quad,
)

rng = np.random.default_rng(11)


def test_grid_geometry():
    g = StructuredGrid.square(3.0, 12)
    assert g.h == pytest.approx(0.5)
    assert g.R == pytest.approx(3.0)
    xs, ys = g.node_coords()
    assert xs[0] == -3.0 and xs[-1] == 3.0
    assert g.free_dofs("dirichlet0").size == 11 * 11
    assert g.quad_points().shape == (4 * 144, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: StructuredGrid.square(-2.0, 16),
        lambda: StructuredGrid.square(0.0, 8),
        lambda: StructuredGrid.square(math.nan, 8),
        lambda: StructuredGrid.square(math.inf, 8),
        lambda: StructuredGrid.from_box((1.0, 0.0, 0.0, 1.0), 4, 4),
        lambda: StructuredGrid.from_box((0.0, 1.0, 0.0, -math.inf), 4, 4),
        lambda: StructuredGrid.from_box((0.0, math.nan, 0.0, 1.0), 4, 4),
    ],
)
def test_grid_rejects_spacing_that_is_not_positive_and_finite(make):
    # square(-2, 16) used to give a mirrored grid with h = -0.25
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        make()


def test_rhs_zero_for_constant_field():
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 16), catalog("constant:4"))
    for xi in ((1.0, 0.0), (0.3, -0.8)):
        assert np.linalg.norm(op.rhs(xi)) < 1e-12


def test_rhs_zero_for_laminate_e2():
    # a22 depends only on x1, so div(A e2) = d/dx2 a22 = 0
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 16), catalog("laminate"))
    assert np.linalg.norm(op.rhs((0.0, 1.0))) < 1e-12


def test_mass_matrix_rowsum_and_diagonal():
    # hand-assembled 4-cell patch: row sum h^2, diagonal 4 h^2 / 9
    g = StructuredGrid.square(1.0, 4)
    op = CorrectorOperator.from_field(g, catalog("constant:1"))
    M = op.M
    h = g.h
    center = 4  # node (2,2) of the 3x3 interior
    assert M[center].sum() == pytest.approx(h * h, rel=1e-12)
    assert M[center, center] == pytest.approx(4 * h * h / 9, rel=1e-12)
    b = op.rhs((0.0, 0.0))
    Mdiff = (op.system(1.0, b).matrix - op.system(0.0, b).matrix).toarray()
    assert np.allclose(Mdiff, M.toarray(), atol=1e-14)


def test_manufactured_solution_converges_h2():
    # u = (R^2 - x^2)(R^2 - y^2), f = -Lap u = 2(R^2 - y^2) + 2(R^2 - x^2)
    R = 1.0
    f = lambda p: 2 * (R * R - p[:, 1] ** 2) + 2 * (R * R - p[:, 0] ** 2)
    exact = lambda x, y: (R * R - x * x) * (R * R - y * y)
    errs = []
    for n in (8, 16, 32):
        g = StructuredGrid.square(R, n)
        op = CorrectorOperator.from_field(g, catalog("constant:1"))
        u = solve(op.system(0.0, op.source_load(f)), rel_tol=1e-12)
        xs, ys = g.node_coords()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        errs.append(np.abs(u.nodal() - exact(X, Y)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_zero_rhs_returns_zero():
    op = CorrectorOperator.from_field(StructuredGrid.square(1.0, 8), catalog("constant:1"))
    u = solve(op.system(1.0, op.rhs((0.0, 0.0))))
    assert np.all(u.values == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficient_raises_naming_the_field(bad):
    mat2 = catalog("mat2")

    def evaluate(points):
        out = mat2.evaluate(points)
        out[np.argmin(np.linalg.norm(points, axis=1)), 0, 0] = bad  # the Gauss point nearest the origin
        return out

    field = dataclasses.replace(mat2, evaluate=evaluate, period=None, name="mat2-broken")
    with pytest.raises(ValueError, match="mat2-broken"):
        CorrectorOperator.from_field(StructuredGrid.square(2.0, 32), field)


def test_non_finite_load_block_raises_and_a_zero_block_solves_to_zero():
    grids = [StructuredGrid.from_box((x, x + 1.0, 0.0, 1.0), 8, 8) for x in (0.0, 0.3, 0.7)]
    op = CorrectorOperator.from_field(grids, catalog("mat2"))
    loads = op.rhs((1.0, 0.0)).reshape(3, -1).copy()
    loads[1] = 0.0
    u = solve(op.system(1.0, loads.ravel())).values.reshape(3, -1)
    assert np.all(u[1] == 0.0) and np.all(u[0] != 0.0)
    loads[2, 5] = np.nan
    with pytest.raises(ValueError, match="block 2 of 3"):
        solve(op.system(1.0, loads.ravel()))


def test_solver_cross_check_symmetric_vs_bicgstab():
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 16), catalog("mat2"))
    system = op.system(2.0, op.rhs((1.0, 0.0)))
    rel_tol = 1e-10
    u_cg = solve(system, rel_tol=rel_tol)
    system.symmetric = False  # force the BiCGStab path on the same matrix
    u_bi = solve(system, rel_tol=rel_tol)
    rel_diff = np.linalg.norm(u_cg.values - u_bi.values) / np.linalg.norm(u_cg.values)
    assert rel_diff <= 10 * rel_tol


def test_positive_semidefinite_stiffness():
    K = CorrectorOperator.from_field(StructuredGrid.square(2.0, 12), catalog("mat2")).K
    for _ in range(100):
        v = rng.standard_normal(K.shape[0])
        assert v @ (K @ v) >= -1e-10 * v @ v


def test_zero_order_term_definite():
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 12), catalog("mat2"))
    inv_T = 0.7
    A, M = op.system(inv_T, op.rhs((0.0, 0.0))).matrix, op.M
    for _ in range(30):
        v = rng.standard_normal(M.shape[0])
        assert v @ (A @ v) >= inv_T * (v @ (M @ v)) * (1 - 1e-10)


def test_galerkin_orthogonality():
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 20), catalog("mat2"))
    system = op.system(1.0, op.rhs((1.0, 0.0)))
    rel_tol = 1e-10
    u = solve(system, rel_tol=rel_tol)
    r = system.rhs - system.matrix @ u.values
    bnorm = np.linalg.norm(system.rhs)
    for _ in range(20):
        v = rng.standard_normal(r.size)
        v /= np.linalg.norm(v)
        assert abs(v @ r) <= rel_tol * bnorm


def test_nonconvergence_reports_residual():
    g = StructuredGrid.square(2.0, 96)  # halved, so two iterations are not a direct solve
    op = CorrectorOperator.from_field(g, catalog("mat2"))
    system = op.system(0.0, op.rhs((1.0, 0.0)))
    with pytest.raises(SolverError) as exc:
        solve(system, rel_tol=1e-10, max_iter=2)
    assert exc.value.residual is not None and exc.value.residual > 1e-10


def test_rel_tol_precondition():
    op = CorrectorOperator.from_field(StructuredGrid.square(1.0, 4), catalog("constant:1"))
    with pytest.raises(ValueError):
        solve(op.system(1.0, op.rhs((1.0, 0.0))), rel_tol=1e-3)


def test_gradient_field_zero_and_linear():
    g = StructuredGrid.square(1.5, 10)
    from exhom.grid import DofVector

    zero = DofVector(np.zeros(9 * 9), g, "dirichlet0")
    assert np.all(gradient_field(zero) == 0.0)

    # interpolant of x1 carried on the periodic numbering (all nodes free);
    # cells touching the wrap seam see the periodic jump and are excluded
    xs, ys = g.node_coords()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u = DofVector(X[: g.nx, : g.ny].ravel(), g, "periodic")
    grads = gradient_field(u)
    pts = g.quad_points()
    keep = pts[:, 0] < xs[-2]
    assert np.allclose(grads[keep, 0], 1.0, atol=1e-12)
    assert np.allclose(grads[keep, 1], 0.0, atol=1e-12)


def test_gradient_of_bilinear():
    # u = x1 x2 lies in the Q1 space: gradients at Gauss points are exact
    g = StructuredGrid.square(1.0, 6)
    xs, ys = g.node_coords()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    from exhom.grid import DofVector

    inner = (X * Y)[1:-1, 1:-1].ravel()
    u = DofVector(inner, g, "dirichlet0")
    pts = g.quad_points()
    inside = (np.abs(pts[:, 0]) < 1 - g.h) & (np.abs(pts[:, 1]) < 1 - g.h)
    grads = interpolate_gradient(u, pts[inside])
    assert np.allclose(grads[:, 0], pts[inside][:, 1], atol=1e-12)
    assert np.allclose(grads[:, 1], pts[inside][:, 0], atol=1e-12)


def test_values_at_quad_of_bilinear():
    # periodic dofs pin no node; the last cells, which wrap to the first nodes, are left out
    g = StructuredGrid.from_box((0.0, 1.0, 0.0, 2.0), 4, 6)
    xs, ys = g.node_coords()
    X, Y = np.meshgrid(xs[:-1], ys[:-1], indexing="ij")
    from exhom.grid import DofVector

    u = DofVector((1.0 + 2.0 * X * Y).ravel(), g, "periodic")
    pts = g.quad_points()
    inside = (pts[:, 0] < 1.0 - g.hx) & (pts[:, 1] < 2.0 - g.hy)
    vals = values_at_quad(u)
    assert vals.shape == (pts.shape[0],)
    assert np.allclose(vals[inside], 1.0 + 2.0 * pts[inside, 0] * pts[inside, 1], atol=1e-12)


def test_periodic_singular_system_is_pinned():
    op = CorrectorOperator.from_field(StructuredGrid.square(0.5, 8), catalog("mat2"), "periodic")
    b = op.rhs((1.0, 0.0))
    system = op.system(0.0, b)
    assert system.pinned
    assert system.matrix.shape[0] == 8 * 8 - 1
    u = solve(system, rel_tol=1e-10)
    # the solution covers every free dof, the pinned one zero, and solves the unpinned system
    assert u.values.size == 8 * 8 and u.values[0] == 0.0
    assert np.linalg.norm(op.K @ u.values - b) <= 1e-9 * np.linalg.norm(b)
    assert u.nodal().shape == (9, 9)
    # a warm start covers every free dof too
    warm = solve(system, rel_tol=1e-10, x0=u.values).values
    assert warm[0] == 0.0 and np.abs(warm - u.values).max() <= 1e-9 * np.abs(u.values).max()


def test_rectangular_from_box():
    g = StructuredGrid.from_box((0.0, 2.0, 0.0, 1.0), 8, 4)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    with pytest.raises(ValueError):
        _ = g.n  # not square in cell counts
