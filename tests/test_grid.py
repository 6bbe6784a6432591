import numpy as np
import pytest

from exhom.coeffs import catalog
from exhom.grid import (
    SolverError,
    StructuredGrid,
    assemble,
    gradient_field,
    interpolate_gradient,
    mass_matrix,
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


def test_rhs_zero_for_constant_field():
    g = StructuredGrid.square(2.0, 16)
    for xi in ((1.0, 0.0), (0.3, -0.8)):
        system = assemble(g, catalog("constant:4"), 1.0, xi=np.array(xi))
        assert np.linalg.norm(system.rhs) < 1e-12


def test_rhs_zero_for_laminate_e2():
    # a22 depends only on x1, so div(A e2) = d/dx2 a22 = 0
    g = StructuredGrid.square(2.0, 16)
    system = assemble(g, catalog("laminate"), 0.0, xi=np.array([0.0, 1.0]))
    assert np.linalg.norm(system.rhs) < 1e-12


def test_mass_matrix_rowsum_and_diagonal():
    # hand-assembled 4-cell patch: row sum h^2, diagonal 4 h^2 / 9
    g = StructuredGrid.square(1.0, 4)
    M = mass_matrix(g, "dirichlet0")
    h = g.h
    center = 4  # node (2,2) of the 3x3 interior
    assert M[center].sum() == pytest.approx(h * h, rel=1e-12)
    assert M[center, center] == pytest.approx(4 * h * h / 9, rel=1e-12)
    sys1 = assemble(g, catalog("constant:1"), 1.0, xi=None)
    sys0 = assemble(g, catalog("constant:1"), 0.0, xi=None)
    Mdiff = (sys1.matrix - sys0.matrix).toarray()
    assert np.allclose(Mdiff, M.toarray(), atol=1e-14)


def test_manufactured_solution_converges_h2():
    # u = (R^2 - x^2)(R^2 - y^2), f = -Lap u = 2(R^2 - y^2) + 2(R^2 - x^2)
    R = 1.0
    f = lambda p: 2 * (R * R - p[:, 1] ** 2) + 2 * (R * R - p[:, 0] ** 2)
    exact = lambda x, y: (R * R - x * x) * (R * R - y * y)
    errs = []
    for n in (8, 16, 32):
        g = StructuredGrid.square(R, n)
        system = assemble(g, catalog("constant:1"), 0.0, xi=None, source=f)
        u = solve(system, rel_tol=1e-12)
        xs, ys = g.node_coords()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        errs.append(np.abs(u.nodal() - exact(X, Y)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_zero_rhs_returns_zero():
    g = StructuredGrid.square(1.0, 8)
    system = assemble(g, catalog("constant:1"), 1.0, xi=None)
    u = solve(system)
    assert np.all(u.values == 0.0)


def test_solver_cross_check_symmetric_vs_bicgstab():
    g = StructuredGrid.square(2.0, 16)
    system = assemble(g, catalog("mat2"), 2.0, xi=np.array([1.0, 0.0]))
    rel_tol = 1e-10
    u_cg = solve(system, rel_tol=rel_tol)
    system.symmetric = False  # force the BiCGStab path on the same matrix
    u_bi = solve(system, rel_tol=rel_tol)
    rel_diff = np.linalg.norm(u_cg.values - u_bi.values) / np.linalg.norm(u_cg.values)
    assert rel_diff <= 10 * rel_tol


def test_positive_semidefinite_stiffness():
    g = StructuredGrid.square(2.0, 12)
    system = assemble(g, catalog("mat2"), 0.0, xi=None)
    K = system.matrix
    for _ in range(100):
        v = rng.standard_normal(K.shape[0])
        assert v @ (K @ v) >= -1e-10 * v @ v


def test_zero_order_term_definite():
    g = StructuredGrid.square(2.0, 12)
    inv_T = 0.7
    sys_T = assemble(g, catalog("mat2"), inv_T, xi=None)
    M = mass_matrix(g, "dirichlet0")
    for _ in range(30):
        v = rng.standard_normal(M.shape[0])
        assert v @ (sys_T.matrix @ v) >= inv_T * (v @ (M @ v)) * (1 - 1e-10)


def test_galerkin_orthogonality():
    g = StructuredGrid.square(2.0, 20)
    system = assemble(g, catalog("mat2"), 1.0, xi=np.array([1.0, 0.0]))
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
    system = assemble(g, catalog("mat2"), 0.0, xi=np.array([1.0, 0.0]))
    with pytest.raises(SolverError) as exc:
        solve(system, rel_tol=1e-10, max_iter=2)
    assert exc.value.residual is not None and exc.value.residual > 1e-10


def test_rel_tol_precondition():
    g = StructuredGrid.square(1.0, 4)
    system = assemble(g, catalog("constant:1"), 1.0, xi=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        solve(system, rel_tol=1e-3)


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
    g = StructuredGrid.square(0.5, 8)
    system = assemble(g, catalog("mat2"), 0.0, xi=np.array([1.0, 0.0]), bc="periodic")
    assert system.pinned
    assert system.matrix.shape[0] == 8 * 8 - 1
    u = solve(system, rel_tol=1e-10)
    assert u.nodal().shape == (9, 9)


def test_rectangular_from_box():
    g = StructuredGrid.from_box((0.0, 2.0, 0.0, 1.0), 8, 4)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    with pytest.raises(ValueError):
        _ = g.n  # not square in cell counts
