import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from exhom.averaging import (
    _support,
    _tensor_from_gradients,
    _shape2,
    _shape3,
    _shape4,
    _shape_inf,
    build_filter,
    hom_tensor_prime,
    hom_tensor_projected,
    solve_corrector_bundle,
)
from exhom.coeffs import catalog
from exhom.grid import DofVector, StructuredGrid, gradient_field
from exhom.hmm import _patch_grid, scaled_field
from exhom.lattice import default_pattern, lattice_hom
from exhom.reference import laminate_oracle, periodic_cell

rng = np.random.default_rng(5)


def window(filt, grid, L, center):
    """The filter's (cells, weights) window on one grid."""
    return filt.windows([grid], L, [center])[0]


def filtered_average(grid, values, filt, L):
    """Average of one sample per Gauss point of `grid` against mu_L around its center.

    Divides by the quadrature mass of mu_L, so constants come out exactly.
    """
    cells, w = window(filt, grid, L, grid.center)
    values = np.asarray(values).reshape(grid.nx, grid.ny, 4)[cells].ravel()
    return float(w @ values) / float(w.sum())


def test_order_zero_is_plain_average():
    f = build_filter(0)
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(f.profile(xs), 0.5)
    assert f.profile(np.array([1.5]))[0] == 0.0


def test_unsupported_order():
    with pytest.raises(ValueError):
        build_filter(7)


@pytest.mark.parametrize("p", [1, 2, 3, 4, "inf"])
def test_filter_mass_evenness_monotonicity(p):
    f = build_filter(p)
    mass, _ = quad(lambda x: float(f.profile(np.array([x]))[0]), -1, 1, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(0, 1, 400)
    left = f.profile(-xs)
    right = f.profile(xs)
    assert np.allclose(left, right, atol=1e-14)  # even
    assert np.all(np.diff(right) <= 1e-12)  # non-increasing on [0, 1]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_edge_derivatives_vanish_to_order_p(p):
    # one-sided differences at the support edge x = 1: mu^(j)(1) = 0 for j < p
    f = build_filter(p)
    h = 1e-3
    x = 1.0 - h * np.arange(p + 2)
    vals = f.profile(x)
    for j in range(1, p + 1):
        d = np.diff(vals, n=j)[0] / (-h) ** j
        # scaled j-th derivative estimate at the edge; vanishing orders show
        # as O(h^(p-j)) decay of the estimate
        assert abs(d) < 10.0 * f.kappa * h ** (p - j)


def test_kappa_hand_values():
    # piecewise integration by hand: mass(shape1) = 2/9, mass(shape2) = 2/81
    assert build_filter(1).kappa == pytest.approx(4.5, abs=1e-10)
    assert build_filter(2).kappa == pytest.approx(40.5, abs=1e-9)


@pytest.mark.parametrize("p, kappa", [(1, 9 / 2), (2, 81 / 2), (3, 1215 / 11), (4, 567 / 2)])
def test_kappa_exact_values(p, kappa):
    # the polynomial profiles integrate to rationals; Gauss-Legendre is exact on each piece
    assert build_filter(p).kappa == pytest.approx(kappa, rel=1e-14, abs=0.0)


def test_kappa_inf_value():
    assert build_filter("inf").kappa == pytest.approx(8.933599663356328e16, rel=1e-13, abs=0.0)


def test_profile2_midpoint_value():
    # mu^2(t = 1/2) = kappa_2 / 6 on the [0, 1] reference profile
    f = build_filter(2)
    assert f.kappa * float(_shape2(np.array([0.5]))[0]) == pytest.approx(f.kappa / 6.0)


def test_kappa_inf_quadrature():
    # independent check: kappa_inf * int_{1/3}^{2/3} exp(-1/((t-1/3)(2/3-t)))
    f = build_filter("inf")
    val, _ = quad(lambda t: math.exp(-1.0 / ((t - 1 / 3) * (2 / 3 - t))), 1 / 3, 2 / 3,
                  epsabs=0.0, epsrel=1e-12, limit=400)
    assert f.kappa * val == pytest.approx(1.0, abs=1e-10)


def test_shape3_c2_continuity():
    # the middle biquadratic must match the cubic ramps to second order
    h = 1e-6
    for t0 in (4 / 9, 5 / 9):
        below = _shape3(np.array([t0 - h, t0 - 2 * h, t0 - 3 * h]))
        above = _shape3(np.array([t0 + h, t0 + 2 * h, t0 + 3 * h]))
        val0 = _shape3(np.array([t0]))[0]
        # value, first and second one-sided differences agree
        d1b = (val0 - below[0]) / h
        d1a = (above[0] - val0) / h
        assert abs(d1b - d1a) < 1e-4
        d2b = (val0 - 2 * below[0] + below[1]) / h**2
        d2a = (above[1] - 2 * above[0] + val0) / h**2
        assert abs(d2b - d2a) < 1e-2 * max(1.0, abs(d2b))


def test_shape4_c3_continuity():
    # one-sided third differences from both sides converge to the same
    # value: their mismatch shrinks linearly in the step (C^3 junction)
    t0 = 4 / 9

    def mismatch(h):
        left = _shape4(np.array([t0 - 3 * h, t0 - 2 * h, t0 - h, t0]))
        right = _shape4(np.array([t0, t0 + h, t0 + 2 * h, t0 + 3 * h]))
        d3l = np.diff(left, n=3)[0] / h**3
        d3r = np.diff(right, n=3)[0] / h**3
        return abs(d3l - d3r)

    m1, m2 = mismatch(1e-4), mismatch(5e-5)
    assert m1 / m2 == pytest.approx(2.0, rel=0.3)
    assert m2 < 20.0  # both estimates sit near the common value ~216


def test_filtered_average_constant_exact():
    g = StructuredGrid.square(4.0, 48)
    vals = np.full(g.quad_points().shape[0], 2.75)
    for p in (0, 1, 2, 3, 4, "inf"):
        assert filtered_average(g, vals, build_filter(p), 3.0) == pytest.approx(2.75, rel=1e-14)


def test_filtered_average_full_periods_cancel():
    g = StructuredGrid.square(12.0, 12 * 2 * 16)
    vals = np.sin(2 * np.pi * g.quad_points()[:, 0])
    assert abs(filtered_average(g, vals, build_filter(0), 10.0)) < 1e-7


def test_high_order_filter_beats_plain_average():
    # cosine with a dangling fraction of a period: order-3 filtering wins
    # by ~L^{-(p+1)} vs L^{-1} (the printed sine is odd and cancels exactly
    # for every symmetric filter, so the even phase carries the content)
    g = StructuredGrid.square(12.0, 12 * 2 * 20)
    vals = np.cos(2 * np.pi * g.quad_points()[:, 0])
    a0 = filtered_average(g, vals, build_filter(0), 10.25)
    a3 = filtered_average(g, vals, build_filter(3), 10.25)
    assert abs(a3) <= 1e-2 * abs(a0)


@pytest.mark.parametrize("make", [hom_tensor_prime, hom_tensor_projected])
def test_tensor_window_exceeding_box_raises(make):
    # mat2, R = 2, L = 3 used to average over the clipped window (filter mass 0.918)
    with pytest.raises(ValueError, match="exceeds"):
        make(catalog("mat2"), 2.0, 32, 1.0, 1, 3.0, build_filter(3))
    assert make(catalog("mat2"), 2.0, 32, 1.0, 1, 2.0, build_filter(3)).filter_mass > 0.99


@pytest.mark.parametrize(
    "average",
    [
        lambda L: hom_tensor_prime(catalog("mat2"), 2.0, 16, 0.1, 1, L, build_filter(3)),
        lambda L: hom_tensor_projected(catalog("mat2"), 2.0, 16, 0.1, 1, L, build_filter(3)),
        lambda L: lattice_hom(default_pattern(), 24, 2.0, 1, L, build_filter("inf")),
    ],
    ids=["prime", "projected", "lattice_hom"],
)
@pytest.mark.parametrize("L", [-1.0, 0.0, math.nan])
def test_window_L_must_be_positive_and_finite(average, L):
    # L = -1 used to give the tensor of L = 1; L = 0 and NaN ran into
    # RuntimeWarnings before a misleading "filter mass vanishes"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="averaging window L must be positive and finite"):
            average(L)


@pytest.mark.parametrize("p", [0, 3, 4, "inf"])
def test_filter_quadrature_mass_near_one(p):
    # collocated 2x2 Gauss reproduces the filter mass; orders 1 and 2 have
    # kinked profiles whose quadrature converges too slowly for this bound
    g = StructuredGrid.square(4.0, 512)
    _, w = window(build_filter(p), g, 3.0, g.center)
    assert abs(w.sum() * g.quad_weight() - 1.0) < 1e-8


def test_hom_tensor_constant_field():
    c = catalog("constant:3.0")
    f = build_filter(3)
    Hp = hom_tensor_prime(c, 4.0, 48, 1.0, 1, 2.0, f)
    Hj = hom_tensor_projected(c, 4.0, 48, 1.0, 1, 2.0, f)
    assert np.allclose(Hp.matrix, 3.0 * np.eye(2), atol=1e-9)
    assert np.allclose(Hj.matrix, Hp.matrix, atol=1e-9)


def test_entrywise_assembly_matches_scalar_form():
    # the assembled 2x2 agrees with the directly computed bilinear scalar
    # for random directions, by linearity of the corrector problems
    field = catalog("mat4")
    grid = StructuredGrid.square(4.0, 96)
    T, L = 0.04, 4.0 / 3.0
    filt = build_filter(3)
    bundle = solve_corrector_bundle(field, grid, T, 1, rel_tol=1e-10)
    H = hom_tensor_prime(field, 4.0, 96, T, 1, L, filt, bundle=bundle)
    pts = grid.quad_points()
    w = filt.weights_nd(pts, L, grid.center) * grid.quad_weight()
    wn = w / w.sum()
    A_q = field(pts)
    gp = [gradient_field(s.u) for s in bundle.primal]
    gd = [gradient_field(s.u) for s in bundle.dual]
    for _ in range(10):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        xip = rng.standard_normal(2)
        xip /= np.linalg.norm(xip)
        gxi = xi[0] * gp[0] + xi[1] * gp[1]
        gxip = xip[0] * gd[0] + xip[1] * gd[1]
        scalar = float(wn @ np.einsum("qa,qab,qb->q", xip + gxip, A_q, xi + gxi))
        assert scalar == pytest.approx(float(xip @ H.matrix @ xi), abs=1e-12)


def test_projected_tensor_coercive_for_symmetric_field():
    field = catalog("mat2")
    filt = build_filter(3)
    H = hom_tensor_projected(field, 5.0, 120, 0.05, 1, 5.0 / 3.0, filt, rel_tol=1e-8)
    A = field(StructuredGrid.square(5.0, 120).quad_points())  # alpha of the field at the grid's Gauss points
    alpha = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2))).min()
    assert H.min_sym_eig >= alpha * (1 - 1e-6)
    assert np.allclose(H.matrix, H.matrix.T, rtol=1e-8, atol=1e-10)
    assert "primal" in H.gradient_means and len(H.gradient_means["primal"]) == 2


def test_projected_minus_prime_vanishes_with_integer_window(mat2_bundle_R13=None):
    field = catalog("mat2")
    grid = StructuredGrid.square(13.0, 13 * 2 * 8)
    bundle = solve_corrector_bundle(field, grid, 0.13, 1, rel_tol=1e-8)
    filt = build_filter(3)
    gaps = []
    for L in (3.0, 6.0, 12.0):
        Hp = hom_tensor_prime(field, 13.0, grid.nx, 0.13, 1, L, filt, bundle=bundle)
        Hj = hom_tensor_projected(field, 13.0, grid.nx, 0.13, 1, L, filt, bundle=bundle)
        gaps.append(float(np.max(np.abs(Hp.matrix - Hj.matrix))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_naive_variant_requires_k1():
    with pytest.raises(ValueError):
        hom_tensor_prime(catalog("mat2"), 4.0, 32, math.inf, 2, 1.0, build_filter(0))


def test_p3_vs_p4_oscillation_comparison():
    # deviation curves across the averaging window: the order-4 filter
    # oscillates less (total log-variation) than the order-3 one
    field = catalog("mat2")
    cell = periodic_cell(field, 64).A_hom
    grid = StructuredGrid.square(12.0, 12 * 2 * 8)
    bundle = solve_corrector_bundle(field, grid, 0.12, 2, rel_tol=1e-8)
    osc = {}
    for p in (3, 4):
        filt = build_filter(p)
        devs = []
        for L in np.arange(2.8, 4.01, 0.2):
            H = hom_tensor_projected(field, 12.0, grid.nx, 0.12, 2, float(L), filt, bundle=bundle)
            devs.append(abs(H.matrix[0, 0] - cell[0, 0]))
        osc[p] = float(np.abs(np.diff(np.log(devs))).sum())
    assert osc[4] < osc[3]


def test_laminate_tensor_against_oracle():
    field = catalog("laminate")
    oracle = laminate_oracle(field.profile)
    filt = build_filter(3)
    H = hom_tensor_projected(field, 8.0, 8 * 2 * 16, 0.08, 2, 8.0 / 3.0, filt, rel_tol=1e-9)
    # tolerance covers O(h^2) + the T/R systematic terms at R = 8
    assert np.allclose(H.matrix, oracle, atol=0.03)
    assert H.matrix[1, 1] == pytest.approx(2.0, abs=2e-3)


@pytest.mark.parametrize("p", [0, 1, 3, 4, "inf"])
def test_grid_weights_bitwise_equal_to_weights_nd(p):
    # the window's weights are weights_nd on its block, bitwise, and
    # weights_nd is zero at every Gauss point outside the block
    filt = build_filter(p)
    for grid, L, center in (
        (StructuredGrid.square(3.0, 48, center=(0.5, -0.25)), 2.0, (0.5, -0.25)),
        (StructuredGrid.square(3.0, 48, center=(0.5, -0.25)), 3.0, (0.5, -0.25)),
        (StructuredGrid.from_box((0.1, 0.4, 0.55, 0.8), 23, 19), 0.0625, (0.23, 0.7)),
        (StructuredGrid.from_box((0.0, 0.14, 0.2, 0.39), 17, 24), 0.0625, (1 / 24, 0.29)),  # clipped
    ):
        expected = filt.weights_nd(grid.quad_points(), L, center).reshape(grid.nx, grid.ny, 4)
        cells, w = window(filt, grid, L, center)
        assert np.array_equal(w, expected[cells].ravel())
        outside = np.ones((grid.nx, grid.ny), dtype=bool)
        outside[cells] = False
        assert np.all(expected[outside] == 0.0)
        assert w.size < expected.size or L >= 3.0


def test_window_is_a_ninth_of_the_box_at_L_R_over_3():
    grid = StructuredGrid.square(10.0, 320)
    (sx, sy), w = window(build_filter(4), grid, 10.0 / 3.0, grid.center)
    assert sx == sy and sx.stop - sx.start <= 320 // 3 + 2
    assert w.size == 4 * (sx.stop - sx.start) ** 2
    assert _support(np.zeros((5, 2))) == slice(0, 0)


def test_gradient_field_on_cells_bitwise_equal_to_full_slice():
    r = np.random.default_rng(11)
    for grid, bc in (
        (StructuredGrid.from_box((0.0, 1.3, -0.2, 0.5), 23, 17), "dirichlet0"),
        (StructuredGrid.from_box((0.0, 1.3, -0.2, 0.5), 12, 9), "periodic"),
    ):
        n = (grid.nx - 1) * (grid.ny - 1) if bc == "dirichlet0" else grid.nx * grid.ny
        u = DofVector(r.standard_normal(n), grid, bc)
        full = gradient_field(u).reshape(grid.nx, grid.ny, 4, 2)
        for cells in ((slice(3, 11), slice(0, 5)), (slice(0, grid.nx), slice(grid.ny - 4, grid.ny)),
                      (slice(5, 6), slice(2, 3))):
            assert np.array_equal(gradient_field(u, cells), full[cells].reshape(-1, 2))


def _full_grid_tensor(grid, A_q, primal, dual, filt, L, project, center):
    """The windowed tensor summed over every Gauss point of the grid with weights_nd."""
    w = filt.weights_nd(grid.quad_points(), L, center) * grid.quad_weight()
    wn = w / w.sum()
    A = A_q.reshape(-1, 2, 2)
    gp = [gradient_field(u) for u in primal]
    gd = [gradient_field(u) for u in dual]
    if project:
        gp = [g - wn @ g for g in gp]
        gd = [g - wn @ g for g in gd]
    eye = np.eye(2)
    return np.array([[wn @ np.einsum("qa,qab,qb->q", eye[j] + gd[j], A, eye[i] + gp[i]) for i in range(2)]
                     for j in range(2)])


@pytest.fixture(scope="module")
def mat4_bundle():
    return solve_corrector_bundle(catalog("mat4"), StructuredGrid.square(3.0, 48, center=(0.25, 0.5)), 0.2, 1,
                                  rel_tol=1e-10)


@pytest.mark.parametrize("p, L", [(4, 1.0), (3, 3.0), (0, 1.0), ("inf", 1.0), (0, 3.0), ("inf", 3.0)])
@pytest.mark.parametrize("project", [True, False])
def test_windowed_tensor_matches_full_grid_contraction(mat4_bundle, p, L, project):
    # centred window L = R/3, L = R, and the orders 0 and inf
    b, filt = mat4_bundle, build_filter(p)
    primal, dual = [s.u for s in b.primal], [s.u for s in b.dual]
    got = _tensor_from_gradients(b.grid, b.A_q, primal, dual, filt, L, project)[0]
    ref = _full_grid_tensor(b.grid, b.A_q, primal, dual, filt, L, project, b.grid.center)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_windowed_tensor_on_a_clipped_patch_window():
    # an HMM patch clipped by the domain edge, its window clipped by the patch
    eps, H, h = 1 / 16, 1 / 8, 1 / 128
    center = (H / 3, 2.5 * H)
    grid = _patch_grid(center, 0.75 * H, (1.0, 1.0), h)
    assert grid.x0 == 0.0 and grid.nx != grid.ny
    field = scaled_field(catalog("mat4"), eps)
    b = solve_corrector_bundle(field, grid, 2 * eps * eps, 2, rel_tol=1e-10)
    filt = build_filter(3)
    (sx, _), _ = window(filt, grid, 0.5 * H, center)
    assert sx.start == 0
    primal, dual = [s.u for s in b.primal], [s.u for s in b.dual]
    got = _tensor_from_gradients(grid, b.A_q, primal, dual, filt, 0.5 * H, True, center=center)[0]
    ref = _full_grid_tensor(grid, b.A_q, primal, dual, filt, 0.5 * H, True, center)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
