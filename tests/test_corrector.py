import copy
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import exhom.corrector
from exhom.averaging import solve_corrector_bundle
from exhom.coeffs import catalog
from exhom.corrector import (
    CorrectorSolution,
    corrector_error,
    corrector_ladder,
    extrapolate,
    psi_identity_check,
    psi_value,
    residual_identity_check,
    richardson_combine,
    richardson_weights,
    solve_ladder,
)
from exhom.grid import CorrectorOperator, DofVector, SolverError, StructuredGrid, gradient_field

rng = np.random.default_rng(3)


def test_constant_field_gives_zero_corrector():
    grid = StructuredGrid.square(3.0, 24)
    sol = corrector_ladder(grid, catalog("constant:5"), 2.0, 1, (1.0, 0.0))[0]
    assert np.abs(sol.u.values).max() < 1e-10


def test_laminate_e2_gives_zero_corrector():
    grid = StructuredGrid.square(3.0, 24)
    sol = corrector_ladder(grid, catalog("laminate"), 2.0, 1, (0.0, 1.0))[0]
    assert np.abs(sol.u.values).max() < 1e-10


def test_energy_a_priori_bound():
    # weak form with test function phi: T^-1 |phi|^2 + |grad phi|^2_A <= beta |Q_R|^(1/2) |grad phi|
    field = catalog("mat2")
    R = 5.0
    grid = StructuredGrid.square(R, 80)
    T = R / 100.0
    sol = corrector_ladder(grid, field, T, 1, (1.0, 0.0))[0]
    w = grid.quad_weight()
    g = gradient_field(sol.u)
    grad_sq = w * float(np.sum(g * g))
    M = CorrectorOperator.from_field(grid, field).M
    mass_sq = float(sol.u.values @ (M @ sol.u.values))
    area = (2 * R) ** 2
    A = field(grid.quad_points())  # alpha and beta of the field at the grid's Gauss points
    alpha = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2))).min()
    beta = np.linalg.norm(A, 2, axis=(-2, -1)).max()
    bound = beta**2 / alpha * area
    assert np.isfinite(np.abs(sol.u.values).max())
    assert mass_sq / T + grad_sq <= bound


def test_extrapolate_level2_is_printed_combination():
    grid = StructuredGrid.square(4.0, 32)
    lad = corrector_ladder(grid, catalog("mat2"), 0.5, 2, (1.0, 0.0))
    combined = extrapolate(lad)
    expected = 2.0 * lad[1].u.values - lad[0].u.values
    assert np.allclose(combined.u.values, expected, atol=1e-14)
    assert combined.k == 2 and combined.T == 0.5


def test_extrapolate_level3_formula():
    grid = StructuredGrid.square(4.0, 32)
    lad = corrector_ladder(grid, catalog("mat2"), 0.5, 3, (1.0, 0.0))
    out = extrapolate(lad)
    phi_T2 = 2.0 * lad[1].u.values - lad[0].u.values
    phi_2T2 = 2.0 * lad[2].u.values - lad[1].u.values
    expected = (4.0 * phi_2T2 - phi_T2) / 3.0
    assert np.allclose(out.u.values, expected, atol=1e-13)


def test_extrapolate_fixed_point():
    # equal inputs reproduce themselves: the weights are affine
    v = rng.standard_normal(50)
    for k in range(1, 6):
        assert np.allclose(richardson_combine([v] * k), v, atol=1e-12)


def test_richardson_combine_runs_the_induction():
    # phi_{T,2} = 2 phi_2T - phi_T, phi_{T,3} = (4 phi_{2T,2} - phi_{T,2}) / 3
    v = rng.standard_normal((3, 7))
    level2 = [2 * v[1] - v[0], 2 * v[2] - v[1]]
    assert np.allclose(richardson_combine(v[:2]), level2[0], rtol=0.0, atol=1e-14)
    assert np.allclose(richardson_combine(v), (4 * level2[1] - level2[0]) / 3, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, -math.inf])
def test_solve_ladder_rejects_nonpositive_T(T):
    op = CorrectorOperator.from_field(StructuredGrid.square(1.0, 4), catalog("mat2"))
    with pytest.raises(ValueError, match="T must be positive"):
        solve_ladder(op, T, 1, np.eye(2))


def test_richardson_weights_sum_to_one():
    for k in range(1, 6):
        w = richardson_weights(k)
        assert sum(w) == Fraction(1)


def test_ladder_validation():
    grid = StructuredGrid.square(4.0, 32)
    lad = corrector_ladder(grid, catalog("mat2"), 0.5, 2, (1.0, 0.0))
    broken = [lad[0], copy.deepcopy(lad[1])]
    broken[1].T = 0.5 * 3.0  # not dyadic
    with pytest.raises(ValueError, match="dyadic"):
        extrapolate(broken)
    mixed = [lad[0], copy.deepcopy(lad[1])]
    mixed[1].xi = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="directions"):
        extrapolate(mixed)
    with pytest.raises(ValueError):
        extrapolate([])


def _zero_solution(grid, T=1.0):
    return CorrectorSolution(grid=grid, u=DofVector(np.zeros((grid.nx - 1) * (grid.ny - 1)), grid, "dirichlet0"),
                             T=T, k=1, xi=np.array([1.0, 0.0]))


@pytest.mark.parametrize("other", [(-1.0, 1.0, -0.5, 1.5), (-1.0, 1.0, -1.0, 2.0)])
def test_ladder_grids_must_match_on_the_y_axis(other):
    # the second rung's grid differs from the first only in y0, or only in hy
    ladder = [_zero_solution(StructuredGrid.from_box((-1.0, 1.0, -1.0, 1.0), 8, 8)),
              _zero_solution(StructuredGrid.from_box(other, 8, 8), T=2.0)]
    with pytest.raises(ValueError, match="different grids"):
        extrapolate(ladder)


def test_dual_equals_primal_for_symmetric_field():
    grid = StructuredGrid.square(3.0, 48)
    a = corrector_ladder(grid, catalog("mat2"), 0.1, 1, (1.0, 0.0), dual=False)[0]
    b = corrector_ladder(grid, catalog("mat2"), 0.1, 1, (1.0, 0.0), dual=True)[0]
    assert np.allclose(a.u.values, b.u.values, atol=1e-12)


def test_residual_identity_small_on_ladder():
    field = catalog("mat2")
    grid = StructuredGrid.square(5.0, 80)
    lad = corrector_ladder(grid, field, 0.05, 2, (1.0, 0.0), rel_tol=1e-10)
    res = residual_identity_check(extrapolate(lad), lad[1], field)
    assert res <= 1e-8


def test_residual_identity_negative_control():
    field = catalog("mat2")
    grid = StructuredGrid.square(5.0, 80)
    lad = corrector_ladder(grid, field, 0.05, 2, (1.0, 0.0), rel_tol=1e-10)
    phi2 = extrapolate(lad)
    bad = copy.deepcopy(lad[1])
    bad.u.values *= 2.0
    # doubling the T-ladder companion perturbs the identity at the scale
    # of the zero-order coupling (measured ~0.07 for these parameters)
    assert residual_identity_check(phi2, bad, field) > 0.05


def test_residual_identity_zero_rhs_convention():
    field = catalog("constant:2")
    grid = StructuredGrid.square(5.0, 40)
    lad = corrector_ladder(grid, field, 0.05, 2, (1.0, 0.0))
    assert residual_identity_check(extrapolate(lad), lad[1], field) == 0.0


def test_residual_identity_argument_validation():
    field = catalog("mat2")
    grid = StructuredGrid.square(4.0, 32)
    lad = corrector_ladder(grid, field, 0.5, 3, (1.0, 0.0))
    with pytest.raises(ValueError, match="consecutive"):
        residual_identity_check(extrapolate(lad[:2]), lad[2], field)


def test_psi_base_case_exact():
    # 1/lam - 1/(1/T + lam) = (1/T) / (lam (1/T + lam))
    for T in (1.0, 7.5, 1e4):
        assert psi_identity_check(T, 1, [1e-3, 1.0, 1e3]) < 1e-30


def test_psi_hand_value_k2():
    lhs = 1.0 - float(psi_value(1.0, 2, 1.0))
    assert lhs == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_psi_identity_grid():
    Ts = np.geomspace(1.0, 1e4, 10)
    lams = np.geomspace(1e-3, 1e3, 10)
    for k in range(1, 6):
        for T in Ts:
            assert psi_identity_check(float(T), k, lams) <= 1e-12


def test_psi_large_lambda_limit():
    # both sides vanish as lam -> infinity; the identity still holds tightly
    assert psi_identity_check(10.0, 3, [1e6]) <= 1e-12
    assert float(psi_value(10.0, 3, 1e6)) == pytest.approx(1e-6, rel=1e-5)


def test_T_inf_rejects_extrapolation():
    grid = StructuredGrid.square(3.0, 24)
    sol = corrector_ladder(grid, catalog("mat2"), math.inf, 1, (1.0, 0.0))[0]
    assert sol.k == 1
    with pytest.raises(ValueError):
        CorrectorSolution(grid=grid, u=sol.u, T=math.inf, k=2, xi=np.array([1.0, 0.0]))


def test_corrector_error_self_is_zero():
    grid = StructuredGrid.square(3.0, 24)
    sol = corrector_ladder(grid, catalog("mat2"), 0.5, 1, (1.0, 0.0))[0]
    # the two gradient evaluation paths agree to roundoff
    assert corrector_error(sol, sol, window=0.5) < 1e-28


def test_corrector_error_grid_compatibility():
    f = catalog("mat2")
    a = corrector_ladder(StructuredGrid.square(3.0, 24), f, 0.5, 1, (1.0, 0.0))[0]
    b = corrector_ladder(StructuredGrid.square(3.0, 36), f, 0.5, 1, (1.0, 0.0))[0]
    with pytest.raises(ValueError, match="refinement|aligned"):
        corrector_error(a, b)
    c = corrector_ladder(StructuredGrid.square(2.0, 16), f, 0.5, 1, (1.0, 0.0))[0]
    with pytest.raises(ValueError, match="contained"):
        corrector_error(a, c)


@pytest.mark.parametrize("bounds, ny, match", [
    ((0.0, 2.0, 0.0, 2.0), 20, "refinement"),  # hy = 0.1 under hy = 0.25
    ((0.0, 2.0, -0.0625, 2.0625), 17, "aligned"),  # hy = 0.125, nodes offset by half a cell
])
def test_corrector_error_checks_the_y_axis(bounds, ny, match):
    # the x axes refine and align; only y is wrong
    approx = _zero_solution(StructuredGrid.from_box((0.0, 2.0, 0.0, 2.0), 8, 8))
    reference = _zero_solution(StructuredGrid.from_box(bounds, 16, ny))
    with pytest.raises(ValueError, match=match):
        corrector_error(approx, reference)


def test_corrector_error_window_validation():
    grid = StructuredGrid.square(3.0, 24)
    sol = corrector_ladder(grid, catalog("mat2"), 0.5, 1, (1.0, 0.0))[0]
    with pytest.raises(ValueError):
        corrector_error(sol, sol, window=0.0)


def test_box_vs_double_box_agree_inside():
    # same h, nested boxes: gradients agree deep inside (exponential cutoff)
    f = catalog("mat2")
    m = 8
    a = corrector_ladder(StructuredGrid.square(6.0, 12 * m), f, 0.25, 1, (1.0, 0.0), rel_tol=1e-10)[0]
    b = corrector_ladder(StructuredGrid.square(12.0, 24 * m), f, 0.25, 1, (1.0, 0.0), rel_tol=1e-10)[0]
    err = corrector_error(a, b, window=1.0 / 6.0)
    # measured ~6e-8 at (R - L)/sqrt(T) = 10; the cutoff is exponential
    assert err < 5e-7


# -- the directions of a rung solved concurrently ------------------------------


@pytest.fixture
def thread_starts(monkeypatch):
    """Count the threads started while the test runs."""
    count = [0]
    start = threading.Thread.start

    def counting(self):
        count[0] += 1
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return count


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("name", ["mat2", "mat4"])
def test_concurrent_directions_are_bitwise_the_serial_ones(monkeypatch, thread_starts, name):
    # 96 x 96 cells halve once, so the rung's hierarchy has a coarse level;
    # mat4 also solves its duals on the transpose operator
    field, grid = catalog(name), StructuredGrid.square(2.0, 96)
    assert len(CorrectorOperator.from_field(grid, field).shapes) == 2
    ladders = {}
    interval = sys.getswitchinterval()
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        thread_starts[0] = 0
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            bundle = solve_corrector_bundle(field, grid, 0.5, 2, rel_tol=1e-8)
        finally:
            sys.setswitchinterval(interval)
        ladders[cpus] = [s.u.values for ladder in (*bundle.ladders[0], *bundle.ladders[1]) for s in ladder]
        assert thread_starts[0] == (cpus - 1) * (1 if field.is_symmetric else 2)  # one helper per ladder
    assert len(ladders[1]) == 8
    assert all(np.array_equal(a, b) for a, b in zip(ladders[1], ladders[2]))


def test_solver_error_in_a_helper_reaches_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)
    op = CorrectorOperator.from_field(StructuredGrid.square(2.0, 96), catalog("mat2"))
    raised_in = []
    real_solve = exhom.corrector.solve

    def failing_in_helpers(system, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raised_in.append(threading.current_thread().name)
            raise SolverError("helper failed", residual=1.0)
        return real_solve(system, **kwargs)

    monkeypatch.setattr(exhom.corrector, "solve", failing_in_helpers)
    before = threading.active_count()
    with pytest.raises(SolverError, match="helper failed"):
        solve_ladder(op, 0.5, 2, np.eye(2), rel_tol=1e-8)
    assert len(raised_in) == 1
    assert threading.active_count() == before


def test_single_level_batches_and_one_direction_ladders_start_no_thread(monkeypatch, thread_starts):
    _cpus(monkeypatch, 2)
    # HMM patches: one level, a direct band solve per direction
    boxes = ((0.0, 0.19, 0.1, 0.28), (0.21, 0.4, 0.0, 0.2), (0.5, 0.68, 0.3, 0.49))
    patches = CorrectorOperator.from_field([StructuredGrid.from_box(b, 24, 24) for b in boxes], catalog("mat2"))
    assert len(patches.shapes) == 1
    assert [len(lad) for lad in solve_ladder(patches, 1 / 128, 2, np.eye(2))] == [2, 2]
    # one direction on a grid that halves
    assert len(corrector_ladder(StructuredGrid.square(2.0, 96), catalog("mat2"), 0.5, 2, (1.0, 0.0))) == 2
    assert thread_starts[0] == 0
