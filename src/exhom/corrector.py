"""Regularized correctors on boxes, Richardson extrapolation in T, and checks.

The box corrector phi_{T,R} solves, in H^1_0(Q_R),

    T^{-1} phi - div(A (xi + grad phi)) = 0,

and the extrapolated families are built by the dyadic induction

    phi_{T,1} = phi_T,    phi_{T,k+1} = (2^k phi_{2T,k} - phi_{T,k}) / (2^k - 1),

which cancels successive powers of T^{-1} in the systematic error.
`richardson_weights` is the one implementation of this induction: it runs
it exactly on rationals, and `richardson_combine` (vectors) and `psi_value`
(the scalar resolvent functions) apply its weights.  Dual correctors use
the pointwise transpose field.

Every rung of a ladder shares one `CorrectorOperator` (grid.py): the field
is evaluated and the stiffness assembled once, and rung j solves
(K + M / (2^j T)) x = b_xi with the multigrid-preconditioned Krylov solver.
`solve_ladder` runs the rungs in order and, within a rung, every requested
direction on that shift's hierarchy, warm-starting each direction from its
previous rung.  The directions of a rung are independent problems on one
read-only hierarchy, so on an operator with coarse levels they run at the
same time when the process may use more than one CPU: the calling thread
solves the first direction and helper threads the others.  The sparse
products of the V-cycle and the Krylov loop (DIA levels, CSR
restrictions), their dot products and their vector updates release the
interpreter lock, so the directions overlap.  A single-level system (an
HMM patch batch) is one direct band solve whose LAPACK calls hold the
lock, so its directions run in turn.
Every direction performs the same arithmetic either way, and the results
are bitwise those of the serial run.

Two independent consistency checks are provided: the discrete operator
identity satisfied by the extrapolated iterates, and the scalar resolvent
identity for the rational functions generated by the same induction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coeffs import CoefficientField
from .grid import (
    CorrectorOperator,
    DofVector,
    StructuredGrid,
    gradient_field,
    interpolate_gradient,
    solve,
)

__all__ = [
    "CorrectorSolution",
    "solve_ladder",
    "corrector_ladder",
    "extrapolate",
    "richardson_combine",
    "richardson_weights",
    "residual_identity_check",
    "psi_value",
    "psi_identity_check",
    "corrector_error",
]


@dataclass
class CorrectorSolution:
    grid: StructuredGrid
    u: DofVector
    T: float  # math.inf encodes the unregularized problem
    k: int
    xi: np.ndarray
    dual: bool = False

    def __post_init__(self):
        if math.isinf(self.T) and self.k != 1:
            raise ValueError("T = inf admits no extrapolation (k must be 1)")

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        return interpolate_gradient(self.u, points)

    def gradient_at_quad(self) -> np.ndarray:
        return gradient_field(self.u)


def solve_ladder(
    op: CorrectorOperator,
    T: float,
    kmax: int,
    xis,
    dual: bool = False,
    rel_tol: float = 1e-10,
) -> list[list[CorrectorSolution]]:
    """Base solves at T, 2T, ..., 2^{kmax-1} T on one operator, per direction.

    Returns one ladder (list of k = 1 solutions) for each xi in `xis`.  The
    rungs run in order; the directions of a rung share its hierarchy, and
    each warm-starts from its own previous rung.  T must be positive; T = inf
    (with kmax = 1) is the unregularized problem.  `dual` marks the solutions
    as dual correctors (the caller passes the transpose operator).  On a
    batched operator each solution stacks the batch's grids (its `grid` is
    None) and `op.split` views it per grid.

    When the operator has coarse levels and the process may use more than
    one CPU, the directions of a rung run concurrently: the calling thread
    solves the first and min(len(xis), usable CPUs) - 1 helper threads the
    others.  Single-level systems (direct band solves, whose LAPACK calls
    hold the interpreter lock) and one-direction ladders run inline and
    start no thread.  The helpers stop before this function returns, a
    `SolverError` raised in one reaches the caller, and the results are
    bitwise those of solving the directions in turn.
    """
    if not T > 0:  # also rejects NaN
        raise ValueError(f"T must be positive, got {T!r}")
    if math.isinf(T) and kmax != 1:
        raise ValueError("T = inf admits no extrapolation (k must be 1)")
    xis = [np.asarray(xi, dtype=float) for xi in xis]
    ladders = [[] for _ in xis]
    helpers = min(len(xis), len(os.sched_getaffinity(0))) - 1 if len(op.shapes) > 1 else 0
    pool = None
    if helpers > 0:
        # imported here: the module costs about 13 ms, which `import exhom` does not pay
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(helpers)
    rhs = [op.rhs(xi) for xi in xis]  # the same on every rung
    try:
        for j in range(kmax):
            _solve_rung(op, T * 2.0**j, xis, rhs, ladders, dual, rel_tol, pool)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ladders


def _solve_rung(op, T, xis, rhs, ladders, dual, rel_tol, pool):
    # a function of its own, so that this shift's hierarchy is freed before
    # the next one is built
    systems = op.systems(0.0 if math.isinf(T) else 1.0 / T, rhs)

    def direction(i):
        x0 = ladders[i][-1].u.values if ladders[i] else None
        return solve(systems[i], rel_tol=rel_tol, x0=x0)

    if pool is None:
        us = [direction(i) for i in range(len(xis))]
    else:
        futures = [pool.submit(direction, i) for i in range(1, len(xis))]
        us = [direction(0)] + [f.result() for f in futures]
    for xi, ladder, u in zip(xis, ladders, us):
        ladder.append(CorrectorSolution(grid=op.grid, u=u, T=T, k=1, xi=xi, dual=dual))


def corrector_ladder(
    grid: StructuredGrid,
    field: CoefficientField,
    T: float,
    kmax: int,
    xi,
    dual: bool = False,
    rel_tol: float = 1e-10,
) -> list[CorrectorSolution]:
    """Base solves at T, 2T, ..., 2^{kmax-1} T (warm-started up the ladder) of one direction xi.

    T = inf (with kmax = 1) gives the naive (unregularized) Dirichlet
    approximation.  Dual solves use the transpose field.
    """
    op = CorrectorOperator.from_field(grid, field.transpose() if dual else field)
    return solve_ladder(op, T, kmax, [xi], dual=dual, rel_tol=rel_tol)[0]


def richardson_weights(k: int) -> list[Fraction]:
    """Coefficients of phi_{T,k} on the base solves (phi_T, ..., phi_{2^{k-1}T}).

    Computed exactly with fractions by running the defining induction; the
    weights of each level sum to one.
    """
    # table[j] = weights of phi_{2^j T, level} as the induction advances
    table = [[Fraction(1) if i == j else Fraction(0) for i in range(k)] for j in range(k)]
    for level in range(1, k):
        c = Fraction(2**level)
        new = []
        for j in range(k - level):
            new.append([(c * a - b) / (c - 1) for a, b in zip(table[j + 1], table[j])])
        table = new
    return table[0]


def richardson_combine(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Combine k base solutions at T, 2T, ..., 2^{k-1}T into the level-k iterate."""
    return sum(float(w) * np.asarray(v, dtype=float) for w, v in zip(richardson_weights(len(vectors)), vectors))


def extrapolate(solutions: Sequence[CorrectorSolution]) -> CorrectorSolution:
    """Richardson-extrapolate a dyadic ladder of base corrector solves.

    `solutions` holds k base (level-1) solves at T, 2T, ..., 2^{k-1}T on the
    same grid, direction, and duality; the result is phi_{T,k}.  k = 1
    returns the input unchanged.
    """
    if len(solutions) == 0:
        raise ValueError("empty ladder")
    k = len(solutions)
    first = solutions[0]
    if k == 1:
        return first
    T = first.T
    if math.isinf(T):
        raise ValueError("cannot extrapolate the unregularized problem")
    for j, s in enumerate(solutions):
        if s.grid is not first.grid and (
            s.grid.nx != first.grid.nx
            or s.grid.ny != first.grid.ny
            or abs(s.grid.x0 - first.grid.x0) > 1e-14
            or abs(s.grid.y0 - first.grid.y0) > 1e-14
            or abs(s.grid.hx - first.grid.hx) > 1e-14
            or abs(s.grid.hy - first.grid.hy) > 1e-14
        ):
            raise ValueError("ladder solutions live on different grids")
        if not np.allclose(s.xi, first.xi) or s.dual != first.dual:
            raise ValueError("ladder solutions mix directions or duality")
        if s.k != 1:
            raise ValueError("ladder entries must be base (k = 1) solves")
        if not math.isclose(s.T, T * 2.0**j, rel_tol=1e-12):
            raise ValueError("T values must form the dyadic ladder T, 2T, 4T, ...")
    combined = richardson_combine([s.u.values for s in solutions])
    u = DofVector(combined, first.grid, first.u.bc)
    return CorrectorSolution(grid=first.grid, u=u, T=T, k=k, xi=first.xi, dual=first.dual)


def residual_identity_check(
    phi_Tk1: CorrectorSolution,
    phi_2Tk: CorrectorSolution,
    field: CoefficientField,
) -> float:
    """Discrete residual of T^{-1} phi_{T,k+1} - div A(xi + grad phi_{T,k+1}) = T^{-1} phi_{2T,k}.

    Both arguments must come from the same extrapolation ladder: the first at
    level k+1 and base parameter T, the second at level k and base 2T.
    Returns ||(T^{-1} M + K) u1 - b - T^{-1} M u2|| / ||b||; a vanishing
    right-hand side (constant fields) returns 0 by convention.
    """
    T = phi_Tk1.T
    if math.isinf(T):
        raise ValueError("identity requires finite T")
    if phi_Tk1.k != phi_2Tk.k + 1 or not math.isclose(phi_2Tk.T, 2.0 * T, rel_tol=1e-12):
        raise ValueError("arguments are not consecutive ladder iterates")
    if phi_Tk1.grid is not phi_2Tk.grid and phi_Tk1.grid != phi_2Tk.grid:
        raise ValueError("arguments live on different grids")
    if not np.allclose(phi_Tk1.xi, phi_2Tk.xi) or phi_Tk1.dual != phi_2Tk.dual:
        raise ValueError("arguments mix directions or duality")
    eff = field.transpose() if phi_Tk1.dual else field
    op = CorrectorOperator.from_field(phi_Tk1.grid, eff)
    b = op.rhs(phi_Tk1.xi)
    bnorm = float(np.linalg.norm(b))
    # homogeneous right-hand sides (constant fields) assemble to roundoff on
    # the field's scale; treat them as zero so 0/0 returns 0 by convention
    bfloor = 1e-12 * np.abs(op.A_p).max() * phi_Tk1.grid.hx * math.sqrt(b.size)
    if bnorm <= bfloor:
        return 0.0
    res = op.matrix(1.0 / T) @ phi_Tk1.u.values - b - (op.M @ phi_2Tk.u.values) / T
    return float(np.linalg.norm(res)) / bnorm


def psi_value(T, k: int, lam) -> Fraction:
    """psi_{T,k}(lambda): the Richardson weights applied to 1/((2^j T)^{-1} + lambda), exactly.

    T and lambda are taken as the exact rationals of their float values.
    """
    T, lam = Fraction(T), Fraction(lam)
    return sum(w / (1 / (T * 2**j) + lam) for j, w in enumerate(richardson_weights(k)))


def psi_identity_check(T: float, k: int, lambdas) -> float:
    """Max relative deviation between 1/lam - psi_{T,k}(lam) and its closed form.

    The closed form is 2^{-k(k-1)/2} T^{-k} / (lam prod_{i<k} ((2^i T)^{-1} + lam)).
    The recursion loses ~(lam T)^k digits to cancellation in floating point,
    so both sides are evaluated on exact rationals: the deviation is zero
    whenever the induction is implemented correctly.
    """
    Tq, worst = Fraction(T), 0.0
    for lam in map(Fraction, np.atleast_1d(lambdas).astype(float)):
        prod = math.prod(1 / (Tq * 2**i) + lam for i in range(k))
        rhs = 1 / (Fraction(2) ** (k * (k - 1) // 2) * Tq**k * lam * prod)
        worst = max(worst, float(abs(1 / lam - psi_value(Tq, k, lam) - rhs) / abs(rhs)))
    return worst


def _window_mask(grid: StructuredGrid, points: np.ndarray, window) -> np.ndarray:
    if window == "full":
        return np.ones(points.shape[0], dtype=bool)
    f = float(window)
    if not (0.0 < f <= 1.0):
        raise ValueError("window fraction must lie in (0, 1]")
    cx, cy = grid.center
    half = f * grid.R
    return (np.abs(points[:, 0] - cx) <= half) & (np.abs(points[:, 1] - cy) <= half)


def _check_compatible(approx: CorrectorSolution, reference) -> None:
    if not isinstance(reference, CorrectorSolution):
        return  # periodic references interpolate anywhere
    ga, gr = approx.grid, reference.grid
    for ha, hr, oa, orf in ((ga.hx, gr.hx, ga.x0, gr.x0), (ga.hy, gr.hy, ga.y0, gr.y0)):
        ratio = ha / hr
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("reference grid must be an integer refinement of the approx grid")
        off = (oa - orf) / hr
        if abs(off - round(off)) > 1e-9:
            raise ValueError("grids are not aligned")
    if (
        ga.x0 < gr.x0 - 1e-12
        or ga.y0 < gr.y0 - 1e-12
        or ga.x0 + ga.nx * ga.hx > gr.x0 + gr.nx * gr.hx + 1e-12
        or ga.y0 + ga.ny * ga.hy > gr.y0 + gr.ny * gr.hy + 1e-12
    ):
        raise ValueError("approx domain is not contained in the reference domain")


def corrector_error(approx: CorrectorSolution, reference, window="full") -> float:
    """Mean-square gradient error over a centered window.

    Computes fint_W |grad approx - grad ref|^2 where W is the full box
    (window='full') or the centered sub-box of half-width f*R (window=f).
    The comparison collocates at the approx grid's Gauss points; the
    reference contributes the gradient of its own interpolant there
    (CorrectorSolution on a same-or-finer aligned grid, or any object with a
    `gradient_at(points)` method, e.g. a periodic cell corrector).
    """
    _check_compatible(approx, reference)
    pts = approx.grid.quad_points()
    mask = _window_mask(approx.grid, pts, window)
    if not np.any(mask):
        raise ValueError("window contains no quadrature points")
    ga = approx.gradient_at_quad()[mask]
    gr = reference.gradient_at(pts[mask])
    diff = ga - gr
    # uniform weights: the mean over the window needs no quadrature factors
    return float(np.mean(np.sum(diff * diff, axis=1)))
