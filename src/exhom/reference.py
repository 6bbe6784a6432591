"""Ground-truth homogenized tensors: periodic cell problems, laminate formulas.

For a periodic field the homogenized tensor has the classical cell formula

    A_hom[j,i] = fint_Q (e_j + grad phi'_j) . A (e_i + grad phi_i),

with correctors solved on one period cell under periodic boundary conditions
and zero mean.  Laminates admit closed forms: diag(harmonic mean, arithmetic
mean) of the 1-D profile, computed here by adaptive quadrature as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField
from .grid import CorrectorOperator, DofVector, StructuredGrid, gradient_field, interpolate_gradient, solve

__all__ = ["PeriodicCorrector", "CellProblemResult", "periodic_cell", "laminate_oracle"]


@dataclass
class PeriodicCorrector:
    """A corrector on the period cell, evaluated periodically on all of R^2."""

    u: DofVector
    period: np.ndarray

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points).copy()
        g = self.u.grid
        pts[:, 0] = g.x0 + np.mod(pts[:, 0] - g.x0, self.period[0])
        pts[:, 1] = g.y0 + np.mod(pts[:, 1] - g.y0, self.period[1])
        return interpolate_gradient(self.u, pts)


@dataclass
class CellProblemResult:
    correctors: list  # PeriodicCorrector per direction e1, e2
    dual_correctors: list
    A_hom: np.ndarray
    h: float
    grid: StructuredGrid


def _zero_mean(u: DofVector) -> DofVector:
    # periodic Q1 on a uniform grid: the cell integral is the nodal mean
    return DofVector(u.values - u.values.mean(), u.grid, u.bc)


def periodic_cell(field: CoefficientField, n: int, rel_tol: float = 1e-10) -> CellProblemResult:
    """Solve the periodic cell problems and build A_hom.

    Requires `field.period`; solves with periodic boundary conditions and
    the zero-mean constraint (the unregularized problem, inv_T = 0).  Dual
    correctors (transpose field) are solved for non-symmetric fields and
    aliased to the primal ones otherwise.
    """
    if field.period is None:
        raise ValueError(f"field {field.name!r} has no period; no cell problem exists")
    px, py = float(field.period[0]), float(field.period[1])
    grid = StructuredGrid.from_box((0.0, px, 0.0, py), n, n)
    op = CorrectorOperator.from_field(grid, field, "periodic")

    def corr(o):
        systems = o.systems(0.0, [o.rhs(xi) for xi in np.eye(2)])
        return [
            PeriodicCorrector(u=_zero_mean(solve(s, rel_tol=rel_tol)), period=np.array([px, py]))
            for s in systems
        ]

    primal = corr(op)
    dual = primal if field.is_symmetric else corr(op.transpose())

    # the Gauss points carry equal weights: the cell average is their mean;
    # the period is the whole grid, so A_p holds A at every Gauss point
    A_q = op.A_p.reshape(-1, 2, 2)
    eye = np.eye(2)
    A = np.zeros((2, 2))
    gp = [gradient_field(c.u) for c in primal]
    gd = gp if field.is_symmetric else [gradient_field(c.u) for c in dual]
    for j in range(2):
        fj = eye[j] + gd[j]
        for i in range(2):
            fi = eye[i] + gp[i]
            A[j, i] = np.einsum("qa,qab,qb->", fj, A_q, fi) / len(A_q)
    return CellProblemResult(correctors=primal, dual_correctors=dual, A_hom=A, h=grid.hx, grid=grid)


def laminate_oracle(profile, rel_tol: float = 1e-12) -> np.ndarray:
    """diag(harmonic mean, arithmetic mean) of a positive 1-periodic profile.

    Independent oracle for laminate fields diag(a(x1), a(x1)): the exact
    homogenized tensor is diag(1/<1/a>, <a>) with <.> the period average.
    """
    # imported here: scipy.integrate adds about 20 MB and tenths of a second
    # to every `import exhom`, and only this oracle needs it
    from scipy.integrate import quad

    samples = np.asarray(profile(np.linspace(0.0, 1.0, 4096, endpoint=False)), dtype=float)
    if np.any(samples <= 0.0):
        bad = np.argmax(samples <= 0.0)
        raise ValueError(f"laminate profile is not positive near t={bad / 4096:.4f}")
    mean, _ = quad(lambda t: float(profile(t)), 0.0, 1.0, epsabs=rel_tol, epsrel=rel_tol, limit=400)
    hinv, _ = quad(lambda t: 1.0 / float(profile(t)), 0.0, 1.0, epsabs=rel_tol, epsrel=rel_tol, limit=400)
    return np.diag([1.0 / hinv, mean])
