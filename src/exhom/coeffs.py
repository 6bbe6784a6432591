"""Coefficient fields: the 2x2 uniformly elliptic conductivity maps A(x).

A field is a pure function from points in R^2 to 2x2 matrices, carried by a
:class:`CoefficientField` together with symmetry and periodicity metadata;
the Q1 assembly checks its ellipticity at every Gauss point it evaluates
(`grid.CorrectorOperator.from_field`).  The built-in catalog covers the
benchmark fields used throughout the package: a symmetric periodic field
(``mat2``), a symmetric almost-periodic field of Kozlov type (``mat3``),
their non-symmetric counterparts (``mat4``, ``mat5``), constants, and
laminates.

Evaluation is vectorized: ``field(points)`` with ``points`` of shape (n, 2)
returns an (n, 2, 2) array.  Fields carry no mutable state and are safe to
evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)

__all__ = [
    "CoefficientField",
    "catalog",
    "constant",
    "laminate",
]


@dataclass(frozen=True)
class CoefficientField:
    """A map x -> A(x) in M_{alpha,beta} with metadata.

    Attributes
    ----------
    evaluate : callable
        Vectorized evaluation, (n, 2) points -> (n, 2, 2) matrices.
    is_symmetric : bool
        True if A(x) = A(x)^T everywhere.
    period : (2,) array or None
        Cell lengths for periodic fields; None for almost-periodic fields.
        Trusted, not checked: the Q1 assembly evaluates A on one period
        and tiles it (`grid.CorrectorOperator.from_field`), and the HMM
        solves one patch per translation class, so a wrong period gives a
        wrong operator and wrong classes without any error.
    name : str
        Catalog identifier, echoed in study records.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    is_symmetric: bool
    period: Optional[np.ndarray]
    name: str = "field"
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = dc_field(
        default=None, repr=False
    )  # 1-D laminate profile, kept for the analytic oracle

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(points, dtype=float))

    def transpose(self) -> "CoefficientField":
        """Pointwise transpose field A^T, used for dual corrector solves."""
        if self.is_symmetric:
            return self
        ev = self.evaluate

        def evaluate_t(points):
            return np.swapaxes(ev(points), -1, -2)

        return CoefficientField(
            evaluate=evaluate_t,
            is_symmetric=False,
            period=self.period,
            name=self.name + "^T",
            profile=self.profile,
        )


def _broadcast_iso(scalar: np.ndarray) -> np.ndarray:
    out = np.zeros(scalar.shape + (2, 2))
    out[..., 0, 0] = scalar
    out[..., 1, 1] = scalar
    return out


def _mat2_scalar(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # Symmetric under x1 <-> x2, which makes the homogenized tensor a
    # multiple of the identity (~2.73 Id); see decisions ledger for the
    # amplitude choice in the second numerator.
    return (2.0 + 1.8 * np.sin(TWO_PI * x1)) / (2.0 + 1.8 * np.cos(TWO_PI * x2)) + (
        2.0 + 1.8 * np.sin(TWO_PI * x2)
    ) / (2.0 + 1.8 * np.cos(TWO_PI * x1))


def _mat3_diag(x1: np.ndarray, x2: np.ndarray):
    a11 = 4.0 + np.cos(TWO_PI * (x1 + x2)) + np.cos(TWO_PI * SQRT2 * (x1 + x2))
    a22 = 6.0 + np.sin(TWO_PI * x1) ** 2 + np.sin(TWO_PI * SQRT2 * x1) ** 2
    return a11, a22


# Fluctuation amplitude of the off-diagonal entries of mat4.  At the printed
# amplitude 1 the symmetric part of mat4 loses definiteness (min eigenvalue
# ~ -0.33); 1/4 keeps a uniform margin ~0.135.
MAT4_OFFDIAG_AMPLITUDE = 0.25


def _offdiag_fluct(x1: np.ndarray, x2: np.ndarray, amplitude: float) -> np.ndarray:
    return amplitude * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)


def constant(value) -> CoefficientField:
    """Constant field; `value` is a scalar (isotropic) or a 2x2 matrix."""
    mat = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("constant field must be finite")
    if mat.ndim == 0:
        mat = float(mat) * np.eye(2)
    if mat.shape != (2, 2):
        raise ValueError("constant field takes a scalar or a 2x2 matrix")
    sym = bool(np.allclose(mat, mat.T))
    if np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] <= 0.0:
        raise ValueError("constant field must have positive-definite symmetric part")

    def evaluate(points):
        points = np.atleast_2d(points)
        return np.broadcast_to(mat, points.shape[:-1] + (2, 2)).copy()

    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=sym,
        period=np.array([1.0, 1.0]),
        name=f"constant:{mat[0, 0]:g}" if np.allclose(mat, mat[0, 0] * np.eye(2)) else "constant",
    )


def laminate(profile: Callable[[np.ndarray], np.ndarray], name: str = "laminate") -> CoefficientField:
    """Laminate diag(a(x1), a(x1)) for a positive 1-periodic profile a."""

    def evaluate(points):
        points = np.atleast_2d(points)
        a = np.asarray(profile(points[..., 0]), dtype=float)
        return _broadcast_iso(a)

    xs = np.linspace(0.0, 1.0, 2048, endpoint=False)
    if np.any(np.asarray(profile(xs), dtype=float) <= 0.0):
        raise ValueError("laminate profile must be positive")
    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=True,
        period=np.array([1.0, 1.0]),
        name=name,
        profile=profile,
    )


def _default_laminate_profile(t):
    return 2.0 + np.sin(TWO_PI * t)


def _mat2() -> CoefficientField:
    def evaluate(points):
        points = np.atleast_2d(points)
        return _broadcast_iso(_mat2_scalar(points[..., 0], points[..., 1]))

    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=True,
        period=np.array([1.0, 1.0]),
        name="mat2",
    )


def _mat3() -> CoefficientField:
    def evaluate(points):
        points = np.atleast_2d(points)
        a11, a22 = _mat3_diag(points[..., 0], points[..., 1])
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = a11
        out[..., 1, 1] = a22
        return out

    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=True,
        period=None,
        name="mat3",
    )


def _mat4() -> CoefficientField:
    amp = MAT4_OFFDIAG_AMPLITUDE

    def evaluate(points):
        points = np.atleast_2d(points)
        x1, x2 = points[..., 0], points[..., 1]
        s = _mat2_scalar(x1, x2)
        q = _offdiag_fluct(x1, x2, amp)
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = s
        out[..., 1, 1] = s
        out[..., 0, 1] = 2.0 + q
        out[..., 1, 0] = -2.0 + q
        return out

    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=False,
        period=np.array([1.0, 1.0]),
        name="mat4",
    )


def _mat5() -> CoefficientField:
    def evaluate(points):
        points = np.atleast_2d(points)
        x1, x2 = points[..., 0], points[..., 1]
        a11, a22 = _mat3_diag(x1, x2)
        q = _offdiag_fluct(x1, x2, 1.0)
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = a11
        out[..., 1, 1] = a22
        out[..., 0, 1] = 2.0 + q
        out[..., 1, 0] = -2.0 + q
        return out

    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=False,
        period=None,
        name="mat5",
    )


def catalog(name: str) -> CoefficientField:
    """Look up a field by catalog identifier.

    Accepted names: ``mat2``, ``mat3``, ``mat4``, ``mat5``, ``laminate``
    (profile 2 + sin(2 pi x1)), ``constant`` (the identity), and
    ``constant:<c>`` with an inline scalar; anything else is a ValueError.
    """
    key = name.strip()
    if key.startswith("constant:"):
        try:
            c = float(key[len("constant:") :])
        except ValueError:
            pass
        else:
            return constant(c)
    makers = {"mat2": _mat2, "mat3": _mat3, "mat4": _mat4, "mat5": _mat5,
              "laminate": lambda: laminate(_default_laminate_profile), "constant": lambda: constant(1.0)}
    if key not in makers:
        raise ValueError(f"unknown field {name!r}; expected mat2..mat5, laminate, or constant:<c>")
    return makers[key]()
