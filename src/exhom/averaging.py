"""Filters of order p, filtered averages, and windowed homogenized tensors.

A filter is an even mass-one profile mu on [-1,1] whose first p-1 derivatives
vanish at the edge of its support; averaging a periodic zero-mean integrand
against the rescaled product filter mu_L(x) = L^{-2} mu(x_1/L) mu(x_2/L)
converges like L^{-(p+1)} instead of the plain average's L^{-1}.

The windowed tensor approximations pair primal and dual correctors:

    A'[j,i] = Int_{Q_L} (e_j + grad phi'_j) . A (e_i + grad phi_i) mu_L,

and the projected variant subtracts the mu_L-mean from each gradient first,
which makes the result uniformly coercive for symmetric fields.  Quadrature
collocates with the corrector grid's Gauss points and is restricted to the
filter's window: mu_L vanishes outside Q_L, so every average visits only
the block of cells that meets Q_L (`Filter.windows`; with L a third of the
box half-width, as the studies take it, that is a ninth of the box).  Every
average is normalized by the quadrature mass of mu_L (required anyway when
the window is clipped by a domain boundary, as in the multiscale solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from .coeffs import CoefficientField
from .corrector import extrapolate, solve_ladder
from .grid import CorrectorOperator, StructuredGrid, _gradients

__all__ = [
    "Filter",
    "build_filter",
    "HomTensor",
    "CorrectorBundle",
    "solve_corrector_bundle",
    "hom_tensor_prime",
    "hom_tensor_projected",
]


# Piecewise profiles on [0,1], supported on [1/3, 2/3].  The first four are
# polynomial with vanishing derivatives up to order p-1 at the support edge;
# the last is the C^infinity bump.  Normalization constants kappa_p make
# each integrate to one on [0,1].
def _shape1(t):
    return np.where(
        (t > 1 / 3) & (t <= 4 / 9),
        3 * (3 * t - 1),
        np.where(
            (t > 4 / 9) & (t <= 5 / 9),
            1.0,
            np.where((t > 5 / 9) & (t <= 2 / 3), 3 * (2 - 3 * t), 0.0),
        ),
    )


def _shape2(t):
    return np.where(
        (t > 1 / 3) & (t <= 4 / 9),
        (3 * t - 1) ** 2,
        np.where(
            (t > 4 / 9) & (t <= 5 / 9),
            1 / 6 - 18 * (t - 0.5) ** 2,
            np.where((t > 5 / 9) & (t <= 2 / 3), (3 * t - 2) ** 2, 0.0),
        ),
    )


def _shape3(t):
    # middle piece is the unique even biquadratic C^2-matching the cubic
    # ramps; see the decisions ledger for the printed-coefficient issue
    return np.where(
        (t > 1 / 3) & (t <= 4 / 9),
        (3 * t - 1) ** 3,
        np.where(
            (t > 4 / 9) & (t <= 5 / 9),
            17 / 216 - 18 * (t - 0.5) ** 2 + 1458 * (t - 0.5) ** 4,
            np.where((t > 5 / 9) & (t <= 2 / 3), (2 - 3 * t) ** 3, 0.0),
        ),
    )


def _shape4(t):
    return np.where(
        (t > 1 / 3) & (t <= 4 / 9),
        (3 * t - 1) ** 4,
        np.where(
            (t > 4 / 9) & (t <= 5 / 9),
            1 / 27 - 13.5 * (t - 0.5) ** 2 + 2268 * (t - 0.5) ** 4 - 157464 * (t - 0.5) ** 6,
            np.where((t > 5 / 9) & (t <= 2 / 3), (3 * t - 2) ** 4, 0.0),
        ),
    )


def _shape_inf(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 1 / 3) & (t < 2 / 3)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ((ti - 1 / 3) * (2 / 3 - ti)))
    return out


_SHAPES = {1: _shape1, 2: _shape2, 3: _shape3, 4: _shape4, math.inf: _shape_inf}
_BREAKS = [1 / 3, 4 / 9, 5 / 9, 2 / 3]
# Gauss-Legendre rule per piece: exact for the polynomial profiles, and
# within 1.2e-15 of adaptive quadrature for the C^infinity bump
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class Filter:
    """Mass-one averaging profile of order p on [-1, 1]."""

    order: float
    kappa: float
    _shape: Optional[callable] = dc_field(default=None, repr=False)

    def profile(self, x: np.ndarray) -> np.ndarray:
        """mu(x) on [-1, 1] (zero outside)."""
        x = np.asarray(x, dtype=float)
        if self.order == 0:
            return np.where(np.abs(x) <= 1.0, 0.5, 0.0)
        # The reference profiles live on [0,1] with support [1/3, 2/3]; the
        # filter on [-1,1] dilates that support onto the full interval, so
        # that exactly the first p-1 one-sided derivatives vanish at +-1.
        return self.kappa / 6.0 * self._shape((x + 3.0) / 6.0)

    def weights_nd(self, points: np.ndarray, L: float, center=(0.0, 0.0)) -> np.ndarray:
        """mu_L(x - center) = L^{-d} prod_i mu((x_i - c_i)/L) at the points."""
        pts = np.atleast_2d(points)
        w = self.profile((pts[:, 0] - center[0]) / L) * self.profile((pts[:, 1] - center[1]) / L)
        return w / L**2

    def windows(self, grids, L: float, centers) -> list:
        """The filter's window, (cells, weights), on each of several grids of one shape.

        On grid b, around `centers[b]`, `cells` is a pair of slices: the cell
        ranges along x and y whose Gauss abscissae meet the support of mu_L;
        mu_L is zero at every Gauss point outside that block.  `weights` is
        `weights_nd` at the block's Gauss points, bitwise equal, ordered like
        `gradient_field(u, cells)`: the profile is evaluated once per axis
        abscissa, in one call over every grid, and the weights are their
        outer product, with the same arithmetic as `weights_nd`.
        """
        c = np.asarray(centers, dtype=float)
        axes = [g.quad_axes() for g in grids]
        wx = self.profile((np.stack([xs for xs, _ in axes]) - c[:, 0, None, None]) / L)  # (grid, nx, x side)
        wy = self.profile((np.stack([ys for _, ys in axes]) - c[:, 1, None, None]) / L)  # (grid, ny, y side)
        out = []
        for x, y in zip(wx, wy):
            sx, sy = _support(x), _support(y)
            out.append(((sx, sy), (x[sx, None, None, :] * y[None, sy, :, None] / L**2).ravel()))
        return out


def _check_L(L: float) -> None:
    if not 0.0 < L < math.inf:  # also rejects NaN
        raise ValueError(f"averaging window L must be positive and finite, got {L!r}")


def _support(values: np.ndarray) -> slice:
    """The contiguous index range of the rows of `values` that hold a nonzero."""
    nz = np.flatnonzero(values.reshape(len(values), -1).any(axis=1))
    return slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)


def build_filter(p) -> Filter:
    """Construct the filter of order p in {0, 1, 2, 3, 4, inf}.

    Normalization constants are computed by a 64-node Gauss-Legendre rule on
    each smooth piece of the profile.
    """
    if isinstance(p, str):
        p = math.inf if p in ("inf", "infinity", "oo") else int(p)
    if p == 0:
        return Filter(order=0, kappa=1.0)
    if p not in _SHAPES:
        raise ValueError(f"unsupported filter order {p!r}; choose 0..4 or inf")
    shape = _SHAPES[p]
    mass = 0.0
    for a, b in zip(_BREAKS[:-1], _BREAKS[1:]):
        mass += 0.5 * (b - a) * float(_WEIGHTS @ shape(0.5 * (b - a) * _NODES + 0.5 * (a + b)))
    kappa = 1.0 / mass
    return Filter(order=p, kappa=kappa, _shape=shape)


@dataclass
class HomTensor:
    """A 2x2 homogenized-coefficient approximation with diagnostics."""

    matrix: np.ndarray
    params: dict
    min_sym_eig: float
    gradient_means: dict
    filter_mass: float

    def __repr__(self):
        m = self.matrix
        return (
            f"HomTensor([[{m[0,0]:.6g}, {m[0,1]:.6g}], [{m[1,0]:.6g}, {m[1,1]:.6g}]], "
            f"min_sym_eig={self.min_sym_eig:.4g})"
        )


@dataclass
class CorrectorBundle:
    """Primal and dual extrapolated correctors for both coordinate directions.

    `ladders` is (primal, dual): for xi = e1, e2, the base solves at T, 2T,
    ..., 2^{kmax-1} T; for symmetric fields `dual` is the same object as
    `primal`.  `primal` and `dual` are the level-k correctors, extrapolated
    from the first k rungs.  `at_level(j)` is the same bundle viewed at any
    level j up to the ladder length, with no new solve.  `A_p` is the
    solves' operator's coefficient on one period of Gauss points (B = 1,
    cx, cy, 4, 2, 2): cell (i, j) of the grid reads it at (i mod cx,
    j mod cy), and no array holds A per cell of the grid.
    """

    grid: StructuredGrid
    field: CoefficientField
    T: float
    k: int
    ladders: tuple
    A_p: np.ndarray
    primal: list = dc_field(init=False)
    dual: list = dc_field(init=False)

    def __post_init__(self):
        primal, dual = self.ladders
        if not 1 <= self.k <= len(primal[0]):
            raise ValueError(f"level k={self.k} needs 1 <= k <= {len(primal[0])} solved rungs")
        self.primal = [extrapolate(lad[: self.k]) for lad in primal]
        self.dual = self.primal if dual is primal else [extrapolate(lad[: self.k]) for lad in dual]

    def at_level(self, k: int) -> "CorrectorBundle":
        return replace(self, k=k)


def solve_corrector_bundle(
    field: CoefficientField,
    grid: StructuredGrid,
    T: float,
    k: int,
    rel_tol: float = 1e-10,
    kmax: Optional[int] = None,
) -> CorrectorBundle:
    """Solve the 2k (or 4k, non-symmetric) corrector problems behind a tensor.

    `kmax` >= k solves a longer dyadic ladder whose prefixes serve every
    level up to kmax (used by the error-estimator studies); the bundle is
    at level k.
    """
    op = CorrectorOperator.from_field(grid, field)
    km = k if kmax is None else kmax
    primal = solve_ladder(op, T, km, np.eye(2), rel_tol=rel_tol)
    if field.is_symmetric:
        dual = primal
    else:
        dual = solve_ladder(op.transpose(), T, km, np.eye(2), dual=True, rel_tol=rel_tol)
    return CorrectorBundle(grid=grid, field=field, T=T, k=k, ladders=(primal, dual), A_p=op.A_p)


def _tensor_from_gradients(
    grid: StructuredGrid,
    A_p: np.ndarray,
    primal,
    dual,
    filt: Filter,
    L: float,
    project: bool,
    center=None,
):
    """Windowed tensor from the level-k correctors and A on one period of the grid's Gauss points.

    `primal` and `dual` hold the correctors for xi = e1, e2 as DofVectors on
    `grid` (`dual` is `primal` for symmetric fields).  Returns the tensor,
    the least eigenvalue of its symmetric part, the filtered gradient means
    and the filter mass (`_window_tensors` on a batch of one).
    """
    vp = np.stack([u.values for u in primal])[:, None]
    vd = vp if dual is primal else np.stack([u.values for u in dual])[:, None]
    center = grid.center if center is None else center
    mats, mp, md, masses = _window_tensors([grid], primal[0].bc, A_p, vp, vd, filt, L, [center], project)
    mat = mats[0]
    min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
    return mat, min_eig, {"primal": list(mp[0]), "dual": list(md[0])}, float(masses[0])


def _window_tensors(grids, bc, A_p, primal, dual, filt, L, centers, project):
    """Windowed tensors of grids of one shape, each around its own center.

    `primal` and `dual` stack the free-dof values of the correctors for
    xi = e1, e2, (direction, grid, dof) (`dual` is `primal` for symmetric
    fields).  `A_p` (B, cx, cy, 4, 2, 2) holds A on one period of each
    grid's Gauss points, read by cell (i, j) at (i mod cx, j mod cy); the
    whole grid is a period too.  Only each filter's window is visited: A,
    the gradients, their means and the contraction are restricted to the
    block of cells where mu_L is nonzero, and the grids whose windows cover
    the same block are contracted together.  Returns the tensors (B, 2, 2),
    the primal and dual gradient means (B, direction, axis) and the filter
    masses (B,).
    """
    B, (cx, cy) = len(grids), A_p.shape[1:3]
    windows = filt.windows(grids, L, centers)
    groups = {}
    for b, ((sx, sy), _) in enumerate(windows):
        groups.setdefault((sx.start, sx.stop, sy.start, sy.stop), []).append(b)
    mats, means_p, masses = np.empty((B, 2, 2)), np.empty((B, 2, 2)), np.empty(B)
    means_d = means_p if dual is primal else np.empty((B, 2, 2))
    eye = np.eye(2)[:, :, None]
    for idx in groups.values():
        sx, sy = cells = windows[idx[0]][0]
        sub = [grids[b] for b in idx]
        w = np.stack([windows[b][1] * grids[b].quad_weight() for b in idx])
        mass = w.sum(axis=1)
        if not np.all(mass > 0.0):
            raise ValueError("filter mass vanishes on the grid")
        wn = w / mass[:, None]
        # A on the window, (grid, row, column, point), and the (grid, direction,
        # axis, point) gradients: every product runs along the points
        on_period = np.ix_(idx, np.arange(sx.start, sx.stop) % cx, np.arange(sy.start, sy.stop) % cy)
        A_w = A_p[on_period].reshape(len(idx), -1, 4).transpose(0, 2, 1).reshape(len(idx), 2, 2, -1)
        gp = np.stack([_gradients(v[idx], sub, bc, cells) for v in primal], axis=1)
        gd = gp if dual is primal else np.stack([_gradients(v[idx], sub, bc, cells) for v in dual], axis=1)
        mp = (gp @ wn[:, None, :, None])[..., 0]
        md = mp if gd is gp else (gd @ wn[:, None, :, None])[..., 0]
        fp = eye + (gp - mp[..., None] if project else gp)
        fd = fp if gd is gp else eye + (gd - md[..., None] if project else gd)
        # mat[j, i] = sum_q wn_q (e_j + grad phi'_j) . A (e_i + grad phi_i): row j tests
        # with the dual corrector of xi' = e_j
        afp = A_w[:, None, :, 0] * fp[:, :, None, 0] + A_w[:, None, :, 1] * fp[:, :, None, 1]
        fdw = (fd * wn[:, None, None, :]).reshape(len(idx), 2, -1)
        mats[idx] = fdw @ afp.reshape(len(idx), 2, -1).transpose(0, 2, 1)
        means_p[idx], means_d[idx], masses[idx] = mp, md, mass
    return mats, means_p, means_d, masses


def _check_bundle(bundle: CorrectorBundle, field: CoefficientField, R: float, n: int, T: float, k: int) -> None:
    """Raise ValueError unless `bundle` holds `field` (by name) at T and level k on an n x n-cell box of half-width R.

    The bundle's box may sit anywhere: the tensor is taken on its grid,
    about its centre.
    """
    g = bundle.grid
    checks = {
        "field": (field.name, bundle.field.name, field.name == bundle.field.name),
        "R": (R, g.R, math.isclose(R, g.R, rel_tol=1e-12)),
        "n": (n, (g.nx, g.ny), g.nx == g.ny == n),
        "T": (T, bundle.T, T == bundle.T),
        "k": (k, bundle.k, k == bundle.k),
    }
    wrong = [f"{key}={given!r} (bundle: {held!r})" for key, (given, held, ok) in checks.items() if not ok]
    if wrong:
        raise ValueError("the corrector bundle does not match the tensor's arguments: " + ", ".join(wrong))


def _hom_tensor(field, R, n, T, k, L, filt, rel_tol, project, bundle=None):
    _check_L(L)
    if L > R:
        raise ValueError(f"averaging window L={L} exceeds the box half-width R={R}")
    if bundle is None:
        bundle = solve_corrector_bundle(field, StructuredGrid.square(R, n), T, k, rel_tol=rel_tol)
    else:
        _check_bundle(bundle, field, R, n, T, k)
    primal = [s.u for s in bundle.primal]
    dual = primal if bundle.dual is bundle.primal else [s.u for s in bundle.dual]
    mat, min_eig, means, mass = _tensor_from_gradients(bundle.grid, bundle.A_p, primal, dual, filt, L, project)
    params = dict(
        field=field.name,
        variant="projected" if project else "prime",
        T=T,
        k=k,
        R=R,
        L=L,
        p=filt.order,
        n=bundle.grid.nx,
        h=bundle.grid.hx,
        rel_tol=rel_tol,
    )
    return HomTensor(matrix=mat, params=params, min_sym_eig=min_eig, gradient_means=means, filter_mass=mass)


def hom_tensor_prime(
    field: CoefficientField,
    R: float,
    n: int,
    T: float,
    k: int,
    L: float,
    filt: Filter,
    rel_tol: float = 1e-10,
    bundle: Optional[CorrectorBundle] = None,
) -> HomTensor:
    """The filtered tensor A'_{T,k,R,L,p} (no gradient projection).

    T = inf with k = 1 and the order-0 filter reproduces the naive Dirichlet
    approximation.  An existing CorrectorBundle can be passed to reuse
    solves across windows and filters; it must hold the same field (by
    name), box size (R, n), T and level k (`bundle.at_level(k)` views
    another level), else ValueError.  Its box may have any centre.
    """
    return _hom_tensor(field, R, n, T, k, L, filt, rel_tol, project=False, bundle=bundle)


def hom_tensor_projected(
    field: CoefficientField,
    R: float,
    n: int,
    T: float,
    k: int,
    L: float,
    filt: Filter,
    rel_tol: float = 1e-10,
    bundle: Optional[CorrectorBundle] = None,
) -> HomTensor:
    """The projected tensor A_{T,k,R,L,p}: mu_L-mean-free gradients.

    Subtracting the filtered gradient means before forming the bilinear form
    guarantees min sym eig >= alpha * (clipped filter mass) for symmetric
    fields, for every parameter choice; the subtracted means are recorded in
    the diagnostics.  A `bundle` must match as for `hom_tensor_prime`.
    """
    return _hom_tensor(field, R, n, T, k, L, filt, rel_tol, project=True, bundle=bundle)
