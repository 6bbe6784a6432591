"""Structured-grid Q1 finite elements for T^{-1} u - div(A (xi + grad u)) = f.

Uniform tensor-product grids on axis-aligned rectangles, bilinear (Q1)
elements, 2x2 Gauss quadrature per cell, coefficient evaluated pointwise at
the quadrature points.  Boundary treatments: homogeneous Dirichlet or
periodic (with the zero-mean constraint realized by pinning one node when
the zero-order term vanishes).

A `CorrectorOperator` is built once per (field, grid, bc).  It evaluates A
at the quadrature points once, sums the cell stiffness matrices (one
(cells, 16) @ (16, 16) product) into the nine-point stiffness K on the free
dofs, and holds the mass M and the loads -int grad(psi) . A e_i.  Every
zero-order shift s = 1/T is then the system (K + s M) x = b, so a dyadic
ladder in T re-assembles nothing.

The assembly carries a leading batch axis: an operator is built for a
batch of grids that share their cell counts (nx, ny) and bc, each with its
own origin and spacing, and its K, M and loads are block-diagonal, one
block per grid.  A single grid is a batch of one.  Many small problems of
one shape (the HMM patches) then cost one field evaluation, one assembly,
one hierarchy and one Krylov call instead of one of each per problem,
whose fixed costs dominate problems of a few hundred dofs.  A batch holds
about 0.8 KB per dof while it is assembled, so callers bound its size
(`hmm.BATCH_DOFS`).

`solve` is the one Krylov entry point: conjugate gradients for symmetric
systems, BiCGStab otherwise, preconditioned by a geometric multigrid
V-cycle.  The hierarchy halves the grid (bilinear prolongation P, wrapping
around on periodic grids) while both cell counts are even and the level has
more than `COARSE_DOFS` dofs.  Coarse operators are Galerkin products
P^T K P and P^T M P, built once per operator, so a shift costs one sparse
sum per level.  Each level smooths with damped Jacobi; the coarsest level
is factorized when it has at most `DIRECT_DOFS` dofs and only smoothed
otherwise (a large grid with an odd cell count), so no large grid is ever
factorized whole.  A system without a hierarchy is a single level: a direct
solve when small.  A batch halves alike in every block, so its
prolongations are I_B (x) P and every level stays block-diagonal.  The
solve of a batched system is equilibrated, so each block meets the
tolerance relative to its own right-hand side (see `solve`).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeffs import CoefficientField

__all__ = [
    "StructuredGrid",
    "SparseSystem",
    "DofVector",
    "SolverError",
    "CorrectorOperator",
    "assemble",
    "mass_matrix",
    "solve",
    "gradient_field",
    "values_at_quad",
]

_G = 1.0 / np.sqrt(3.0)
# reference-square [-1,1]^2 Gauss points, local node order (-,-),(+,-),(-,+),(+,+)
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [-_G, _G], [_G, _G]])
# local node l of a cell sits at this (x, y) offset from the cell's first node
_NODE_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))

#: A level with more dofs than this is halved while its cell counts are even.
COARSE_DOFS = 300
#: The coarsest level is factorized up to this size and only smoothed above it.
#: On odd mat2 bottoms of 4096-64516 dofs LU made the whole solve 3-6x
#: faster, but its factor's peak memory grows faster than the level (+38 MB
#: at 15876 dofs, +68 MB at 25600, +190 MB at 64516); this caps it near 40 MB.
DIRECT_DOFS = 16384
_JACOBI_WEIGHT = 0.8


def _shape_values(xi, eta):
    N = 0.25 * np.array(
        [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta), (1 - xi) * (1 + eta), (1 + xi) * (1 + eta)]
    )
    dN = 0.25 * np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -(1 + xi)],
            [-(1 + eta), (1 - xi)],
            [(1 + eta), (1 + xi)],
        ]
    )
    return N, dN


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform nx x ny cell grid on [x0, x0+nx*hx] x [y0, y0+ny*hy]."""

    x0: float
    y0: float
    nx: int
    ny: int
    hx: float
    hy: float

    @classmethod
    def square(cls, R: float, n: int, center=(0.0, 0.0)) -> "StructuredGrid":
        """The box Q_R = (-R, R)^2 shifted to `center`, n cells per dim."""
        if n < 2:
            raise ValueError("need n >= 2 cells per dimension")
        h = 2.0 * R / n
        return cls(center[0] - R, center[1] - R, n, n, h, h)

    @classmethod
    def from_box(cls, bounds, nx: int, ny: int) -> "StructuredGrid":
        x0, x1, y0, y1 = bounds
        if nx < 2 or ny < 2:
            raise ValueError("need at least 2 cells per dimension")
        return cls(x0, y0, nx, ny, (x1 - x0) / nx, (y1 - y0) / ny)

    # square-grid conveniences used throughout the corrector modules
    @property
    def n(self) -> int:
        if self.nx != self.ny:
            raise ValueError("grid is not square")
        return self.nx

    @property
    def h(self) -> float:
        return self.hx

    @property
    def R(self) -> float:
        """Half-width (square, origin-centered grids)."""
        return 0.5 * self.nx * self.hx

    @property
    def center(self):
        return (
            self.x0 + 0.5 * self.nx * self.hx,
            self.y0 + 0.5 * self.ny * self.hy,
        )

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    def node_coords(self):
        xs = self.x0 + self.hx * np.arange(self.nx + 1)
        ys = self.y0 + self.hy * np.arange(self.ny + 1)
        return xs, ys

    def free_dofs(self, bc: str) -> np.ndarray:
        """Indices of unconstrained dofs within the bc's node numbering."""
        if bc == "periodic":
            return np.arange(self.nx * self.ny)
        nyy = self.ny + 1
        I, J = np.meshgrid(np.arange(1, self.nx), np.arange(1, self.ny), indexing="ij")
        return (I * nyy + J).ravel()

    def quad_axes(self):
        """Gauss abscissae per axis: (nx, 2) and (ny, 2) arrays, [cell, -/+]."""
        g = GAUSS_POINTS[[0, 3], 0]
        cx = self.x0 + (np.arange(self.nx) + 0.5) * self.hx
        cy = self.y0 + (np.arange(self.ny) + 0.5) * self.hy
        return cx[:, None] + 0.5 * self.hx * g, cy[:, None] + 0.5 * self.hy * g

    def quad_points(self) -> np.ndarray:
        """(4*ncells, 2) coordinates of all 2x2 Gauss points, cell-major."""
        xs, ys = self.quad_axes()
        pts = np.empty((self.nx, self.ny, 2, 2, 2))  # cell (i, j), gp = 2 * y side + x side
        pts[..., 0] = xs[:, None, None, :]
        pts[..., 1] = ys[None, :, :, None]
        return pts.reshape(-1, 2)

    def quad_weight(self) -> float:
        """Quadrature weight of a single Gauss point (uniform on the grid)."""
        return 0.25 * self.hx * self.hy


@dataclass
class SparseSystem:
    """Assembled linear system on the free dofs.

    `multigrid` is the preconditioner hierarchy; a system without one (or
    without a grid) is solved as a single level.  A system of `blocks` > 1
    is block-diagonal with equal blocks (a batch of grids, `grid` None),
    and `solve` meets its tolerance on every block.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    symmetric: bool
    grid: Optional[StructuredGrid] = None
    bc: str = "dirichlet0"
    pinned: bool = False  # periodic singular system with node 0 removed
    multigrid: Optional["Multigrid"] = dataclasses.field(default=None, repr=False)
    blocks: int = 1


@dataclass
class DofVector:
    """Values on the free dofs of `grid` under boundary treatment `bc`."""

    values: np.ndarray
    grid: StructuredGrid
    bc: str
    pinned: bool = False

    def nodal(self) -> np.ndarray:
        """Expand to the full (nx+1, ny+1) nodal array."""
        g = self.grid
        if self.bc == "dirichlet0":
            out = np.zeros((g.nx + 1, g.ny + 1))
            inner = self.values.reshape(g.nx - 1, g.ny - 1)
            out[1:-1, 1:-1] = inner
            return out
        vals = self.values
        if self.pinned:
            vals = np.concatenate([[0.0], vals])
        per = vals.reshape(g.nx, g.ny)
        out = np.empty((g.nx + 1, g.ny + 1))
        out[: g.nx, : g.ny] = per
        out[g.nx, : g.ny] = per[0]
        out[:, g.ny] = out[:, 0]
        return out


# ----------------------------------------------------------------------------
# assembly on the free dofs


def _check_bc(bc: str) -> None:
    if bc not in ("dirichlet0", "periodic"):
        raise ValueError(f"unknown bc {bc!r}")


def _n_free(nx: int, ny: int, bc: str) -> int:
    return nx * ny if bc == "periodic" else (nx - 1) * (ny - 1)


def _batch(grids) -> tuple:
    """A grid, or a sequence of grids sharing (nx, ny), as a tuple."""
    grids = (grids,) if isinstance(grids, StructuredGrid) else tuple(grids)
    if not grids:
        raise ValueError("need at least one grid")
    if any((g.nx, g.ny) != (grids[0].nx, grids[0].ny) for g in grids):
        raise ValueError("the grids of a batch must share their cell counts (nx, ny)")
    return grids


def _quad_weights(grids) -> np.ndarray:
    """(B,) weight of one Gauss point on each grid."""
    return np.array([g.quad_weight() for g in grids])


def _physical_shape_gradients(grids) -> np.ndarray:
    """(grid, gauss point, local node, axis) gradients of the Q1 shape functions."""
    dN = np.stack([_shape_values(*gp)[1] for gp in GAUSS_POINTS])
    scale = 0.5 * np.array([(g.hx, g.hy) for g in grids])
    return dN / scale[:, None, None, :]


def _free_part(nodal: np.ndarray, bc: str) -> np.ndarray:
    """Restrict a (B, nx+1, ny+1, ...) nodal array to the free dofs, flattened grid-major.

    Periodic grids first fold the last row and column onto the first.
    """
    if bc == "periodic":
        nodal[:, 0] += nodal[:, -1]
        nodal[:, :, 0] += nodal[:, :, -1]
        free = nodal[:, :-1, :-1]
    else:
        free = nodal[:, 1:-1, 1:-1]
    return free.reshape(-1, *free.shape[3:])


def _cell_sum(grids, bc: str, cell_values: np.ndarray) -> np.ndarray:
    """Sum per-cell, per-local-node values (B, ncells, 4) into the stacked free dofs."""
    nx, ny = grids[0].nx, grids[0].ny
    cv = cell_values.reshape(len(grids), nx, ny, 4)
    nodal = np.zeros((len(grids), nx + 1, ny + 1))
    for l, (ax, ay) in enumerate(_NODE_OFFSETS):
        nodal[:, ax : ax + nx, ay : ay + ny] += cv[..., l]
    return _free_part(nodal, bc)


def _stencil_matrix(grids, bc: str, local: np.ndarray) -> sp.csr_matrix:
    """Sum cell matrices into a block-diagonal nine-point CSR matrix.

    One block per grid, on its free dofs.  `local` holds one 4x4 matrix per
    cell of every grid (B * ncells * 16 values, grid- then cell-major), or
    one (4, 4) matrix per grid shared by all of its cells, (B, 4, 4).
    Periodic matrices are unpinned; entries coupling to Dirichlet nodes are
    dropped, so only free-dof entries are ever stored.
    """
    B, nx, ny = len(grids), grids[0].nx, grids[0].ny
    shape = (B, nx, ny, 4, 4)
    if local.size == 16 * B:
        local = np.broadcast_to(local.reshape(B, 1, 1, 4, 4), shape)
    else:
        local = local.reshape(shape)
    stencil = np.zeros((B, nx + 1, ny + 1, 3, 3))  # grid, node, neighbour offset (dx + 1, dy + 1)
    for l, (ax, ay) in enumerate(_NODE_OFFSETS):
        for m, (bx, by) in enumerate(_NODE_OFFSETS):
            stencil[:, ax : ax + nx, ay : ay + ny, bx - ax + 1, by - ay + 1] += local[..., l, m]
    data = _free_part(stencil, bc).reshape(-1, 9)
    d = np.arange(-1, 2)
    if bc == "periodic":
        i = np.arange(nx)[:, None, None, None] + d[:, None]
        j = np.arange(ny)[None, :, None, None] + d
        cols = (i % nx) * ny + j % ny
        valid = np.ones(cols.shape, dtype=bool)
    else:
        i = np.arange(1, nx)[:, None, None, None] + d[:, None]
        j = np.arange(1, ny)[None, :, None, None] + d
        cols = (i - 1) * (ny - 1) + (j - 1)
        valid = (i >= 1) & (i <= nx - 1) & (j >= 1) & (j <= ny - 1)
    n = _n_free(nx, ny, bc)
    if B > 1:  # block b's columns are offset by b * n
        cols = cols.reshape(1, n, 9) + n * np.arange(B)[:, None, None]
        valid = np.broadcast_to(valid.reshape(1, n, 9), (B, n, 9))
    valid = valid.reshape(-1, 9)
    indptr = np.zeros(B * n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    mat = sp.csr_matrix(
        (data[valid], cols.reshape(-1, 9)[valid].astype(np.int32), indptr), shape=(B * n, B * n)
    )
    if bc == "periodic":
        mat.sum_duplicates()  # sorts the wrapped columns; merges them on 2-cell axes
    return mat


def _mass_local(grids) -> np.ndarray:
    """(B, 4, 4) cell mass matrix of each grid."""
    w = _quad_weights(grids)[:, None, None]
    return sum(w * np.outer(N, N) for N in (_shape_values(*gp)[0] for gp in GAUSS_POINTS))


def _q1_stiffness(grids, bc: str, A_q: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal K from A at the quadrature points, (B * ncells, 4, 2, 2)."""
    D = _physical_shape_gradients(grids)  # (z, g, i, a)
    # K_loc[z, c, i, j] = w_z sum_g dN_g[i] . A_g dN_g[j]: one matmul per grid over (g, a, b)
    basis = _quad_weights(grids)[:, None, None] * np.einsum("zgia,zgjb->zgabij", D, D).reshape(-1, 16, 16)
    return _stencil_matrix(grids, bc, A_q.reshape(len(grids), -1, 16) @ basis)


def _q1_loads(grids, bc: str, A_q: np.ndarray) -> np.ndarray:
    """(2, B * nfree) stacked loads -int grad(psi) . A e_x for x = 1, 2."""
    D = _physical_shape_gradients(grids)
    basis = -_quad_weights(grids)[:, None, None] * np.einsum("zgia,bx->zgabxi", D, np.eye(2)).reshape(-1, 16, 8)
    cell_loads = (A_q.reshape(len(grids), -1, 16) @ basis).reshape(len(grids), -1, 2, 4)
    return np.stack([_cell_sum(grids, bc, cell_loads[:, :, x]) for x in range(2)])


# ----------------------------------------------------------------------------
# multigrid


def _prolongation_1d(n: int, bc: str) -> sp.csr_matrix:
    """Linear interpolation from n/2 to n cells on the bc's free nodes."""
    nc = n // 2
    I = np.arange(nc)
    rows = np.concatenate([2 * I, 2 * I + 1, 2 * I + 1, [n]])
    cols = np.concatenate([I, I, I + 1, [nc]])
    vals = np.concatenate([np.ones(nc), np.full(2 * nc, 0.5), [1.0]])
    if bc == "periodic":  # node n is node 0, coarse node nc is coarse node 0
        keep = rows < n
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep] % nc)), shape=(n, nc))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, nc + 1))[1:n, 1:nc]


def _prolongations(grids, bc: str) -> list:
    """Prolongations of the grids' halving hierarchy, finest first.

    Every grid of a batch halves alike, so a batch of B grids prolongs by
    I_B (x) P, and its levels stay block-diagonal.
    """
    out = []
    nx, ny = grids[0].nx, grids[0].ny
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) >= 4 and _n_free(nx, ny, bc) > COARSE_DOFS:
        P = sp.kron(_prolongation_1d(nx, bc), _prolongation_1d(ny, bc), format="csr")
        out.append(P if len(grids) == 1 else sp.kron(sp.identity(len(grids)), P, format="csr"))
        nx, ny = nx // 2, ny // 2
    return out


def _galerkin(A: sp.csr_matrix, prolongations) -> list:
    """[A, P0^T A P0, P1^T P0^T A P0 P1, ...]."""
    levels = [A]
    for P in prolongations:
        levels.append((P.T @ levels[-1] @ P).tocsr())
    return levels


def _shifted(K: sp.csr_matrix, M: sp.csr_matrix, s: float) -> sp.csr_matrix:
    """K + s M, stored on K's index arrays when M has the same pattern.

    Sharing the pattern skips scipy's general sparse sum and its temporaries:
    on the R=320 lattice box it keeps the peak RSS 4 MB lower (134 vs 138 MB).
    """
    if s == 0.0:
        return K
    if np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices):
        return sp.csr_matrix((K.data + s * M.data, K.indices, K.indptr), shape=K.shape)
    return (K + s * M).tocsr()


def _pin(A: sp.csr_matrix) -> sp.csr_matrix:
    """Drop dof 0 (the pinned periodic node) from rows and columns."""
    return A[1:, 1:].tocsr()


class Multigrid:
    """Symmetric V-cycle on levels A_0 (finest) ... A_L, used as M^{-1}.

    One damped-Jacobi sweep before and one after each coarse correction,
    restriction by P^T; the coarsest level is solved by LU when it has at
    most `DIRECT_DOFS` dofs and smoothed otherwise.  Symmetric levels give a
    symmetric preconditioner.
    """

    def __init__(self, levels, prolongations=()):
        self.levels = levels
        self.P = prolongations
        self.R = [P.T.tocsr() for P in prolongations]
        self.dinv = [_JACOBI_WEIGHT / A.diagonal() for A in levels]
        bottom = levels[-1]
        self.lu = spla.splu(bottom.tocsc()) if bottom.shape[0] <= DIRECT_DOFS else None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, np.ravel(r))

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        coarsest = level == len(self.levels) - 1
        if coarsest and self.lu is not None:
            return self.lu.solve(r)
        A, dinv = self.levels[level], self.dinv[level]
        x = dinv * r
        if not coarsest:
            x += self.P[level] @ self._cycle(level + 1, self.R[level] @ (r - A @ x))
        x += dinv * (r - A @ x)
        return x


# ----------------------------------------------------------------------------
# the operator


class CorrectorOperator:
    """K + s M on the free dofs of a batch of grids under one bc, for any shift s >= 0.

    The grids of a batch share their cell counts (nx, ny) but each keeps its
    own origin and spacing.  Their dofs are stacked grid after grid, so K,
    M and every coarse level are block-diagonal with one block per grid,
    and one hierarchy, one bottom factorization and one Krylov call serve
    them all.  A single grid is a batch of one; `grid` is that grid, and
    None on larger batches (`split` views a stacked vector per grid).

    Holds the stiffness K, the mass M, the loads b_i for xi = e_i (rhs for
    any xi is xi . b), the prolongations and, once a system is requested,
    the Galerkin coarse K and M.  `A_q` is the coefficient at the
    quadrature points, (B * ncells, 4, 2, 2), when the operator was built
    from a field.  The operator keeps no shifted matrices: each call of
    `systems` builds one shift's hierarchy, shared by the systems it
    returns.
    """

    def __init__(self, grids, bc, stiffness, mass, loads, symmetric, A_q=None):
        _check_bc(bc)
        self.grids, self.bc = _batch(grids), bc
        self.grid = self.grids[0] if len(self.grids) == 1 else None
        self.K, self.M = stiffness, mass
        self.loads = loads
        self.symmetric = bool(symmetric)
        self.A_q = A_q
        self.prolongations = _prolongations(self.grids, bc)
        self._coarse = None  # Galerkin (K levels, M levels) below the finest

    @classmethod
    def from_field(cls, grids, field: CoefficientField, bc: str = "dirichlet0"):
        """Evaluate `field` once at the Gauss points of a grid or a batch, and assemble."""
        grids = _batch(grids)
        points = grids[0].quad_points() if len(grids) == 1 else np.concatenate([g.quad_points() for g in grids])
        A_q = field(points).reshape(-1, 4, 2, 2)
        K = _q1_stiffness(grids, bc, A_q)
        M = _stencil_matrix(grids, bc, _mass_local(grids))
        return cls(grids, bc, K, M, _q1_loads(grids, bc, A_q), field.is_symmetric, A_q=A_q)

    def transpose(self) -> "CorrectorOperator":
        """The operator of the transpose field A^T (dual correctors).

        Shares the mass, the prolongations and the coarse mass matrices.
        """
        if self.symmetric:
            return self
        t = copy.copy(self)
        t.A_q = np.swapaxes(self.A_q, -1, -2)
        t.K = self.K.T.tocsr()
        t.loads = _q1_loads(self.grids, self.bc, t.A_q)
        if self._coarse is not None:
            t._coarse = [[Kc.T.tocsr() for Kc in self._coarse[0]], self._coarse[1]]
        return t

    def split(self, values: np.ndarray) -> list:
        """One DofVector per grid, each a view into the stacked `values`."""
        return [DofVector(v, g, self.bc) for g, v in zip(self.grids, values.reshape(len(self.grids), -1))]

    def rhs(self, xi) -> np.ndarray:
        """-int grad(psi) . A xi on the free dofs (unpinned)."""
        xi = np.asarray(xi, dtype=float)
        return xi[0] * self.loads[0] + xi[1] * self.loads[1]

    def matrix(self, inv_T: float) -> sp.csr_matrix:
        """K + inv_T M (unpinned)."""
        return _shifted(self.K, self.M, inv_T)

    def systems(self, inv_T: float, rhs_list) -> list:
        """Systems (K + inv_T M) x = b for each b, sharing one hierarchy.

        A periodic operator without shift pins node 0 (the constant null
        space); the right-hand sides are then restricted accordingly.
        """
        if inv_T < 0:
            raise ValueError("inv_T must be nonnegative")
        pinned = self.bc == "periodic" and inv_T == 0.0
        if pinned and self.grid is None:
            raise ValueError("a batch of periodic grids needs a positive shift (no pinning)")
        if self._coarse is None:
            self._coarse = [_galerkin(A, self.prolongations)[1:] for A in (self.K, self.M)]
        coarse = [_shifted(Kc, Mc, inv_T) for Kc, Mc in zip(*self._coarse)]
        levels = [self.matrix(inv_T)] + coarse
        P = self.prolongations
        if pinned:
            levels = [_pin(A) for A in levels]
            P = [_pin(p) for p in P]
        mg = Multigrid(levels, P)
        return [
            SparseSystem(
                matrix=levels[0], rhs=b[1:] if pinned else b, symmetric=self.symmetric,
                grid=self.grid, bc=self.bc, pinned=pinned, multigrid=mg, blocks=len(self.grids),
            )
            for b in rhs_list
        ]

    def system(self, inv_T: float, rhs: np.ndarray) -> SparseSystem:
        return self.systems(inv_T, [rhs])[0]


def assemble(
    grid: StructuredGrid,
    field: CoefficientField,
    inv_T: float,
    xi: Optional[np.ndarray] = None,
    bc: str = "dirichlet0",
    source=None,
) -> SparseSystem:
    """Assemble T^{-1} u - div(A (xi + grad u)) = f in weak Q1 form.

    The right-hand side collects -int grad(psi) . A xi (when `xi` is given)
    and int f psi (when `source`, a callable on points, is given).

    For bc='periodic' with inv_T == 0 the constant null space is removed by
    pinning node 0; the system is marked `pinned` and solutions should be
    recentered by the caller when a zero-mean representative is wanted.
    """
    op = CorrectorOperator.from_field(grid, field, bc)
    rhs = op.rhs((0.0, 0.0) if xi is None else xi)
    if source is not None:
        fvals = np.asarray(source(grid.quad_points()), dtype=float).reshape(-1, 4)
        N = np.stack([_shape_values(*gp)[0] for gp in GAUSS_POINTS])  # (g, i)
        rhs = rhs + _cell_sum((grid,), bc, grid.quad_weight() * fvals @ N)
    return op.system(inv_T, rhs)


def mass_matrix(grid: StructuredGrid, bc: str = "dirichlet0", pinned: bool = False) -> sp.csr_matrix:
    """Q1 consistent mass matrix on the free dofs (2x2 Gauss, exact)."""
    _check_bc(bc)
    M = _stencil_matrix((grid,), bc, _mass_local((grid,)))
    return _pin(M) if bc == "periodic" and pinned else M


def solve(
    system: SparseSystem,
    rel_tol: float = 1e-10,
    max_iter: int = 50000,
    x0: Optional[np.ndarray] = None,
) -> DofVector:
    """Krylov solve to ||b - A x|| <= rel_tol ||b||.

    CG when the system is flagged symmetric, BiCGStab otherwise, both
    preconditioned by the system's multigrid V-cycle (one level when it has
    none).  A zero right-hand side short-circuits to the zero vector.

    A system of several blocks is solved equilibrated: each block's
    right-hand side and warm start are scaled to unit norm (the blocks do
    not couple, so this scales each block's solution alike), and one Krylov
    call runs to absolute residual rel_tol.  Every block then meets
    ||r_i|| <= rel_tol ||b_i||, so loads of very different size are all
    solved to the same relative accuracy, and the stacked system meets
    rel_tol too.  A block with a zero right-hand side returns zero.

    Raises SolverError carrying the achieved relative residual (of the
    worst block) on non-convergence.
    """
    if not (0.0 < rel_tol <= 1e-4):
        raise ValueError("rel_tol must lie in (0, 1e-4]")
    b, blocks = system.rhs, system.blocks
    bnorms = np.linalg.norm(b.reshape(blocks, -1), axis=1)
    if not bnorms.any():
        return DofVector(np.zeros_like(b), system.grid, system.bc, system.pinned)
    A = system.matrix
    mg = system.multigrid if system.multigrid is not None else Multigrid([A])
    M = spla.LinearOperator(A.shape, matvec=mg, dtype=float)
    krylov = spla.cg if system.symmetric else spla.bicgstab
    x, ref = x0, bnorms  # ref: the block norms of the right-hand side solved for
    if blocks == 1:
        tol = dict(rtol=rel_tol, atol=0.0)
    else:
        scale = np.divide(1.0, bnorms, out=np.zeros_like(bnorms), where=bnorms > 0)
        b = _blockwise(b, scale)
        x = None if x0 is None else _blockwise(x0, scale)
        tol = dict(rtol=0.0, atol=rel_tol)
        ref = (bnorms > 0).astype(float)
    # scipy tracks a recursively updated residual that can drift a little
    # from the true one; restart from the current iterate until the true
    # relative residual of every block meets the contract
    for attempt in range(4):
        kw = dict(tol, maxiter=max_iter, M=M)
        if x is not None:
            kw["x0"] = x
        x, info = krylov(A, b, **kw)
        rnorms = np.linalg.norm((b - A @ x).reshape(blocks, -1), axis=1)
        res = np.divide(rnorms, ref, out=np.zeros_like(rnorms), where=ref > 0)
        if res.max() <= rel_tol:
            if blocks > 1:
                x = _blockwise(x, bnorms)
            return DofVector(x, system.grid, system.bc, system.pinned)
        if info != 0:
            break
    worst = int(np.argmax(res))
    where = f" on block {worst} of {blocks}" if blocks > 1 else ""
    raise SolverError(
        f"Krylov solver did not reach rel_tol={rel_tol:g}{where} (achieved {res[worst]:.3e})",
        residual=float(res[worst]),
    )


def _blockwise(v: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Block i of the stacked `v` times scale[i]."""
    return (v.reshape(scale.size, -1) * scale[:, None]).ravel()


def _cell_corners(u: DofVector) -> np.ndarray:
    """(ncells, 4) nodal values of `u` at each cell's corners, local node order."""
    g = u.grid
    nodal = u.nodal()
    return np.stack([nodal[ax : ax + g.nx, ay : ay + g.ny].ravel() for ax, ay in _NODE_OFFSETS], axis=1)


def values_at_quad(u: DofVector) -> np.ndarray:
    """Values of the Q1 interpolant at all 2x2 Gauss points.

    Returns a (4 * ncells,) array ordered like `grid.quad_points()`.
    """
    N = np.stack([_shape_values(*gp)[0] for gp in GAUSS_POINTS], axis=1)  # (local node, gp)
    return (_cell_corners(u) @ N).ravel()


def gradient_field(u: DofVector) -> np.ndarray:
    """Gradient of the Q1 interpolant at all 2x2 Gauss points.

    Returns a (4 * ncells, 2) array ordered like `grid.quad_points()`.
    """
    g = u.grid
    corners = _cell_corners(u)
    out = np.empty((g.nx * g.ny, 4, 2))
    for gp in range(4):
        _, dN = _shape_values(*GAUSS_POINTS[gp])
        dNdx = dN / np.array([0.5 * g.hx, 0.5 * g.hy])
        out[:, gp, :] = corners @ dNdx
    return out.reshape(-1, 2)


def interpolate_gradient(u: DofVector, points: np.ndarray) -> np.ndarray:
    """Gradient of the Q1 interpolant of `u` at arbitrary points inside the grid."""
    g = u.grid
    nodal = u.nodal()
    pts = np.atleast_2d(points)
    fx = (pts[:, 0] - g.x0) / g.hx
    fy = (pts[:, 1] - g.y0) / g.hy
    i = np.clip(np.floor(fx).astype(int), 0, g.nx - 1)
    j = np.clip(np.floor(fy).astype(int), 0, g.ny - 1)
    # local coordinates in [-1, 1]
    xi = 2.0 * (fx - i) - 1.0
    eta = 2.0 * (fy - j) - 1.0
    c00 = nodal[i, j]
    c10 = nodal[i + 1, j]
    c01 = nodal[i, j + 1]
    c11 = nodal[i + 1, j + 1]
    dudxi = 0.25 * (-(1 - eta) * c00 + (1 - eta) * c10 - (1 + eta) * c01 + (1 + eta) * c11)
    dudeta = 0.25 * (-(1 - xi) * c00 - (1 + xi) * c10 + (1 - xi) * c01 + (1 + xi) * c11)
    return np.stack([dudxi / (0.5 * g.hx), dudeta / (0.5 * g.hy)], axis=-1)
