"""Structured-grid Q1 finite elements for T^{-1} u - div(A (xi + grad u)) = f.

Uniform tensor-product grids on axis-aligned rectangles, bilinear (Q1)
elements, 2x2 Gauss quadrature per cell, coefficient evaluated pointwise at
the quadrature points.  Boundary treatments: homogeneous Dirichlet or
periodic.  A `DofVector` always holds a value on every free dof of its grid.

A `CorrectorOperator` is built once per (field, grid, bc).  It evaluates A
at the quadrature points of one period of the field, sums the cell
stiffness matrices (one (cells, 16) @ (16, 16) product) and the loads
-int grad(psi) . A e_i over that period as a torus, and gathers the
nine-point stiffness K and the loads onto the free dofs by index modulo
the period (`source_load` gives int f psi).  The period is the first
cx x cy cells from the grid's origin when the field's period spans a whole
number of cells, fewer than the grid has; otherwise it is the whole grid,
and the gather reproduces the direct sum bitwise.  The operator also holds
the mass M.  The mass of a uniform grid is a Kronecker product of 1-D
factors, M = diag(w) (x) Mx (x) My: for Q1 the 1-D P1 masses of unit cells
with w = hx hy, for the lattice identity factors with w = 1.  It is written
from its 1-D factors straight onto the nine-point rows, with no pass over
the cells.  K and M are filled on one sparsity pattern, built (and, on
periodic grids, sorted) once per level, so they share their index arrays.
Every zero-order shift s = 1/T is then the system (K + s M) x = b, a sum of
data arrays, so a dyadic ladder in T re-assembles nothing.

The assembly carries a leading batch axis: an operator is built for a
batch of grids that share their cell counts (nx, ny) and bc, each with its
own origin and spacing, and its K, M and loads are block-diagonal, one
block per grid.  A single grid is a batch of one.  Many small problems of
one shape (the HMM patches) then cost one field evaluation, one assembly,
one bottom factorization per shift and one Krylov call instead of one of
each per problem, whose fixed costs dominate problems of a few hundred
dofs.  A batch holds about 0.8 KB per dof while it is assembled, so
callers bound its size (`hmm.BATCH_DOFS`).

`solve` is the one Krylov entry point: conjugate gradients for symmetric
systems, BiCGStab otherwise, preconditioned by a geometric multigrid
V-cycle whose bottom level is factorized outright.  The hierarchy halves the
grid (bilinear prolongation P = Px (x) Py, wrapping around on periodic
grids) while both cell counts are at least 4 and one block of the level
would hold more than `BAND_ENTRIES` band-factor entries (free dofs times the
shorter free extent); an odd count n halves to ceil(n/2), the last coarse
cell one fine cell wide.  A block that is cheap to factor, such as an HMM
patch, is therefore not halved at all: its system is one level, solved
directly, and the Krylov method stops after one iteration.  Coarse
stiffnesses are Galerkin products P^T K P; coarse masses are Galerkin
products of the 1-D factors, diag(w) (x) Px^T Mx Px (x) Py^T My Py, which
equal P^T M P with no two-dimensional product.  Both are built once per
operator, on the coarse grid's nine-point pattern, so a shift costs one sum
of data arrays per level.  Each level above the bottom smooths with damped
Jacobi.  The bottom is factorized in LAPACK band storage, a band Cholesky
(pbtrf) when the system is symmetric and a band LU (gbtrf) otherwise, its
dofs numbered along the grid's longer axis so that the band is the shorter
free extent of a block: no large grid is ever factorized whole.  A system
without a hierarchy is a single level, factorized in its own numbering.  A
batch halves alike in every block, so its prolongations are I_B (x) P and
every level stays block-diagonal.  The solve of a batched system is
equilibrated, so each block meets the tolerance relative to its own
right-hand side (see `solve`).

A periodic system without shift is singular (constants solve it); `solve`
pins its first free dof to zero internally and still returns every free
dof, so callers that want the zero-mean representative subtract the mean.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .coeffs import CoefficientField

__all__ = [
    "StructuredGrid",
    "SparseSystem",
    "DofVector",
    "SolverError",
    "CorrectorOperator",
    "solve",
    "gradient_field",
    "values_at_quad",
    "interpolate_gradient",
]

_G = 1.0 / np.sqrt(3.0)
# reference-square [-1,1]^2 Gauss points, local node order (-,-),(+,-),(-,+),(+,+)
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [-_G, _G], [_G, _G]])
# local node l of a cell sits at this (x, y) offset from the cell's first node
_NODE_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))

#: A level is halved, while both its cell counts are at least 4, when one of
#: its blocks holds more band-factor entries than this: free dofs times the
#: shorter free extent, about the size of its band Cholesky.  A smaller
#: block is factorized outright, which costs less than building a hierarchy
#: for it and running V-cycles.  Measured per repetition of the bench
#: workloads, median of 10 after 2 warm-ups in each of two or three
#: processes, single-threaded BLAS on a shared 2-core Xeon host:
#: hmm-patches (24 x 24-cell patches, 23^3 = 12167 entries) 0.174-0.187 s at
#: 4096 and 8192, when the patches still halve, and 0.131-0.138 s from 16384
#: to 524288; tensor-ladder (320 x 320 cells) 0.189-0.199 s at 32768 (bottom
#: 20 x 20 cells) and 0.180-0.182 s at 131072 (bottom 40 x 40);
#: tensor-naive (192 x 192) 0.084-0.087 s at 32768 (bottom 24 x 24) and
#: 0.080-0.081 s at 131072 (bottom 48 x 48); lattice-box 0.209-0.213 s
#: from 8192 to 262144 but 0.216-0.223 s and 4 MB more peak memory at
#: 524288 (bottom 80 x 80).  131072 is where the box workloads stop getting
#: faster.
BAND_ENTRIES = 131072
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


def _check_spacing(hx: float, hy: float) -> None:
    if not (0.0 < hx < math.inf and 0.0 < hy < math.inf):  # also rejects NaN
        raise ValueError(f"grid spacing must be positive and finite, got hx={hx!r}, hy={hy!r}")


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
        _check_spacing(h, h)
        return cls(center[0] - R, center[1] - R, n, n, h, h)

    @classmethod
    def from_box(cls, bounds, nx: int, ny: int) -> "StructuredGrid":
        x0, x1, y0, y1 = bounds
        if nx < 2 or ny < 2:
            raise ValueError("need at least 2 cells per dimension")
        hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
        _check_spacing(hx, hy)
        return cls(x0, y0, nx, ny, hx, hy)

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
    pinned: bool = False  # periodic singular system with free dof 0 removed (`solve`)
    multigrid: Optional["_Multigrid"] = dataclasses.field(default=None, repr=False)
    blocks: int = 1


@dataclass
class DofVector:
    """Values on the free dofs of `grid` under boundary treatment `bc`."""

    values: np.ndarray
    grid: StructuredGrid
    bc: str

    def nodal(self) -> np.ndarray:
        """Expand to the full (nx+1, ny+1) nodal array."""
        return _nodal(self.values[None], self.grid.nx, self.grid.ny, self.bc)[0]


def _nodal(values: np.ndarray, nx: int, ny: int, bc: str) -> np.ndarray:
    """(B, nx+1, ny+1) nodal arrays of B stacked free-dof vectors, (B, nfree)."""
    B = values.shape[0]
    if bc == "dirichlet0":
        out = np.zeros((B, nx + 1, ny + 1))
        out[:, 1:-1, 1:-1] = values.reshape(B, nx - 1, ny - 1)
        return out
    per = values.reshape(B, nx, ny)
    out = np.empty((B, nx + 1, ny + 1))
    out[:, :nx, :ny] = per
    out[:, nx, :ny] = per[:, 0]
    out[:, :, ny] = out[:, :, 0]
    return out


# ----------------------------------------------------------------------------
# assembly on the free dofs


def _check_bc(bc: str) -> None:
    if bc not in ("dirichlet0", "periodic"):
        raise ValueError(f"unknown bc {bc!r}")


def _free_extents(nx: int, ny: int, bc: str) -> tuple:
    """Free nodes along x and along y."""
    return (nx, ny) if bc == "periodic" else (nx - 1, ny - 1)


def _n_free(nx: int, ny: int, bc: str) -> int:
    mx, my = _free_extents(nx, ny, bc)
    return mx * my


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


def _stencil_pattern(nx: int, ny: int, bc: str, B: int) -> tuple:
    """CSR pattern of a block-diagonal nine-point matrix: (indices, indptr, slots, starts).

    A block's row r holds its free dof's nine neighbour offsets (dx, dy) in
    -1..1, the (B * n, 9) layout of `_stencil_data`.  `slots` picks the
    stored ones, in CSR order, from that layout flattened; entries coupling
    to Dirichlet nodes are dropped.  Periodic rows wrap around, so their
    columns are sorted here, once; on an axis of two cells two neighbours
    wrap onto one node, and `starts` (None when no row has such a pair)
    marks where each stored entry's run of picked slots begins.
    """
    d = np.arange(-1, 2, dtype=np.int32)
    n = _n_free(nx, ny, bc)
    if bc == "periodic":
        i = np.arange(nx, dtype=np.int32)[:, None, None, None] + d[:, None]
        j = np.arange(ny, dtype=np.int32)[None, :, None, None] + d
        cols = ((i % nx) * ny + j % ny).reshape(n, 9)
        order = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, order, axis=1)
        slots = (9 * np.arange(n)[:, None] + order).ravel()
        keep = np.ones((n, 9), dtype=bool)
        keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
        starts = None if keep.all() else np.flatnonzero(keep)
        indices, counts = cols[keep], keep.sum(axis=1)
    else:  # interior node (i, j) of the (nx-1) x (ny-1) free nodes, in row order
        m, k = nx - 1, ny - 1
        # the nine-point template less the neighbours beyond each edge
        keep = np.ones((m, k, 3, 3), dtype=bool)
        keep[0, :, 0] = keep[-1, :, 2] = keep[:, 0, :, 0] = keep[:, -1, :, 2] = False
        slots, starts = np.flatnonzero(keep), None
        template = (np.arange(n, dtype=np.int32)[:, None] + (k * d[:, None] + d).ravel()).ravel()
        indices = template[keep.ravel()]
        counts = np.multiply.outer(_neighbours(m), _neighbours(k)).ravel()
    if B > 1:  # block b's columns are offset by b * n, its slots by b * 9n
        b = np.arange(B)[:, None]
        indices = (indices + n * b).ravel()
        counts = np.tile(counts, B)
        if starts is not None:
            starts = (starts + slots.size * b).ravel()
        slots = (slots + 9 * n * b).ravel()
    indptr = np.zeros(B * n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indices.astype(np.int32, copy=False), indptr, slots, starts


def _neighbours(m: int) -> np.ndarray:
    """Nodes within one place of each of m nodes in a row: 3 inside, 2 at either end."""
    a = np.arange(m)
    return 3 - (a == 0) - (a == m - 1)


def _stencil_data(grids, bc: str, local: np.ndarray) -> np.ndarray:
    """Sum cell matrices into (B * n, 9) nine-point rows on the free dofs.

    `local` holds one 4x4 matrix per cell of every grid (B * ncells * 16
    values, grid- then cell-major).
    """
    B, nx, ny = len(grids), grids[0].nx, grids[0].ny
    local = local.reshape(B, nx, ny, 4, 4)
    stencil = np.zeros((B, nx + 1, ny + 1, 3, 3))  # grid, node, neighbour offset (dx + 1, dy + 1)
    for l, (ax, ay) in enumerate(_NODE_OFFSETS):
        for m, (bx, by) in enumerate(_NODE_OFFSETS):
            stencil[:, ax : ax + nx, ay : ay + ny, bx - ax + 1, by - ay + 1] += local[..., l, m]
    return _free_part(stencil, bc).reshape(-1, 9)


def _stencil_matrices(nx: int, ny: int, bc: str, B: int, rows) -> list:
    """Block-diagonal nine-point CSR matrices, one per array of nine-point rows.

    Each entry of `rows` is laid out like `_stencil_data`, (B * n, 9).  The
    matrices share one pattern, built once: their `indices` and `indptr`
    are the same memory, sorted and free of duplicates (so no in-place
    canonicalization ever rewrites them), and `K + s M` is a sum of data
    arrays (`_shifted`).
    """
    indices, indptr, slots, starts = _stencil_pattern(nx, ny, bc, B)
    size = B * _n_free(nx, ny, bc)
    out = []
    for r in rows:
        data = r.ravel()[slots]
        if starts is not None:
            data = np.add.reduceat(data, starts)
        out.append(sp.csr_matrix((data, indices, indptr), shape=(size, size)))
    return out


def _mass_1d(n: int, bc: str) -> sp.csr_matrix:
    """P1 mass matrix of n unit cells on the bc's free nodes."""
    i = np.arange(n)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])
    vals = np.repeat([1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0], n)
    if bc == "periodic":  # node n is node 0
        return sp.csr_matrix((vals, (rows % n, cols % n)), shape=(n, n))
    free = (rows % n > 0) & (cols % n > 0)  # drop the boundary nodes 0 and n
    return sp.csr_matrix((vals[free], (rows[free] - 1, cols[free] - 1)), shape=(n - 1, n - 1))


def _q1_mass_factors(grids, bc: str) -> tuple:
    """(w, Mx, My) of the Q1 mass diag(w) (x) Mx (x) My: P1 masses of unit cells, w = hx hy."""
    nx, ny = grids[0].nx, grids[0].ny
    Mx = _mass_1d(nx, bc)
    return np.array([g.hx * g.hy for g in grids]), Mx, Mx if ny == nx else _mass_1d(ny, bc)


def _offset_table(F: sp.spmatrix, bc: str) -> np.ndarray:
    """(n, 3) table of a tridiagonal (on periodic grids cyclic) 1-D matrix by offset.

    Entry [i, d + 1] is F[i, i + d].  On a periodic axis of two nodes both
    neighbours are one node; its entry sits at offset -1, and the nine-point
    pattern sums the two offsets (`_stencil_pattern`).
    """
    F = F.tocoo()
    d = F.col - F.row
    if bc == "periodic":
        d = (d + 1) % F.shape[0] - 1
    table = np.zeros((F.shape[0], 3))
    table[F.row, d + 1] = F.data
    return table


def _mass_rows(factors, bc: str) -> np.ndarray:
    """Nine-point rows (B * n, 9) of diag(w) (x) Mx (x) My, laid out like `_stencil_data`."""
    w, Mx, My = factors
    tx, ty = _offset_table(Mx, bc), _offset_table(My, bc)
    return (w[:, None] * (tx[:, None, :, None] * ty[:, None, :]).reshape(1, -1)).reshape(-1, 9)


def _q1_stiffness_local(grids, A_q: np.ndarray) -> np.ndarray:
    """(B, ncells, 16) cell stiffness matrices from A at the quadrature points, (B * ncells, 4, 2, 2)."""
    D = _physical_shape_gradients(grids)  # (z, g, i, a)
    # K_loc[z, c, i, j] = w_z sum_g dN_g[i] . A_g dN_g[j]: one matmul per grid over (g, a, b)
    basis = _quad_weights(grids)[:, None, None] * np.einsum("zgia,zgjb->zgabij", D, D).reshape(-1, 16, 16)
    return A_q.reshape(len(grids), -1, 16) @ basis


def _q1_loads(grids, bc: str, A_q: np.ndarray) -> np.ndarray:
    """(2, B * nfree) stacked loads -int grad(psi) . A e_x for x = 1, 2."""
    D = _physical_shape_gradients(grids)
    basis = -_quad_weights(grids)[:, None, None] * np.einsum("zgia,bx->zgabxi", D, np.eye(2)).reshape(-1, 16, 8)
    cell_loads = (A_q.reshape(len(grids), -1, 16) @ basis).reshape(len(grids), -1, 2, 4)
    return np.stack([_cell_sum(grids, bc, cell_loads[:, :, x]) for x in range(2)])


def _cells_per_period(grids, field: CoefficientField, bc: str) -> tuple:
    """(cx, cy): the cells one period of `field` spans on each axis of every grid of the batch.

    An axis gets c = period / h when that is the same whole number on every
    grid, to 1e-12 relative, and smaller than the grid's cell count n (on a
    periodic grid c must also divide n).  Any other axis, and every axis of
    a field without a period, gets n itself.
    """
    counts = (grids[0].nx, grids[0].ny)
    if field.period is None:
        return counts
    out = []
    for n, p, h in zip(counts, field.period, zip(*((g.hx, g.hy) for g in grids))):
        c = float(p) / np.array(h)
        whole = np.rint(c[0])
        tiles = 1 <= whole < n and np.all(np.abs(c - whole) <= 1e-12 * whole) and (bc != "periodic" or n % whole == 0)
        out.append(int(whole) if tiles else n)
    return tuple(out)


def _period_grids(grids, cells) -> tuple:
    """The first cx x cy cells of each grid: one period starting at its origin."""
    return tuple(dataclasses.replace(g, nx=cells[0], ny=cells[1]) for g in grids)


def _period_index(nx: int, ny: int, bc: str, cells) -> np.ndarray:
    """Node (i mod cx, j mod cy) of the cx x cy period torus for each free dof (i, j) of the grid.

    Under bc "periodic" these are also the grid's cells, so the same index
    gathers per-cell values.
    """
    cx, cy = cells
    lo = 0 if bc == "periodic" else 1
    mx, my = _free_extents(nx, ny, bc)
    return ((np.arange(lo, lo + mx) % cx)[:, None] * cy + np.arange(lo, lo + my) % cy).ravel()


def _tiled_loads(grids, bc: str, cells, A_p: np.ndarray) -> np.ndarray:
    """`_q1_loads` of the grids, summed on one period of each from A there, A_p (B * cx * cy, 4, 2, 2)."""
    loads = _q1_loads(_period_grids(grids, cells), "periodic", A_p).reshape(2, len(grids), -1)
    return loads[:, :, _period_index(grids[0].nx, grids[0].ny, bc, cells)].reshape(2, -1)


# ----------------------------------------------------------------------------
# multigrid


def _prolongation_1d(n: int, bc: str) -> sp.csr_matrix:
    """Linear interpolation from ceil(n/2) to n cells on the bc's free nodes.

    Coarse node i sits at fine node min(2i, n): on an odd n the last coarse
    cell is one fine cell wide.
    """
    nc, half = (n + 1) // 2, n // 2
    I = np.arange(half)
    rows = np.concatenate([2 * np.arange(nc), 2 * I + 1, 2 * I + 1, [n]])
    cols = np.concatenate([np.arange(nc), I, I + 1, [nc]])
    vals = np.concatenate([np.ones(nc), np.full(2 * half, 0.5), [1.0]])
    if bc == "periodic":  # node n is node 0, coarse node nc is coarse node 0
        keep = rows < n
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep] % nc)), shape=(n, nc))
    free = (rows % n > 0) & (cols % nc > 0)  # drop the boundary nodes
    return sp.csr_matrix((vals[free], (rows[free] - 1, cols[free] - 1)), shape=(n - 1, nc - 1))


def _hierarchy(nx: int, ny: int, bc: str) -> tuple:
    """Cell counts of the halving hierarchy, finest first, and its 1-D prolongations (Px, Py)."""
    shapes, prolongations = [(nx, ny)], []
    while min(nx, ny) >= 4 and _n_free(nx, ny, bc) * min(_free_extents(nx, ny, bc)) > BAND_ENTRIES:
        px = _prolongation_1d(nx, bc)
        prolongations.append((px, px if ny == nx else _prolongation_1d(ny, bc)))
        nx, ny = (nx + 1) // 2, (ny + 1) // 2
        shapes.append((nx, ny))
    return shapes, prolongations


def _block_diag(A: sp.csr_matrix, B: int) -> sp.csr_matrix:
    """I_B (x) A, by tiling A's CSR arrays."""
    if B == 1:
        return A
    b = np.arange(B)[:, None]
    indptr = np.append((A.indptr[:-1] + A.nnz * b).ravel(), B * A.nnz)
    indices = (A.indices + A.shape[1] * b).ravel()
    return sp.csr_matrix((np.tile(A.data, B), indices, indptr), shape=(B * A.shape[0], B * A.shape[1]))


def _on_pattern(A: sp.spmatrix, pattern: sp.csr_matrix) -> sp.csr_matrix:
    """A stored on `pattern`'s index arrays; every nonzero of A must be an entry of `pattern`.

    `pattern` is sorted and free of duplicates.  A matrix may hold fewer
    entries than the pattern (a Galerkin product drops the entries that
    cancel exactly; the lattice's identity mass sits on its five-point
    stiffness pattern); those are scattered into it, the rest are zeros.
    """
    A = A.tocsr()
    A.sum_duplicates()
    if np.array_equal(A.indptr, pattern.indptr) and np.array_equal(A.indices, pattern.indices):
        data = A.data
    else:
        A.eliminate_zeros()
        have, want = _entry_keys(pattern), _entry_keys(A)
        at = np.minimum(np.searchsorted(have, want), have.size - 1)
        if not np.array_equal(have[at], want):
            raise ValueError("the pattern does not hold every nonzero of the matrix")
        data = np.zeros(pattern.nnz)
        data[at] = A.data
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _entry_keys(A: sp.csr_matrix) -> np.ndarray:
    """row * ncols + column of every stored entry, in storage order."""
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    return rows * A.shape[1] + A.indices


def _shifted(K: sp.csr_matrix, M: sp.csr_matrix, s: float) -> sp.csr_matrix:
    """K + s M on K's index arrays, which M shares (`CorrectorOperator`)."""
    if s == 0.0:
        return K
    return sp.csr_matrix((K.data + s * M.data, K.indices, K.indptr), shape=K.shape)


def _pin(A: sp.csr_matrix) -> sp.csr_matrix:
    """Drop dof 0 (the pinned periodic node) from rows and columns."""
    return A[1:, 1:].tocsr()


def _fold(n: int) -> np.ndarray:
    """0, n-1, 1, n-2, ...: a cyclic axis in an order that keeps neighbours within two places."""
    out = np.empty(n, dtype=np.intp)
    out[0::2] = np.arange((n + 1) // 2)
    out[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return out


def _band_order(nx: int, ny: int, bc: str, blocks: int, pinned: bool = False) -> np.ndarray:
    """Dof numbering of a level (`order[i]` is the dof placed i-th) that keeps its band narrow.

    Each block runs along its longer free axis, the shorter one varying
    fastest, so a coupling spans at most about one short extent: the band
    of a thin grid stays thin.  Periodic axes are folded (`_fold`), so the
    wrap-around neighbours stay within two places too.
    """
    mx, my = _free_extents(nx, ny, bc)
    ix, iy = (_fold(mx), _fold(my)) if bc == "periodic" else (np.arange(mx), np.arange(my))
    dof = ix[:, None] * my + iy[None, :]  # natural numbering is x-major
    order = (dof if mx >= my else dof.T).ravel()
    if pinned:  # dof 0 is gone, the others move down by one
        order = order[order != 0] - 1
    n = order.size
    return (order + n * np.arange(blocks)[:, None]).ravel()


def _band_storage(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, height: int, n: int) -> np.ndarray:
    """(height, n) Fortran-ordered array with each data[i] added into [rows[i], cols[i]]: duplicates are summed."""
    return np.bincount(rows + height * cols, weights=data, minlength=height * n).reshape(n, height).T


class _BandFactor:
    """A sparse matrix factorized in LAPACK band storage.

    A symmetric matrix gets a band Cholesky of its upper band (pbtrf); one
    that is not positive definite raises `SolverError`, and no LU stands in
    for it.  Any other matrix gets a band LU with partial pivoting (gbtrf).
    `order` (None: the matrix's own numbering) places the dofs; kl and ku,
    the widest couplings below and above the diagonal in that numbering,
    set the storage, (ku + 1) x n for Cholesky and (2 kl + ku + 1) x n for
    LU, and the cost, about n ku^2 and n kl (kl + ku).  The band is filled
    straight from the CSR arrays, summing duplicate entries, and the
    caller's matrix is left as it is.
    """

    def __init__(self, A: sp.csr_matrix, symmetric: bool, order: Optional[np.ndarray] = None):
        n = A.shape[0]
        self.order = np.arange(n) if order is None else order
        place = np.empty(n, dtype=np.intp)
        place[self.order] = np.arange(n)
        cols = place[A.indices]
        d = cols - place[np.repeat(np.arange(n), np.diff(A.indptr))]
        self.kl, self.ku = int(max(0, -d.min(initial=0))), int(max(0, d.max(initial=0)))
        self.cholesky = bool(symmetric)
        if self.cholesky:
            upper = d >= 0
            ab = _band_storage(self.ku - d[upper], cols[upper], A.data[upper], self.ku + 1, n)
            self.factor, info = lapack.dpbtrf(ab, overwrite_ab=1)
            if info != 0:
                raise SolverError(
                    f"band Cholesky of the bottom level failed (pbtrf info {info}): "
                    "the symmetric matrix is singular or not positive definite"
                )
        else:
            height = 2 * self.kl + self.ku + 1
            ab = _band_storage(self.kl + self.ku - d, cols, A.data, height, n)
            self.factor, self.piv, info = lapack.dgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
            if info != 0:
                raise SolverError(f"band LU of the bottom level failed (gbtrf info {info}): singular matrix")

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.cholesky:
            y, info = lapack.dpbtrs(self.factor, b[self.order])
        else:
            y, info = lapack.dgbtrs(self.factor, self.kl, self.ku, b[self.order], self.piv)
        x = np.empty_like(y)
        x[self.order] = y
        return x


class _Multigrid:
    """Symmetric V-cycle on levels A_0 (finest) ... A_L, used as M^{-1}.

    One damped-Jacobi sweep before and one after each coarse correction,
    restriction by the given R_l = P_l^T; the bottom level is factorized
    outright (`_BandFactor`: band Cholesky when `symmetric`, band LU
    otherwise) in the dof numbering `order`, which the operator picks from
    the level's grid (`_band_order`).  Symmetric levels give a symmetric
    preconditioner.  A single level is a direct solve.
    """

    def __init__(self, levels, symmetric: bool, prolongations=(), restrictions=(), order=None):
        self.levels = levels
        self.P, self.R = prolongations, restrictions
        self.dinv = [_JACOBI_WEIGHT / A.diagonal() for A in levels[:-1]]
        self.bottom = _BandFactor(levels[-1], symmetric, order)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, np.ravel(r))

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.levels) - 1:
            return self.bottom.solve(r)
        A, dinv = self.levels[level], self.dinv[level]
        # residuals are formed in place: each thread running a cycle holds at
        # most two vectors of a level besides r
        x = dinv * r
        t = A @ x
        coarse = self.R[level] @ np.subtract(r, t, out=t)
        del t
        x += self.P[level] @ self._cycle(level + 1, coarse)
        t = A @ x
        np.subtract(r, t, out=t)
        t *= dinv
        x += t
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

    Holds the stiffness K, the mass M on K's index arrays and the 1-D
    factors of M, `mass_factors` = (w, Mx, My) with M = diag(w) (x) Mx (x)
    My, one weight per grid: P1 masses for Q1 (`from_field`), identities
    for the lattice.  Also the loads b_i for xi = e_i (rhs for any xi is
    xi . b), the prolongations I_B (x) Px (x) Py and their transposes (the
    restrictions) and, once a system is requested, the coarse levels: the
    Galerkin stiffness P^T K P and the mass from the 1-D Galerkin factors,
    sharing the coarse grid's nine-point pattern.  A grid whose blocks are
    cheap to factor (`BAND_ENTRIES`) has no coarse levels and builds none of
    these pieces.  `A_q` is the coefficient at the quadrature points,
    (B * ncells, 4, 2, 2), when the operator was built from a field.  The
    operator keeps no shifted matrices: each call of `systems` builds one
    shift's hierarchy, shared by the systems it returns, on a band
    factorization of its bottom level (Cholesky when the field is
    symmetric).
    """

    def __init__(self, grids, bc, stiffness, mass, mass_factors, loads, symmetric, A_q=None):
        _check_bc(bc)
        self.grids, self.bc = _batch(grids), bc
        self.grid = self.grids[0] if len(self.grids) == 1 else None
        if not (np.array_equal(stiffness.indptr, mass.indptr) and np.array_equal(stiffness.indices, mass.indices)):
            raise ValueError("K and M must share one sparsity pattern")
        self.K, self.M, self.mass_factors = stiffness, mass, mass_factors
        self.loads = loads
        self.symmetric = bool(symmetric)
        self.A_q = A_q
        self._cells = (self.grids[0].nx, self.grids[0].ny)  # the cells over which A_q repeats
        B = len(self.grids)
        self.shapes, self._prolongations_1d = _hierarchy(self.grids[0].nx, self.grids[0].ny, bc)
        P = [sp.kron(px, py, format="csr") for px, py in self._prolongations_1d]
        self.prolongations = [_block_diag(p, B) for p in P]
        self.restrictions = [_block_diag(p.T.tocsr(), B) for p in P]
        self._coarse = None  # [(K_l, M_l)] below the finest, on shared patterns

    @classmethod
    def from_field(cls, grids, field: CoefficientField, bc: str = "dirichlet0"):
        """Evaluate `field` on one period of Gauss points per grid, and assemble.

        When the field's period spans a whole number of cells (cx, cy) of
        every grid of the batch (`_cells_per_period`), A is evaluated only
        on the first cx x cy cells of each grid.  Their cell stiffnesses and
        loads are summed as a torus, and every free dof (i, j) takes the
        nine-point row and load of torus node (i mod cx, j mod cy), every
        cell the A of its period cell.  Otherwise the period is the grid
        itself, and this gather reproduces the direct sum bitwise.  Raises
        ValueError when A is NaN or inf at any point evaluated.
        """
        grids = _batch(grids)
        B, nx, ny = len(grids), grids[0].nx, grids[0].ny
        cells = _cells_per_period(grids, field, bc)
        period = _period_grids(grids, cells)
        points = period[0].quad_points() if B == 1 else np.concatenate([g.quad_points() for g in period])
        A_p = field(points).reshape(-1, 4, 2, 2)
        finite = np.isfinite(A_p).all(axis=(-1, -2)).ravel()
        if not finite.all():
            raise ValueError(f"field {field.name!r} is NaN or inf at the Gauss point {tuple(points[np.argmin(finite)])}")
        factors = _q1_mass_factors(grids, bc)
        rows = _stencil_data(period, "periodic", _q1_stiffness_local(period, A_p)).reshape(B, -1, 9)
        K, M = _stencil_matrices(
            nx, ny, bc, B, [rows[:, _period_index(nx, ny, bc, cells)], _mass_rows(factors, bc)]
        )
        A_q = A_p.reshape(B, -1, 4, 2, 2)[:, _period_index(nx, ny, "periodic", cells)].reshape(-1, 4, 2, 2)
        op = cls(grids, bc, K, M, factors, _tiled_loads(grids, bc, cells, A_p), field.is_symmetric, A_q=A_q)
        op._cells = cells
        return op

    def _coarse_levels(self) -> list:
        """(K_l, M_l) below the finest: Galerkin K, and M from the 1-D Galerkin factors."""
        w, Mx, My = self.mass_factors
        K, out = self.K, []
        levels = zip(self.shapes[1:], self._prolongations_1d, self.prolongations, self.restrictions)
        for (nx, ny), (px, py), P, R in levels:
            square = py is px and My is Mx  # one 1-D product serves both axes
            Mx = px.T @ Mx @ px
            My = Mx if square else py.T @ My @ py
            (M,) = _stencil_matrices(nx, ny, self.bc, len(self.grids), [_mass_rows((w, Mx, My), self.bc)])
            K = _on_pattern(R @ K @ P, M)
            out.append((K, M))
        return out

    def transpose(self) -> "CorrectorOperator":
        """The operator of the transpose field A^T (dual correctors).

        Shares the mass, the prolongations and the coarse mass matrices.
        """
        if self.symmetric:
            return self
        t = copy.copy(self)
        t.A_q = np.swapaxes(self.A_q, -1, -2)
        t.K = _on_pattern(self.K.T, self.M)
        (cx, cy), B = self._cells, len(self.grids)
        A_p = t.A_q.reshape(B, self.grids[0].nx, self.grids[0].ny, 4, 2, 2)[:, :cx, :cy]
        t.loads = _tiled_loads(self.grids, self.bc, self._cells, A_p.reshape(-1, 4, 2, 2))
        if self._coarse is not None:
            t._coarse = [(_on_pattern(Kc.T, Mc), Mc) for Kc, Mc in self._coarse]
        return t

    def split(self, values: np.ndarray) -> list:
        """One DofVector per grid, each a view into the stacked `values`."""
        return [DofVector(v, g, self.bc) for g, v in zip(self.grids, values.reshape(len(self.grids), -1))]

    def rhs(self, xi) -> np.ndarray:
        """-int grad(psi) . A xi on the free dofs."""
        xi = np.asarray(xi, dtype=float)
        return xi[0] * self.loads[0] + xi[1] * self.loads[1]

    def source_load(self, f) -> np.ndarray:
        """int f psi on the free dofs, for f a callable on points, by 2x2 Gauss quadrature."""
        N = np.stack([_shape_values(*gp)[0] for gp in GAUSS_POINTS])  # (gauss point, local node)
        fq = np.stack([np.asarray(f(g.quad_points()), dtype=float).reshape(-1, 4) for g in self.grids])
        return _cell_sum(self.grids, self.bc, _quad_weights(self.grids)[:, None, None] * fq @ N)

    def matrix(self, inv_T: float) -> sp.csr_matrix:
        """K + inv_T M on the free dofs."""
        return _shifted(self.K, self.M, inv_T)

    def systems(self, inv_T: float, rhs_list) -> list:
        """Systems (K + inv_T M) x = b for each b, sharing one hierarchy.

        A periodic operator without shift pins free dof 0 (the constant null
        space) and leaves it out of the right-hand sides; `solve` puts it
        back as zero.
        """
        if inv_T < 0:
            raise ValueError("inv_T must be nonnegative")
        pinned = self.bc == "periodic" and inv_T == 0.0
        if pinned and self.grid is None:
            raise ValueError("a batch of periodic grids needs a positive shift (no pinning)")
        if self._coarse is None:
            self._coarse = self._coarse_levels()
        levels = [self.matrix(inv_T)] + [_shifted(Kc, Mc, inv_T) for Kc, Mc in self._coarse]
        P, R = self.prolongations, self.restrictions
        if pinned:
            levels, P, R = ([_pin(A) for A in mats] for mats in (levels, P, R))
        order = _band_order(*self.shapes[-1], self.bc, len(self.grids), pinned)
        mg = _Multigrid(levels, self.symmetric, P, R, order)
        return [
            SparseSystem(
                matrix=levels[0], rhs=b[1:] if pinned else b, symmetric=self.symmetric,
                grid=self.grid, bc=self.bc, pinned=pinned, multigrid=mg, blocks=len(self.grids),
            )
            for b in rhs_list
        ]

    def system(self, inv_T: float, rhs: np.ndarray) -> SparseSystem:
        return self.systems(inv_T, [rhs])[0]


def solve(
    system: SparseSystem,
    rel_tol: float = 1e-10,
    max_iter: int = 50000,
    x0: Optional[np.ndarray] = None,
) -> DofVector:
    """Krylov solve to ||b - A x|| <= rel_tol ||b||.

    CG when the system is flagged symmetric, BiCGStab otherwise, both
    preconditioned by the system's multigrid V-cycle (one level when it has
    none).  A single level is a direct band solve, so the Krylov method
    stops after one iteration.  A zero right-hand side short-circuits to
    the zero vector; one whose norm is NaN or inf raises ValueError.

    A pinned system (periodic, no shift) leaves free dof 0 out of its
    matrix and right-hand side; the result puts it back as zero, so it
    covers every free dof, and a warm start `x0` does too.

    A system of several blocks is solved equilibrated: each block's
    right-hand side and warm start are scaled to unit norm (the blocks do
    not couple, so this scales each block's solution alike), and one Krylov
    call runs to absolute residual rel_tol.  Every block then meets
    ||r_i|| <= rel_tol ||b_i||, so loads of very different size are all
    solved to the same relative accuracy, and the stacked system meets
    rel_tol too.  A block with a zero right-hand side returns zero.

    Raises SolverError carrying the achieved relative residual (of the
    worst block) on non-convergence.

    Safe to call from several threads at once on systems that share one
    hierarchy (the systems of one `CorrectorOperator.systems` call): the
    V-cycle and the band factor are only read, and every solve keeps its
    vectors to itself.
    """
    if not (0.0 < rel_tol <= 1e-4):
        raise ValueError("rel_tol must lie in (0, 1e-4]")
    b, blocks, pin = system.rhs, system.blocks, int(system.pinned)
    bnorms = np.linalg.norm(b.reshape(blocks, -1), axis=1)
    finite = np.isfinite(bnorms)
    if not finite.all():
        where = f" on block {np.argmin(finite)} of {blocks}" if blocks > 1 else ""
        raise ValueError(f"the norm of the right-hand side is NaN or inf{where}")
    if not bnorms.any():
        return DofVector(np.zeros(pin + b.size), system.grid, system.bc)
    if x0 is not None:
        x0 = x0[pin:]
    A = system.matrix
    mg = system.multigrid if system.multigrid is not None else _Multigrid([A], system.symmetric)
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
        r = A @ x
        rnorms = np.linalg.norm(np.subtract(b, r, out=r).reshape(blocks, -1), axis=1)
        res = np.divide(rnorms, ref, out=np.zeros_like(rnorms), where=ref > 0)
        if res.max() <= rel_tol:
            if blocks > 1:
                x = _blockwise(x, bnorms)
            if pin:
                x = np.concatenate([[0.0], x])
            return DofVector(x, system.grid, system.bc)
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


def _cell_corners(nodal: np.ndarray, cells=None) -> list:
    """Values of B nodal arrays (B, nx+1, ny+1) at the cells' corners: one (B, ncells) array per local node.

    `cells`, a pair of slices with explicit bounds, of cell indices along x
    and y, gathers only that block of cells.
    """
    B, nx, ny = nodal.shape[0], nodal.shape[1] - 1, nodal.shape[2] - 1
    sx, sy = cells if cells is not None else (slice(0, nx), slice(0, ny))
    return [
        nodal[:, sx.start + ax : sx.stop + ax, sy.start + ay : sy.stop + ay].reshape(B, -1) for ax, ay in _NODE_OFFSETS
    ]


def values_at_quad(u: DofVector) -> np.ndarray:
    """Values of the Q1 interpolant at all 2x2 Gauss points.

    Returns a (4 * ncells,) array ordered like `grid.quad_points()`.
    """
    N = np.stack([_shape_values(*gp)[0] for gp in GAUSS_POINTS], axis=1)  # (local node, gp)
    return (np.stack(_cell_corners(u.nodal()[None]), axis=-1)[0] @ N).ravel()


def gradient_field(u: DofVector, cells=None) -> np.ndarray:
    """Gradient of the Q1 interpolant at all 2x2 Gauss points.

    Returns a (4 * ncells, 2) array ordered like `grid.quad_points()`.
    `cells`, a pair of slices with explicit bounds, of cell indices along x
    and y, restricts it to that block of cells, in the same order: the result equals the
    matching rows of the full gradient bitwise, because every entry is the
    same elementwise sum over the cell's four corners.
    """
    return _gradients(u.values[None], (u.grid,), u.bc, cells)[0].T


def _gradients(values: np.ndarray, grids, bc: str, cells=None) -> np.ndarray:
    """`gradient_field` of B stacked free-dof vectors (B, nfree) on grids of one shape, axis first.

    Returns (B, 2, 4 * ncells): entry [b, a, p] is component a at point p
    of grid b, the same sum as `gradient_field` on that grid alone.
    """
    corners = _cell_corners(_nodal(values, grids[0].nx, grids[0].ny, bc), cells)
    D = _physical_shape_gradients(grids)  # (grid, gauss point, local node, axis)
    out = np.empty((len(grids), 2, corners[0].shape[1], 4))
    for g in range(4):
        for a in range(2):
            out[:, a, :, g] = sum(corners[l] * D[:, g, l, a, None] for l in range(4))
    return out.reshape(len(grids), 2, -1)


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
