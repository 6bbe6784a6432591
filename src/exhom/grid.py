"""Structured-grid Q1 finite elements for T^{-1} u - div(A (xi + grad u)) = f.

Uniform tensor-product grids on axis-aligned rectangles, bilinear (Q1)
elements, 2x2 Gauss quadrature per cell, coefficient evaluated pointwise at
the quadrature points.  Boundary treatments: homogeneous Dirichlet or
periodic.  A `DofVector` always holds a value on every free dof of its grid.

A `CorrectorOperator` is built once per (field, grid, bc).  It evaluates A
at the quadrature points of one period of the field: the first cx x cy
cells from the grid's origin when the period spans a whole number of cells,
fewer than the grid has, else the whole grid.  A lives on that period only
(`A_p`, read by cell (i, j) at (i mod cx, j mod cy)); nothing holds it per
cell of the grid.  Summing the cell stiffnesses and the loads
-int grad(psi) . A e_i over the period as a torus gives the stiffness as a
stencil table (B, cx, cy, 3, 3), each torus node's couplings to its
neighbour offsets, read by free dof (i, j) at node (i mod cx, j mod cy).
The mass M = diag(w) (x) Mx (x) My, for Q1 the 1-D P1 masses of unit cells
with w = hx hy and for the lattice identities with w = 1, is held as 1-D
tables on the same torus.  Every matrix of a level (K, M, a shift K + s M)
is written from its table in diagonal (DIA) storage, one diagonal per
neighbour offset, so it holds no index per entry, and a dyadic ladder in T
re-assembles nothing but the shifted table's diagonals.  The restrictions
are CSR with int32 indices; a batch that would need larger indices is
refused (`_check_int32`).

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
systems, BiCGStab otherwise (`_cg`, `_bicgstab`, written here and updating
their vectors in place), preconditioned by a geometric multigrid
V-cycle whose bottom level is factorized outright.  The hierarchy halves the
grid (bilinear prolongation P = Px (x) Py, wrapping around on periodic
grids) while both cell counts are at least 4 and one block of the level
would hold more than `BAND_ENTRIES` band-factor entries (free dofs times the
shorter free extent); an odd count n halves to ceil(n/2), the last coarse
cell one fine cell wide.  A block that is cheap to factor, such as an HMM
patch, is therefore not halved at all: its system is one level, solved
directly, and the Krylov method stops after one iteration.  A coarse level
is the Galerkin product P^T K P taken on the tables one axis at a time
(`_galerkin_axis`), the coarse mass that of the 1-D mass tables: no sparse
product is formed, and a periodic field's coarse tables stay one (halved)
period.  The restrictions P^T are written from the 1-D prolongations.  Each
level above the bottom smooths with damped Jacobi.  The bottom is factorized
in LAPACK band storage, a band Cholesky (pbtrf) when the system is symmetric
and a band LU (gbtrf) otherwise, its dofs numbered along the grid's longer
axis so that the band is the shorter free extent of a block: no large grid
is ever factorized whole.  A system without a hierarchy is a single level,
factorized in its own numbering.  A batch halves alike in every block, so
its prolongations are I_B (x) P and every level stays block-diagonal.  The
solve of a batched system is equilibrated, so each block meets the
tolerance relative to its own right-hand side (see `solve`).

A periodic system without shift is singular (constants solve it); `solve`
pins its first free dof to zero internally and still returns every free
dof, so callers that want the zero-mean representative subtract the mean.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
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

    `matrix` is any scipy sparse matrix; an operator's systems hold it in
    DIA storage, and pinned ones in CSR.  `multigrid` is the preconditioner
    hierarchy; a system without one (or without a grid) is solved as a
    single level.  A system of `blocks` > 1 is block-diagonal with equal
    blocks (a batch of grids, `grid` None), and `solve` meets its tolerance
    on every block.
    """

    matrix: sp.spmatrix
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


_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_int32(n: int) -> None:
    """Raise ValueError when index n does not fit the int32 index arrays."""
    if n > _INT32_MAX:
        raise ValueError(f"index {n} exceeds the int32 range of the index arrays: split the batch into smaller ones")


def _runs(m: int) -> list:
    """(start, stop) of the runs first node, inner nodes, last node of m nodes in a row."""
    c = sorted({0, min(1, m), max(m - 1, 0), m})
    return [r for r in zip(c, c[1:]) if r[0] < r[1]]


def _runs_csr(mx: int, my: int, row, shift, dtypes, B: int, steps) -> tuple:
    """CSR arrays (indptr, arrays) of I_B (x) A for A whose rows (i, j), x-major, come in runs (`_runs`) per axis.

    `row(x0, y0, y1)` gives, per array, the entries of rows (x0, j), j in
    y0..y1-1, as one (y1 - y0, c) array; row (i, j) of an x run is row
    (x0, j) plus shift(x0, x1)[a][i - x0] on array a, and block b adds
    steps[a] * b.  So each x run fills its block of the arrays in one sum,
    with no pass over the rows and no sort.  Block b's entries lie in
    [b steps[a], (b + 1) steps[a]), so every index fits int32 when B times
    the largest step and the entry count do.
    """
    parts = [(x0, x1, [row(x0, y0, y1) for y0, y1 in _runs(my)]) for x0, x1 in _runs(mx)]
    counts = np.empty((mx, my), dtype=np.int32)  # entries per row of one block
    for x0, x1, p in parts:
        for (y0, y1), q in zip(_runs(my), p):
            counts[x0:x1, y0:y1] = q[0].shape[1]
    _check_int32(max(B * max(steps) - 1, B * int(counts.sum(dtype=np.int64))))
    indptr = np.zeros(B * counts.size + 1, dtype=np.int32)
    np.cumsum(np.tile(counts.ravel(), B), out=indptr[1:])
    nnz = indptr[mx * my]
    out = [np.empty((B, nnz), dtype=dt) for dt in dtypes]
    for x0, x1, p in parts:
        block = slice(indptr[x0 * my], indptr[x1 * my])
        for a, s, q in zip(out, shift(x0, x1), zip(*p)):
            np.add(s[:, None], np.concatenate([t.ravel() for t in q]), out=a[0, block].reshape(x1 - x0, -1))
    for a, step in zip(out, steps):
        a[1:] = a[0] + step * np.arange(1, B, dtype=np.int32)[:, None]
    return indptr, [a.ravel() for a in out]


def _neighbour_runs(m: int, periodic: bool) -> list:
    """(d, start, stop, shift): free nodes start..stop-1 of an m-node axis meet their neighbour at d at node + shift.

    A periodic axis wraps: its last node's neighbour at +1 is node 0, and
    its first node's at -1 node m - 1.  On a periodic axis of two cells both
    neighbours are one node, stored at offset -1 (`_Level.matrix` folds +1
    onto it).
    """
    out = []
    for d in (-1, 0) if periodic and m == 2 else (-1, 0, 1):
        out.append((d, max(0, -d), m - max(0, d), d))
        if periodic and d:
            out.append((d, m - 1, m, d - m) if d > 0 else (d, 0, 1, d + m))
    return [r for r in out if r[1] < r[2]]


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


#: The P1 mass of unit cells at a node, by neighbour offset -1, 0, 1.
_UNIT_MASS = np.array([1.0, 4.0, 1.0]) / 6.0
#: A coarse node's prolongation weights at the fine offsets -1, 0, 1 from its own fine node.
_WEIGHTS = (0.5, 1.0, 0.5)


def _galerkin_axis(T: np.ndarray, axis: int, n: int, periodic: bool, stride: int) -> np.ndarray:
    """P^T K P along one grid axis of n cells, in offset form, on a table T.

    T's `axis` is the node on the grid axis (free node i reads entry i mod
    t); its last axis holds the offsets, this axis's being digit (k //
    stride) % 3 of entry k.  Coarse node I sits at fine node 2I and spreads
    onto fine nodes 2I + a with weights w_I(a), so Kc[I, D] = sum over a, b
    of w_I(a) w_{I+D}(b) K[2I + a, 2D + b - a], 13 pairs with |2D + b - a|
    <= 1.  On an even n every free coarse node weighs (1/2, 1, 1/2), and the
    coarse period is t/2 (t even) or t.  On an odd n the table spans the
    axis, period (n + 1) / 2, and coarse node nc - 1 (fine node n - 1)
    spreads no further: on a Dirichlet axis fine node n is a boundary node,
    and what a table holds for boundary nodes never counts; on a periodic
    one the wrap-around cell, from coarse node nc - 1 to 0, is one fine cell
    wide, so neither spreads across it and their coupling is the fine one.
    """
    t, nc, L = T.shape[axis], (n + 1) // 2, T.shape[-1]
    tc = (t // 2 if t % 2 == 0 else t) if n % 2 == 0 else nc
    w = np.tile(_WEIGHTS, (tc, 1))
    if n % 2 == 1:
        w[-1, 2] = w[0, 0] = 0.0
    I = np.arange(tc)
    rows = (2 * I[:, None] + np.arange(-1, 2)) % t
    out, E = np.zeros(T.shape[:axis] + (tc,) + T.shape[axis + 1 :]), np.eye(L // 3)
    for a in (-1, 0, 1):
        C = np.zeros((tc, 3, 3))  # [I, fine offset d + 1, coarse offset D + 1]
        for D, b in itertools.product((-1, 0, 1), repeat=2):
            if abs(2 * D + b - a) <= 1:
                C[:, 2 * D + b - a + 1, D + 1] = w[:, a + 1] * w[(I + D) % tc, b + 1]
        # G[I, k, l]: the weight of entry k of fine node 2I + a in entry l of coarse node I
        G = C[:, None, :, None, :] * E[:, None, :, None] if stride == 1 else C[:, :, None, :, None] * E[:, None, :]
        Xa = np.take(T, rows[:, a + 1], axis=axis)
        if n % 2 == 0:
            out += Xa @ G[0].reshape(L, L)
        else:
            out += np.moveaxis(np.einsum("...ik,ikl->...il", np.moveaxis(Xa, axis, -2), G.reshape(tc, L, L)), -2, axis)
    if n % 2 == 1 and periodic:
        o, Tm = np.moveaxis(out, axis, 0), np.moveaxis(T, axis, 0)
        for i, d in ((-1, 1), (0, -1)):
            k = np.arange(L) // stride % 3 == d + 1
            o[i][..., k] = Tm[rows[i, 1]][..., k]
    return out


def _reflect(K: np.ndarray) -> np.ndarray:
    """The table of K^T: entry (dx, dy) of node (r, s) is K's entry (-dx, -dy) of node (r + dx, s + dy)."""
    out = np.empty_like(K)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            out[..., dx + 1, dy + 1] = np.roll(K[..., 1 - dx, 1 - dy], (-dx, -dy), axis=(1, 2))
    return out


class _Level:
    """One grid of the hierarchy: K and M as stencil tables, from which each of its matrices is written by diagonal.

    `K` is a (B, tx, ty, 3, 3) table: per block and node (r, s) of a tx x ty
    torus, the couplings to the neighbour offsets (dx, dy); free dof (i, j)
    reads node (i mod tx, j mod ty), as `_period_index` numbers them.
    `mass` = (w, mx, my) gives M = diag(w) (x) mx (x) my from 1-D tables on
    the same torus, and `M` is its table.  K, M, K + s M and K^T
    (`transposed`) are each written from their table by `matrix`; the level
    holds no index array.
    """

    def __init__(self, shape, bc: str, K: np.ndarray, mass):
        self.shape, self.bc, self.K, self.mass = shape, bc, K, mass
        w, mx, my = mass
        self.M = w[:, None, None, None, None] * (mx[:, None, :, None] * my[None, :, None, :])

    def coarse(self) -> "_Level":
        p, (w, mx, my) = self.bc == "periodic", self.mass
        mass = (w, *(_galerkin_axis(m, 0, n, p, 1) for m, n in zip((mx, my), self.shape)))
        K = _galerkin_axis(self.K.reshape(self.K.shape[:3] + (9,)), 1, self.shape[0], p, 3)  # x, then y
        K = _galerkin_axis(K, 2, self.shape[1], p, 1)
        return _Level(tuple((n + 1) // 2 for n in self.shape), self.bc, K.reshape(K.shape[:3] + (3, 3)), mass)

    def transposed(self) -> "_Level":
        t = copy.copy(self)
        t.K = _reflect(self.K)
        return t

    def matrix(self, table: np.ndarray) -> sp.dia_matrix:
        """The level's matrix of a table laid out like K, in DIA storage.

        Free dof (i, j) meets its neighbour at offset (dx, dy) on diagonal
        dx my + dy, my the free extent along y, or, where a periodic axis
        wraps, on a wrap diagonal (`_neighbour_runs`); offsets that never
        meet on one row share a diagonal.  Only the offsets nonzero
        somewhere in the table are stored, in increasing order, so that a
        product sums each row in the order of its columns, as CSR does.
        Each diagonal is a slice of the table tiled over the free dofs by
        one `take` per axis.
        """
        periodic = self.bc == "periodic"
        for axis, n in zip((-2, -1), self.shape):
            if periodic and n == 2:  # offset +1 reaches the node that -1 does
                table = np.concatenate([table.take([0], axis) + table.take([2], axis), table.take([1, 2], axis)], axis)
        B, tx, ty = table.shape[:3]
        mx, my = _free_extents(*self.shape, self.bc)
        lo = 0 if periodic else 1
        ix, iy = (lo + np.arange(mx)) % tx, (lo + np.arange(my)) % ty
        used = table.reshape(-1, 9).any(axis=0).reshape(3, 3)
        runs = [(rx, ry) for rx, ry in itertools.product(_neighbour_runs(mx, periodic), _neighbour_runs(my, periodic))
                if used[rx[0] + 1, ry[0] + 1]]
        offsets = sorted({rx[3] * my + ry[3] for rx, ry in runs})
        data = np.zeros((len(offsets), B, mx, my))
        for (dx, x0, x1, sx), (dy, y0, y1, sy) in runs:
            # DIA stores entry (row, row + k) of diagonal k at column row + k
            values = np.take(table[..., dx + 1, dy + 1], ix[x0:x1], axis=1)
            diagonal = data[offsets.index(sx * my + sy)]
            diagonal[:, x0 + sx : x1 + sx, y0 + sy : y1 + sy] = np.take(values, iy[y0:y1], axis=2)
        n = B * mx * my
        return sp.dia_matrix((data.reshape(len(offsets), n), offsets), shape=(n, n))


def _q1_stiffness_local(grids, A_q: np.ndarray) -> np.ndarray:
    """(B, ncells, 16) cell stiffness matrices from A at the quadrature points, B * ncells * 16 values."""
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


def _tiled_loads(grids, bc: str, A_p: np.ndarray) -> np.ndarray:
    """`_q1_loads` of the grids, summed on one period of each from A there, A_p (B, cx, cy, 4, 2, 2)."""
    cells = A_p.shape[1:3]
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
    while min(nx, ny) >= 4 and math.prod(e := _free_extents(nx, ny, bc)) * min(e) > BAND_ENTRIES:
        px = _prolongation_1d(nx, bc)
        prolongations.append((px, px if ny == nx else _prolongation_1d(ny, bc)))
        nx, ny = (nx + 1) // 2, (ny + 1) // 2
        shapes.append((nx, ny))
    return shapes, prolongations


def _restriction(px: sp.csr_matrix, py: sp.csr_matrix, B: int) -> sp.csr_matrix:
    """I_B (x) Px^T (x) Py^T in CSR, from the 1-D prolongations (`_runs_csr`: inner rows shift by two fine nodes)."""
    rx, ry = (p.T.tocsr() for p in (px, py))
    (mx, nfx), (my, nfy) = rx.shape, ry.shape

    def row(x0, y0, y1):
        s = slice(rx.indptr[x0], rx.indptr[x0 + 1])
        cy, vy = (a[ry.indptr[y0] : ry.indptr[y1]].reshape(y1 - y0, 1, -1) for a in (ry.indices, ry.data))
        cols = (rx.indices[s, None] * nfy + cy).astype(np.int32)
        return cols.reshape(y1 - y0, -1), (rx.data[s, None] * vy).reshape(y1 - y0, -1)

    shift = lambda x0, x1: (np.arange(x1 - x0, dtype=np.int32) * (2 * nfy), np.zeros(x1 - x0))
    indptr, (indices, data) = _runs_csr(mx, my, row, shift, (np.int32, float), B, (nfx * nfy, 0))
    return sp.csr_matrix((data, indices, indptr), shape=(B * mx * my, B * nfx * nfy))


def _pin(A: sp.spmatrix) -> sp.csr_matrix:
    """Drop dof 0 (the pinned periodic node) from rows and columns, in CSR."""
    return A.tocsr()[1:, 1:].tocsr()


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
    from the matrix's entries (`tocoo`), summing duplicate entries, and the
    caller's matrix is left as it is.
    """

    def __init__(self, A: sp.spmatrix, symmetric: bool, order: Optional[np.ndarray] = None):
        n = A.shape[0]
        self.order = np.arange(n) if order is None else order
        place = np.empty(n, dtype=np.intp)
        place[self.order] = np.arange(n)
        A = A.tocoo()
        cols = place[A.col]
        d = cols - place[A.row]
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

    One damped-Jacobi sweep (on the given `diagonals` of the levels above
    the bottom) before and one after each coarse correction, restriction by
    the given R_l = P_l^T; the bottom level is factorized outright
    (`_BandFactor`: band Cholesky when `symmetric`, band LU otherwise) in
    the dof numbering `order`, which the operator picks from the level's
    grid (`_band_order`).  Symmetric levels give a symmetric
    preconditioner.  A single level is a direct solve.
    """

    def __init__(self, levels, symmetric: bool, prolongations=(), restrictions=(), order=None, diagonals=()):
        self.levels = levels
        self.P, self.R = prolongations, restrictions
        self.dinv = [_JACOBI_WEIGHT / d for d in diagonals]
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

    `levels` holds the hierarchy as `_Level`s, the finest built from the
    table `stiffness` (B, tx, ty, 3, 3) and `mass` = (w, mx, my), M =
    diag(w) (x) mx (x) my: P1 masses of unit cells for Q1 (`from_field`),
    identities for the lattice; the coarse ones are built when a system is
    first requested.  `K` and `M` are the finest level's matrices, written
    in DIA storage on each access, as are the matrices of every system.
    Also held: the loads b_i for xi = e_i (rhs for any xi is xi . b), the
    restrictions I_B (x) Px^T (x) Py^T (CSR, int32 indices) and their
    transposes, and, when built
    from a field, `A_p`: the coefficient at the quadrature points of one
    period (B, cx, cy, 4, 2, 2), which cell (i, j) of every grid reads at
    (i mod cx, j mod cy); a field without a period, or one whose period does
    not tile the grid, has the whole grid as its period.  No array with an
    entry per Gauss point of the grid, and no index array per matrix
    entry, is kept.  Each call of `systems` builds one shift's hierarchy,
    shared by the systems it returns: the levels' matrices, their Jacobi
    diagonals (each matrix's offset-0 diagonal) and a band factorization
    of the bottom level (Cholesky when the field is symmetric).
    """

    def __init__(self, grids, bc, stiffness, mass, loads, symmetric, A_p=None):
        _check_bc(bc)
        self.grids, self.bc = _batch(grids), bc
        self.grid = self.grids[0] if len(self.grids) == 1 else None
        nx, ny = self.grids[0].nx, self.grids[0].ny
        self.levels = [_Level((nx, ny), bc, stiffness, mass)]
        self.loads = loads
        self.symmetric = bool(symmetric)
        self.A_p = A_p
        B = len(self.grids)
        self.shapes, prolongations_1d = _hierarchy(nx, ny, bc)
        self.restrictions = [_restriction(px, py, B) for px, py in prolongations_1d]
        self.prolongations = [R.T for R in self.restrictions]  # CSC views, whose product beats CSR's here

    @classmethod
    def from_field(cls, grids, field: CoefficientField, bc: str = "dirichlet0"):
        """Evaluate `field` on one period of Gauss points per grid, and assemble.

        When the field's period spans a whole number of cells (cx, cy) of
        every grid of the batch (`_cells_per_period`), A is evaluated only
        on the first cx x cy cells of each grid, whose cell stiffnesses and
        loads, summed as a torus, give the finest level's table and every
        free dof's load; otherwise the period is the grid itself, and this
        reproduces the direct sum bitwise.  The operator keeps A there as
        `A_p`.  Raises ValueError, naming the field and a Gauss point, where
        A is NaN or inf, is not symmetric (to `np.isclose`) though the field
        is flagged so, or has a symmetric part that is not positive definite.
        """
        grids = _batch(grids)
        B = len(grids)
        cells = _cells_per_period(grids, field, bc)
        period = _period_grids(grids, cells)
        points = period[0].quad_points() if B == 1 else np.concatenate([g.quad_points() for g in period])
        A_p = field(points).reshape(B, *cells, 4, 2, 2)
        _check_coefficient(field, A_p.reshape(-1, 2, 2), points)
        K = _stencil_data(period, "periodic", _q1_stiffness_local(period, A_p)).reshape(B, *cells, 3, 3)
        mass = (np.array([g.hx * g.hy for g in grids]), *(np.tile(_UNIT_MASS, (c, 1)) for c in cells))
        return cls(grids, bc, K, mass, _tiled_loads(grids, bc, A_p), field.is_symmetric, A_p=A_p)

    @property
    def K(self) -> sp.dia_matrix:
        return self.matrix(0.0)

    @property
    def M(self) -> sp.dia_matrix:
        return self.levels[0].matrix(self.levels[0].M)

    def _all_levels(self) -> list:
        """`levels`, once the coarse ones are built."""
        while len(self.levels) < len(self.shapes):
            self.levels.append(self.levels[-1].coarse())
        return self.levels

    def transpose(self) -> "CorrectorOperator":
        """The operator of the transpose field A^T (dual correctors).

        Every level's stiffness table is reflected (`_reflect`), and the
        loads are summed from the swapped `A_p`; the masses, the patterns and
        the prolongations are shared.
        """
        if self.symmetric:
            return self
        t = copy.copy(self)
        t.A_p = np.swapaxes(self.A_p, -1, -2)
        t.levels = [level.transposed() for level in self._all_levels()]
        t.loads = _tiled_loads(self.grids, self.bc, t.A_p)
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

    def matrix(self, inv_T: float) -> sp.dia_matrix:
        """K + inv_T M on the free dofs, in DIA storage."""
        level = self.levels[0]
        return level.matrix(_shifted(level, inv_T))

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
        levels = [level.matrix(_shifted(level, inv_T)) for level in self._all_levels()]
        diagonals = [A.diagonal()[int(pinned):] for A in levels[:-1]]
        R = self.restrictions
        if pinned:
            levels, R = ([_pin(A) for A in mats] for mats in (levels, R))
        P = [r.T for r in R]
        order = _band_order(*self.shapes[-1], self.bc, len(self.grids), pinned)
        mg = _Multigrid(levels, self.symmetric, P, R, order, diagonals)
        return [
            SparseSystem(
                matrix=levels[0], rhs=b[1:] if pinned else b, symmetric=self.symmetric,
                grid=self.grid, bc=self.bc, pinned=pinned, multigrid=mg, blocks=len(self.grids),
            )
            for b in rhs_list
        ]

    def system(self, inv_T: float, rhs: np.ndarray) -> SparseSystem:
        return self.systems(inv_T, [rhs])[0]


def _shifted(level: _Level, s: float) -> np.ndarray:
    """The table of K + s M on a level."""
    return level.K if s == 0.0 else level.K + s * level.M


def _check_coefficient(field: CoefficientField, A: np.ndarray, points: np.ndarray) -> None:
    """Raise ValueError at the first Gauss point where A (npoints, 2, 2) is not a valid coefficient."""
    a, b, c, d = A.reshape(-1, 4).T
    checks = {
        "is NaN or inf": lambda: ~np.isfinite(A.reshape(-1, 4)).all(axis=1),
        "is flagged symmetric but A12 != A21": lambda: field.is_symmetric & (np.abs(b - c) > 1e-8 + 1e-5 * np.abs(c)),
        "has a symmetric part that is not positive definite": lambda: ~((a * d > 0.25 * (b + c) ** 2) & (a + d > 0)),
    }
    for what, bad in checks.items():
        if (bad := bad()).any():
            raise ValueError(f"field {field.name!r} {what} at the Gauss point {tuple(points[np.argmax(bad)])}")


def solve(
    system: SparseSystem,
    rel_tol: float = 1e-10,
    max_iter: int = 50000,
    x0: Optional[np.ndarray] = None,
) -> DofVector:
    """Krylov solve to ||b - A x|| <= rel_tol ||b||.

    CG when the system is flagged symmetric, BiCGStab otherwise (`_cg`,
    `_bicgstab`), both preconditioned by the system's multigrid V-cycle (one
    level when it has none).  A single level is a direct band solve, so the
    Krylov method stops after one iteration.  A zero right-hand side
    short-circuits to the zero vector; one whose norm is NaN or inf raises
    ValueError.

    A pinned system (periodic, no shift) leaves free dof 0 out of its
    matrix and right-hand side; the result puts it back as zero, so it
    covers every free dof, and a warm start `x0` does too.  `x0` itself is
    left as it is.

    A system of several blocks is solved equilibrated: each block's
    right-hand side and warm start are scaled to unit norm (the blocks do
    not couple, so this scales each block's solution alike), and one Krylov
    call runs to absolute residual rel_tol.  Every block then meets
    ||r_i|| <= rel_tol ||b_i||, so loads of very different size are all
    solved to the same relative accuracy, and the stacked system meets
    rel_tol too.  A block with a zero right-hand side returns zero.

    The Krylov loop tracks a recursively updated residual, which can drift
    a little from the true one, so the solve checks the true relative
    residual of every block at the end and restarts from the current
    iterate, up to four calls in all, until it meets rel_tol.  Raises
    SolverError carrying the achieved relative residual (of the worst
    block) on non-convergence.

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
    krylov = _cg if system.symmetric else _bicgstab
    if blocks == 1:
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        atol, ref = rel_tol * np.linalg.norm(b), bnorms  # ref: the block norms of the right-hand side solved for
    else:
        scale = np.divide(1.0, bnorms, out=np.zeros_like(bnorms), where=bnorms > 0)
        b = _blockwise(b, scale)
        x = np.zeros_like(b) if x0 is None else _blockwise(x0, scale)
        atol, ref = rel_tol, (bnorms > 0).astype(float)
    for attempt in range(4):
        _, converged = krylov(A, mg, b, x, atol, max_iter)
        r = A @ x
        rnorms = np.linalg.norm(np.subtract(b, r, out=r).reshape(blocks, -1), axis=1)
        res = np.divide(rnorms, ref, out=np.zeros_like(rnorms), where=ref > 0)
        if res.max() <= rel_tol:
            if blocks > 1:
                x = _blockwise(x, bnorms)
            if pin:
                x = np.concatenate([[0.0], x])
            return DofVector(x, system.grid, system.bc)
        if not converged:
            break
    worst = int(np.argmax(res))
    where = f" on block {worst} of {blocks}" if blocks > 1 else ""
    raise SolverError(
        f"Krylov solver did not reach rel_tol={rel_tol:g}{where} (achieved {res[worst]:.3e})",
        residual=float(res[worst]),
    )


# The two Krylov loops solve A x = b from the given x, which they update in
# place, until the recursively updated residual r has ||r|| < atol, and
# return (iterations, converged).  M applies the preconditioner.  They do
# scipy.sparse.linalg's cg and bicgstab arithmetic (scipy 1.17) in the same
# order, so their iterates are bitwise those.  Only the products A v and M v
# allocate; each product's vector serves as scratch once it is dead and is
# dropped at once, so a CG holds three vectors besides b and the transient
# ones, and a BiCGStab four.


def _cg(A, M, b: np.ndarray, x: np.ndarray, atol: float, maxiter: int) -> tuple:
    """Preconditioned conjugate gradients (see the note above)."""
    r = b - A @ x if x.any() else b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return it, True
        z = M(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z  # the V-cycle's fresh vector
        del z
        q = A @ p
        alpha = rho / np.dot(p, q)
        r -= np.multiply(alpha, q, out=q)
        x += np.multiply(alpha, p, out=q)
        del q
        rho_prev = rho
    return maxiter, False


def _bicgstab(A, M, b: np.ndarray, x: np.ndarray, atol: float, maxiter: int) -> tuple:
    """Preconditioned BiCGStab (see the note above); a breakdown returns unconverged."""
    r = b - A @ x if x.any() else b.copy()
    rtilde = r.copy()
    breakdown = np.finfo(float).eps ** 2
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return it, True
        rho = np.dot(rtilde, r)
        if np.abs(rho) < breakdown:
            return it, False
        if it:
            if np.abs(omega) < breakdown:
                return it, False
            beta = (rho / rho_prev) * (alpha / omega)
            p -= np.multiply(omega, v, out=v)
            p *= beta
            p += r
            del v
        else:
            p = r.copy()
        phat = M(p)
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0:
            return it, False
        alpha = rho / rv
        x += np.multiply(alpha, phat, out=phat)  # scipy adds this once it has omega, or at the half step
        r -= np.multiply(alpha, v, out=phat)
        del phat
        # scipy copies r into s here, and tests and smooths the copy
        if np.linalg.norm(r) < atol:
            return it + 1, True
        shat = M(r)
        t = A @ shat
        omega = np.dot(t, r) / np.dot(t, t)
        x += np.multiply(omega, shat, out=shat)
        r -= np.multiply(omega, t, out=t)
        del shat, t
        rho_prev = rho
    return maxiter, False


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
