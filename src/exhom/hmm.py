"""Coarse multiscale solver with regularized/extrapolated local cell problems.

Pipeline, per coarse P1 triangle on a rectangular domain D:

1. solve local correctors on an oversampled axis-aligned patch around the
   element centroid (half-width delta*H/2, clipped to D) with zero-order
   coefficient (T eps^2)^{-1}, for xi = e1, e2 (plus duals when the field is
   non-symmetric), Richardson-extrapolated over the dyadic T ladder.
   On a periodic field, patches that are translates of one another by whole
   periods (same cell counts and spacings, same origin phase, and for
   tensors the same window offset) pose one problem: only the first of each
   translation class is solved, and the others take its result.  The
   problems left with the same cell counts (nx, ny) are solved together: each
   chunk of at most `BATCH_DOFS` free dofs is one batched operator (one
   field evaluation and one block-diagonal assembly, then per rung one band
   factorization and per rung and direction one Krylov call), with each
   patch keeping its own clipped spacing.  A patch is cheap to factor
   (`grid.BAND_ENTRIES`), so no multigrid hierarchy is built: a batch is
   one level, solved directly, and each Krylov call takes one iteration;
2. form the projected filtered tensor over the inner window of half-width
   H/2 with clipped-mass normalization, giving a piecewise-constant
   effective coefficient (elements whose patch exits D copy the tensor of
   the nearest fully interior element, single hop);
3. solve the coarse P1 problem with that coefficient;
4. reconstruct fine-scale gradients with numerical correctors driven by the
   element averages of the coarse gradient.

`fine_reference` is the single-scale solve these are compared with: the
same `CorrectorOperator` on the whole domain, with no shift and the source
load in place of the corrector loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .averaging import Filter, _window_tensors, build_filter
from .coeffs import CoefficientField
from .corrector import extrapolate, solve_ladder
from .grid import (
    CorrectorOperator,
    DofVector,
    SparseSystem,
    StructuredGrid,
    gradient_field,
    interpolate_gradient,
    solve,
    values_at_quad,
)

__all__ = [
    "CoarseMesh",
    "LocalTensorMap",
    "NumericalCorrectorSet",
    "scaled_field",
    "build_tensor_map",
    "coarse_solve",
    "P1Function",
    "numerical_corrector",
    "reconstructed_gradient",
    "HMMResult",
    "hmm_solve",
    "fine_reference",
    "h1_distance",
]


#: Most free dofs solved in one batch of same-shape patches.  Batching cuts
#: the per-call overhead of assembly, bottom factorization and Krylov calls,
#: which dominates patches of about 500 dofs; but a batch's assembly holds
#: about 0.8 KB per dof while it runs and its operator about 0.4 KB per dof
#: after, so an unbounded batch costs memory.  Measured with direct patch
#: solves (`grid.BAND_ENTRIES`) on the bench's hmm-patches workload (the
#: 128-element mat2 mesh at H = 1/8, h = 1/128: 72 interior patches of 529
#: dofs, 200 patch ladders in all), median of 10 repetitions after 2
#: warm-ups in each of two processes and peak RSS, single-threaded BLAS on
#: a shared 2-core Xeon host: 2048 dofs 0.186-0.187 s and 71.7 MB, 4096
#: 0.156-0.160 s and 74.5 MB, 8192 0.136-0.137 s and 79.5 MB, 16384
#: 0.137-0.143 s and 88.6 MB, 40000 0.140 s and 108.8 MB.  8192 is where
#: the time stops falling.  These figures predate `_translation_classes`:
#: that workload now solves 20 patch ladders (2 interior classes and 18
#: corrector classes), whose batches stay below the cutoff.  It still binds
#: on non-periodic fields (mat3, mat5), where every patch is solved.
BATCH_DOFS = 8192

#: Steps per period on which `_translation_classes` rounds lengths and
#: phases.  Patches one step apart pose problems that differ at round-off
#: level, and a centroid's own round-off (about 1e-17) is far below a step.
_PERIOD_STEPS = 10**12


def scaled_field(field: CoefficientField, eps: float) -> CoefficientField:
    """The eps-scale field x -> A(x / eps)."""
    base = field.evaluate

    def evaluate(points):
        return base(np.asarray(points, dtype=float) / eps)

    period = None if field.period is None else eps * np.asarray(field.period)
    return CoefficientField(
        evaluate=evaluate,
        is_symmetric=field.is_symmetric,
        period=period,
        name=f"{field.name}@eps={eps:g}",
        profile=field.profile,
    )


@dataclass
class CoarseMesh:
    """Conforming P1 triangulation of the rectangle [0,ax] x [0,ay]."""

    vertices: np.ndarray  # (Nv, 2)
    triangles: np.ndarray  # (Nt, 3)
    H: float
    extent: tuple
    boundary_vertices: np.ndarray  # bool mask (Nv,)
    cells: tuple  # (nx, ny) rectangles, each cut into two triangles

    @classmethod
    def rectangle(cls, ax: float, ay: float, H: float) -> "CoarseMesh":
        nx = max(1, int(round(ax / H)))
        ny = max(1, int(round(ay / H)))
        hx, hy = ax / nx, ay / ny
        xs = np.linspace(0.0, ax, nx + 1)
        ys = np.linspace(0.0, ay, ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        verts = np.stack([X.ravel(), Y.ravel()], axis=1)
        vid = lambda i, j: i * (ny + 1) + j
        tris = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                tris.append([v00, v10, v11])  # lower (below the diagonal)
                tris.append([v00, v11, v01])  # upper
        tris = np.array(tris, dtype=int)
        bmask = (
            np.isclose(verts[:, 0], 0.0)
            | np.isclose(verts[:, 0], ax)
            | np.isclose(verts[:, 1], 0.0)
            | np.isclose(verts[:, 1], ay)
        )
        return cls(
            vertices=verts, triangles=tris, H=max(hx, hy), extent=(ax, ay), boundary_vertices=bmask, cells=(nx, ny)
        )

    @classmethod
    def unit_square(cls, H: float) -> "CoarseMesh":
        return cls.rectangle(1.0, 1.0, H)

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def basis_gradients(self):
        """(Nt, 3, 2) gradients of the barycentric basis functions."""
        p = self.vertices[self.triangles]
        out = np.empty((self.n_elements, 3, 2))
        for loc in range(3):
            a = p[:, (loc + 1) % 3]
            b = p[:, (loc + 2) % 3]
            # grad of the linear function that is 1 at p[loc], 0 at a, b
            edge = b - a
            normal = np.stack([-edge[:, 1], edge[:, 0]], axis=1)
            denom = np.einsum("ij,ij->i", p[:, loc] - a, normal)
            out[:, loc, :] = normal / denom[:, None]
        return out

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Element index containing each point (structured crisscross mesh)."""
        (ax, ay), (nx, ny) = self.extent, self.cells
        hx, hy = ax / nx, ay / ny
        pts = np.atleast_2d(points)
        i = np.clip((pts[:, 0] / hx).astype(int), 0, nx - 1)
        j = np.clip((pts[:, 1] / hy).astype(int), 0, ny - 1)
        lx = pts[:, 0] / hx - i
        ly = pts[:, 1] / hy - j
        lower = ly <= lx
        return 2 * (i * ny + j) + (~lower).astype(int)


@dataclass
class LocalTensorMap:
    """Per-element effective tensors with provenance."""

    tensors: np.ndarray  # (Nt, 2, 2)
    provenance: list  # 'computed' | 'copied-from-interior'
    donors: np.ndarray  # donor element index (self for computed)
    params: dict


@dataclass
class NumericalCorrectorSet:
    """Per-element local solutions and the reconstructed gradient pieces."""

    gammas: list  # per element: list of DofVector (e1, e2 directions)
    grids: list  # per element patch grid
    M: np.ndarray  # (Nt, 2) element averages of the coarse gradient
    kprime: int


class P1Function:
    """A coarse P1 field with point evaluation and per-element gradients.

    On element e the field is c_e + g_e . x, with g_e its gradient and c_e
    set at the element's first vertex, so a point costs one lookup.
    """

    def __init__(self, mesh: CoarseMesh, values: np.ndarray):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        self._grads = np.einsum(
            "ti,tid->td", self.values[mesh.triangles], mesh.basis_gradients()
        )
        first = mesh.triangles[:, 0]
        self._offsets = self.values[first] - np.einsum("td,td->t", self._grads, mesh.vertices[first])

    def element_gradients(self) -> np.ndarray:
        return self._grads

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._at(np.atleast_2d(points))[0]

    def _at(self, pts: np.ndarray) -> tuple:
        """Values and gradients at the (n, 2) points, each point located once."""
        elems = self.mesh.locate(pts)
        g = np.take(self._grads, elems, axis=0)
        values = np.take(self._offsets, elems)
        values += g[:, 0] * pts[:, 0]
        values += g[:, 1] * pts[:, 1]
        return values, g

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        elems = self.mesh.locate(np.atleast_2d(points))
        return self._grads[elems]


def _patch_grid(center, half_width: float, extent, h: float) -> StructuredGrid:
    """Structured grid on box(center, half_width) clipped to the domain."""
    ax, ay = extent
    x0, x1 = max(0.0, center[0] - half_width), min(ax, center[0] + half_width)
    y0, y1 = max(0.0, center[1] - half_width), min(ay, center[1] + half_width)
    nx = max(2, int(round((x1 - x0) / h)))
    ny = max(2, int(round((y1 - y0) / h)))
    if (x1 - x0) < 2 * h or (y1 - y0) < 2 * h:
        raise ValueError("oversampling patch smaller than two fine cells")
    return StructuredGrid.from_box((x0, x1, y0, y1), nx, ny)


def _translation_classes(grids, field_eps: CoefficientField, centers=None) -> tuple:
    """(representatives, class_of) of the patch problems up to whole-period shifts.

    On a periodic field two patches pose the same problem when they share
    their cell counts and spacings and their origins differ by whole periods
    (and, with `centers`, their windows sit at the same offset from their
    origins).  `representatives` lists the first patch of each class in
    order of first occurrence, and `class_of[i]` is patch i's index into it.
    Every patch of a non-periodic field is its own class.
    """
    n = len(grids)
    if field_eps.period is None:
        return list(range(n)), np.arange(n)
    px, py = (float(p) for p in field_eps.period)

    def steps(v, p):
        return round(v / p * _PERIOD_STEPS)

    def phase(v, p):  # a phase just below the period is the phase just above 0
        return round((v / p) % 1.0 * _PERIOD_STEPS) % _PERIOD_STEPS

    classes, representatives, class_of = {}, [], np.empty(n, dtype=int)
    for i, g in enumerate(grids):
        key = (g.nx, g.ny, steps(g.hx, px), steps(g.hy, py), phase(g.x0, px), phase(g.y0, py))
        if centers is not None:
            key += (steps(centers[i][0] - g.x0, px), steps(centers[i][1] - g.y0, py))
        if key not in classes:
            classes[key] = len(representatives)
            representatives.append(i)
        class_of[i] = classes[key]
    return representatives, class_of


def _batches(grids, field_eps: CoefficientField):
    """(patch indices, batched operator) per chunk of at most BATCH_DOFS free dofs.

    Patches are grouped by their cell counts (nx, ny), then each group is cut
    into chunks.
    """
    groups = {}
    for i, g in enumerate(grids):
        groups.setdefault((g.nx, g.ny), []).append(i)
    for (nx, ny), idx in groups.items():
        size = max(1, BATCH_DOFS // ((nx - 1) * (ny - 1)))
        for s in range(0, len(idx), size):
            chunk = idx[s : s + size]
            yield chunk, CorrectorOperator.from_field([grids[i] for i in chunk], field_eps)


def _extrapolated(op: CorrectorOperator, T: float, k: int, rel_tol: float, dual: bool = False) -> np.ndarray:
    """Level-k corrector values for xi = e1, e2 on the grids of `op`, (direction, grid, dof)."""
    ladders = solve_ladder(op, T, k, np.eye(2), dual=dual, rel_tol=rel_tol)
    return np.stack([extrapolate(lad).u.values for lad in ladders]).reshape(2, len(op.grids), -1)


def _patch_tensors(grids, centers, field_eps, T, k, H, filt, rel_tol) -> np.ndarray:
    """(len(grids), 2, 2) projected filtered tensors of the patch problems.

    The zero-order coefficient is 1/T; each tensor averages over the window
    of half-width H/2 around its center, clipped-mass normalized.  The
    patches of a batch whose windows cover the same block of cells (all
    unclipped patches of one shape) are contracted together.
    """
    centers = np.asarray(centers)
    reps, class_of = _translation_classes(grids, field_eps, centers)
    centers = centers[reps]
    out = np.empty((len(reps), 2, 2))
    for chunk, op in _batches([grids[i] for i in reps], field_eps):
        primal = _extrapolated(op, T, k, rel_tol)
        dual = primal if op.symmetric else _extrapolated(op.transpose(), T, k, rel_tol, dual=True)
        out[chunk] = _window_tensors(
            op.grids, op.bc, op.A_p, primal, dual, filt, 0.5 * H, centers[chunk], project=True
        )[0]
    return out[class_of]


def build_tensor_map(
    mesh: CoarseMesh,
    field_eps: CoefficientField,
    eps: float,
    T: float,
    k: int,
    delta: float,
    h: float,
    filt: Filter,
    rel_tol: float = 1e-8,
) -> LocalTensorMap:
    """Per-element tensors with boundary elements copying interior donors.

    An element is 'interior' when its oversampled patch lies inside D.  If
    no element is interior (very coarse meshes), every tensor is computed on
    its clipped patch instead, which is the generic clipped-window form of
    the approximation.  On a periodic field the computed elements whose
    patches and windows are translates by whole periods form one class: its
    first element's problem is solved, and every member gets a copy of that
    tensor.  On a non-periodic field every computed element is solved.
    """
    ax, ay = mesh.extent
    cents = mesh.centroids()
    half = 0.5 * delta * mesh.H
    inside = (
        (cents[:, 0] - half >= -1e-12)
        & (cents[:, 0] + half <= ax + 1e-12)
        & (cents[:, 1] - half >= -1e-12)
        & (cents[:, 1] + half <= ay + 1e-12)
    )
    nt = mesh.n_elements
    tensors = np.zeros((nt, 2, 2))
    provenance = ["computed"] * nt
    donors = np.arange(nt)
    compute_set = np.where(inside)[0] if np.any(inside) else np.arange(nt)
    grids = [_patch_grid(cents[e], half, mesh.extent, h) for e in compute_set]
    tensors[compute_set] = _patch_tensors(
        grids, cents[compute_set], field_eps, T * eps * eps, k, mesh.H, filt, rel_tol
    )
    if np.any(inside):
        interior = np.where(inside)[0]
        for e in np.where(~inside)[0]:
            d = interior[np.argmin(np.linalg.norm(cents[interior] - cents[e], axis=1))]
            tensors[e] = tensors[d]
            provenance[e] = "copied-from-interior"
            donors[e] = d
    params = dict(eps=eps, H=mesh.H, T=T, k=k, delta=delta, h=h, p=filt.order)
    return LocalTensorMap(tensors=tensors, provenance=provenance, donors=donors, params=params)


def coarse_solve(
    mesh: CoarseMesh,
    tensors: LocalTensorMap | np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float = 1e-10,
) -> P1Function:
    """P1 Galerkin solve of -div(A_H grad u) = f with zero boundary values.

    `tensors` is a LocalTensorMap or an (Nt, 2, 2) array.  Every element
    tensor must have a positive-definite symmetric part; offenders are
    reported together (the non-symmetric extrapolation 'ellipticity defect'
    case).
    """
    A = tensors.tensors if isinstance(tensors, LocalTensorMap) else np.asarray(tensors)
    if A.ndim == 2:
        A = np.broadcast_to(A, (mesh.n_elements, 2, 2))
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    eigs = np.linalg.eigvalsh(sym)
    bad = np.where(eigs[:, 0] <= 0.0)[0]
    if bad.size:
        raise ValueError(
            f"non-elliptic element tensors (min sym eig <= 0) on elements {bad.tolist()}"
        )

    grads = mesh.basis_gradients()
    areas = mesh.areas()
    tri = mesh.triangles
    nv = mesh.vertices.shape[0]
    Kloc = np.einsum("t,tia,tab,tjb->tij", areas, grads, A, grads)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    # 3-point edge-midpoint rule, exact for quadratic loads
    p = mesh.vertices[tri]
    rhs = np.zeros(nv)
    mids = [(0, 1), (1, 2), (2, 0)]
    for a, b in mids:
        mp = 0.5 * (p[:, a] + p[:, b])
        fv = np.asarray(f(mp), dtype=float)
        contrib = areas / 3.0 * fv * 0.5
        np.add.at(rhs, tri[:, a], contrib)
        np.add.at(rhs, tri[:, b], contrib)

    free = np.where(~mesh.boundary_vertices)[0]
    Kf = K[free][:, free].tocsr()
    symmetric = bool(np.allclose(A, np.swapaxes(A, -1, -2), atol=1e-12))
    uf = solve(SparseSystem(matrix=Kf, rhs=rhs[free], symmetric=symmetric), rel_tol=rel_tol)
    vals = np.zeros(nv)
    vals[free] = uf.values
    return P1Function(mesh, vals)


def numerical_corrector(
    mesh: CoarseMesh,
    u_coarse: P1Function,
    field_eps: CoefficientField,
    eps: float,
    T: float,
    kprime: int,
    delta: float,
    h: float,
    rel_tol: float = 1e-8,
) -> NumericalCorrectorSet:
    """Local reconstructions gamma_i driving the corrector C.

    Each element solves, on its clipped oversampled patch,

        (T eps^2)^{-1} gamma - div(A_eps (M_i + grad gamma)) = 0,

    with M_i the element average of the coarse gradient; by linearity the
    e1/e2 direction solves are combined with the components of M_i.
    Patches that are translates by whole periods of a periodic field form
    one class, as in `build_tensor_map`, and only its first patch is solved;
    patches of equal shape are solved in batches.  Each gamma is a
    `DofVector` on its element's own grid whose values are a view into its
    batch's stacked solution, and the gammas of one class share that array.
    """
    M = u_coarse.element_gradients()
    grids = [_patch_grid(c, 0.5 * delta * mesh.H, mesh.extent, h) for c in mesh.centroids()]
    reps, class_of = _translation_classes(grids, field_eps)
    solved = [None] * len(reps)
    for chunk, op in _batches([grids[i] for i in reps], field_eps):
        e1, e2 = (op.split(u) for u in _extrapolated(op, T * eps * eps, kprime, rel_tol))
        for b, c in enumerate(chunk):
            solved[c] = (e1[b], e2[b])
    gammas = [[DofVector(u.values, g, u.bc) for u in solved[c]] for g, c in zip(grids, class_of)]
    return NumericalCorrectorSet(gammas=gammas, grids=grids, M=M, kprime=kprime)


def reconstructed_gradient(
    mesh: CoarseMesh, corr: NumericalCorrectorSet, points: np.ndarray
) -> np.ndarray:
    """C(x) = M_i + grad gamma_i(x) on the element containing each point."""
    pts = np.atleast_2d(points)
    elems = mesh.locate(pts)
    out = np.empty_like(pts)
    for e in np.unique(elems):
        mask = elems == e
        grad = corr.M[e][None, :] + (
            corr.M[e, 0] * interpolate_gradient(corr.gammas[e][0], pts[mask])
            + corr.M[e, 1] * interpolate_gradient(corr.gammas[e][1], pts[mask])
        )
        out[mask] = grad
    return out


def fine_reference(
    field_eps: CoefficientField,
    extent,
    h_ref: float,
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float = 1e-10,
) -> DofVector:
    """Single-scale Dirichlet solve of -div(A_eps grad u) = f on D."""
    ax, ay = extent
    grid = StructuredGrid.from_box((0.0, ax, 0.0, ay), int(round(ax / h_ref)), int(round(ay / h_ref)))
    op = CorrectorOperator.from_field(grid, field_eps)
    return solve(op.system(0.0, op.source_load(f)), rel_tol=rel_tol)


def h1_distance(u_fine: DofVector, u_coarse: P1Function) -> tuple:
    """(L2, H1-seminorm, H1) distances, quadrature on the fine grid."""
    g = u_fine.grid
    pts = g.quad_points()
    w = g.quad_weight()
    ufine_vals = values_at_quad(u_fine)
    gfine = gradient_field(u_fine)
    ucoarse_vals, gcoarse = u_coarse._at(pts)
    dl2 = w * np.sum((ufine_vals - ucoarse_vals) ** 2)
    dh1s = w * np.sum((gfine - gcoarse) ** 2)
    return math.sqrt(dl2), math.sqrt(dh1s), math.sqrt(dl2 + dh1s)


@dataclass
class HMMResult:
    mesh: CoarseMesh
    tensor_map: LocalTensorMap
    u: P1Function
    params: dict


def hmm_solve(
    field: CoefficientField,
    eps: float,
    H: float,
    f: Callable[[np.ndarray], np.ndarray],
    delta: float = 1.5,
    *,
    T: float,
    k: int = 1,
    h: float,
    p: float,
    extent=(1.0, 1.0),
    rel_tol: float = 1e-8,
) -> HMMResult:
    """Full coarse pipeline on the rectangle D: local tensors at regularization
    T, level k, fine spacing h and filter order p, then the coarse solve.

    `study.policy("hmm", H=H, eps=eps, k=k)` gives the method's choice of T,
    h and p.
    """
    mesh = CoarseMesh.rectangle(extent[0], extent[1], H)
    filt = build_filter(p)
    field_eps = scaled_field(field, eps)
    tmap = build_tensor_map(mesh, field_eps, eps, T, k, delta, h, filt, rel_tol=rel_tol)
    u = coarse_solve(mesh, tmap, f)
    params = dict(eps=eps, H=H, T=T, k=k, delta=delta, h=h, p=filt.order)
    return HMMResult(mesh=mesh, tensor_map=tmap, u=u, params=params)
