"""Exact discrete warm-up: edge-conductance networks on Z^2, period 4.

The only approximation in this pipeline is the Krylov solver tolerance: the
corrector problems are five-point systems on the integer lattice,

    T^{-1} phi - div*( A (xi + grad phi) ) = 0,

with forward-difference gradients, backward-difference divergence, and
A(x) = diag(a(x, x+e1), a(x, x+e2)) built from a 4-periodic cell of edge
conductivities.  The shipped default cell carries conductivities 1 and 100
in diagonal stripes of width two (vertical edges are the quarter-turn image
of the horizontal ones).  The network is invariant under quarter turns, so
its homogenized tensor is an exact multiple of the identity, with the exact
rational cell value 10601/404 = 26.240099009901..., and its correctors are
nontrivial in both directions.

`weave_pattern()` provides a second, degenerate network of uniform wires
with the same exact cell value, via the closed form
(1 + 100 + 2*(200/101))/4; its correctors vanish identically, which makes
it a useful cross-check but useless for resonance-error sweeps.

A box problem is a `CorrectorOperator` on the (S-1)^2 interior sites of an
S-cell box, built like the Q1 operators (grid.py) from a stencil table on
one period, the 4 x 4 torus of the cell: the five-point K, kept on a
five-point pattern, and the identity mass, 1-D identity tables.  Rung j of
the dyadic ladder solves (K + I / (2^j T)) x = b_xi with the multigrid
preconditioned Krylov solver, and both directions of a tensor share one
operator.  A box corrector is the `CorrectorSolution` that `extrapolate`
builds on the box's grid, the S x S unit cells of the box, whose nodal
values are the site values (zero on the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .averaging import Filter, _check_L, _support
from .corrector import CorrectorSolution, extrapolate, solve_ladder
from .grid import CorrectorOperator, StructuredGrid, _period_index

__all__ = [
    "LatticeField",
    "PUBLISHED_CELL_VALUE",
    "default_pattern",
    "weave_pattern",
    "exact_cell_hom",
    "exact_cell_hom_rational",
    "lattice_energy_identity",
    "lattice_hom",
]

P = 4  # period of the conductivity cell, in lattice units

#: The benchmark cell value printed for the discrete example; equals
#: (1 + 100 + 2*(200/101)) / 4 = 10601/404 exactly.
PUBLISHED_CELL_VALUE = 10601.0 / 404.0

# Horizontal-edge conductivities of the default cell: 100 on the diagonal
# stripes (i + j) % 4 in {0, 3}, 1 elsewhere.  Vertical edges are the
# 90-degree rotation image, which makes the network rotation invariant and
# its homogenized matrix an exact multiple of the identity.
_DEFAULT_H = np.where(np.isin(np.add.outer(np.arange(P), np.arange(P)) % P, (0, 3)), 100.0, 1.0)
_DEFAULT_V = np.where(np.isin(np.subtract.outer(np.arange(P), np.arange(P)) % P, (0, 1)), 100.0, 1.0)


@dataclass(frozen=True)
class LatticeField:
    """4-periodic horizontal/vertical edge conductivities.

    `h[i, j]` is the conductivity of the edge from (i, j) to (i+1, j) and
    `v[i, j]` of the edge from (i, j) to (i, j+1), indices taken mod 4.
    """

    h: np.ndarray
    v: np.ndarray
    name: str = "lattice"

    def __post_init__(self):
        for arr in (self.h, self.v):
            if np.asarray(arr).shape != (P, P):
                raise ValueError("edge patterns must be 4x4")
            if not np.all((np.asarray(arr) > 0) & np.isfinite(arr)):
                raise ValueError("conductivities must be positive and finite")

    def a_h(self, x1, x2):
        return self.h[np.mod(x1, P), np.mod(x2, P)]

    def a_v(self, x1, x2):
        return self.v[np.mod(x1, P), np.mod(x2, P)]

    @classmethod
    def from_file(cls, path) -> "LatticeField":
        """Read two 4x4 blocks of conductivities (horizontal, then vertical edges).

        Values must be positive and finite; blank lines and '#' comments are
        ignored.
        """
        tokens = []
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        if len(tokens) != 2 * P * P:
            raise ValueError(f"expected {2 * P * P} values, found {len(tokens)}")
        vals = np.array([float(t) for t in tokens])
        return cls(
            h=vals[: P * P].reshape(P, P),
            v=vals[P * P :].reshape(P, P),
            name=f"lattice:{Path(path).name}",
        )


def default_pattern() -> LatticeField:
    """The shipped diagonal-stripe cell (values 1 and 100, isotropic)."""
    return LatticeField(h=_DEFAULT_H.copy(), v=_DEFAULT_V.copy(), name="lattice-default")


def weave_pattern() -> LatticeField:
    """Uniform-wire network reproducing the published 26.240099... exactly.

    Wire conductances (100, 200/101, 1, 200/101) in both directions; the
    intermediate value is the harmonic mean of 1 and 100.  Correctors vanish
    identically for this network.
    """
    hm = 200.0 / 101.0
    w = np.array([100.0, hm, 1.0, hm])
    return LatticeField(
        h=np.tile(w[None, :], (P, 1)),  # h[i, j] = w(j): horizontal wires
        v=np.tile(w[:, None], (1, P)),  # v[i, j] = w(i): vertical wires
        name="lattice-weave",
    )


def _cell_system(field: LatticeField):
    """Assemble the 4x4-torus cell problem for xi = e1, e2 (node 0 is fixed at zero by its solver)."""
    N = P * P

    def node(i, j):
        return (i % P) * P + (j % P)

    K = np.zeros((N, N))
    rhs = np.zeros((N, 2))
    for i in range(P):
        for j in range(P):
            x = node(i, j)
            ah, av = field.h[i, j], field.v[i, j]
            ahm, avm = field.h[(i - 1) % P, j], field.v[i, (j - 1) % P]
            K[x, x] += ah + av + ahm + avm
            K[x, node(i + 1, j)] -= ah
            K[x, node(i, j + 1)] -= av
            K[x, node(i - 1, j)] -= ahm
            K[x, node(i, j - 1)] -= avm
            rhs[x, 0] = ah - ahm
            rhs[x, 1] = av - avm
    return K, rhs


def exact_cell_hom(field: LatticeField) -> np.ndarray:
    """Homogenized tensor from the exact rational cell solve, rounded to float."""
    return np.array(exact_cell_hom_rational(field), dtype=float)


def exact_cell_hom_rational(field: LatticeField) -> list:
    """Homogenized tensor of the 4x4-torus cell problem in exact rational arithmetic."""
    K, rhs = _cell_system(field)
    n = P * P - 1
    M = [[Fraction(K[1 + r, 1 + c]).limit_denominator(10**12) for c in range(n)]
         + [Fraction(rhs[1 + r, 0]).limit_denominator(10**12),
            Fraction(rhs[1 + r, 1]).limit_denominator(10**12)]
         for r in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [val / pv for val in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    phi = [[Fraction(0), Fraction(0)]] + [[M[r][n], M[r][n + 1]] for r in range(n)]

    def node(i, j):
        return (i % P) * P + (j % P)

    H = [[Fraction(field.h[i, j]).limit_denominator(10**12) for j in range(P)] for i in range(P)]
    V = [[Fraction(field.v[i, j]).limit_denominator(10**12) for j in range(P)] for i in range(P)]
    A = [[Fraction(0)] * 2 for _ in range(2)]
    for i in range(P):
        for j in range(P):
            x = node(i, j)
            for a in range(2):
                for b in range(2):
                    ga1 = phi[node(i + 1, j)][a] - phi[x][a] + (1 if a == 0 else 0)
                    gb1 = phi[node(i + 1, j)][b] - phi[x][b] + (1 if b == 0 else 0)
                    ga2 = phi[node(i, j + 1)][a] - phi[x][a] + (1 if a == 1 else 0)
                    gb2 = phi[node(i, j + 1)][b] - phi[x][b] + (1 if b == 1 else 0)
                    A[a][b] += H[i][j] * ga1 * gb1 + V[i][j] * ga2 * gb2
    return [[val / (P * P) for val in row] for row in A]


def _box_offsets(R: int):
    if R % 2 != 0 or R < 8:
        raise ValueError("box side R must be an even integer >= 8")
    S = R
    coords = np.arange(-(S // 2), S // 2 + 1)  # S+1 site coordinates per dim
    return S, coords


def _edge_arrays(field: LatticeField, coords):
    X1, X2 = np.meshgrid(coords, coords, indexing="ij")
    return field.a_h(X1, X2), field.a_v(X1, X2)


def _lattice_operator(field: LatticeField, R: int) -> CorrectorOperator:
    """Five-point operator of the box of side R on its interior sites.

    Grid node i sits at lattice coordinate i - R/2, so node r of the table's
    4 x 4 torus holds the site at coordinate r - R/2 (mod 4).
    """
    S, coords = _box_offsets(R)
    x = np.arange(P) - S // 2
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    aE, aW = field.a_h(X1, X2), field.a_h(X1 - 1, X2)  # edges to (i+1, j) and from (i-1, j)
    aN, aS = field.a_v(X1, X2), field.a_v(X1, X2 - 1)  # edges to (i, j+1) and from (i, j-1)
    K = np.zeros((1, P, P, 3, 3))
    K[0, :, :, 1, 1] = aE + aW + aN + aS
    K[0, :, :, 2, 1], K[0, :, :, 0, 1], K[0, :, :, 1, 2], K[0, :, :, 1, 0] = -aE, -aW, -aN, -aS
    loads = np.stack([aE - aW, aN - aS]).reshape(2, -1)[:, _period_index(S, S, "dirichlet0", (P, P))]
    lo, hi = float(coords[0]), float(coords[-1])
    grid = StructuredGrid.from_box((lo, hi, lo, hi), S, S)
    eye = np.tile([0.0, 1.0, 0.0], (P, 1))
    return CorrectorOperator(grid, "dirichlet0", K, (np.ones(1), eye, eye), loads, symmetric=True)


def _box_correctors(field: LatticeField, R: int, T: float, k: int, xis, rel_tol: float) -> list:
    """Extrapolated correctors for each xi, sharing one box operator."""
    return [extrapolate(lad) for lad in solve_ladder(_lattice_operator(field, R), T, k, xis, rel_tol=rel_tol)]


def lattice_energy_identity(field: LatticeField, corr: CorrectorSolution) -> float:
    """Relative defect of T^{-1}||phi||^2 + <grad phi, A grad phi> = -<grad phi, A xi>.

    Valid for base (k = 1) solves; gradients are forward differences over
    all box edges with the corrector extended by zero on the boundary.
    """
    _, coords = _box_offsets(corr.grid.nx)
    ah, av = _edge_arrays(field, coords)
    phi = corr.u.nodal()
    g1 = phi[1:, :] - phi[:-1, :]  # horizontal edges (S, S+1)
    g2 = phi[:, 1:] - phi[:, :-1]  # vertical edges (S+1, S)
    e_quad = float((ah[:-1, :] * g1 * g1).sum() + (av[:, :-1] * g2 * g2).sum())
    e_lin = float(
        corr.xi[0] * (ah[:-1, :] * g1).sum() + corr.xi[1] * (av[:, :-1] * g2).sum()
    )
    mass = 0.0 if math.isinf(corr.T) else float((phi * phi).sum()) / corr.T
    denom = abs(e_lin) if e_lin != 0.0 else 1.0
    return abs(mass + e_quad + e_lin) / denom


def lattice_hom(
    field: LatticeField,
    R: int,
    T: float,
    k: int,
    L: float,
    filt: Filter,
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Filtered tensor A'_{T,k,R,L,p} of the lattice network.

    Filter weights are evaluated at edge midpoints and each direction's sum
    is normalized by its own weight mass, so homogeneous networks are
    reproduced exactly.  Only the edges inside the filter's window are
    visited.
    """
    _check_L(L)
    S, coords = _box_offsets(R)
    if L > S / 2:
        raise ValueError(f"averaging window L={L} exceeds the box half-width {S // 2}")
    nodal = [c.u.nodal() for c in _box_correctors(field, R, T, k, np.eye(2), rel_tol)]

    # the window: the index ranges, along either axis, of the sites (s) and
    # of the edge midpoints (e) where the filter profile is nonzero; a
    # horizontal edge (p, q) joins sites (p, q) and (p + 1, q), a vertical
    # edge (q, p) sites (q, p) and (q, p + 1)
    x = coords.astype(float)
    s = _support(filt.profile(x / L))
    e = _support(filt.profile((x[:-1] + 0.5) / L))
    ah = field.a_h(coords[e][:, None], coords[s][None, :])
    av = field.a_v(coords[s][:, None], coords[e][None, :])
    X1, X2 = np.meshgrid(x[e] + 0.5, x[s], indexing="ij")
    wh = filt.weights_nd(np.stack([X1.ravel(), X2.ravel()], axis=1), L).reshape(X1.shape)
    wv = filt.weights_nd(np.stack([X2.T.ravel(), X1.T.ravel()], axis=1), L).reshape(X1.T.shape)
    mh, mv = wh.sum(), wv.sum()
    if mh <= 0 or mv <= 0:
        raise ValueError("filter support contains no edge midpoints")

    g1 = [np.diff(phi[e.start : e.stop + 1, s], axis=0) for phi in nodal]
    g2 = [np.diff(phi[s, e.start : e.stop + 1], axis=1) for phi in nodal]
    eye = np.eye(2)
    A = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            f1 = (eye[a, 0] + g1[a]) * (eye[b, 0] + g1[b])
            f2 = (eye[a, 1] + g2[a]) * (eye[b, 1] + g2[b])
            A[a, b] = float((wh * ah * f1).sum() / mh + (wv * av * f2).sum() / mv)
    return A
