"""Convergence-study driver: sweeps, log-log slope fits, CSV records.

Each sweep runs one family of approximations over a list of box sizes R with
a fixed parameter policy (the zero-order parameter and averaging window grow
proportionally to R) and records one error value per run.  Slopes are
ordinary least squares in log10-log10 coordinates.  Almost-periodic fields
have no computable reference tensor, so their errors use the paper-style
self-estimator: the distance to a higher-order extrapolation (k' = 3 by
default) of the same quantity on the same grid.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .averaging import build_filter, hom_tensor_prime, hom_tensor_projected, solve_corrector_bundle
from .coeffs import CoefficientField, catalog
from .corrector import corrector_error, corrector_ladder
from .grid import StructuredGrid
from .lattice import LatticeField, default_pattern, exact_cell_hom, lattice_hom
from .reference import periodic_cell

__all__ = [
    "StudyRecord",
    "SlopeFit",
    "fit_slope",
    "sweep_lattice",
    "sweep_periodic_tensor",
    "sweep_corrector",
    "ap_estimator",
    "sweep_ap",
    "write_csv",
    "write_gnuplot",
]


@dataclass
class StudyRecord:
    field: str
    variant: str
    T: float
    k: int
    R: float
    L: float
    p: float
    n: int
    h: float
    error: float
    error_def: str
    wall_time: float

    def row(self):
        return astuple(self)


CSV_COLUMNS = [f.name for f in fields(StudyRecord)]


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    residual: float
    npoints: int


def fit_slope(records: Sequence) -> SlopeFit:
    """Least-squares slope of log10(error) against log10(R).

    Accepts StudyRecords or (R, error) pairs; needs at least three points
    with strictly positive errors.
    """
    pts = []
    for r in records:
        if isinstance(r, StudyRecord):
            pts.append((r.R, r.error))
        else:
            pts.append((float(r[0]), float(r[1])))
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points")
    R = np.array([p[0] for p in pts])
    E = np.array([p[1] for p in pts])
    if np.any(E <= 0.0):
        raise ValueError("slope fit needs strictly positive errors")
    x, y = np.log10(R), np.log10(E)
    coeffs, res_info = np.polyfit(x, y, 1, full=True)[:2]
    resid = float(res_info[0]) if len(res_info) else 0.0
    return SlopeFit(slope=float(coeffs[0]), intercept=float(coeffs[1]), residual=resid, npoints=len(pts))


def _tensor_err(A, Aref) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(Aref))))


# ----------------------------------------------------------------------------
# lattice sweeps (exact discrete pipeline)


def sweep_lattice(
    R_list: Sequence[int],
    variants=(("naive", math.inf, 1), ("k1", None, 1), ("k2", None, 2)),
    field: Optional[LatticeField] = None,
    p="inf",
    rel_tol: float = 1e-12,
) -> list[StudyRecord]:
    """|A'_{T,k,R,L,p} - A_cell| over R = periodic cells per dimension.

    R counts periodic cells (box side 4R lattice units); the parameter
    policy is T = R/10 and L = R/3 in lattice units.  Variant entries are
    (name, T, k); T = None applies the policy and T = inf runs the naive
    unregularized approximation.
    """
    field = field if field is not None else default_pattern()
    Aref = exact_cell_hom(field)
    filt = build_filter(p)
    records = []
    for R in R_list:
        for name, Tspec, k in variants:
            Tval = (R / 10.0) if Tspec is None else Tspec
            t0 = time.perf_counter()
            A = lattice_hom(field, 4 * int(R), Tval, k, R / 3.0, filt, rel_tol=rel_tol)
            err = _tensor_err(A, Aref)
            records.append(
                StudyRecord(
                    field=field.name,
                    variant=name,
                    T=Tval,
                    k=k,
                    R=float(R),
                    L=R / 3.0,
                    p=filt.order,
                    n=4 * int(R),
                    h=1.0,
                    error=err,
                    error_def="|A'-A_cell|_max",
                    wall_time=time.perf_counter() - t0,
                )
            )
    return _sorted(records)


# ----------------------------------------------------------------------------
# continuum sweeps


def _field_of(name_or_field) -> CoefficientField:
    if isinstance(name_or_field, CoefficientField):
        return name_or_field
    return catalog(name_or_field)


def sweep_periodic_tensor(
    field,
    R_list: Sequence[float],
    cells_per_unit: int = 16,
    variants=(("naive", math.inf, 1, 0), ("k1", None, 1, 3), ("k2", None, 2, 4)),
    reference_n: int = 256,
    projected: bool = True,
    rel_tol: float = 1e-8,
) -> list[StudyRecord]:
    """|A_{T,k,R,L,p} - A_cell| for a periodic field, T = R/100, L = R/3."""
    field = _field_of(field)
    Aref = periodic_cell(field, reference_n).A_hom
    records = []
    for R in R_list:
        n = int(round(2 * R * cells_per_unit))
        for name, Tspec, k, p in variants:
            Tval = (R / 100.0) if Tspec is None else Tspec
            filt = build_filter(p)
            t0 = time.perf_counter()
            make = hom_tensor_projected if projected else hom_tensor_prime
            H = make(field, R, n, Tval, k, R / 3.0, filt, rel_tol=rel_tol)
            err = _tensor_err(H.matrix, Aref)
            records.append(
                StudyRecord(
                    field=field.name,
                    variant=name,
                    T=Tval,
                    k=k,
                    R=float(R),
                    L=R / 3.0,
                    p=p,
                    n=n,
                    h=2 * R / n,
                    error=err,
                    error_def="|A-A_cell|_max",
                    wall_time=time.perf_counter() - t0,
                )
            )
    return _sorted(records)


def sweep_corrector(
    field,
    R_list: Sequence[float],
    cells_per_unit: int = 16,
    variants=(("naive-full", math.inf, 1, "full"), ("k1", None, 1, 1 / 6), ("k2", None, 2, 1 / 6)),
    reference_n: Optional[int] = None,
    rel_tol: float = 1e-8,
) -> list[StudyRecord]:
    """Windowed mean-square corrector gradient errors against the cell corrector.

    The reference is the periodic cell corrector at the same mesh spacing
    (integer cells per unit), so the discretization error largely cancels in
    the comparison and the T/R systematic error dominates.
    """
    field = _field_of(field)
    n_ref = reference_n if reference_n is not None else cells_per_unit
    cell = periodic_cell(field, n_ref)
    records = []
    for R in R_list:
        n = int(round(2 * R * cells_per_unit))
        grid = StructuredGrid.square(R, n)
        for name, Tspec, k, window in variants:
            Tval = (R / 100.0) if Tspec is None else Tspec
            t0 = time.perf_counter()
            bundle = solve_corrector_bundle(field, grid, Tval, k, rel_tol=rel_tol)
            # direction e1 follows the displayed curves; e2 behaves alike
            err = corrector_error(bundle.primal[0], cell.correctors[0], window=window)
            records.append(
                StudyRecord(
                    field=field.name,
                    variant=name,
                    T=Tval,
                    k=k,
                    R=float(R),
                    L=R / 3.0,
                    p=float("nan"),
                    n=n,
                    h=2 * R / n,
                    error=err,
                    error_def=f"fint_w|grad dphi|^2,w={window}",
                    wall_time=time.perf_counter() - t0,
                )
            )
    return _sorted(records)


# ----------------------------------------------------------------------------
# almost-periodic self-estimator


def ap_estimator(
    field,
    R: float,
    cells_per_unit: int,
    T: float,
    k: int,
    kref: int = 3,
    L: Optional[float] = None,
    p=4,
    rel_tol: float = 1e-8,
    bundle=None,
):
    """Self-estimated errors |A_{T,k} - A_{T,kref}| and the corrector analogue.

    Returns (tensor_diff, corrector_diff, bundle): the max-norm tensor
    difference at matched (R, L, p), and the mean-square gradient difference
    of the e1 correctors over the window Q_{L/2}.  The kref ladder is solved
    once and reused for every k < kref.
    """
    if kref <= k:
        raise ValueError("estimator reference order must exceed k")
    field = _field_of(field)
    L = (R / 3.0) if L is None else L
    n = int(round(2 * R * cells_per_unit))
    grid = StructuredGrid.square(R, n)
    filt = build_filter(p)
    if bundle is None:
        bundle = solve_corrector_bundle(field, grid, T, kref, rel_tol=rel_tol)
    bundle_k = bundle.at_level(k)
    Hk = hom_tensor_projected(field, R, n, T, k, L, filt, rel_tol=rel_tol, bundle=bundle_k)
    Href = hom_tensor_projected(field, R, n, T, kref, L, filt, rel_tol=rel_tol, bundle=bundle)
    tensor_diff = _tensor_err(Hk.matrix, Href.matrix)
    corr_diff = corrector_error(bundle_k.primal[0], bundle.primal[0], window=(L / 2.0) / R)
    return tensor_diff, corr_diff, bundle


def sweep_ap(
    field,
    R_list: Sequence[float],
    cells_per_unit: int = 12,
    ks=(1, 2),
    kref: int = 3,
    p=4,
    naive: bool = True,
    rel_tol: float = 1e-8,
) -> list[StudyRecord]:
    """Estimator sweeps for almost-periodic fields, T = R/100, L = R/3."""
    field = _field_of(field)
    records = []
    for R in R_list:
        n = int(round(2 * R * cells_per_unit))
        Tval = R / 100.0
        bundle = None
        for k in ks:
            t0 = time.perf_counter()
            tensor_diff, corr_diff, bundle = ap_estimator(
                field, R, cells_per_unit, Tval, k, kref=kref, p=p, rel_tol=rel_tol, bundle=bundle
            )
            wall = time.perf_counter() - t0
            common = dict(
                field=field.name, T=Tval, k=k, R=float(R), L=R / 3.0, p=p, n=n, h=2 * R / n
            )
            records.append(
                StudyRecord(
                    variant=f"k{k}-tensor", error=tensor_diff,
                    error_def=f"|A_k-A_k{kref}|_max", wall_time=wall, **common,
                )
            )
            records.append(
                StudyRecord(
                    variant=f"k{k}-corr", error=corr_diff,
                    error_def=f"fint|grad(phi_k-phi_k{kref})|^2", wall_time=0.0, **common,
                )
            )
        if naive:
            t0 = time.perf_counter()
            grid = StructuredGrid.square(R, n)
            phi_naive = corrector_ladder(grid, field, math.inf, 1, np.array([1.0, 0.0]), rel_tol=rel_tol)[0]
            corr_diff = corrector_error(phi_naive, bundle.primal[0], window=(R / 6.0) / R)
            records.append(
                StudyRecord(
                    field=field.name, variant="naive-corr", T=math.inf, k=1, R=float(R),
                    L=R / 3.0, p=p, n=n, h=2 * R / n, error=corr_diff,
                    error_def=f"fint|grad(phi_inf-phi_k{kref})|^2",
                    wall_time=time.perf_counter() - t0,
                )
            )
    return _sorted(records)


# ----------------------------------------------------------------------------
# serialization


def _sorted(records):
    return sorted(records, key=lambda r: (r.field, r.variant, r.k, r.R))


def write_csv(records: Sequence[StudyRecord], path_or_buf) -> None:
    """Fixed-column CSV, '.' decimal separator, rows sorted deterministically."""
    rows = [_fmt_row(r.row()) for r in _sorted(list(records))]
    if hasattr(path_or_buf, "write"):
        target = contextlib.nullcontext(path_or_buf)
    else:
        target = open(path_or_buf, "w", newline="")
    with target as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerows(rows)


def _fmt_row(row):
    return [f"{v:.12g}" if isinstance(v, float) else v for v in row]


def write_gnuplot(records: Sequence[StudyRecord], path) -> None:
    """Whitespace-separated (log10 R, log10 error) blocks, one per curve."""
    groups = {}
    for r in _sorted(list(records)):
        groups.setdefault((r.field, r.variant), []).append(r)
    with open(path, "w") as fh:
        for (fname, variant), rs in groups.items():
            fh.write(f"# {fname} {variant}\n")
            for r in rs:
                if r.error > 0 and np.isfinite(r.error):
                    fh.write(f"{math.log10(r.R):.10g} {math.log10(r.error):.10g}\n")
            fh.write("\n\n")
