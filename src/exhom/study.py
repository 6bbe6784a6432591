"""Convergence studies: one parameter policy, one sweep driver, CSV records.

The policy.  `POLICY` holds every value that a study, or a CLI option left at
'auto', chooses for the user:

- a continuum box of half-width R: T = R/100 and L = R/3;
- a lattice box of side S in lattice units: T = S/40 and L = S/12;
- an HMM run on a coarse mesh of size H over a field of period eps:
  T = H/eps, h = eps/8 and, at level k, the filter order p = 2k - 1.

`policy(kind, **sizes)` evaluates it, and no other code picks these values.

The driver.  `run_study(preset, R_list)` is the one loop over (R, variant).
A preset is a box rule and a variant table.  The box rule gives the columns
that every record at one R shares (R, n, h, T, L and p, from the policy), and
a variant names a curve, its level k, where it differs from the box (T = inf
for the naive, unregularized approximation; a filter order p) and a measure
that returns one error.  The driver times each measure, fills the record and
sorts the records.  A curve is the records of one (field, variant, error_def):
one preset may plot two quantities under one variant name (`curves`).  The
presets:

- `lattice`: |A'_{T,k} - A_cell| on the 4-periodic network, against its exact
  cell value.  R counts whole periods (`lattice_periods`), so the box side
  is S = 4R.
- `mat2`: the windowed corrector-gradient error and the tensor error against
  the periodic cell solved at the same mesh spacing, so the discretization
  error largely cancels; `mat4`: the tensor error alone.
- `mat3` and `mat5`: an almost-periodic field has no computable reference,
  so the error is the paper-style self-estimator: the distance to a
  higher-order extrapolation (kref = max(3, kmax + 1)) of the same quantity
  on the same grid.  One kref ladder per R serves every level k < kref.
- `hmm`: the H1 distance of the HMM solution on mat2 to the homogenized
  solution, with R = 1/H.

Slopes are ordinary least squares in log10-log10 coordinates.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import astuple, dataclass, fields
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .averaging import build_filter, hom_tensor_projected, solve_corrector_bundle
from .coeffs import catalog, constant
from .corrector import corrector_error, corrector_ladder
from .grid import StructuredGrid
from .hmm import CoarseMesh, fine_reference, h1_distance, hmm_solve
from .lattice import default_pattern, exact_cell_hom, lattice_hom
from .reference import periodic_cell

__all__ = [
    "POLICY",
    "policy",
    "StudyRecord",
    "SlopeFit",
    "fit_slope",
    "curves",
    "Variant",
    "run_study",
    "lattice_periods",
    "PRESETS",
    "write_csv",
    "write_gnuplot",
]


# Each value is a quotient (numerator, divisor) of a run's sizes, where a
# divisor is a number or the name of another size.
POLICY = {
    "continuum": {"T": ("R", 100), "L": ("R", 3)},
    "lattice": {"T": ("S", 40), "L": ("S", 12)},
    "hmm": {"T": ("H", "eps"), "h": ("eps", 8)},
}


def policy(kind: str, **sizes) -> dict:
    """The values that `POLICY[kind]` chooses at the given sizes.

    policy("continuum", R=10) == {"T": 0.1, "L": 10 / 3}.  An HMM run takes
    H, eps and its level k, and also gets its filter order p = 2k - 1.
    """
    values = {key: sizes[a] / sizes.get(b, b) for key, (a, b) in POLICY[kind].items()}
    if kind == "hmm":
        values["p"] = 2 * sizes["k"] - 1
    return values


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


def fit_slope(records: Sequence[StudyRecord]) -> SlopeFit:
    """Least-squares slope of log10(error) against log10(R).

    Needs at least three records with strictly positive errors.
    """
    if len(records) < 3:
        raise ValueError("slope fit needs at least 3 points")
    R = np.array([r.R for r in records])
    E = np.array([r.error for r in records])
    if np.any(E <= 0.0):
        raise ValueError("slope fit needs strictly positive errors")
    coeffs, res_info = np.polyfit(np.log10(R), np.log10(E), 1, full=True)[:2]
    resid = float(res_info[0]) if len(res_info) else 0.0
    return SlopeFit(slope=float(coeffs[0]), intercept=float(coeffs[1]), residual=resid, npoints=len(records))


def curves(records: Sequence[StudyRecord]) -> dict:
    """The sorted records of each curve, keyed (field, variant, error_def)."""
    groups = {}
    for r in _sorted(list(records)):
        groups.setdefault((r.field, r.variant, r.error_def), []).append(r)
    return groups


def _tensor_err(A, Aref) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(Aref))))


# ----------------------------------------------------------------------------
# the driver


@dataclass(frozen=True)
class Variant:
    """One curve of a preset.

    `measure(box, T, k, p)` returns the error at one R.  T and p default to
    the box's; T = math.inf is the naive approximation.
    """

    name: str
    k: int
    error_def: str
    measure: Callable
    T: Optional[float] = None
    p: Optional[float] = None


def run_study(preset: str, R_list: Optional[Sequence[float]] = None, **options) -> list[StudyRecord]:
    """The records of `preset` over R_list (default: the preset's own).

    The options are `kmax`, the highest level of the lattice, mat3 and mat5
    presets (default 2), and `cells_per_unit`, the mesh density of the
    continuum presets (16 for mat2 and mat4, 12 for mat3 and mat5).  Every
    R is checked by the box rule before anything is measured.
    """
    field, R_default, box_of, variants = PRESETS[preset](**options)
    records = []
    for box in [box_of(R) for R in (R_default if R_list is None else R_list)]:
        for v in variants:
            T = box.T if v.T is None else v.T
            p = box.p if v.p is None else v.p
            t0 = time.perf_counter()
            error = v.measure(box, T, v.k, p)
            records.append(
                StudyRecord(
                    field=field, variant=v.name, T=T, k=v.k, R=float(box.R), L=box.L, p=p, n=box.n, h=box.h,
                    error=error, error_def=v.error_def, wall_time=time.perf_counter() - t0,
                )
            )
    return _sorted(records)


# ----------------------------------------------------------------------------
# the presets: each returns (field name, default R list, box rule, variants)

_REL_TOL = 1e-8  # Krylov tolerance of the continuum presets


def _continuum_box(cells_per_unit):
    # p is nan for the curves that filter nothing; the others set their own
    def box(R):
        n = int(round(2 * R * cells_per_unit))
        return SimpleNamespace(R=R, n=n, h=2 * R / n, p=math.nan, bundles={}, **policy("continuum", R=R))

    return box


def _bundle(field, box, T, k):
    """The corrector bundle of `field` on the box at (T, k), solved once per box."""
    if (T, k) not in box.bundles:
        grid = StructuredGrid.square(box.R, box.n)
        box.bundles[T, k] = solve_corrector_bundle(field, grid, T, k, rel_tol=_REL_TOL)
    return box.bundles[T, k]


def _tensor(field, box, T, k, filt, bundle):
    """The projected tensor of a solved bundle over the box's window L."""
    return hom_tensor_projected(field, box.R, box.n, T, k, box.L, filt, rel_tol=_REL_TOL, bundle=bundle).matrix


def lattice_periods(R) -> int:
    """R as the whole number of periods of a lattice box; ValueError naming R otherwise."""
    if not (R >= 1 and float(R).is_integer()):  # also rejects NaN and inf
        raise ValueError(f"the lattice preset needs a whole number R >= 1 of periods, got R={R!r}")
    return int(R)


def _lattice(kmax=2):
    field = default_pattern()
    Aref = exact_cell_hom(field)
    filt = build_filter("inf")

    def box(R):
        R = lattice_periods(R)
        S = 4 * R
        return SimpleNamespace(R=R, n=S, h=1.0, p=filt.order, **policy("lattice", S=S))

    def measure(box, T, k, p):
        return _tensor_err(lattice_hom(field, box.n, T, k, box.L, filt), Aref)

    levels = [("naive", 1, math.inf)] + [(f"k{k}", k, None) for k in range(1, kmax + 1)]
    variants = [Variant(name, k, "|A'-A_cell|_max", measure, T=T) for name, k, T in levels]
    return field.name, (20, 40, 60, 80, 100), box, variants


def _periodic(name, with_corrector):
    """Tensor errors, and corrector errors if `with_corrector`, against the
    periodic cell at the box's cells per unit.  Both share each box solve."""

    def make(cells_per_unit=16):
        field = catalog(name)
        cell = periodic_cell(field, cells_per_unit)

        def corrector(window):
            def measure(box, T, k, p):
                # direction e1 follows the displayed curves; e2 behaves alike
                return corrector_error(_bundle(field, box, T, k).primal[0], cell.correctors[0], window=window)

            return measure

        def tensor(box, T, k, p):
            return _tensor_err(_tensor(field, box, T, k, build_filter(p), _bundle(field, box, T, k)), cell.A_hom)

        variants = [
            Variant(name, k, "|A-A_cell|_max", tensor, T=T, p=p)
            for name, k, T, p in (("naive", 1, math.inf, 0), ("k1", 1, None, 3), ("k2", 2, None, 4))
        ]
        if with_corrector:
            windows = (("naive-full", 1, math.inf, "full"), ("k1", 1, None, 1 / 6), ("k2", 2, None, 1 / 6))
            variants[:0] = [
                Variant(name, k, f"fint_w|grad dphi|^2,w={w}", corrector(w), T=T) for name, k, T, w in windows
            ]
        return field.name, (5, 10, 20), _continuum_box(cells_per_unit), variants

    return make


def _almost_periodic(name):
    """Self-estimated errors |A_k - A_kref| and the corrector analogue, all
    against the kref ladder at the box's policy T."""

    def make(kmax=2, cells_per_unit=12):
        field = catalog(name)
        kref = max(3, kmax + 1)
        filt = build_filter(4)

        def tensor(box, T, k, p):
            bundle = _bundle(field, box, box.T, kref)
            Ak, Aref = (_tensor(field, box, T, j, filt, bundle.at_level(j)) for j in (k, kref))
            return _tensor_err(Ak, Aref)

        def corr(box, T, k, p):
            bundle = _bundle(field, box, box.T, kref)
            if math.isinf(T):
                phi = corrector_ladder(bundle.grid, field, T, 1, np.array([1.0, 0.0]), rel_tol=_REL_TOL)[0]
            else:
                phi = bundle.at_level(k).primal[0]
            return corrector_error(phi, bundle.primal[0], window=(box.L / 2.0) / box.R)

        variants = [
            Variant(f"k{k}-{what}", k, error_def, measure, p=filt.order)
            for k in range(1, kmax + 1)
            for what, error_def, measure in (
                ("tensor", f"|A_k-A_k{kref}|_max", tensor),
                ("corr", f"fint|grad(phi_k-phi_k{kref})|^2", corr),
            )
        ]
        naive = Variant("naive-corr", 1, f"fint|grad(phi_inf-phi_k{kref})|^2", corr, T=math.inf, p=filt.order)
        return field.name, (5, 10, 20, 30), _continuum_box(cells_per_unit), variants + [naive]

    return make


def _hmm():
    """The HMM solution on mat2 at eps = 1/16, against the homogenized solve."""
    field, eps = catalog("mat2"), 1.0 / 16.0
    f_src = lambda p: np.ones(p.shape[0])
    u_hom = fine_reference(constant(periodic_cell(field, 128).A_hom), (1.0, 1.0), 1.0 / 256, f_src)

    def box(R):
        H = 1.0 / R
        return SimpleNamespace(
            R=R, H=H, n=CoarseMesh.unit_square(H).n_elements, L=H / 2, **policy("hmm", H=H, eps=eps, k=1)
        )

    def measure(box, T, k, p):
        return h1_distance(u_hom, hmm_solve(field, eps, box.H, f_src, T=T, k=k, h=box.h, p=p).u)[2]

    return "mat2-hmm", (2, 4, 8), box, [Variant("k1", 1, "|u_HMM-u_hom|_H1", measure)]


PRESETS = {
    "lattice": _lattice,
    "mat2": _periodic("mat2", with_corrector=True),
    "mat3": _almost_periodic("mat3"),
    "mat4": _periodic("mat4", with_corrector=False),
    "mat5": _almost_periodic("mat5"),
    "hmm": _hmm,
}


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
    """Whitespace-separated (log10 R, log10 error) blocks, one per curve (`curves`)."""
    with open(path, "w") as fh:
        for (fname, variant, error_def), rs in curves(records).items():
            fh.write(f"# {fname} {variant} {error_def}\n")
            for r in rs:
                if r.error > 0 and np.isfinite(r.error):
                    fh.write(f"{math.log10(r.R):.10g} {math.log10(r.error):.10g}\n")
            fh.write("\n\n")
