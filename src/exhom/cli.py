"""Command-line front end.

Subcommands mirror the library surface: `corrector`, `homogenize`,
`reference`, `lattice`, `hmm`, and `study`.  The library API is the primary
interface; the CLI wraps it for quick runs and CSV emission.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import study
from .averaging import build_filter, hom_tensor_prime, hom_tensor_projected
from .coeffs import catalog
from .corrector import corrector_error, corrector_ladder, extrapolate
from .grid import StructuredGrid, gradient_field
from .hmm import fine_reference, hmm_solve, numerical_corrector, reconstructed_gradient, scaled_field
from .lattice import LatticeField, default_pattern, exact_cell_hom, lattice_hom
from .reference import laminate_oracle, periodic_cell
from .study import fit_slope, policy, write_csv, write_gnuplot


def _positive(s, finite=True):
    """A positive number, finite unless `finite` is false."""
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {s!r}") from None
    if not v > 0 or (finite and math.isinf(v)):
        raise argparse.ArgumentTypeError(f"must be positive{' and finite' if finite else ''}, got {s!r}")
    return v


def _parse_T(s):
    """None for 'auto' (the subcommand's default policy), else a positive number or inf."""
    return None if s == "auto" else _positive(s, finite=False)


def _parse_h(s):
    """None for 'auto' (the subcommand's default policy), else a positive finite number."""
    return None if s == "auto" else _positive(s)


def _auto(kind, key, alternatives=", 'inf', or a number"):
    """Help text of an option whose 'auto' value `study.POLICY` chooses."""
    return "'auto' (= {}/{}){}".format(*study.POLICY[kind][key], alternatives)


def _integer(s, least, even=False):
    """An integer of at least `least`, and even if `even`."""
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if v < least or (even and v % 2):
        raise argparse.ArgumentTypeError(f"must be {'an even integer ' if even else ''}at least {least}, got {s!r}")
    return v


def _positive_int(s):
    return _integer(s, 1)


def _cells(s):
    """Cells per dimension of a grid: an integer of at least 2."""
    return _integer(s, 2)


def _lattice_side(s):
    """Box side of the lattice in lattice units: an even integer of at least 8."""
    return _integer(s, 8, even=True)


def _parse_xi(s):
    """The unit vector along 'x1,x2'; zero and non-finite vectors are rejected."""
    try:
        v = np.array([float(t) for t in s.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {s!r}") from None
    norm = math.hypot(*v)
    if v.shape != (2,) or not math.isfinite(norm) or norm == 0.0:
        raise argparse.ArgumentTypeError(f"need a finite nonzero direction 'x1,x2', got {s!r}")
    return v / norm


def _window_fraction(s):
    """The inner window's share of the box half-width: a number in (0, 1]."""
    v = _positive(s)
    if v > 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {s!r}")
    return v


def _rlist(s):
    """Comma-separated positive finite R values."""
    return [_positive(t) for t in s.split(",")]


def _filter_order(s):
    """A filter order that `build_filter` accepts: 0, 1, 2, 3, 4 or inf."""
    try:
        return build_filter(s).order
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a filter order 0..4 or inf, got {s!r}") from None


def cmd_corrector(args):
    field = catalog(args.field)
    grid = StructuredGrid.square(args.R, args.n)
    T = policy("continuum", R=args.R)["T"] if args.T is None else args.T
    sol = extrapolate(corrector_ladder(grid, field, T, args.k, args.xi, dual=args.dual))
    g = sol.gradient_at_quad()
    print(f"corrector: field={args.field} R={args.R} n={args.n} T={T:g} k={args.k}")
    print(f"  mean |grad phi|^2 on the box: {np.mean(np.sum(g * g, axis=1)):.6e}")
    if args.window:
        cell = periodic_cell(field, max(round(args.n / (2 * args.R)), 32))
        # the cell corrector of xi is xi_1 phi_1 + xi_2 phi_2
        phi = cell.dual_correctors if args.dual else cell.correctors
        ref = SimpleNamespace(gradient_at=lambda x: sum(c * p.gradient_at(x) for c, p in zip(sol.xi, phi)))
        err = corrector_error(sol, ref, window=args.window)
        print(f"  window f={args.window}: fint |grad(phi - phi_cell)|^2 = {err:.6e}")
    if args.csv:
        np.savetxt(args.csv, np.column_stack([grid.quad_points(), g]), delimiter=",",
                   header="x1,x2,dphi_dx1,dphi_dx2", comments="")
        print(f"  gradients written to {args.csv}")


def cmd_homogenize(args):
    field = catalog(args.field)
    auto = policy("continuum", R=args.R)
    T = auto["T"] if args.T is None else args.T
    L = auto["L"] if args.L is None else args.L
    filt = build_filter(args.p)
    make = hom_tensor_projected if args.variant == "projected" else hom_tensor_prime
    H = make(field, args.R, args.n, T, args.k, L, filt)
    m = H.matrix
    print(f"A_{{T={T:g},k={args.k},R={args.R:g},L={L:g},p={args.p}}} ({args.variant}):")
    print(f"  [[{m[0,0]: .8f}, {m[0,1]: .8f}],")
    print(f"   [{m[1,0]: .8f}, {m[1,1]: .8f}]]")
    print(f"  min sym eig: {H.min_sym_eig:.6f}   filter quad mass: {H.filter_mass:.10f}")
    if args.csv:
        rec = study.StudyRecord(
            field=args.field, variant=args.variant, T=T, k=args.k, R=args.R, L=L,
            p=H.params["p"], n=args.n, h=2 * args.R / args.n,
            error=float("nan"), error_def="tensor-only", wall_time=0.0,
        )
        _append_csv(args.csv, [rec])


def cmd_reference(args):
    field = catalog(args.field)
    if field.profile is not None:
        oracle = laminate_oracle(field.profile)
        print(f"laminate oracle: diag({oracle[0,0]:.12f}, {oracle[1,1]:.12f})")
    res = periodic_cell(field, args.n)
    A = res.A_hom
    print(f"cell problem (n={args.n}): A_hom =")
    print(f"  [[{A[0,0]: .8f}, {A[0,1]: .8f}],")
    print(f"   [{A[1,0]: .8f}, {A[1,1]: .8f}]]")
    for d, c in enumerate(res.correctors):
        vals = c.u.values
        print(f"  corrector e{d+1}: cell mean {vals.mean():+.2e}, sup |phi| = {np.abs(vals).max():.4f}")


def cmd_lattice(args):
    field = LatticeField.from_file(args.pattern_file) if args.pattern_file else default_pattern()
    Acell = exact_cell_hom(field)
    print(f"pattern {field.name}: exact cell value A_hom = {Acell[0,0]:.12f} (offdiag {Acell[0,1]:.1e})")
    auto = policy("lattice", S=args.R)
    T = auto["T"] if args.T is None else args.T
    A = lattice_hom(field, args.R, T, args.k, auto["L"], build_filter(args.p))
    print(f"A'_{{T={T:g},k={args.k},R={args.R},L={auto['L']:.3f},p={args.p}}} = {A[0,0]:.9f}"
          f" (err {abs(A[0,0]-Acell[0,0]):.3e})")


def cmd_hmm(args):
    field = catalog(args.field)
    f_src = (lambda p: np.ones(p.shape[0])) if args.f == "const" else (
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    )
    auto = policy("hmm", H=args.H, eps=args.eps, k=args.k)
    T = auto["T"] if args.T is None else args.T
    h = auto["h"] if args.h is None else args.h
    res = hmm_solve(field, args.eps, args.H, f_src, delta=args.delta, T=T, k=args.k, h=h, p=auto["p"])
    print(f"HMM: eps={args.eps} H={args.H} T={T:g} k={args.k} delta={args.delta} h={h:g}")
    prov = res.tensor_map.provenance
    print(f"  elements: {res.mesh.n_elements} (computed {prov.count('computed')}, "
          f"copied {prov.count('copied-from-interior')})")
    A0 = res.tensor_map.tensors[0]
    print(f"  first element tensor: [[{A0[0,0]:.5f}, {A0[0,1]:.5f}], [{A0[1,0]:.5f}, {A0[1,1]:.5f}]]")
    if args.reference:
        field_eps = scaled_field(field, args.eps)
        u_eps = fine_reference(field_eps, (1.0, 1.0), h / 2.0, f_src)
        corr = numerical_corrector(res.mesh, res.u, field_eps, args.eps, T, args.kprime or args.k, args.delta, h)
        pts = u_eps.grid.quad_points()
        C = reconstructed_gradient(res.mesh, corr, pts)
        g_eps = gradient_field(u_eps)
        w = u_eps.grid.quad_weight()
        rec_err = math.sqrt(w * np.sum((g_eps - C) ** 2))
        print(f"  ||grad u_eps - C||_L2(D) = {rec_err:.6e}")
    if args.csv:
        rows = []
        for e in range(res.mesh.n_elements):
            Ae = res.tensor_map.tensors[e]
            rows.append([e, *res.mesh.centroids()[e], Ae[0, 0], Ae[0, 1], Ae[1, 0], Ae[1, 1],
                         res.tensor_map.provenance[e]])
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["element", "cx", "cy", "a11", "a12", "a21", "a22", "provenance"])
            w.writerows(rows)
        print(f"  per-element tensors written to {args.csv}")


def cmd_study(args):
    recs = study.run_study(args.preset, args.rlist, **({} if args.kmax is None else {"kmax": args.kmax}))
    for (fname, variant, error_def), rs in sorted(study.curves(recs).items()):
        pts = [r for r in rs if r.error > 0]
        if len(pts) >= 3:
            fit = fit_slope(pts)
            print(f"{fname:10s} {variant:14s} slope {fit.slope:+.3f} over {fit.npoints} points ({error_def})")
    if args.out:
        write_csv(recs, args.out)
        print(f"{len(recs)} records written to {args.out}")
    if args.gnuplot_data:
        write_gnuplot(recs, args.gnuplot_data)
        print(f"gnuplot data written to {args.gnuplot_data}")


def _append_csv(path, records):
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if not exists:
            w.writerow(study.CSV_COLUMNS)
        for r in records:
            w.writerow(study._fmt_row(r.row()))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="exhom", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("corrector", help="solve a regularized/extrapolated box corrector")
    c.add_argument("--field", required=True)
    c.add_argument("--R", type=_positive, required=True)
    c.add_argument("--n", type=_cells, required=True)
    c.add_argument("--T", type=_parse_T, default="auto", help=_auto("continuum", "T"))
    c.add_argument("--k", type=_positive_int, default=1)
    c.add_argument("--xi", type=_parse_xi, default="1,0", help="direction 'x1,x2' (normalized)")
    c.add_argument("--dual", action="store_true")
    c.add_argument("--window", type=_window_fraction, default=None, help="inner window fraction for the error")
    c.add_argument("--csv", default=None)
    c.set_defaults(func=cmd_corrector)

    hcmd = sub.add_parser("homogenize", help="windowed homogenized tensor")
    hcmd.add_argument("--field", required=True)
    hcmd.add_argument("--R", type=_positive, required=True)
    hcmd.add_argument("--n", type=_cells, required=True)
    hcmd.add_argument("--T", type=_parse_T, default="auto", help=_auto("continuum", "T"))
    hcmd.add_argument("--k", type=_positive_int, default=1)
    hcmd.add_argument("--L", type=_positive, default=None)
    hcmd.add_argument("--p", type=_filter_order, default="3")
    hcmd.add_argument("--variant", choices=("prime", "projected"), default="projected")
    hcmd.add_argument("--csv", default=None)
    hcmd.set_defaults(func=cmd_homogenize)

    r = sub.add_parser("reference", help="periodic cell problem / laminate oracle")
    r.add_argument("--field", required=True)
    r.add_argument("--n", type=_cells, default=128)
    r.set_defaults(func=cmd_reference)

    lat = sub.add_parser("lattice", help="exact discrete warm-up pipeline")
    lat.add_argument("--R", type=_lattice_side, default=320, help="box side S in lattice units")
    lat.add_argument("--T", type=_parse_T, default="auto", help=_auto("lattice", "T"))
    lat.add_argument("--k", type=_positive_int, default=1)
    lat.add_argument("--p", type=_filter_order, default="inf")
    lat.add_argument("--pattern-file", default=None)
    lat.set_defaults(func=cmd_lattice)

    hm = sub.add_parser("hmm", help="coarse multiscale pipeline")
    hm.add_argument("--field", default="mat2")
    hm.add_argument("--eps", type=_positive, default=1 / 16)
    hm.add_argument("--H", type=_positive, default=0.25)
    hm.add_argument("--delta", type=_positive, default=1.5)
    hm.add_argument("--T", type=_parse_T, default="auto", help=_auto("hmm", "T"))
    hm.add_argument("--k", type=_positive_int, default=1)
    hm.add_argument("--kprime", type=_positive_int, default=None)
    hm.add_argument("--h", type=_parse_h, default="auto", help=_auto("hmm", "h", " or a number"))
    hm.add_argument("--f", choices=("const", "sin"), default="const")
    hm.add_argument("--reference", action="store_true", help="also run the fine solve")
    hm.add_argument("--csv", default=None)
    hm.set_defaults(func=cmd_hmm)

    st = sub.add_parser("study", help="convergence sweeps with slope fits")
    st.add_argument("--preset", required=True, choices=tuple(study.PRESETS))
    st.add_argument("--kmax", type=_positive_int, default=None,
                    help="highest extrapolation level of the lattice, mat3 and mat5 presets (default 2)")
    st.add_argument("--rlist", type=_rlist, default=None, help="comma-separated R values")
    st.add_argument("--out", default=None)
    st.add_argument("--gnuplot-data", dest="gnuplot_data", default=None)
    st.set_defaults(func=cmd_study)

    args = ap.parse_args(argv)
    if getattr(args, "T", None) == math.inf and (args.k, getattr(args, "kprime", None) or 1) != (1, 1):
        flags = "--k and --kprime" if args.cmd == "hmm" else "--k"
        sub.choices[args.cmd].error(f"--T inf admits no extrapolation: {flags} must be 1")
    if args.cmd == "corrector" and args.window is not None and catalog(args.field).period is None:
        c.error(f"--window needs a periodic field to compare with; {args.field} has no period")
    if args.cmd == "study" and args.kmax is not None and args.preset in ("mat2", "mat4", "hmm"):
        st.error(f"--kmax does not apply to the {args.preset} preset")
    if args.cmd == "study" and args.preset == "lattice":
        try:
            for R in args.rlist or ():
                study.lattice_periods(R)
        except ValueError as exc:
            st.error(f"--rlist: {exc}")
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
