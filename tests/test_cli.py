import argparse
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import exhom.lattice
from exhom.cli import _filter_order, _parse_xi, main
from exhom.coeffs import catalog
from exhom.corrector import corrector_error, corrector_ladder, extrapolate
from exhom.grid import CorrectorOperator, StructuredGrid
from exhom.reference import periodic_cell
from exhom.study import policy


def test_parse_xi_normalizes():
    assert np.allclose(_parse_xi("3,4"), [0.6, 0.8])
    assert np.allclose(_parse_xi("1e308,1e308"), [0.5**0.5, 0.5**0.5])


@pytest.mark.parametrize("text", ["0,0", "0,-0.0", "nan,1", "inf,0", "1", "1,2,3", "a,b"])
def test_parse_xi_rejects_degenerate_directions(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_xi(text)


def test_corrector_command_reports_bad_xi(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--xi", "0,0"])
    assert exc.value.code == 2
    assert "--xi" in capsys.readouterr().err


def test_corrector_command_runs(capsys):
    assert main(["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--T", "0.5", "--k", "2", "--xi", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "mean |grad phi|^2" in out and "nan" not in out


@pytest.mark.parametrize("extra", [["--k", "2"], ["--kprime", "2"]])
def test_hmm_command_rejects_unregularized_extrapolation(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["hmm", "--T", "inf", *extra])
    assert exc.value.code == 2
    assert "--T inf" in capsys.readouterr().err


def test_hmm_command_rejects_malformed_T(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hmm", "--T", "soon"])
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["corrector", "--field", "mat2", "--R", "1", "--n", "8"],
    ["homogenize", "--field", "mat2", "--R", "1", "--n", "8"],
    ["lattice", "--R", "16"],
    ["hmm"],
])
@pytest.mark.parametrize("T", ["0", "-1", "nan", "-inf", "soon"])
def test_T_must_be_auto_inf_or_positive(capsys, cmd, T):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--T", T])
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["corrector", "--field", "mat2", "--R", "1", "--n", "8"],
    ["homogenize", "--field", "mat2", "--R", "1", "--n", "8"],
    ["lattice", "--R", "16"],
])
def test_unregularized_extrapolation_is_an_error(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--T", "inf", "--k", "2"])
    assert exc.value.code == 2
    assert "--T inf" in capsys.readouterr().err


def test_corrector_command_unregularized(capsys):
    assert main(["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--T", "inf"]) == 0
    assert "T=inf" in capsys.readouterr().out


def test_homogenize_command_runs(capsys):
    assert main(["homogenize", "--field", "mat2", "--R", "1", "--n", "8", "--k", "2", "--L", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "min sym eig" in out and "nan" not in out


def test_reference_command_runs(capsys):
    assert main(["reference", "--field", "laminate", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "laminate oracle" in out and "A_hom" in out


def test_lattice_command_runs(capsys):
    assert main(["lattice", "--R", "16", "--k", "2"]) == 0
    assert "exact cell value A_hom = 26.240099009901" in capsys.readouterr().out


def test_study_command_writes_csv(capsys, tmp_path):
    out = tmp_path / "lattice.csv"
    assert main(["study", "--preset", "lattice", "--rlist", "3,4,5", "--out", str(out)]) == 0
    assert "9 records written" in capsys.readouterr().out
    header, *rows = out.read_text().splitlines()
    assert header.startswith("field,variant,T,k,R") and len(rows) == 9


@pytest.mark.parametrize("flag", ["--eps", "--H", "--delta", "--h"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
def test_hmm_lengths_must_be_positive_and_finite(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["hmm", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["corrector", "--field", "mat2", "--n", "8", "--R"],
    ["homogenize", "--field", "mat2", "--n", "8", "--R"],
    ["homogenize", "--field", "mat2", "--R", "1", "--n", "8", "--L"],
])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_box_lengths_must_be_positive_and_finite(capsys, cmd, value):
    # --R -1 used to run on a mirrored grid, and --L -1 to print the tensor of L = 1
    with pytest.raises(SystemExit) as exc:
        main([*cmd, value])
    assert exc.value.code == 2
    assert cmd[-1] in capsys.readouterr().err


@pytest.mark.parametrize("cmd, values", [
    (["corrector", "--field", "mat2", "--R", "1", "--n"], ["1", "0", "-4", "2.5", "many"]),
    (["homogenize", "--field", "mat2", "--R", "1", "--n"], ["1", "0", "-4", "2.5", "many"]),
    (["reference", "--field", "mat2", "--n"], ["1", "0", "-4", "2.5", "many"]),
    (["lattice", "--R"], ["7", "6", "0", "-8", "9", "16.0", "many"]),
])
def test_cell_counts_and_lattice_side_are_checked(capsys, cmd, values):
    # these used to reach the library and end in a ValueError traceback
    for value in values:
        with pytest.raises(SystemExit) as exc:
            main([*cmd, value])
        assert exc.value.code == 2
        assert cmd[-1] in capsys.readouterr().err


def test_smallest_cell_count_and_lattice_side_run(capsys):
    assert main(["corrector", "--field", "mat2", "--R", "1", "--n", "2"]) == 0
    assert main(["reference", "--field", "mat2", "--n", "2"]) == 0
    assert main(["lattice", "--R", "8"]) == 0
    assert "nan" not in capsys.readouterr().out


@pytest.mark.parametrize("cmd", [
    ["corrector", "--field", "mat2", "--R", "1", "--n", "8", "--k"],
    ["homogenize", "--field", "mat2", "--R", "1", "--n", "8", "--k"],
    ["lattice", "--R", "16", "--k"],
    ["hmm", "--k"],
    ["hmm", "--kprime"],
])
@pytest.mark.parametrize("k", ["0", "-1", "1.5"])
def test_extrapolation_levels_must_be_positive_integers(capsys, cmd, k):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, k])
    assert exc.value.code == 2
    assert cmd[-1] in capsys.readouterr().err


@pytest.mark.parametrize("preset, rlist, message", [
    ("lattice", "3,3.5", "R=3.5"),  # used to run as R = 3
    ("mat2", "1,0", "positive"),
    ("mat4", "1,x", "positive number"),
])
def test_study_rlist_is_checked_before_any_solve(capsys, preset, rlist, message):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--preset", preset, "--rlist", rlist])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--rlist" in err and message in err


@pytest.mark.parametrize("preset", ["mat2", "mat4", "hmm"])
def test_study_rejects_kmax_where_it_does_not_apply(capsys, preset):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--preset", preset, "--kmax", "2"])
    assert exc.value.code == 2
    assert "--kmax does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("kmax", ["0", "-1", "two"])
def test_study_kmax_must_be_a_positive_integer(capsys, kmax):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--preset", "lattice", "--kmax", kmax])
    assert exc.value.code == 2
    assert "--kmax" in capsys.readouterr().err


def test_study_lattice_runs_every_level_up_to_kmax(tmp_path):
    out = tmp_path / "lattice.csv"
    assert main(["study", "--preset", "lattice", "--rlist", "3", "--kmax", "3", "--out", str(out)]) == 0
    variants = [row.split(",")[1] for row in out.read_text().splitlines()[1:]]
    assert sorted(variants) == ["k1", "k2", "k3", "naive"]


def test_study_ap_preset_raises_its_reference_level_with_kmax(tmp_path):
    # the estimator compares level k with a higher reference level; kmax = 3
    # used to fail at k = 3 after solving the lower levels
    out = tmp_path / "mat3.csv"
    assert main(["study", "--preset", "mat3", "--rlist", "1", "--kmax", "3", "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert sorted({r[1] for r in rows if r[1].endswith("-tensor")}) == ["k1-tensor", "k2-tensor", "k3-tensor"]


def test_study_hmm_preset_records_three_H_and_fits_a_slope(tmp_path, capsys):
    out = tmp_path / "hmm.csv"
    assert main(["study", "--preset", "hmm", "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [float(r[4]) for r in rows] == [2.0, 4.0, 8.0]  # R = 1/H
    for r in rows:
        H = 1 / float(r[4])
        auto = policy("hmm", H=H, eps=1 / 16, k=1)
        assert [r[2], r[5], r[6], r[7], r[8]] == [
            f"{auto['T']:.12g}", f"{H / 2:.12g}", str(auto["p"]), str(2 * round(1 / H) ** 2), f"{auto['h']:.12g}"
        ]
    errors = [float(r[9]) for r in rows]
    assert errors == sorted(errors, reverse=True)
    assert "mat2-hmm   k1             slope" in capsys.readouterr().out


def test_corrector_window_runs_below_half_a_cell(capsys):
    # --R 0.4 used to end in a ZeroDivisionError from n // int(2 R)
    assert main(["corrector", "--field", "mat2", "--R", "0.4", "--n", "8", "--window", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "window f=0.5" in out and "nan" not in out


def test_corrector_window_compares_an_oblique_xi_with_the_combined_cell_corrector(capsys):
    # the reference used to be the e2 cell corrector alone: 4.84e-1 against 1.17e-2
    assert main(["corrector", "--field", "mat2", "--R", "2", "--n", "64", "--k", "2", "--window", "0.5",
                 "--xi", "0.6,0.8"]) == 0
    printed = float(capsys.readouterr().out.rsplit("=", 1)[1])
    field, xi = catalog("mat2"), np.array([0.6, 0.8])
    sol = extrapolate(corrector_ladder(StructuredGrid.square(2.0, 64), field, 0.02, 2, xi))
    phi = periodic_cell(field, 32).correctors
    ref = SimpleNamespace(gradient_at=lambda x: xi[0] * phi[0].gradient_at(x) + xi[1] * phi[1].gradient_at(x))
    assert printed == pytest.approx(corrector_error(sol, ref, window=0.5), rel=1e-6)
    assert printed < 0.02


@pytest.mark.parametrize("cmd, flag, value", [
    *[(["homogenize", "--field", "mat2", "--R", "1", "--n", "8"], "--p", v) for v in ("x", "7", "3.5", "-1", "")],
    *[(["lattice", "--R", "16"], "--p", v) for v in ("x", "7", "nan")],
    *[(["corrector", "--field", "mat2", "--R", "1", "--n", "8"], "--window", v)
      for v in ("nan", "0", "-0.5", "1.5", "inf", "soon")],
    (["corrector", "--field", "mat3", "--R", "1", "--n", "8"], "--window", "0.5"),
])
def test_p_and_window_are_checked_before_any_solve(capsys, monkeypatch, cmd, flag, value):
    # --p x and --p 7 used to end in tracebacks, --window nan after the box
    # solve, --window 0 skipped the error line, and on mat3, which has no
    # period to compare with, --window was ignored without a word
    def no_solve(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(CorrectorOperator, "from_field", no_solve)
    monkeypatch.setattr(exhom.lattice, "_lattice_operator", no_solve)
    with pytest.raises(SystemExit) as exc:
        main([*cmd, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_filter_orders_accepted_by_the_cli():
    assert [_filter_order(s) for s in ("0", "4", "inf", "oo")] == [0, 4, math.inf, math.inf]


@pytest.mark.parametrize("cmd, kind, sizes, shown", [
    (["corrector", "--field", "mat2", "--R", "1.5", "--n", "8"], "continuum", dict(R=1.5), {"T": "g"}),
    (["homogenize", "--field", "mat2", "--R", "1.5", "--n", "8"], "continuum", dict(R=1.5), {"T": "g", "L": "g"}),
    (["lattice", "--R", "16"], "lattice", dict(S=16), {"T": "g", "L": ".3f"}),
    (["hmm", "--H", "0.5", "--eps", "0.125"], "hmm", dict(H=0.5, eps=0.125, k=1), {"T": "g", "h": "g"}),
])
def test_auto_prints_the_policy(capsys, cmd, kind, sizes, shown):
    # the lattice used to take T = S/10 and L = S/3, the lattice study S/40 and S/12
    assert main(cmd) == 0
    out = capsys.readouterr().out
    auto = policy(kind, **sizes)
    for key, fmt in shown.items():
        assert re.search(rf"\b{key}=([^\s,}}]+)", out).group(1) == format(auto[key], fmt)
