import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest

import exhom.study
from exhom.averaging import solve_corrector_bundle
from exhom.coeffs import catalog
from exhom.grid import StructuredGrid
from exhom.study import CSV_COLUMNS, StudyRecord, curves, fit_slope, policy, run_study, write_csv, write_gnuplot


def _assert_policy_records(records, count, expected):
    """`count` records, each with a finite positive error and the columns
    that `expected(R)` gives, except T = inf on the naive curves."""
    assert len(records) == count
    for r in records:
        assert math.isfinite(r.error) and r.error > 0.0, r
        want = expected(r.R)
        if r.variant.startswith("naive"):
            want["T"] = math.inf
        assert {key: getattr(r, key) for key in want} == want, r


def _continuum(R, cells_per_unit=4):
    n = round(2 * R * cells_per_unit)
    return dict(policy("continuum", R=R), n=n, h=2 * R / n)


def test_sweep_lattice_tiny():
    # R counts periods: the box side is S = 4R lattice units
    expected = lambda R: dict(policy("lattice", S=4 * R), n=4 * R, h=1.0)
    _assert_policy_records(run_study("lattice", [3, 4, 5]), 9, expected)


@pytest.fixture(scope="module")
def mat2_tiny():
    return run_study("mat2", [1, 1.5, 2], cells_per_unit=4)


def test_sweep_corrector_tiny(mat2_tiny):
    # mat2: the corrector curves (naive-full, k1, k2) and the tensor curves (naive, k1, k2)
    _assert_policy_records(mat2_tiny, 18, _continuum)


def test_corrector_and_tensor_curves_of_one_variant_stay_apart(mat2_tiny, tmp_path):
    # both mat2 curve families name their extrapolated variants k1 and k2; one
    # slope fit and one gnuplot block used to mix their six errors
    groups = curves(mat2_tiny)
    assert len(groups) == 6 and all(len(rs) == 3 for rs in groups.values())
    corr_def = next(r.error_def for r in mat2_tiny if r.error_def.startswith("fint_w") and r.variant == "k1")
    for variant in ("k1", "k2"):
        corr, tensor = groups["mat2", variant, corr_def], groups["mat2", variant, "|A-A_cell|_max"]
        assert fit_slope(corr).npoints == fit_slope(tensor).npoints == 3
        assert fit_slope(corr).slope != fit_slope(tensor).slope
    path = tmp_path / "mat2.dat"
    write_gnuplot(mat2_tiny, path)
    blocks = [b.splitlines() for b in path.read_text().split("\n\n\n") if b.strip()]
    assert [b[0] for b in blocks] == ["# {} {} {}".format(*key) for key in groups]
    assert {f"# mat2 k1 {corr_def}", "# mat2 k1 |A-A_cell|_max"} <= {b[0] for b in blocks}
    assert all(len(b) == 4 for b in blocks)  # the header and three points


@pytest.mark.parametrize("R", [3.5, 0.0, math.nan, math.inf])
def test_lattice_preset_rejects_a_fractional_period_count(R):
    # R = 3.5 used to run as R = 3 (box side 4 * int(R))
    with pytest.raises(ValueError, match=re.escape(f"R={R!r}")):
        run_study("lattice", [3, R])


def test_sweep_periodic_tensor_tiny():
    _assert_policy_records(run_study("mat4", [1.5, 2, 3], cells_per_unit=4), 9, _continuum)


def test_sweep_ap_tiny():
    # per R: k1 and k2 tensor and corrector estimates, plus the naive corrector
    _assert_policy_records(run_study("mat3", [1.5, 2], cells_per_unit=4), 10, _continuum)


def test_sweep_failure_propagates(monkeypatch):
    # a solver that rejects its input raises out of the driver, not into a NaN row
    monkeypatch.setattr(exhom.study, "_REL_TOL", 1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        run_study("mat2", [1.0], cells_per_unit=4)


def test_policy_values():
    assert policy("continuum", R=10) == {"T": 10 / 100, "L": 10 / 3}
    assert policy("lattice", S=320) == {"T": 8.0, "L": 320 / 12}
    assert policy("hmm", H=0.25, eps=1 / 16, k=2) == {"T": 4.0, "h": 1 / 128, "p": 3}
    # per side, the lattice rule is bitwise the earlier per-period rule T = R/10, L = R/3
    for R in range(1, 200):
        assert policy("lattice", S=4 * R) == {"T": R / 10.0, "L": R / 3.0}


@pytest.mark.parametrize("name", ["mat2", "mat4"])
def test_bundle_at_level_matches_fresh_solve(name):
    field = catalog(name)
    grid = StructuredGrid.square(1.0, 8)
    long = solve_corrector_bundle(field, grid, 0.5, 1, kmax=3)
    fresh = solve_corrector_bundle(field, grid, 0.5, 2)
    viewed = long.at_level(2)
    assert viewed.k == 2 and viewed.ladders is long.ladders
    for got, want in zip(viewed.primal + viewed.dual, fresh.primal + fresh.dual):
        assert np.allclose(got.u.values, want.u.values, rtol=0.0, atol=1e-12)
    assert (viewed.dual is viewed.primal) == field.is_symmetric


def test_bundle_level_beyond_ladder_raises():
    bundle = solve_corrector_bundle(catalog("mat2"), StructuredGrid.square(1.0, 8), 0.5, 2)
    with pytest.raises(ValueError, match="rungs"):
        bundle.at_level(3)


def test_write_csv_header_and_roundtrip(tmp_path):
    recs = [
        StudyRecord("mat2", "k1", 0.1, 1, 10.0, 10 / 3, 3, 40, 0.5, 1.25e-3, "|A-A_cell|_max", 0.5),
        StudyRecord("mat2", "k2", 0.1, 2, 5.0, 5 / 3, 4, 20, 0.5, float("nan"), "def, with comma", 0.0),
    ]
    assert CSV_COLUMNS == [f.name for f in dataclasses.fields(StudyRecord)]
    buf = io.StringIO()
    write_csv(recs, buf)
    path = tmp_path / "out.csv"
    write_csv(recs, path)
    assert path.read_text() == buf.getvalue()
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    for rec, row in zip(recs, rows[1:]):
        for f, text in zip(dataclasses.fields(StudyRecord), row):
            value = getattr(rec, f.name)
            if isinstance(value, float):
                assert float(text) == pytest.approx(value, rel=1e-11, nan_ok=True)
            else:
                assert text == str(value)
