import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from exhom.averaging import solve_corrector_bundle
from exhom.coeffs import catalog
from exhom.grid import StructuredGrid
from exhom.study import (
    CSV_COLUMNS,
    StudyRecord,
    sweep_ap,
    sweep_corrector,
    sweep_lattice,
    sweep_periodic_tensor,
    write_csv,
)


def _assert_finite_positive(records, count):
    assert len(records) == count
    for r in records:
        assert math.isfinite(r.error) and r.error > 0.0, r


def test_sweep_lattice_tiny():
    _assert_finite_positive(sweep_lattice([3, 4, 5]), 9)


def test_sweep_corrector_tiny():
    _assert_finite_positive(sweep_corrector("mat2", [1, 1.5, 2], cells_per_unit=4), 9)


def test_sweep_periodic_tensor_tiny():
    _assert_finite_positive(sweep_periodic_tensor("mat2", [1.5, 2, 3], cells_per_unit=4, reference_n=8), 9)


def test_sweep_ap_tiny():
    # per R: k1 and k2 tensor and corrector estimates, plus the naive corrector
    _assert_finite_positive(sweep_ap("mat3", [1.5, 2], cells_per_unit=4), 10)


def test_sweep_failure_propagates():
    with pytest.raises(ValueError):
        sweep_corrector("mat2", [1.0], cells_per_unit=4, rel_tol=1.0)


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
