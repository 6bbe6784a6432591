import math
from fractions import Fraction

import numpy as np
import pytest

from exhom.averaging import build_filter
from exhom.lattice import (
    PUBLISHED_CELL_VALUE,
    _box_correctors,
    LatticeField,
    default_pattern,
    exact_cell_hom,
    exact_cell_hom_rational,
    lattice_corrector,
    lattice_energy_identity,
    lattice_hom,
    weave_pattern,
)


def test_default_pattern_is_binary_and_periodic():
    f = default_pattern()
    assert set(np.unique(f.h)) == {1.0, 100.0}
    assert set(np.unique(f.v)) == {1.0, 100.0}
    # periodic indexing wraps mod 4
    assert f.a_h(5, -3) == f.a_h(1, 1)


def test_default_pattern_exact_cell_value():
    A = exact_cell_hom_rational(default_pattern())
    assert A[0][0] == Fraction(10601, 404)
    assert A[1][1] == Fraction(10601, 404)
    assert A[0][1] == 0 and A[1][0] == 0
    Af = exact_cell_hom(default_pattern())
    assert Af[0, 0] == pytest.approx(PUBLISHED_CELL_VALUE, abs=1e-10)


def test_default_pattern_rotation_invariance():
    # v is the quarter-turn image of h: v[p, q] = h[q, (-p) % 4]
    f = default_pattern()
    for p in range(4):
        for q in range(4):
            assert f.v[p, q] == f.h[q, (-p) % 4]


def test_weave_pattern_closed_form():
    A = exact_cell_hom_rational(weave_pattern())
    assert A[0][0] == Fraction(10601, 404)
    # wire profile mean: (1 + 100 + 2 * 200/101) / 4
    assert Fraction(1 + 100, 4) + Fraction(200, 101) / 2 == Fraction(10601, 404)
    # correctors vanish identically for uniform wires
    c = lattice_corrector(weave_pattern(), R=24, T=4.0, k=1)
    assert np.abs(c.nodal).max() == 0.0


def test_uniform_network_trivial():
    ones = LatticeField(h=np.full((4, 4), 7.0), v=np.full((4, 4), 7.0))
    c = lattice_corrector(ones, R=24, T=2.0, k=1)
    assert np.abs(c.nodal).max() == 0.0
    A = lattice_hom(ones, R=40, T=4.0, k=1, L=40 / 6, filt=build_filter("inf"))
    assert np.allclose(A, 7.0 * np.eye(2), atol=1e-12)


def test_energy_identity():
    f = default_pattern()
    c = lattice_corrector(f, R=40, T=4.0, k=1, xi=(1.0, 0.0))
    assert np.abs(c.nodal).max() > 0.1  # nontrivial corrector
    assert lattice_energy_identity(f, c) <= 1e-10


def test_extrapolated_k2_is_nodewise_combination():
    f = default_pattern()
    c1 = lattice_corrector(f, R=32, T=2.0, k=1)
    c2 = lattice_corrector(f, R=32, T=4.0, k=1)
    ce = lattice_corrector(f, R=32, T=2.0, k=2)
    assert np.allclose(ce.nodal, 2.0 * c2.nodal - c1.nodal, atol=1e-10)


def test_isotropy_of_filtered_tensor():
    f = default_pattern()
    A = lattice_hom(f, R=80, T=2.0, k=1, L=20 / 3, filt=build_filter("inf"))
    assert abs(A[0, 1]) <= 1e-8 * abs(A[0, 0])
    assert abs(A[1, 0]) <= 1e-8 * abs(A[0, 0])
    assert abs(A[0, 0] - A[1, 1]) <= 1e-8 * abs(A[0, 0])


def test_naive_corrector_max_principle_bound():
    f = default_pattern()
    R = 40
    c = lattice_corrector(f, R=R, T=math.inf, k=1, xi=(1.0, 0.0))
    beta, alpha = 100.0, 1.0
    assert np.abs(c.nodal).max() <= 4 * R * beta / alpha


def test_window_validation():
    f = default_pattern()
    with pytest.raises(ValueError, match="exceeds"):
        lattice_hom(f, R=24, T=2.0, k=1, L=13.0, filt=build_filter("inf"))


def test_T_inf_rejects_k2():
    with pytest.raises(ValueError):
        lattice_corrector(default_pattern(), R=24, T=math.inf, k=2)


def test_pattern_file_roundtrip(tmp_path):
    f = default_pattern()
    path = tmp_path / "pattern.txt"
    lines = ["# horizontal edges"]
    lines += [" ".join(str(int(x)) for x in row) for row in f.h]
    lines += ["# vertical edges"]
    lines += [" ".join(str(int(x)) for x in row) for row in f.v]
    path.write_text("\n".join(lines))
    g = LatticeField.from_file(path)
    assert np.array_equal(g.h, f.h)
    assert np.array_equal(g.v, f.v)


def test_pattern_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    for bad in ("0", "-2", "nan", "inf"):
        path.write_text(" ".join(["2"] * 31 + [bad]))
        with pytest.raises(ValueError, match="positive and finite"):
            LatticeField.from_file(path)
    path.write_text(" ".join(["1"] * 31))
    with pytest.raises(ValueError, match="expected 32"):
        LatticeField.from_file(path)


def test_pattern_file_with_any_positive_wires(tmp_path):
    # a weave of wires 2, 3, 5, 7: uniform wires have zero correctors, so
    # the cell value is the mean wire conductance, 17/4
    w = [2, 3, 5, 7]
    lines = ["# horizontal edges: h[i, j] = w(j)"] + [" ".join(map(str, w))] * 4
    lines += ["# vertical edges: v[i, j] = w(i)"] + [" ".join([str(x)] * 4) for x in w]
    path = tmp_path / "weave.txt"
    path.write_text("\n".join(lines))
    f = LatticeField.from_file(path)
    assert exact_cell_hom_rational(f) == [[Fraction(17, 4), 0], [0, Fraction(17, 4)]]


def test_published_value_decomposition():
    # 26.240099009901... = (1 + 100 + 2 * harmonic_mean(1, 100)) / 4
    hm = 2 * 1 * 100 / (1 + 100)
    assert (1 + 100 + 2 * hm) / 4 == pytest.approx(PUBLISHED_CELL_VALUE, abs=1e-12)


@pytest.mark.parametrize("p, L", [("inf", 16.0), ("inf", 32.0), (0, 10.5), (3, 7.0)])
def test_windowed_lattice_tensor_matches_all_edges(p, L):
    # the window's edges carry every nonzero weight: summing over all box
    # edges with the same correctors gives the same tensor
    field, R, T, k = default_pattern(), 64, 8.0, 2
    filt = build_filter(p)
    corr = _box_correctors(field, R, T, k, np.eye(2), 1e-12)
    coords = np.arange(-(R // 2), R // 2 + 1)
    I1, I2 = np.meshgrid(coords, coords, indexing="ij")
    ah, av = field.a_h(I1, I2), field.a_v(I1, I2)
    X1, X2 = I1.astype(float), I2.astype(float)
    wh = filt.weights_nd(np.stack([(X1[:-1] + 0.5).ravel(), X2[:-1].ravel()], axis=1), L).reshape(R, R + 1)
    wv = filt.weights_nd(np.stack([X1[:, :-1].ravel(), (X2[:, :-1] + 0.5).ravel()], axis=1), L).reshape(R + 1, R)
    g1 = [c.nodal[1:, :] - c.nodal[:-1, :] for c in corr]
    g2 = [c.nodal[:, 1:] - c.nodal[:, :-1] for c in corr]
    eye = np.eye(2)
    ref = np.array([
        [
            (wh * ah[:-1] * (eye[a, 0] + g1[a]) * (eye[b, 0] + g1[b])).sum() / wh.sum()
            + (wv * av[:, :-1] * (eye[a, 1] + g2[a]) * (eye[b, 1] + g2[b])).sum() / wv.sum()
            for b in range(2)
        ]
        for a in range(2)
    ])
    got = lattice_hom(field, R, T, k, L, filt, rel_tol=1e-12)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
