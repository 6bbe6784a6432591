import numpy as np
import pytest
import scipy.sparse as sp

import exhom.hmm
from exhom.averaging import build_filter
from exhom.coeffs import catalog, constant
from exhom.hmm import (
    CoarseMesh,
    LocalTensorMap,
    build_tensor_map,
    coarse_solve,
    fine_reference,
    h1_distance,
    hmm_solve,
    local_tensor,
    numerical_corrector,
    reconstructed_gradient,
    scaled_field,
)

F_ONE = lambda p: np.ones(p.shape[0])


def _textbook_p1_poisson(mesh, f):
    """Independent dense P1 assembly (classic element-loop formulation)."""
    nv = mesh.vertices.shape[0]
    K = np.zeros((nv, nv))
    rhs = np.zeros(nv)
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        (ux, uy), (vx, vy) = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(ux * vy - uy * vx)
        grads = np.zeros((3, 2))
        for loc in range(3):
            a, b = p[(loc + 1) % 3], p[(loc + 2) % 3]
            edge = b - a
            normal = np.array([-edge[1], edge[0]])
            grads[loc] = normal / np.dot(p[loc] - a, normal)
        K[np.ix_(tri, tri)] += area * grads @ grads.T
        for aa, bb in ((0, 1), (1, 2), (2, 0)):
            mp = 0.5 * (p[aa] + p[bb])
            fv = float(f(mp[None, :])[0])
            rhs[tri[aa]] += area / 3.0 * fv * 0.5
            rhs[tri[bb]] += area / 3.0 * fv * 0.5
    free = np.where(~mesh.boundary_vertices)[0]
    vals = np.zeros(nv)
    vals[free] = np.linalg.solve(K[np.ix_(free, free)], rhs[free])
    return vals


def test_mesh_geometry():
    mesh = CoarseMesh.unit_square(0.25)
    assert mesh.n_elements == 32
    d = mesh.diameters()
    assert np.all(d >= mesh.H / 2) and np.all(d <= 2 * mesh.H)
    assert mesh.areas().sum() == pytest.approx(1.0)
    # locate: centroids land in their own elements
    assert np.array_equal(mesh.locate(mesh.centroids()), np.arange(32))


def test_coarse_solve_matches_textbook_p1():
    mesh = CoarseMesh.unit_square(0.25)
    u = coarse_solve(mesh, np.eye(2), F_ONE, rel_tol=1e-12)
    ref = _textbook_p1_poisson(mesh, F_ONE)
    assert np.abs(u.values - ref).max() <= 1e-10


def test_coarse_solve_rejects_nonelliptic_tensors():
    mesh = CoarseMesh.unit_square(0.5)
    A = np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2)).copy()
    A[3] = -np.eye(2)
    A[5] = -2 * np.eye(2)
    with pytest.raises(ValueError, match=r"\[3, 5\]"):
        coarse_solve(mesh, A, F_ONE)


def test_coarse_h_refinement_first_order():
    # constant tensor: the coarse P1 solution converges at O(H) in H1
    A = periodic_A = catalog("mat2")
    Ah = np.array([[2.7287, 0.0], [0.0, 2.7287]])
    u_ref = fine_reference(constant(Ah), (1.0, 1.0), 1.0 / 128, F_ONE, rel_tol=1e-10)
    errs = []
    for H in (0.25, 0.125):
        mesh = CoarseMesh.unit_square(H)
        u = coarse_solve(mesh, Ah, F_ONE)
        _, h1s, _ = h1_distance(u_ref, u)
        errs.append(h1s)
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)


def test_local_tensor_constant_field():
    A0 = np.array([[3.0, 0.4], [0.4, 2.0]])
    field = constant(A0)
    val = local_tensor((0.4, 0.5), field, eps=1 / 8, H=0.25, T=2.0, k=1,
                       delta=1.5, h=1 / 32, filt=build_filter(1))
    assert np.allclose(val, A0, atol=1e-9)


def test_tensor_map_provenance_and_donors():
    field_eps = scaled_field(catalog("mat2"), 1 / 16)
    mesh = CoarseMesh.unit_square(0.25)
    tmap = build_tensor_map(mesh, field_eps, 1 / 16, T=4.0, k=1, delta=1.5,
                            h=1 / 64, filt=build_filter(1), rel_tol=1e-7)
    prov = np.array(tmap.provenance)
    assert (prov == "computed").sum() == 8
    assert (prov == "copied-from-interior").sum() == 24
    cents = mesh.centroids()
    for e in np.where(prov == "copied-from-interior")[0]:
        d = tmap.donors[e]
        assert prov[d] == "computed"  # single hop
        assert np.linalg.norm(cents[d] - cents[e]) <= 2 * mesh.H


def test_tensor_map_across_chunk_boundaries_matches_local_tensors(monkeypatch):
    # the 8 interior patches share one shape (24 x 24 cells, 529 dofs);
    # chunks of 3 patches put them in three batched solves
    field_eps = scaled_field(catalog("mat4"), 1 / 16)  # non-symmetric: duals batched too
    mesh = CoarseMesh.unit_square(0.25)
    filt = build_filter(3)
    monkeypatch.setattr(exhom.hmm, "BATCH_DOFS", 3 * 529)
    args = dict(T=4.0, k=2, delta=1.5, h=1 / 64, filt=filt, rel_tol=1e-10)
    tmap = build_tensor_map(mesh, field_eps, 1 / 16, **args)
    computed = [e for e, p in enumerate(tmap.provenance) if p == "computed"]
    assert len(computed) == 8
    for e in computed:
        ref = local_tensor(mesh.centroids()[e], field_eps, 1 / 16, mesh.H, extent=mesh.extent, **args)
        assert np.abs(tmap.tensors[e] - ref).max() <= 1e-7 * np.abs(ref).max()


def test_numerical_corrector_batches_match_single_patches(monkeypatch):
    # at H = 1/2 the 8 clipped patches come in 4 shapes of 2
    field_eps = scaled_field(catalog("mat2"), 1 / 8)
    mesh = CoarseMesh.unit_square(0.5)
    u = coarse_solve(mesh, 4.0 * np.eye(2), F_ONE)
    args = (mesh, u, field_eps, 1 / 8, 4.0, 2, 1.5, 1 / 32)
    batched = numerical_corrector(*args, rel_tol=1e-10)
    monkeypatch.setattr(exhom.hmm, "BATCH_DOFS", 1)
    single = numerical_corrector(*args, rel_tol=1e-10)
    assert len({(g.nx, g.ny) for g in batched.grids}) == 4
    for e in range(mesh.n_elements):
        for got, ref in zip(batched.gammas[e], single.gammas[e], strict=True):
            assert got.grid == ref.grid == batched.grids[e]
            assert np.linalg.norm(got.values - ref.values) <= 1e-7 * np.linalg.norm(ref.values)
    # patches of one shape share a batch: their gammas view one stacked solution
    shape = lambda g: (g.nx, g.ny)
    same = [e for e in range(mesh.n_elements) if shape(batched.grids[e]) == shape(batched.grids[0])]
    bases = {id(batched.gammas[e][0].values.base) for e in same}
    assert len(same) == 2 and len(bases) == 1 and batched.gammas[0][0].values.base is not None


def test_tensor_map_fallback_when_no_interior():
    # at H = 1/2 every patch exits the unit square: all elements computed
    # on their clipped patches (the generic clipped-window form)
    field_eps = scaled_field(catalog("mat2"), 1 / 8)
    mesh = CoarseMesh.unit_square(0.5)
    tmap = build_tensor_map(mesh, field_eps, 1 / 8, T=4.0, k=1, delta=1.5,
                            h=1 / 32, filt=build_filter(1), rel_tol=1e-7)
    assert all(p == "computed" for p in tmap.provenance)


def test_degenerate_consistency_with_constant_field():
    # replacing the eps-field by a constant reproduces the plain coarse solve
    A0 = np.array([[2.0, 0.0], [0.0, 2.0]])
    res = hmm_solve(constant(A0), eps=1 / 8, H=0.25, f=F_ONE, k=1)
    mesh = res.mesh
    direct = coarse_solve(mesh, A0, F_ONE)
    assert np.allclose(res.u.values, direct.values, atol=1e-7)
    assert np.allclose(res.tensor_map.tensors, A0, atol=1e-8)


def test_unregularized_hmm_rejects_extrapolation():
    with pytest.raises(ValueError, match="k must be 1"):
        hmm_solve(catalog("mat2"), eps=1 / 8, H=0.25, f=F_ONE, T=np.inf, k=2)


def test_numerical_corrector_constant_field():
    A0 = np.eye(2) * 2.0
    field = constant(A0)
    mesh = CoarseMesh.unit_square(0.5)
    u = coarse_solve(mesh, A0, F_ONE)
    corr = numerical_corrector(mesh, u, field, eps=1 / 8, T=4.0, kprime=1,
                               delta=1.5, h=1 / 32)
    for per_dir in corr.gammas:
        for gamma in per_dir:
            assert np.abs(gamma.values).max() < 1e-10
    pts = np.array([[0.31, 0.4], [0.77, 0.66]])
    C = reconstructed_gradient(mesh, corr, pts)
    expected = u.element_gradients()[mesh.locate(pts)]
    assert np.allclose(C, expected, atol=1e-10)


def test_patch_too_small_raises():
    field = constant(np.eye(2))
    with pytest.raises(ValueError, match="two fine cells"):
        local_tensor((0.5, 0.5), field, eps=1 / 4, H=0.05, T=1.0, k=1,
                     delta=1.5, h=0.05, filt=build_filter(0))


def test_p1_function_evaluation():
    mesh = CoarseMesh.unit_square(0.5)
    vals = mesh.vertices[:, 0] + 2 * mesh.vertices[:, 1]
    from exhom.hmm import P1Function

    u = P1Function(mesh, vals)
    pts = np.array([[0.2, 0.3], [0.9, 0.1], [0.5, 0.75]])
    assert np.allclose(u(pts), pts[:, 0] + 2 * pts[:, 1], atol=1e-12)
    assert np.allclose(u.gradient_at(pts), np.array([[1.0, 2.0]] * 3), atol=1e-12)


@pytest.mark.parametrize("extent, H", [((1.0, 0.45), 0.1), ((0.3, 1.7), 0.1), ((1.0, 1.0), 0.25)])
def test_locate_on_rectangles(extent, H):
    from exhom.hmm import P1Function

    mesh = CoarseMesh.rectangle(*extent, H)
    cents = mesh.centroids()
    assert np.array_equal(mesh.locate(cents), np.arange(mesh.n_elements))
    u = P1Function(mesh, mesh.vertices[:, 0] ** 2)
    assert np.allclose(u.gradient_at(cents), u.element_gradients(), atol=1e-12)
    assert np.allclose(u(cents), u.values[mesh.triangles].mean(axis=1), atol=1e-12)
