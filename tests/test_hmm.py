import numpy as np
import pytest
import scipy.sparse as sp

import exhom.grid
import exhom.hmm
from exhom.averaging import _tensor_from_gradients, _window_tensors, build_filter
from exhom.coeffs import catalog, constant
from exhom.grid import CorrectorOperator, DofVector
from exhom.hmm import (
    CoarseMesh,
    LocalTensorMap,
    build_tensor_map,
    coarse_solve,
    fine_reference,
    h1_distance,
    hmm_solve,
    numerical_corrector,
    reconstructed_gradient,
    scaled_field,
)
from exhom.study import policy

F_ONE = lambda p: np.ones(p.shape[0])


def local_tensor(centroid, field_eps, eps, H, T, k, delta, h, filt, extent=(1.0, 1.0), rel_tol=1e-8):
    """The projected filtered tensor of the one oversampled patch around `centroid`."""
    grid = exhom.hmm._patch_grid(centroid, 0.5 * delta * H, extent, h)
    return exhom.hmm._patch_tensors([grid], [centroid], field_eps, T * eps * eps, k, H, filt, rel_tol)[0]


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
    p = mesh.vertices[mesh.triangles]
    d = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).max(axis=1)  # longest edges
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
    res = hmm_solve(constant(A0), eps=1 / 8, H=0.25, f=F_ONE, k=1, **policy("hmm", H=0.25, eps=1 / 8, k=1))
    mesh = res.mesh
    direct = coarse_solve(mesh, A0, F_ONE)
    assert np.allclose(res.u.values, direct.values, atol=1e-7)
    assert np.allclose(res.tensor_map.tensors, A0, atol=1e-8)


def test_unregularized_hmm_rejects_extrapolation():
    with pytest.raises(ValueError, match="k must be 1"):
        hmm_solve(catalog("mat2"), eps=1 / 8, H=0.25, f=F_ONE, T=np.inf, k=2, h=1 / 64, p=3)


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


def _barycentric_values(u, points):
    """P1 values by barycentric coordinates in the located element."""
    tri = u.mesh.triangles[u.mesh.locate(points)]
    p, v = u.mesh.vertices[tri], u.values[tri]
    d = p[:, 1:] - p[:, :1]
    lam = np.linalg.solve(np.swapaxes(d, 1, 2), (points - p[:, 0])[..., None])[..., 0]
    return (1.0 - lam.sum(axis=1)) * v[:, 0] + lam[:, 0] * v[:, 1] + lam[:, 1] * v[:, 2]


@pytest.mark.parametrize("extent, H", [((1.0, 1.0), 1 / 8), ((0.3, 1.7), 0.1)])
def test_p1_values_match_barycentric_evaluation(extent, H):
    from exhom.hmm import P1Function

    mesh = CoarseMesh.rectangle(*extent, H)
    u = P1Function(mesh, np.random.default_rng(5).normal(size=len(mesh.vertices)))
    rng = np.random.default_rng(6)
    t = rng.random((400, 1))
    tri = mesh.vertices[mesh.triangles[rng.integers(mesh.n_elements, size=400)]]
    points = np.concatenate([
        rng.random((2000, 2)) * extent,
        mesh.vertices,
        t * tri[:, 0] + (1 - t) * tri[:, 1],  # on element edges, the diagonals among them
        t * tri[:, 1] + (1 - t) * tri[:, 2],
        t * tri[:, 2] + (1 - t) * tri[:, 0],
    ])
    assert np.abs(u(points) - _barycentric_values(u, points)).max() <= 1e-14 * np.abs(u.values).max()


@pytest.mark.parametrize("extent, H", [((1.0, 0.45), 0.1), ((0.3, 1.7), 0.1), ((1.0, 1.0), 0.25)])
def test_locate_on_rectangles(extent, H):
    from exhom.hmm import P1Function

    mesh = CoarseMesh.rectangle(*extent, H)
    cents = mesh.centroids()
    assert np.array_equal(mesh.locate(cents), np.arange(mesh.n_elements))
    u = P1Function(mesh, mesh.vertices[:, 0] ** 2)
    assert np.allclose(u.gradient_at(cents), u.element_gradients(), atol=1e-12)
    assert np.allclose(u(cents), u.values[mesh.triangles].mean(axis=1), atol=1e-12)


@pytest.mark.parametrize("name, shift", [("mat2", 0.0), ("mat4", 0.0), ("mat4", 3 / 64)])
def test_chunk_tensors_match_per_patch_contractions(name, shift):
    # the 8 interior patches at H = 1/4 share one shape; a shifted center
    # moves every other patch's window, so the chunk mixes window blocks
    field_eps = scaled_field(catalog(name), 1 / 16)
    mesh = CoarseMesh.unit_square(0.25)
    half = 0.75 * mesh.H
    cents = mesh.centroids()
    inside = [c for c in cents if half <= min(c) and max(c) <= 1.0 - half]
    grids = [exhom.hmm._patch_grid(c, half, mesh.extent, 1 / 64) for c in inside]
    centers = np.array(inside) + shift * (np.arange(len(inside)) % 2)[:, None]
    op = CorrectorOperator.from_field(grids, field_eps)
    primal = exhom.hmm._extrapolated(op, 2 / 256, 2, 1e-10)
    dual = primal if op.symmetric else exhom.hmm._extrapolated(op.transpose(), 2 / 256, 2, 1e-10, dual=True)
    filt = build_filter(3)
    windows = [cells for cells, _ in filt.windows(grids, 0.5 * mesh.H, centers)]
    blocks = {(sx.start, sx.stop, sy.start, sy.stop) for sx, sy in windows}
    assert len(blocks) == (2 if shift else 1)
    got = _window_tensors(op.grids, op.bc, op.A_p, primal, dual, filt, 0.5 * mesh.H, centers, True)[0]
    for b, (g, c) in enumerate(zip(grids, centers)):
        up = [DofVector(v[b], g, "dirichlet0") for v in primal]
        ud = up if dual is primal else [DofVector(v[b], g, "dirichlet0") for v in dual]
        A_q = field_eps(g.quad_points()).reshape(1, g.nx, g.ny, 4, 2, 2)  # the whole grid as the period
        ref = _tensor_from_gradients(g, A_q, up, ud, filt, 0.5 * mesh.H, True, center=tuple(c))[0]
        assert np.abs(got[b] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name, factorizations, krylov_calls", [("mat2", 20, 40), ("mat4", 22, 44)])
def test_patch_setup_runs_once_per_batch_and_rung(monkeypatch, name, factorizations, krylov_calls):
    # build_tensor_map solves one batch of 8 interior patches (twice, primal
    # and dual, for mat4) and numerical_corrector 9 batches of clipped
    # patches, each on k = 2 rungs: one bottom factorization per batch and
    # rung, one Krylov call per direction; per-patch set-up would multiply both
    counts = {"factor": 0, "krylov": 0}
    band_factor = exhom.grid._BandFactor

    class CountingFactor(band_factor):
        def __init__(self, *args, **kwargs):
            counts["factor"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(exhom.grid, "_BandFactor", CountingFactor)
    for loop in ("_cg", "_bicgstab"):
        def counting(*args, _original=getattr(exhom.grid, loop)):
            counts["krylov"] += 1
            return _original(*args)

        monkeypatch.setattr(exhom.grid, loop, counting)
    field_eps = scaled_field(catalog(name), 1 / 16)
    mesh = CoarseMesh.unit_square(0.25)
    u = coarse_solve(mesh, 4.0 * np.eye(2), F_ONE)
    counts.update(factor=0, krylov=0)
    build_tensor_map(mesh, field_eps, 1 / 16, T=2.0, k=2, delta=1.5, h=1 / 64, filt=build_filter(3), rel_tol=1e-8)
    corr = numerical_corrector(mesh, u, field_eps, 1 / 16, 2.0, 2, 1.5, 1 / 64, rel_tol=1e-8)
    assert len({(g.nx, g.ny) for g in corr.grids}) == 9
    assert counts == {"factor": factorizations, "krylov": krylov_calls}


def _interior_setup(name):
    # H = 1/4 is four periods of eps = 1/16: the 8 interior patches are
    # translates of the lower or of the upper triangle's patch
    return scaled_field(catalog(name), 1 / 16), CoarseMesh.unit_square(0.25), build_filter(3)


def test_tensor_map_solves_one_patch_per_translation_class(monkeypatch):
    field_eps, mesh, filt = _interior_setup("mat2")
    solved = []
    from_field = CorrectorOperator.from_field.__func__

    def counting(cls, grids, field, bc="dirichlet0"):
        solved.extend(grids if isinstance(grids, list) else [grids])
        return from_field(cls, grids, field, bc)

    monkeypatch.setattr(CorrectorOperator, "from_field", classmethod(counting))
    args = dict(T=2.0, k=2, delta=1.5, h=1 / 64, filt=filt, rel_tol=1e-8)
    tmap = build_tensor_map(mesh, field_eps, 1 / 16, **args)
    assert len(solved) == 2
    computed = [e for e, p in enumerate(tmap.provenance) if p == "computed"]
    assert len(computed) == 8
    for e in computed:
        # lower triangles have even indices, upper ones odd
        assert np.array_equal(tmap.tensors[e], tmap.tensors[computed[e % 2]])
        ref = local_tensor(mesh.centroids()[e], field_eps, 1 / 16, mesh.H, extent=mesh.extent, **args)
        assert np.abs(tmap.tensors[e] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_translation_classes_round_phases_and_keep_shifts_apart():
    field_eps = scaled_field(catalog("mat2"), 1 / 16)
    period, h = 1 / 16, 1 / 64
    box = lambda x0, y0: exhom.grid.StructuredGrid.from_box((x0, x0 + 0.25, y0, y0 + 0.25), 16, 16)
    grids = [
        box(0.1, 0.2),
        box(0.1 + 3 * period, 0.2 - 2 * period),  # whole periods: merged
        box(0.1 + h, 0.2),  # one fine cell: a class of its own
        box(2 * period + 1e-16, 0.0),  # phases just above 0 ...
        box(5 * period - 1e-16, 0.0),  # ... and just below the period: merged
        exhom.grid.StructuredGrid.from_box((0.1, 0.35, 0.2, 0.45), 16, 17),  # other cell count
    ]
    reps, class_of = exhom.hmm._translation_classes(grids, field_eps)
    assert reps == [0, 2, 3, 5] and class_of.tolist() == [0, 0, 1, 2, 2, 3]
    # a window at another offset from its origin is another tensor problem
    centers = np.array([(g.x0 + 0.125, g.y0 + 0.125) for g in grids])
    centers[1, 0] += h
    reps, class_of = exhom.hmm._translation_classes(grids, field_eps, centers)
    assert reps == [0, 1, 2, 3, 5] and class_of.tolist() == [0, 1, 2, 3, 3, 4]
    # a non-periodic field shares nothing
    reps, class_of = exhom.hmm._translation_classes(grids, scaled_field(catalog("mat3"), 1 / 16))
    assert reps == list(range(6)) and class_of.tolist() == reps


def test_non_periodic_patches_are_bitwise_the_per_chunk_path():
    field_eps, mesh, filt = _interior_setup("mat3")
    assert field_eps.period is None
    tmap = build_tensor_map(mesh, field_eps, 1 / 16, T=2.0, k=2, delta=1.5, h=1 / 64, filt=filt, rel_tol=1e-8)
    computed = [e for e, p in enumerate(tmap.provenance) if p == "computed"]
    cents = mesh.centroids()
    grids = [exhom.hmm._patch_grid(cents[e], 0.75 * mesh.H, mesh.extent, 1 / 64) for e in computed]
    ((chunk, op),) = exhom.hmm._batches(grids, field_eps)
    primal = exhom.hmm._extrapolated(op, 2.0 / 256, 2, 1e-8)
    ref = _window_tensors(op.grids, op.bc, op.A_p, primal, primal, filt, 0.5 * mesh.H, cents[computed], True)[0]
    assert np.array_equal(tmap.tensors[computed], ref)

    u = coarse_solve(mesh, tmap, F_ONE)
    corr = numerical_corrector(mesh, u, field_eps, 1 / 16, 2.0, 2, 1.5, 1 / 64, rel_tol=1e-8)
    for chunk, op in exhom.hmm._batches(corr.grids, field_eps):
        e1, e2 = (op.split(v) for v in exhom.hmm._extrapolated(op, 2.0 / 256, 2, 1e-8))
        for b, e in enumerate(chunk):
            assert np.array_equal(corr.gammas[e][0].values, e1[b].values)
            assert np.array_equal(corr.gammas[e][1].values, e2[b].values)


def test_numerical_corrector_members_carry_their_own_grids():
    field_eps, mesh, _ = _interior_setup("mat2")
    u = coarse_solve(mesh, 4.0 * np.eye(2), F_ONE)
    corr = numerical_corrector(mesh, u, field_eps, 1 / 16, 2.0, 2, 1.5, 1 / 64, rel_tol=1e-10)
    reps, class_of = exhom.hmm._translation_classes(corr.grids, field_eps)
    assert len(reps) < mesh.n_elements
    for e, c in enumerate(class_of):
        rep = corr.gammas[reps[c]]
        for got, shared in zip(corr.gammas[e], rep, strict=True):
            assert got.grid == corr.grids[e]
            assert got.values is shared.values  # a class shares one array
    # a member that is not its representative matches a solve on its own grid
    e = next(e for e, c in enumerate(class_of) if reps[c] != e)
    op = CorrectorOperator.from_field(corr.grids[e], field_eps)
    own = exhom.hmm._extrapolated(op, 2.0 / 256, 2, 1e-10)[:, 0]
    for got, ref in zip(corr.gammas[e], own, strict=True):
        assert np.abs(got.values - ref).max() <= 1e-12 * np.abs(ref).max()
