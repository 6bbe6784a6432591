"""The four benchmark workloads: inputs from a seed, one timed repetition,
output checks, and the independent oracles that score accuracy.

Every exhom call passes all of its parameters, so a change to a default
policy cannot change what is measured.  exhom is reached through module
attributes (``exhom.hom_tensor_projected``), so the tracer's wrappers are
seen without re-importing.

A workload object lives in one process: :meth:`setup` builds what a user
builds once (coefficient field, filter, load), :meth:`run` is one timed
repetition and :meth:`check` inspects its outputs.  :meth:`oracle` returns a
function that scores outputs against an independent reference; it runs in
the parent process, outside every timing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# Box placements visited in turn by the tensor workloads: offsets of the box
# centre within one period.  The resonance error of one tensor depends on
# where the box cuts the period, by a factor of 5 on tensor-ladder, and the
# mean over four placements drawn from a seed still varies by 20-35 %
# between seeds.  So every run visits these same four half-period shifts;
# the seed picks which comes first and translates the whole set by whole
# periods, which changes the grids but not the problems.
PLACEMENTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))
PERIOD_SHIFTS = 8


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _max_entry_distance(A):
    return lambda out: float(np.max(np.abs(np.asarray(out["matrix"]) - A)))


class TensorWorkload:
    """Projected filtered tensor on a box placed by the seed.

    Repetition j centres the box at PLACEMENTS[(first + j) % 4] + shift +
    (j // 4)(1, 1), where the seed draws `first` and the whole-period
    `shift`; seed 0 starts at the origin.  A later cycle repeats the
    placements shifted by one more period, which is the same problem on a
    different grid, so no two repetitions share inputs.
    """

    min_reps = len(PLACEMENTS)

    def __init__(self, name, field, R, n, T, k, L, p, rel_tol, ceiling, coercive):
        self.name, self.field_name = name, field
        self.R, self.n, self.T, self.k, self.L, self.p = R, n, T, k, L, p
        self.rel_tol, self.ceiling, self.coercive = rel_tol, ceiling, coercive

    def params(self):
        return dict(field=self.field_name, R=self.R, n=self.n, T=self.T if math.isfinite(self.T) else "inf",
                    k=self.k, L=self.L, p=self.p, rel_tol=self.rel_tol)

    def setup(self, exhom, seed):
        self.exhom = exhom
        if seed == 0:
            self.first, self.shift = 0, (0, 0)
        else:
            rng = random.Random(seed)
            self.first = rng.randrange(len(PLACEMENTS))
            self.shift = (rng.randrange(PERIOD_SHIFTS), rng.randrange(PERIOD_SHIFTS))
        self.field = exhom.catalog(self.field_name)
        self.filt = exhom.build_filter(self.p)

    def group(self, j):
        return (self.first + j) % len(PLACEMENTS)

    def center(self, j):
        dx, dy = PLACEMENTS[self.group(j)]
        cycle = j // len(PLACEMENTS)
        return (dx + self.shift[0] + cycle, dy + self.shift[1] + cycle)

    def run(self, j):
        ex = self.exhom
        grid = ex.StructuredGrid.square(self.R, self.n, center=self.center(j))
        bundle = ex.solve_corrector_bundle(self.field, grid, self.T, self.k, rel_tol=self.rel_tol, kmax=self.k)
        H = ex.hom_tensor_projected(
            self.field, self.R, self.n, self.T, self.k, self.L, self.filt,
            rel_tol=self.rel_tol, bundle=bundle,
        )
        return {"group": self.group(j), "center": list(self.center(j)),
                "matrix": H.matrix.tolist(), "min_sym_eig": H.min_sym_eig}

    def check(self, out):
        if not _finite(out["matrix"], out["min_sym_eig"]):
            return "non-finite tensor"
        if self.coercive and not out["min_sym_eig"] > 0.0:
            return f"min_sym_eig = {out['min_sym_eig']:.6g} is not positive"
        return None

    def oracle(self, exhom, seed):
        """Max-entry distance to the periodic cell tensor at the box grid's
        own cells per unit."""
        cells = int(round(self.n / (2 * self.R)))
        return _max_entry_distance(exhom.periodic_cell(exhom.catalog(self.field_name), cells, rel_tol=1e-10).A_hom)


class HmmWorkload:
    """Coarse HMM solve with patch tensors, then the numerical correctors."""

    min_reps = 1

    def __init__(self, name, eps, H, delta, T, k, h, p, kprime, rel_tol, cell_n, h_ref, ceiling):
        self.name = name
        self.eps, self.H, self.delta, self.T, self.k, self.h, self.p = eps, H, delta, T, k, h, p
        self.kprime, self.rel_tol, self.cell_n, self.h_ref, self.ceiling = kprime, rel_tol, cell_n, h_ref, ceiling

    def params(self):
        return dict(field="mat2", eps=self.eps, H=self.H, delta=self.delta, T=self.T, k=self.k,
                    h=self.h, p=self.p, kprime=self.kprime, rel_tol=self.rel_tol)

    @staticmethod
    def load(seed):
        """f = 1 at seed 0, else 1 + sin(2 pi (x1 - a)) sin(2 pi (x2 - b)) / 2
        with the phases (a, b) drawn from the seed.  The H1 error moves by
        about 2 % between seeds."""
        if seed == 0:
            return lambda p: np.ones(np.shape(p)[0])
        rng = random.Random(seed)
        a, b = rng.random(), rng.random()
        return lambda p: 1.0 + 0.5 * np.sin(2 * np.pi * (p[:, 0] - a)) * np.sin(2 * np.pi * (p[:, 1] - b))

    def setup(self, exhom, seed):
        self.exhom = exhom
        self.field = exhom.catalog("mat2")
        self.field_eps = exhom.scaled_field(self.field, self.eps)
        self.f = self.load(seed)

    def run(self, j):
        ex = self.exhom
        res = ex.hmm_solve(
            self.field, self.eps, self.H, self.f, delta=self.delta, T=self.T, k=self.k,
            h=self.h, p=self.p, extent=(1.0, 1.0), rel_tol=self.rel_tol,
        )
        nc = ex.numerical_corrector(
            res.mesh, res.u, self.field_eps, self.eps, self.T, self.kprime, self.delta, self.h,
            rel_tol=self.rel_tol,
        )
        gamma_sq = sum(float(g.values @ g.values) for pair in nc.gammas for g in pair)
        return {"group": 0, "u": res.u.values.tolist(),
                "tensor_mean": res.tensor_map.tensors.mean(axis=0).tolist(),
                "computed": res.tensor_map.provenance.count("computed"), "gamma_sq": gamma_sq}

    def check(self, out):
        return None if _finite(out["u"], out["tensor_mean"], out["gamma_sq"]) else "non-finite HMM output"

    def oracle(self, exhom, seed):
        """H1 distance to a fine single-scale solve with the periodic cell
        tensor, under the same load."""
        A = exhom.periodic_cell(exhom.catalog("mat2"), self.cell_n, rel_tol=1e-10).A_hom
        u_hom = exhom.hmm.fine_reference(exhom.constant(A), (1.0, 1.0), self.h_ref, self.load(seed), rel_tol=1e-10)
        mesh = exhom.CoarseMesh.unit_square(self.H)
        return lambda out: float(exhom.hmm.h1_distance(u_hom, exhom.hmm.P1Function(mesh, out["u"]))[2])


class LatticeWorkload:
    """Filtered tensor of the 1/100 lattice network on one box.  Its input
    is fully fixed, so the seed is ignored."""

    min_reps = 1

    def __init__(self, name, R, T, k, L, rel_tol, ceiling):
        self.name = name
        self.R, self.T, self.k, self.L, self.rel_tol, self.ceiling = R, T, k, L, rel_tol, ceiling

    def params(self):
        return dict(pattern="default", R=self.R, T=self.T, k=self.k, L=self.L, p="inf", rel_tol=self.rel_tol)

    def setup(self, exhom, seed):
        self.exhom = exhom
        self.pattern = exhom.default_pattern()
        self.filt = exhom.build_filter("inf")

    def run(self, j):
        A = self.exhom.lattice_hom(self.pattern, self.R, self.T, self.k, self.L, self.filt, rel_tol=self.rel_tol)
        return {"group": 0, "matrix": np.asarray(A).tolist()}

    def check(self, out):
        return None if _finite(out["matrix"]) else "non-finite tensor"

    def oracle(self, exhom, seed):
        """Max-entry distance to the exact rational cell value 10601/404."""
        return _max_entry_distance(float(Fraction(10601, 404)) * np.eye(2))


# A ceiling bounds one repetition's distance to its oracle.  The full-size
# ceilings sit a few times above the errors measured over many seeds
# (tensor-ladder 1e-3..8e-3, tensor-naive 2e-2..1.3e-1, hmm-patches 2e-2,
# lattice-box 1.1e-3): they catch a wrong answer, not a small loss of
# accuracy, which abs_err and its bound track instead.
WORKLOADS = {
    "full": (
        TensorWorkload("tensor-ladder", "mat2", R=10, n=320, T=0.1, k=2, L=10 / 3, p=4,
                       rel_tol=1e-8, ceiling=3e-2, coercive=True),
        TensorWorkload("tensor-naive", "mat4", R=6, n=192, T=math.inf, k=1, L=2, p=4,
                       rel_tol=1e-8, ceiling=0.3, coercive=False),
        HmmWorkload("hmm-patches", eps=1 / 16, H=1 / 8, delta=1.5, T=2, k=2, h=1 / 128, p=3,
                    kprime=2, rel_tol=1e-8, cell_n=128, h_ref=1 / 256, ceiling=0.06),
        LatticeWorkload("lattice-box", R=320, T=8, k=2, L=320 / 6, rel_tol=1e-12, ceiling=5e-3),
    ),
    # Small sizes for the benchmark's own tests: the same code paths in a
    # few seconds.  The window still spans two periods (four on the
    # lattice), so the oracle distances stay meaningful; the ceilings sit
    # about three times above the largest distance seen at these sizes.
    "small": (
        TensorWorkload("tensor-ladder", "mat2", R=3, n=48, T=0.1, k=2, L=2, p=4,
                       rel_tol=1e-8, ceiling=0.3, coercive=True),
        TensorWorkload("tensor-naive", "mat4", R=3, n=48, T=math.inf, k=1, L=2, p=4,
                       rel_tol=1e-8, ceiling=0.3, coercive=False),
        HmmWorkload("hmm-patches", eps=1 / 16, H=1 / 4, delta=1.5, T=2, k=2, h=1 / 64, p=3,
                    kprime=2, rel_tol=1e-8, cell_n=32, h_ref=1 / 64, ceiling=0.1),
        LatticeWorkload("lattice-box", R=64, T=8, k=2, L=16, rel_tol=1e-12, ceiling=1.0),
    ),
}


def get(name, size="full"):
    for wl in WORKLOADS[size]:
        if wl.name == name:
            return wl
    raise KeyError(f"unknown workload {name!r}")
