"""exhom: resonance-error reduction for numerical homogenization in 2-D.

Approximates homogenized coefficient tensors and correctors of heterogeneous
elliptic operators through zero-order regularization, Richardson
extrapolation in the regularization parameter, and filtered spatial
averaging, and couples the resulting local tensors to a coarse multiscale
solver.  The modules, bottom up: `coeffs` (coefficient catalog), `grid` (Q1
operator and the multigrid-preconditioned Krylov solver), `corrector`
(dyadic ladders and extrapolation), `averaging` (filters and tensors),
`reference` (cell problems and laminate oracles), `lattice` (the discrete
network), `hmm` (coarse solver), `study` and `cli` (sweeps and the command
line).
"""

from .averaging import (
    Filter,
    HomTensor,
    build_filter,
    hom_tensor_prime,
    hom_tensor_projected,
    solve_corrector_bundle,
)
from .coeffs import CoefficientField, catalog, constant, laminate
from .corrector import (
    CorrectorSolution,
    corrector_error,
    corrector_ladder,
    extrapolate,
    psi_identity_check,
    residual_identity_check,
    richardson_combine,
    solve_ladder,
)
from .grid import (
    CorrectorOperator,
    DofVector,
    SolverError,
    SparseSystem,
    StructuredGrid,
    gradient_field,
    solve,
)
from .hmm import CoarseMesh, coarse_solve, hmm_solve, numerical_corrector, scaled_field
from .lattice import (
    PUBLISHED_CELL_VALUE,
    LatticeField,
    default_pattern,
    exact_cell_hom,
    lattice_hom,
    weave_pattern,
)
from .reference import CellProblemResult, laminate_oracle, periodic_cell
from .study import SlopeFit, StudyRecord, fit_slope, policy, run_study, write_csv

__version__ = "0.1.0"
