"""Canonical-dual solutions of nonconvex variational problems of generalized
neo-Hookean type: dual algebraic root enumeration, triality classification,
primal field reconstruction, and brute-force verification oracles."""

from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    V,
    Vstar,
    d2V,
    d2Vstar,
    dV,
    dVstar,
    measure_eval,
)
from .dualsolve import (
    DualRoot,
    DualRootSet,
    FoldThreshold,
    TrialityLabel,
    classify_root,
    dual_residual,
    fold_threshold,
    solve_all_roots,
    solve_roots_array,
)
from .energies import (
    EnergyReport,
    dual_density,
    gap_density,
    make_energy_report,
    primal_density,
    rotation_invariance_check,
    tensor_reconstruct,
    total_complementary_density,
)
from .errors import (
    ConfigError,
    DomainError,
    InvalidRotationError,
    NonIntegrableFieldError,
    OracleError,
    RootSolveError,
    SingularDualError,
    TrialityError,
)
from .fields import (
    Grid2,
    ScalarField,
    VectorField2,
    antiplane_deformation_gradient,
    boundary_traction,
    curl2,
    divergence,
    principal_invariants,
    reconstruct_displacement,
    stress_from_stream,
)
from .oracle import gquasiconvexity_probe, gradient_check, minimize_multistart

__version__ = "0.1.0"
