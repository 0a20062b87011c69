"""Canonical-dual solutions of nonconvex variational problems of generalized
neo-Hookean type: dual algebraic root enumeration, triality classification,
primal field reconstruction, and brute-force verification oracles."""

from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    closed_V,
    measure_eval,
)
from .dualsolve import (
    FoldThreshold,
    TrialityLabel,
    fold_threshold,
    label_array,
    solve_roots_array,
)
from .energies import (
    EnergyReport,
    dual_density,
    make_energy_report,
    primal_density,
    rotation_invariance_check,
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
