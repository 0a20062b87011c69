"""Canonical-dual solutions of nonconvex variational problems of generalized
neo-Hookean type: dual algebraic root enumeration, triality classification,
and primal field reconstruction.  The brute-force verification oracles
(multistart descent, gradient check, quasiconvexity probe) live in
triality.oracle, which only `triality verify` loads."""

from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    closed_V,
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
)
from .errors import (
    ConfigError,
    DomainError,
    NonIntegrableFieldError,
    OracleError,
    RootSolveError,
    SingularDualError,
    TrialityError,
)
from .fields import (
    Grid2,
    boundary_traction,
    curl2,
    reconstruct_displacement,
    stress_from_stream,
)

__version__ = "0.1.0"
