"""Exception types shared across the package."""


class TrialityError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TrialityError, ValueError):
    """Input outside the admissible domain of an energy or measure."""


class SingularDualError(TrialityError, ZeroDivisionError):
    """Operation undefined at zeta = 0 (or numerically indistinguishable from it)."""


class NonIntegrableFieldError(TrialityError):
    """Strain field has nonzero curl; path integration would be path-dependent."""

    def __init__(self, message, max_residual=None, node=None):
        super().__init__(message)
        self.max_residual = max_residual
        self.node = node


class RootSolveError(TrialityError, RuntimeError):
    """Dual-root iteration failed; carries the best iterate found."""

    def __init__(self, message, best_zeta=None, best_residual=None):
        super().__init__(message)
        self.best_zeta = best_zeta
        self.best_residual = best_residual


class OracleError(TrialityError, RuntimeError):
    """An oracle produced no usable result: no descent start converged, or
    the quasiconvexity probe found no strain sample inside the domain."""


class ConfigError(TrialityError, ValueError):
    """Problem configuration failed validation."""
