"""Energy densities, integrated energy reports and rotation-invariance checks.

Pointwise densities (per unit volume, vectorized over leading axes):

    G(gamma)        = V(a|gamma|^2 + b) - <gamma, tau>
    G^d(zeta)       = b*zeta - V*(zeta) - tau^2 / (4a*zeta)

At any dual root, G evaluated at gamma = tau/(2a*zeta) equals G^d exactly;
the integrated |primal - dual| gap is the primary self-consistency diagnostic
and is reported, not raised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalEnergy, QuadraticMeasure, closed_V, measure_eval
from .errors import InvalidRotationError, SingularDualError
from .fields import Grid2

#: duality-gap bound |Pi - Pi_d| <= GAP_RTOL*max(1, |Pi_d|)
GAP_RTOL = 1e-8

#: orthonormality and det = 1 tolerance of a rotation matrix
ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class EnergyReport:
    """Integrated energies of one solution branch and their gap."""

    primal: float
    dual: float
    gap: float
    point_mismatch: float  # max over nodes of |primal density - dual density|

    def gap_ok(self) -> bool:
        return abs(self.gap) <= GAP_RTOL * max(1.0, abs(self.dual))


def _lam(m: QuadraticMeasure, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    return m.a * np.sum(g * g, axis=-1) + m.b


def primal_density(energy: CanonicalEnergy, m: QuadraticMeasure, gamma, tau):
    """G(gamma) = V(Lambda(gamma)) - <gamma, tau>, V on its closed domain
    (canonical.closed_V); leading axes broadcast."""
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    v, _ = closed_V(energy, m, _lam(m, g))
    out = v - np.sum(g * t, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def dual_density(energy: CanonicalEnergy, m: QuadraticMeasure, zeta, tau_sq):
    """G^d(zeta) = b*zeta - V*(zeta) - tau^2/(4a*zeta)."""
    z = np.asarray(zeta, dtype=float)
    if np.any(z == 0.0):
        raise SingularDualError("dual density is singular at zeta = 0")
    out = m.b * z - energy.Vstar(z) - np.asarray(tau_sq, dtype=float) / (4.0 * m.a * z)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# trapezoid quadrature weights
# ---------------------------------------------------------------------------

def trapezoid_weights_interval(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def trapezoid_weights_grid(grid: Grid2) -> np.ndarray:
    return np.outer(trapezoid_weights_interval(grid.ny, grid.hy),
                    trapezoid_weights_interval(grid.nx, grid.hx))


def make_energy_report(energy: CanonicalEnergy, m: QuadraticMeasure,
                       zeta, tau, weights) -> EnergyReport:
    """Integrated primal and dual energies of one branch and their gap.

    zeta has shape (...,), tau (..., d), weights (...): quadrature weights
    including the cell measure.  The branch strain gamma = tau/(2a*zeta).
    An overflow gives inf/nan totals (gap_ok() fails), not a RuntimeWarning.
    """
    z = np.asarray(zeta, dtype=float)
    t = np.asarray(tau, dtype=float)
    w = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = np.sum(t * t, axis=-1)
        gamma = t / (2.0 * m.a * z[..., None])
        pd = primal_density(energy, m, gamma, t)
        dd = dual_density(energy, m, z, t2)
        primal = float(np.sum(w * pd))
        dual = float(np.sum(w * dd))
        return EnergyReport(primal=primal, dual=dual, gap=primal - dual,
                            point_mismatch=float(np.max(np.abs(pd - dd))))


# ---------------------------------------------------------------------------
# rotation invariance
# ---------------------------------------------------------------------------

def check_rotation(R) -> None:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidRotationError(f"rotation must be 3x3, got {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > ROTATION_TOL or abs(np.linalg.det(R) - 1.0) > ROTATION_TOL:
        raise InvalidRotationError(f"matrix fails orthonormality / det = 1 check (tol {ROTATION_TOL:g})")


def rotation_invariance_check(m: QuadraticMeasure, F, T, R) -> tuple[float, float]:
    """(|Lambda(RF) - Lambda(F)|, |tr((RF)^T (RT)) - tr(F^T T)|).

    Both vanish for any rotation R: the measure is objective and the loading
    work is invariant under a common rotation of stress and deformation.
    """
    check_rotation(R)
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    lam_res = abs(measure_eval(m, R @ F) - measure_eval(m, F))
    work_res = abs(float(np.sum((R @ F) * (R @ T))) - float(np.sum(F * T)))
    return lam_res, work_res


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation from a QR-orthonormalized Gaussian matrix."""
    A = rng.standard_normal((3, 3))
    Q, Rm = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(Rm))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q
