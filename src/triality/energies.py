"""Energy functionals: primal, dual, total complementary, gap, and the
tensor-level reconstruction and rotation-invariance checks.

Pointwise densities (per unit volume, vectorized over leading axes):

    G(gamma)        = V(a|gamma|^2 + b) - <gamma, tau>
    G^d(zeta)       = b*zeta - V*(zeta) - tau^2 / (4a*zeta)
    Xi(gamma, zeta) = (a|gamma|^2 + b)*zeta - V*(zeta) - <gamma, tau>
    G_ap(d, zeta)   = a*zeta*|d|^2

At any dual root, G evaluated at gamma = tau/(2a*zeta) equals G^d exactly;
the integrated |primal - dual| gap is the primary self-consistency diagnostic
and is reported, not raised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import (
    CanonicalEnergy,
    QuadraticMeasure,
    V,
    Vstar,
    measure_eval,
)
from .dualsolve import TrialityLabel, solve_all_roots
from .errors import InvalidRotationError, SingularDualError
from .fields import Grid2

#: measure used for 3x3 tensor-level checks: xi = tr(F^T F)
TENSOR_MEASURE = QuadraticMeasure(a=1.0, b=0.0)

#: duality-gap bound |Pi - Pi_d| <= GAP_RTOL*max(1, |Pi_d|)
GAP_RTOL = 1e-8

#: orthonormality and det = 1 tolerance of a rotation matrix
ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class EnergyReport:
    """Integrated energies of one solution branch and their gap."""

    primal: float
    dual: float
    complementary: float
    gap: float
    point_mismatch: float  # max over nodes of |primal density - dual density|

    def gap_ok(self) -> bool:
        return abs(self.gap) <= GAP_RTOL * max(1.0, abs(self.dual))


def _lam(m: QuadraticMeasure, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    return m.a * np.sum(g * g, axis=-1) + m.b


def primal_density(energy: CanonicalEnergy, m: QuadraticMeasure, gamma, tau):
    """G(gamma) = V(Lambda(gamma)) - <gamma, tau>; leading axes broadcast."""
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    out = V(energy, _lam(m, g)) - np.sum(g * t, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def dual_density(energy: CanonicalEnergy, m: QuadraticMeasure, zeta, tau_sq):
    """G^d(zeta) = b*zeta - V*(zeta) - tau^2/(4a*zeta)."""
    z = np.asarray(zeta, dtype=float)
    if np.any(z == 0.0):
        raise SingularDualError("dual density is singular at zeta = 0")
    out = m.b * z - Vstar(energy, z) - np.asarray(tau_sq, dtype=float) / (4.0 * m.a * z)
    return float(out) if np.ndim(out) == 0 else out


def total_complementary_density(energy: CanonicalEnergy, m: QuadraticMeasure,
                                gamma, zeta, tau):
    """Xi density = Lambda(gamma)*zeta - V*(zeta) - <gamma, tau>."""
    g = np.asarray(gamma, dtype=float)
    t = np.asarray(tau, dtype=float)
    z = np.asarray(zeta, dtype=float)
    out = _lam(m, g) * z - Vstar(energy, z) - np.sum(g * t, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def gap_density(m: QuadraticMeasure, delta_gamma, zeta):
    """Complementary gap density a*zeta*|delta_gamma|^2; nonnegative iff zeta >= 0."""
    d = np.asarray(delta_gamma, dtype=float)
    out = m.a * np.asarray(zeta, dtype=float) * np.sum(d * d, axis=-1)
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
    """Integrated primal/dual/complementary energies of one branch.

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
        xd = total_complementary_density(energy, m, gamma, z, t)
        primal = float(np.sum(w * pd))
        dual = float(np.sum(w * dd))
        comp = float(np.sum(w * xd))
        return EnergyReport(
            primal=primal, dual=dual, complementary=comp, gap=primal - dual,
            point_mismatch=float(np.max(np.abs(pd - dd))),
        )


# ---------------------------------------------------------------------------
# tensor-level reconstruction and invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorBranch:
    zeta: float
    F: np.ndarray
    sigma: np.ndarray
    label: TrialityLabel


def tensor_reconstruct(energy: CanonicalEnergy, T,
                       m: QuadraticMeasure = TENSOR_MEASURE) -> list[TensorBranch]:
    """All stationary deformation gradients for a constant 3x3 stress T.

    Solves the dual equation at tau^2 = tr(T^T T) and reconstructs
    F_k = T/(2a*zeta_k), where dW/dF = 2a*V'(Lambda(F))*F = T with
    V'(Lambda(F_k)) = zeta_k, and sigma_k = 2a*zeta_k*F_k = T for each root.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError(f"T must be a 3x3 matrix, got shape {T.shape}")
    tau_sq = float(np.sum(T * T))
    rs = solve_all_roots(energy, m, tau_sq, dim=9)
    out = []
    for r in rs.roots:
        s = 2.0 * m.a * r.zeta
        F = T / s
        out.append(TensorBranch(zeta=r.zeta, F=F, sigma=s * F, label=r.label))
    return out


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
