"""Energy densities and integrated energy reports.

Pointwise densities (per unit volume, vectorized over leading axes):

    G(gamma)        = V(a|gamma|^2 + b) - <gamma, tau>
    G^d(zeta)       = b*zeta - V*(zeta) - tau^2 / (4a*zeta)

At any dual root, G evaluated at gamma = tau/(2a*zeta) equals G^d exactly;
the integrated |primal - dual| gap is the primary self-consistency diagnostic
and is reported, not raised.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .canonical import CanonicalEnergy, QuadraticMeasure, closed_V
from .errors import SingularDualError
from .fields import Grid2

#: duality-gap bound |Pi - Pi_d| <= GAP_RTOL*max(1, |Pi_d|)
GAP_RTOL = 1e-8


class EnergyReport(NamedTuple):
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
    """G^d(zeta) = b*zeta - V*(zeta) - tau^2/(4a*zeta); an overflow gives an
    inf or nan density, not a RuntimeWarning."""
    z = np.asarray(zeta, dtype=float)
    if np.any(z == 0.0):
        raise SingularDualError("dual density is singular at zeta = 0")
    with np.errstate(over="ignore", invalid="ignore"):
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
