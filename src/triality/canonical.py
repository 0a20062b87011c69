"""Canonical convex energies and quadratic strain measures.

A canonical energy V is convex with a strictly monotone derivative, so its
Legendre conjugate V* exists in closed form and the pair satisfies
V(xi) + V*(zeta) = xi*zeta exactly when zeta = dV(xi).  Strain enters through
the quadratic measure family Lambda(gamma) = a*|gamma|^2 + b (Frobenius norm
for matrices), which covers both the double-well measure (a=1/2, b=-1) and
the shear-invariant measure (a=1, b=0) with a single parameterization.

Each energy class holds its formulas as array methods (V, dV, d2V, Vstar,
dVstar, d2Vstar) and the lower end xi_min of its xi domain.  The methods do
not test the domain; closed_V is the one rule for V and dV at a measure
value, wherever it lies: the closed extension of V, with V's continuous
limit at the floor xi_min and +inf below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError

#: stop rule of the dual roots, |D| <= TOL*max(1, tau^2) (see _kernels.refine);
#: it also sets the rounding window at the floor of closed_V
TOL = 1e-12


def _as_floats(obj, *names):
    """Store the named fields of a frozen dataclass as floats: an int constant
    would make int arrays (and truncated brackets) downstream."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class QuadraticEnergy:
    """V(xi) = alpha*xi^2/2, defined on all of R.

    The array methods evaluate the formulas on scalars or arrays, without a
    domain test (see closed_V).
    """

    alpha: float = 1.0

    xi_min = -math.inf  # the xi domain is the open interval (xi_min, inf)

    def __post_init__(self):
        _as_floats(self, "alpha")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be a positive finite number, got {self.alpha}")

    def V(self, xi):
        return 0.5 * self.alpha * xi * xi

    def dV(self, xi):
        return self.alpha * xi

    def d2V(self, xi):
        return np.full_like(xi, self.alpha)

    def Vstar(self, zeta):
        return zeta * zeta / (2.0 * self.alpha)

    def dVstar(self, zeta):
        return zeta / self.alpha

    def d2Vstar(self, zeta):
        return np.full_like(zeta, 1.0 / self.alpha)


@dataclass(frozen=True)
class LogNeoHookeanEnergy:
    """V(xi) = c1*xi + c2*xi*log(xi), defined on xi > 0.

    Array methods as for QuadraticEnergy.
    """

    c1: float = 1.0
    c2: float = 1.0

    xi_min = 0.0
    V_floor = 0.0  # the limit of V at xi_min (xi*log(xi) -> 0)

    def __post_init__(self):
        _as_floats(self, "c1", "c2")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be a positive finite material constant, got {v}")

    def V(self, xi):
        return self.c1 * xi + self.c2 * xi * np.log(xi)

    def dV(self, xi):
        return self.c1 + self.c2 * (np.log(xi) + 1.0)

    def d2V(self, xi):
        return self.c2 / xi

    def Vstar(self, zeta):
        return self.c2 * np.exp((zeta - self.c1) / self.c2 - 1.0)

    def dVstar(self, zeta):
        return np.exp((zeta - self.c1) / self.c2 - 1.0)

    def d2Vstar(self, zeta):
        return self.dVstar(zeta) / self.c2


CanonicalEnergy = Union[QuadraticEnergy, LogNeoHookeanEnergy]


@dataclass(frozen=True)
class QuadraticMeasure:
    """Lambda(gamma) = a*|gamma|^2 + b with a > 0."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        _as_floats(self, "a", "b")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"measure scale a must be positive and finite, got {self.a}")
        if not math.isfinite(self.b):
            raise DomainError(f"measure shift b must be finite, got {self.b}")


def closed_V(energy: CanonicalEnergy, m: QuadraticMeasure, xi, slope: bool = False):
    """V(xi), or dV(xi) with slope=True, on the closed domain of V: the one
    domain rule for the measure values xi = a*|gamma|^2 + b of m.

    The rule is the lower-semicontinuous closure of V (Rockafellar, Convex
    Analysis, 1970, section 7):

    - inside, xi > xi_min: the formula;
    - on the floor, xi_min - w <= xi <= xi_min: V's continuous limit
      V_floor (0 for the log model) and slope 0, so the gradient term
      2a*gamma*dV(xi) takes its limit 0 where the floor is gamma = 0;
    - below the floor: V = +inf and a nan slope.

    The window w = (TOL + 4 eps)*|b| is the error that the root stop rule and
    rounding leave in a strain recomputed from a root near the floor, where
    tau^2 ~ 4a*zeta^2*|b|; it is 0 for b = 0.  A domain unbounded below takes
    no test, a bounded one a single comparison while every xi is inside.
    Returns the values (shaped like xi) and the mask of the xi below the
    floor, None when there is none.
    """
    f = energy.dV if slope else energy.V
    if energy.xi_min == -math.inf:
        return f(xi), None
    low = xi <= energy.xi_min
    if not np.any(low):
        return f(xi), None
    below = xi < energy.xi_min - (TOL + 4.0 * math.ulp(1.0)) * abs(m.b)
    edge = np.where(below, np.nan if slope else np.inf, 0.0 if slope else energy.V_floor)
    inside = f(np.where(low, energy.xi_min + 1.0, xi))
    return np.where(low, edge, inside), (below if np.any(below) else None)

