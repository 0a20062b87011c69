"""Canonical convex energies and quadratic strain measures.

A canonical energy V is convex with a strictly monotone derivative, so its
Legendre conjugate V* exists in closed form and the pair satisfies
V(xi) + V*(zeta) = xi*zeta exactly when zeta = dV(xi).  Strain enters through
the quadratic measure family Lambda(gamma) = a*|gamma|^2 + b (Frobenius norm
for matrices), which covers both the double-well measure (a=1/2, b=-1) and
the shear-invariant measure (a=1, b=0) with a single parameterization.

Each energy class holds its formulas as unchecked array methods (V, dV, d2V,
Vstar, dVstar, d2Vstar) and the lower end xi_min of its xi domain; callers
choose their own domain policy.  The module-level functions of the same
names are the public, domain-checked calls: they raise DomainError for xi
outside the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError


def _as_floats(obj, *names):
    """Store the named fields of a frozen dataclass as floats: an int constant
    would make int arrays (and truncated brackets) downstream."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class QuadraticEnergy:
    """V(xi) = alpha*xi^2/2, defined on all of R.

    The array methods evaluate the formulas unchecked on scalars or arrays;
    each caller applies its own domain policy (see xi_min).
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

    Unchecked array methods as for QuadraticEnergy.
    """

    c1: float = 1.0
    c2: float = 1.0

    xi_min = 0.0

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


def _checked_xi(energy: CanonicalEnergy, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= energy.xi_min):
        raise DomainError(
            f"xi must be strictly above {energy.xi_min} for {type(energy).__name__} "
            f"(got min {np.min(xi)}); refusing to clamp a constitutive-constraint violation"
        )
    return xi


def _ret(x):
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


def V(energy: CanonicalEnergy, xi):
    """Canonical energy value; accepts scalars or arrays."""
    return _ret(energy.V(_checked_xi(energy, xi)))


def dV(energy: CanonicalEnergy, xi):
    """Derivative zeta = dV(xi); strictly increasing on the xi domain."""
    return _ret(energy.dV(_checked_xi(energy, xi)))


def d2V(energy: CanonicalEnergy, xi):
    """Second derivative; positive everywhere on the xi domain."""
    return _ret(energy.d2V(_checked_xi(energy, xi)))


def Vstar(energy: CanonicalEnergy, zeta):
    """Legendre conjugate V*(zeta); defined on all of R for both models."""
    return _ret(energy.Vstar(np.asarray(zeta, dtype=float)))


def dVstar(energy: CanonicalEnergy, zeta):
    """Conjugate derivative xi = dV*(zeta); the inverse map of dV."""
    return _ret(energy.dVstar(np.asarray(zeta, dtype=float)))


def d2Vstar(energy: CanonicalEnergy, zeta):
    """Second derivative of the conjugate, 1 / d2V(dV*(zeta))."""
    return _ret(energy.d2Vstar(np.asarray(zeta, dtype=float)))


def measure_eval(m: QuadraticMeasure, gamma):
    """Lambda(gamma) = a*|gamma|^2 + b for a vector or matrix gamma."""
    g = np.asarray(gamma, dtype=float)
    return m.a * float(np.sum(g * g)) + m.b
