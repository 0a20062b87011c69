"""Canonical convex energies and quadratic strain measures.

A canonical energy V is convex with a strictly monotone derivative, so its
Legendre conjugate V* exists in closed form and the pair satisfies
V(xi) + V*(zeta) = xi*zeta exactly when zeta = dV(xi).  Strain enters through
the quadratic measure family Lambda(gamma) = a*|gamma|^2 + b (Frobenius norm
for matrices), which covers both the double-well measure (a=1/2, b=-1) and
the shear-invariant measure (a=1, b=0) with a single parameterization.

Each energy class holds its formulas as array methods (V, dV, Vstar, dVstar,
d2Vstar) and the lower end xi_min of its xi domain.  The methods do not
test the domain; closed_V is the one rule for V and dV at a measure
value, wherever it lies: the closed extension of V, with V's continuous
limit at the floor xi_min and +inf below it.  lambertw, the real Lambert W,
gives the log model's closed forms (the critical points of its dual curve).
"""
from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError

#: stop rule of the dual roots, |D| <= TOL*max(1, tau^2) (see _kernels.refine);
#: it also sets the rounding window at the floor of closed_V
TOL = 1e-12


class QuadraticEnergy(NamedTuple("QuadraticEnergy", [("alpha", float)])):
    """V(xi) = alpha*xi^2/2, defined on all of R.

    The array methods evaluate the formulas on scalars or arrays, without a
    domain test (see closed_V).  The energies and the measure, like every
    record of the package, are NamedTuples; these three store their
    constants as floats, since an int constant would make int arrays (and
    truncated brackets) downstream.
    """

    __slots__ = ()
    xi_min = -math.inf  # the xi domain is the open interval (xi_min, inf)

    def __new__(cls, alpha: float = 1.0):
        alpha = float(alpha)
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise DomainError(f"alpha must be a positive finite number, got {alpha}")
        return super().__new__(cls, alpha)

    def V(self, xi):
        return 0.5 * self.alpha * xi * xi

    def dV(self, xi):
        return self.alpha * xi

    def Vstar(self, zeta):
        return zeta * zeta / (2.0 * self.alpha)

    def dVstar(self, zeta):
        return zeta / self.alpha

    def d2Vstar(self, zeta, dv=None):
        """d2V*(zeta); dv, when given, is dVstar(zeta) (unused here)."""
        return np.full_like(zeta, 1.0 / self.alpha)


class LogNeoHookeanEnergy(NamedTuple("LogNeoHookeanEnergy", [("c1", float), ("c2", float)])):
    """V(xi) = c1*xi + c2*xi*log(xi), defined on xi > 0.

    Array methods as for QuadraticEnergy.
    """

    __slots__ = ()
    xi_min = 0.0
    V_floor = 0.0  # the limit of V at xi_min (xi*log(xi) -> 0)

    def __new__(cls, c1: float = 1.0, c2: float = 1.0):
        self = super().__new__(cls, float(c1), float(c2))
        for name, v in zip(self._fields, self):
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be a positive finite material constant, got {v}")
        return self

    def V(self, xi):
        return self.c1 * xi + self.c2 * xi * np.log(xi)

    def dV(self, xi):
        return self.c1 + self.c2 * (np.log(xi) + 1.0)

    def Vstar(self, zeta):
        return self.c2 * np.exp((zeta - self.c1) / self.c2 - 1.0)

    def dVstar(self, zeta):
        return np.exp((zeta - self.c1) / self.c2 - 1.0)

    def d2Vstar(self, zeta, dv=None):
        """d2V*(zeta) = dV*(zeta)/c2, from dv = dVstar(zeta) when given."""
        return (self.dVstar(zeta) if dv is None else dv) / self.c2


CanonicalEnergy = Union[QuadraticEnergy, LogNeoHookeanEnergy]


class QuadraticMeasure(NamedTuple("QuadraticMeasure", [("a", float), ("b", float)])):
    """Lambda(gamma) = a*|gamma|^2 + b with a > 0."""

    __slots__ = ()

    def __new__(cls, a: float = 1.0, b: float = 0.0):
        a, b = float(a), float(b)
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError(f"measure scale a must be positive and finite, got {a}")
        if not math.isfinite(b):
            raise DomainError(f"measure shift b must be finite, got {b}")
        return super().__new__(cls, a, b)


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


#: 1/e = _INV_E + _INV_E_LO, so that x + 1/e is exact near the branch point
_INV_E, _INV_E_LO = math.exp(-1.0), -1.2428753672788363e-17
#: 1 - (1 - v)*e^v = sum over k >= 2 of (k - 1)/k! * v^k, in np.polyval order
_BRANCH_SERIES = [(k - 1) / math.factorial(k) for k in range(20, 1, -1)] + [0.0, 0.0]


def lambertw(x: float, branch: int = 0, log_abs_x: Union[float, None] = None) -> float:
    """Real Lambert W, w*e^w = x for x >= -1/e, within 2 ulps: W0 (branch=0,
    w >= -1) or W-1 (branch=-1, w <= -1, x < 0).

    Halley steps from the starts of Corless et al. (Adv. Comput. Math. 5,
    1996).  Near -1/e they solve 1 - (1 - v)*e^v = e*x + 1 for v = w + 1,
    the left side as a series and e*x + 1 free of cancellation; elsewhere
    w*e^w = x.  An x that has over- or underflowed (to +-inf, or below the
    normal floats) may come with log|x| as log_abs_x; x then gives the sign.
    """
    if log_abs_x is None or 2.0 ** -1022 <= abs(x) < math.inf:
        log_abs_x = math.log(abs(x)) if x else -math.inf
    L, t = log_abs_x, math.e * ((x + _INV_E) + _INV_E_LO)  # t = e*x + 1
    if t < 0.0 or branch not in (0, -1) or (
            branch and (math.copysign(1.0, x) > 0.0 or L == -math.inf)):
        raise DomainError(f"W{branch} is not real at x={x!r}")
    if L == math.inf:
        return x  # W0(inf)
    if t < 0.2:  # from p = +-sqrt(2(e*x + 1))
        p = math.copysign(math.sqrt(2.0 * t), branch + 0.5)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        w = L - math.log(abs(L)) + math.log(abs(L)) / L if branch or L > 1.0 else math.log1p(x)
    far = L > 700.0 or (branch and L < -700.0)  # x*e^-w from log|x|
    for _ in range(8):  # w -= r/(1 - r*c/2), with r = f/f' and c = f''/f'
        if t < 0.2:
            v = w + 1.0
            r, c = (np.polyval(_BRANCH_SERIES, v) - t) * math.exp(-v) / v, (1.0 + v) / v
        else:
            xe = math.copysign(math.exp(L - w), x) if far else x * math.exp(-w)
            r, c = (w - xe) / (1.0 + w), (2.0 + w) / (1.0 + w)
        step = r / (1.0 - 0.5 * r * c)
        w -= step
        if abs(step) <= 2.0 ** -50 * abs(w):
            break
    return float(w)
