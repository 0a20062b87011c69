"""Enumeration and triality classification of canonical dual roots.

For the measure Lambda(gamma) = a|gamma|^2 + b, stationarity of the total
complementary functional eliminates the strain pointwise and leaves one scalar
equation per material point,

    D(zeta) = 4a * zeta^2 * (dVstar(zeta) - b) - tau^2 = 0.

The left-hand side vanishes at zeta = 0 and grows monotonically to +inf on
zeta > 0, so exactly one positive root exists for any tau^2 > 0.  For the
built-in models the negative side carries at most one interior maximum (the
fold at zeta_c with level eta^2) giving zero, one (tau = eta) or two
negative roots.  Every model is solved the same way: its critical points
(closed forms for the built-in models, one scan otherwise) cut the zeta axis
into monotone pieces, and the batch kernel refines each piece's roots at
once.  Each root is classified from the sign of zeta and the eigenvalues of
the Hessian of the composed stored energy W(gamma) = V(Lambda(gamma)):

    H = 2a*zeta*I + 4a^2*d2V(xi) * gamma x gamma,   gamma = tau / (2a*zeta),

whose spectrum is {2a*zeta (dim-1 times), 2a*zeta + 4a^2*d2V(xi)*|gamma|^2}.

The equation depends on the energy and the measure only.  The single-factor
form of the paper's eq. (45), whose log-model curve is the published figure,
is the same equation for the measure paper_eq45(m) = (1/4, b); the CLI uses
it only for sweep's figure data, since its roots do not satisfy the duality
identity of the instance's own measure.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
)
from .errors import DomainError, SingularDualError

#: scale-aware zero tolerance for Hessian eigenvalues
EIG_ZERO_RTOL = 1e-12


class TrialityLabel(enum.Enum):
    GLOBAL_MIN = "global_min"
    LOCAL_MIN = "local_min"
    LOCAL_MAX = "local_max"
    SADDLE = "saddle"
    DEGENERATE = "degenerate"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


class FoldThreshold(NamedTuple):
    zeta_c: float
    eta: float


def paper_eq45(m: QuadraticMeasure) -> QuadraticMeasure:
    """The measure whose dual equation is the single-factor eq. (45) of the
    paper, zeta^2*(dV*(zeta) - b) = tau^2: 4*0.25 == 1.0 exactly, so its
    residual is that of eq. (45) bit for bit."""
    return QuadraticMeasure(0.25, m.b)


class _Curve(NamedTuple):
    """Unloaded dual curve h = D + tau^2, cut into monotone pieces (and, for
    the quadratic model with b > 0, the piece 0 < zeta < alpha*b, where h < 0
    holds no root): the ascending finite piece ends (the critical points, 0
    and, for the quadratic model, its zero alpha*b), the level of h at -inf,
    at each end and at +inf, and which ends are critical points."""

    ends: np.ndarray
    levels: np.ndarray
    critical: np.ndarray


def _curve(energy: CanonicalEnergy, m: QuadraticMeasure) -> _Curve:
    """Closed form for the built-in models: the zero alpha*b for the quadratic
    energy with b != 0, and zeta_c = 2*b*alpha/3 for b < 0 (else no negative
    branch), and zeta_c = -2*c2 for the log model with b = 0; other
    combinations take their critical points from one scan."""
    zeros = crit = ()
    if isinstance(energy, QuadraticEnergy):
        if m.b != 0.0:
            zeros = (energy.alpha * m.b,)
        if m.b < 0.0:
            crit = (2.0 * m.b * energy.alpha / 3.0,)
    elif isinstance(energy, LogNeoHookeanEnergy) and m.b == 0.0:
        crit = (-2.0 * energy.c2,)
    else:
        crit = tuple(_critical_points(energy, m))
    ends = np.array([*zeros, *crit, 0.0])
    critical = np.array([False] * len(zeros) + [True] * len(crit) + [False])
    order = np.argsort(ends)
    ends, critical = ends[order], critical[order]
    # h is exactly 0 at the non-critical ends 0 and alpha*b, where the residual
    # could round; towards -inf dV* tends to xi_min, so h takes the sign of
    # xi_min - b there (and decays to 0 where they agree)
    gap = energy.xi_min - m.b
    h = _kernels.residual(energy, m, ends, 0.0)
    levels = np.array([math.copysign(math.inf, gap) if gap else 0.0,
                       *np.where(critical, h, 0.0), math.inf])
    return _Curve(ends, levels, critical)


def _critical_points(energy, m) -> np.ndarray:
    """Interior critical points of the dual curve, ascending.

    The slope 2*(dV* - b) + zeta*d2V* (D' over 4a*zeta) is scanned on a
    logarithmic grid, 5000 points a side over 1e-8 <= |zeta| <= 1e3, whose
    ends double until the slope has its asymptotic sign, + at +inf and that
    of xi_min - b at -inf, so no critical point lies beyond; each sign
    change between nonzero slope values is bisected down to adjacent floats.
    """
    def slope(z):
        with np.errstate(over="ignore", invalid="ignore"):
            return 2.0 * (energy.dVstar(z) - m.b) + z * energy.d2Vstar(z)

    def doublings(end, sign):
        if sign == 0.0:  # the slope decays to 0: that end stays
            return np.empty(0)
        z = _kernels.expand(slope, 0.0, [end], sign)[0]
        return np.ldexp(end, np.arange(1, round(math.log2(z / end)) + 1))

    mags = np.logspace(-8.0, 3.0, 5000)
    grid = np.concatenate([doublings(-mags[-1], np.sign(energy.xi_min - m.b))[::-1],
                           -mags[::-1], mags, doublings(mags[-1], 1.0)])
    g = slope(grid)
    grid, g = grid[g != 0.0], g[g != 0.0]  # an underflowed slope of 0.0 holds no sign
    out = []
    for i in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        if lo < 0.0 < hi:
            continue  # the join across zero is not an interior point
        ref = g[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (slope(mid) > 0) == (ref > 0):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def fold_threshold(energy: CanonicalEnergy, m: QuadraticMeasure) -> FoldThreshold:
    """Negative critical point zeta_c and fold level eta.

    The root count of the dual equation drops from three to one as tau crosses
    eta.  Closed form for the built-in models: zeta_c = -2*c2 for the log
    model, zeta_c = 2*b*alpha/3 for the quadratic one (b < 0 required); other
    combinations fall back to the critical-point scan, which follows the
    curve as far out as its features go.
    """
    curve = _curve(energy, m)
    neg = np.flatnonzero(curve.critical & (curve.ends < 0.0))
    if neg.size != 1:
        raise NotImplementedError(
            "no single negative-branch fold for this energy/measure combination "
            "(quadratic energy requires b < 0; several are outside the supported family)"
        )
    return FoldThreshold(float(curve.ends[neg[0]]), math.sqrt(curve.levels[neg[0] + 1]))


def _hessian_eigs(energy, m, zeta, tau_sq):
    """(along, perpendicular) Hessian eigenvalues at gamma = tau/(2a*zeta).

    d2V(xi) at xi = dV*(zeta) is taken as 1/d2V*(zeta), which stays defined
    (+inf) where d2V*(zeta) underflows; at gamma = 0 the term it scales is 0
    however large d2V gets, and the Hessian is 2a*zeta*I.  The bend term
    4a^2*d2V*|gamma|^2 is d2V*tau^2/zeta^2: the a factors cancel, so a tiny
    a cannot underflow 4a^2*zeta^2 to 0 and turn it into 0*inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        g2 = tau_sq / (zeta * zeta)
        d2v = 1.0 / energy.d2Vstar(zeta)
        bend = np.multiply(d2v, g2, out=np.zeros(np.shape(g2)), where=g2 != 0.0)
    return 2.0 * m.a * zeta + bend, 2.0 * m.a * zeta


#: label codes, 1-5 in TrialityLabel order; _LABELS[code] is the label (None: no root)
_NO_ROOT, _GLOBAL_MIN, _LOCAL_MIN, _LOCAL_MAX, _SADDLE, _DEGENERATE = range(6)
_LABELS = np.array([None, *TrialityLabel], dtype=object)


def solve_roots_array(energy: CanonicalEnergy, m: QuadraticMeasure, tau_sq):
    """Enumerate dual roots for an array of tau^2 values.

    Returns (roots, residuals, degenerate, counts): roots is (n, 3) nan-padded
    with slot 0 the positive root and slots 1-2 the negative roots descending;
    degenerate marks fold roots reported once at zeta_c.  Every model goes
    through the one piece loop of the batch kernel, on the pieces of _curve.
    """
    t2 = np.ascontiguousarray(tau_sq, dtype=float)
    if np.any(~np.isfinite(t2)) or np.any(t2 < 0.0):
        raise DomainError("tau^2 values must be finite and nonnegative")
    return _kernels.solve_roots_batch(energy, m, t2, *_curve(energy, m))


def label_array(energy: CanonicalEnergy, m: QuadraticMeasure, roots, tau_sq,
                degenerate, dim: int) -> np.ndarray:
    """Labels of every slot of an (n, k) roots array with per-point tau_sq.

    Returns an object array of TrialityLabel, None at nan slots.  Flagged
    fold roots are DEGENERATE and zeta > 0 is a global minimizer outright.
    Every other root is labelled from the Hessian spectrum of _hessian_eigs
    at gamma = tau/(2a*zeta), `along` once and `perp` dim-1 times (dim is the
    strain dimension: 1 for bars, 2 for anti-plane sections, 9 for 3x3
    tensors), counting eigenvalues within EIG_ZERO_RTOL*(1 + |2a*zeta|) of
    zero as zero.  Labels are computed as integer codes over whole arrays
    and looked up once.
    """
    z = np.asarray(roots, dtype=float)
    t2 = np.broadcast_to(np.asarray(tau_sq, dtype=float)[:, None], z.shape)
    codes = np.full(z.shape, _NO_ROOT, dtype=np.int8)
    found = ~np.isnan(z)
    deg = found & np.asarray(degenerate, dtype=bool)
    codes[deg] = _DEGENERATE
    found &= ~deg
    if np.any(z[found] == 0.0):
        raise SingularDualError("cannot classify the trivial branch zeta = 0")
    codes[found & (z > 0.0)] = _GLOBAL_MIN
    neg = found & (z < 0.0)
    zn = z[neg]
    along, perp = _hessian_eigs(energy, m, zn, t2[neg])
    tol = EIG_ZERO_RTOL * (1.0 + np.abs(2.0 * m.a * zn))
    zero, pos, negative = np.abs(along) <= tol, along > 0.0, along < 0.0
    if dim > 1:
        zero |= np.abs(perp) <= tol
        pos &= perp > 0.0
        negative &= perp < 0.0
    codes[neg] = np.select([zero, pos, negative], [_DEGENERATE, _LOCAL_MIN, _LOCAL_MAX], _SADDLE)
    return _LABELS[codes]
