"""Enumeration and triality classification of canonical dual roots.

For the measure Lambda(gamma) = a|gamma|^2 + b, stationarity of the total
complementary functional eliminates the strain pointwise and leaves one scalar
equation per material point,

    D(zeta) = 4a * zeta^2 * (dVstar(zeta) - b) - tau^2 = 0.

The left-hand side vanishes at zeta = 0 and ends at +inf as zeta -> +inf,
so one positive root exists for any tau^2 > 0.  The critical points of the
unloaded curve, in closed form for both built-in models (the log model's
from Lambert W), cut the zeta axis into monotone pieces, and the batch
kernel refines each piece's roots at once.  Where the negative side carries
one interior maximum (the fold at zeta_c with level eta^2) it holds zero,
one (tau = eta) or two roots; for -e^(-4 - c1/c2)/2 < b < 0 the log model's
negative side has a minimum too, and a load between the two levels has
four real roots, which solve_roots_array refuses (NotImplementedError).
Each root is classified from the sign of zeta and the piece it lies on.
zeta > 0 is the global minimizer.  For zeta < 0 the Hessian of the composed
stored energy W(gamma) = V(Lambda(gamma)) at gamma = tau/(2a*zeta) has the
eigenvalue perp = 2a*zeta < 0 (dim-1 times) and one eigenvalue `along`, and
at a root h'(zeta) = 2*zeta*d2V*(zeta) * along: `along` has the sign opposite
to h'.  A root on a rising piece of h is therefore a local maximum, one on a
falling piece a local minimum in 1-D and a saddle for dim > 1.

The equation depends on the energy and the measure only.  The single-factor
form of the paper's eq. (45), whose log-model curve is the published figure,
is the same equation for the measure paper_eq45(m) = (1/4, b).  The CLI
draws only its fold level and its curve next to the configured measure's;
its roots are those of a config with measure_a = 0.25.
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
    lambertw,
)
from .errors import DomainError, RootSolveError, SingularDualError

_LOG_MAX = 709.782712893384  # log of the largest float


class TrialityLabel(enum.IntEnum):
    """Triality label of a dual root; its value is the int8 code that
    label_array stores (code 0: a slot without a root)."""

    GLOBAL_MIN = 1
    LOCAL_MIN = 2
    LOCAL_MAX = 3
    SADDLE = 4
    DEGENERATE = 5

    def __str__(self) -> str:  # CSV text, e.g. global_min
        return self.name.lower()


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
    """Closed form for the built-in models: for the quadratic energy the zero
    alpha*b (b != 0) and zeta_c = 2*b*alpha/3 (b < 0, else no negative
    branch), for the log model the points of _log_critical_w.  A critical
    point below -max float is no piece end: the piece that reaches -inf
    takes its level.  Any other end beyond the float range or nan level
    raises RootSolveError, an energy of another class NotImplementedError."""
    zeros = crit = ()
    # towards -inf dV* tends to xi_min, so h takes the sign of xi_min - b
    # there (and decays to 0 where they agree)
    gap = energy.xi_min - m.b
    far = math.copysign(math.inf, gap) if gap else 0.0
    if isinstance(energy, QuadraticEnergy):
        if m.b != 0.0:
            zeros = (energy.alpha * m.b,)
        if m.b < 0.0:
            crit = (2.0 * m.b * energy.alpha / 3.0,)
    elif isinstance(energy, LogNeoHookeanEnergy):
        ws = _log_critical_w(energy, m)
        crit = [energy.c2 * (w - 2.0) for w in ws]
        n = crit.count(-math.inf)  # no piece ends; the last borders the float range
        if n:  # h = 2a*c2^2*(2 - w)^3*e^(w - 3 - c1/c2) there, from its log
            log_h = (math.log(2.0 * m.a) + 2.0 * math.log(energy.c2)
                     + 3.0 * math.log(2.0 - ws[n - 1]) + ws[n - 1] - 3.0 - energy.c1 / energy.c2)
            far = math.exp(log_h) if log_h < _LOG_MAX else math.inf
        crit = crit[n:]
    else:
        raise NotImplementedError(f"no closed-form dual curve for {type(energy).__name__}")
    ends = np.array([*zeros, *crit, 0.0])
    critical = np.array([False] * len(zeros) + [True] * len(crit) + [False])
    order = np.argsort(ends)
    ends, critical = ends[order], critical[order]
    # h is exactly 0 at the non-critical ends 0 and alpha*b, where the residual
    # could round
    h = _kernels.residual(energy, m, ends, 0.0)
    levels = np.array([far, *np.where(critical, h, 0.0), math.inf])
    if not np.all(np.isfinite(ends)) or np.any(np.isnan(levels)):
        raise RootSolveError(f"dual curve ends {ends.tolist()}, levels {levels.tolist()}: "
                             "a piece end beyond the float range cannot be bracketed")
    return _Curve(ends, levels, critical)


def _log_critical_w(energy: LogNeoHookeanEnergy, m: QuadraticMeasure) -> list:
    """w = 2 + zeta/c2 at the critical points of the log model's curve,
    ascending.  Away from zero h' = 0 means dV*(zeta)*(2 + zeta/c2) = 2b,
    so w*e^w = x = 2b*e^(3 + c1/c2): w = 0 (zeta = -2*c2) for b = 0, W0(x)
    for b > 0, W-1(x) and W0(x) for b < 0 with x > -1/e, none otherwise.
    Where x over- or underflows, lambertw works from log|x|."""
    if m.b == 0.0:
        return [0.0]
    s = 3.0 + energy.c1 / energy.c2
    log_x = math.log(abs(m.b)) + math.log(2.0) + s
    if s < _LOG_MAX:
        x = m.b * math.exp(s) * 2.0  # +-inf where it overflows
    else:
        x = math.copysign(math.exp(log_x) if log_x < _LOG_MAX else math.inf, m.b)
    branches = (0,) if m.b > 0.0 else (-1, 0) if x > -math.exp(-1.0) else ()
    return [lambertw(x, k, log_x) for k in branches]


def fold_threshold(energy: CanonicalEnergy, m: QuadraticMeasure) -> FoldThreshold:
    """Negative critical point zeta_c and fold level eta, from _curve.

    The root count of the dual equation drops from three to one as tau crosses
    eta.  NotImplementedError where the negative side has no critical point
    or two (or where it lies beyond the float range).
    """
    curve = _curve(energy, m)
    neg = np.flatnonzero(curve.critical & (curve.ends < 0.0))
    if neg.size != 1:
        raise NotImplementedError(
            "no single negative-branch fold for this energy/measure combination "
            "(quadratic energy requires b < 0; several are outside the supported family)"
        )
    return FoldThreshold(float(curve.ends[neg[0]]), math.sqrt(curve.levels[neg[0] + 1]))


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


def label_array(energy: CanonicalEnergy, m: QuadraticMeasure, roots, degenerate,
                dim: int) -> np.ndarray:
    """Triality codes of every slot of an (n, k) roots array.

    Returns an int8 array of TrialityLabel values, 0 at nan slots.  Flagged
    fold roots are DEGENERATE and zeta > 0 is a global minimizer outright.
    A root zeta < 0 takes the direction of the piece of _curve that holds
    it: LOCAL_MAX on a rising piece, else LOCAL_MIN for dim == 1 and SADDLE
    for dim > 1 (dim is the strain dimension: 1 for bars, 2 for anti-plane
    sections, 9 for 3x3 tensors).  A root exactly at the non-critical end
    alpha*b goes to the piece on its left; both pieces there rise.
    """
    z = np.asarray(roots, dtype=float)
    labels = np.zeros(z.shape, dtype=np.int8)
    found = ~np.isnan(z)
    deg = found & np.asarray(degenerate, dtype=bool)
    labels[deg] = TrialityLabel.DEGENERATE
    found &= ~deg
    if np.any(z[found] == 0.0):
        raise SingularDualError("cannot classify the trivial branch zeta = 0")
    labels[found & (z > 0.0)] = TrialityLabel.GLOBAL_MIN
    neg = found & (z < 0.0)
    curve = _curve(energy, m)
    k = np.searchsorted(curve.ends, z[neg])
    rising = curve.levels[k + 1] > curve.levels[k]
    falling = TrialityLabel.LOCAL_MIN if dim == 1 else TrialityLabel.SADDLE
    labels[neg] = np.where(rising, TrialityLabel.LOCAL_MAX, falling)
    return labels
