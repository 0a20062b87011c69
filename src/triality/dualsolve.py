"""Enumeration and triality classification of canonical dual roots.

For the measure Lambda(gamma) = a|gamma|^2 + b, stationarity of the total
complementary functional eliminates the strain pointwise and leaves one scalar
equation per material point,

    D(zeta) = 4a * zeta^2 * (dVstar(zeta) - b) - tau^2 = 0.

The left-hand side vanishes at zeta = 0 and grows monotonically to +inf on
zeta > 0, so exactly one positive root exists for any tau^2 > 0.  For the
built-in models the negative side carries at most one interior maximum (the
fold at zeta_c with level eta^2) giving zero, one (tau = eta) or two
negative roots; other energy/measure combinations go through a sign-scan
fallback that brackets every monotone piece.  Each root is classified from
the sign of zeta and the eigenvalues of the Hessian of the composed stored
energy W(gamma) = V(Lambda(gamma)):

    H = 2a*zeta*I + 4a^2*d2V(xi) * gamma x gamma,   gamma = tau / (2a*zeta),

whose spectrum is {2a*zeta (dim-1 times), 2a*zeta + 4a^2*d2V(xi)*|gamma|^2}.

The residual convention is configurable: "derived" keeps the 4a factor that
makes the primal and dual energies agree at every root; "paper-eq45" drops it
and reproduces the single-factor form of the published log-model curve (woven
through the CLI for figure data; it does not satisfy the duality identity).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    dVstar,
)
from .errors import DomainError, RootSolveError, SingularDualError

RESIDUAL_CONVENTIONS = ("derived", "paper-eq45")

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


@dataclass(frozen=True)
class SolverOptions:
    """Root-refinement options: residual tolerance (relative to max(1, tau^2))
    and iteration cap."""

    tol: float = 1e-12
    max_iter: int = 200


@dataclass(frozen=True)
class DualRoot:
    zeta: float
    residual: float
    label: TrialityLabel


@dataclass(frozen=True)
class DualRootSet:
    """All real dual roots at one material point, descending in zeta."""

    tau_sq: float
    roots: tuple[DualRoot, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def zetas(self) -> tuple[float, ...]:
        return tuple(r.zeta for r in self.roots)


class FoldThreshold(NamedTuple):
    zeta_c: float
    eta: float


def residual_factor(m: QuadraticMeasure, convention: str = "derived") -> float:
    """Multiplier on zeta^2*(dVstar - b) in the dual residual."""
    if convention == "derived":
        return 4.0 * m.a
    if convention == "paper-eq45":
        return 1.0
    raise ValueError(f"unknown residual convention {convention!r}; expected one of {RESIDUAL_CONVENTIONS}")


def dual_residual(energy: CanonicalEnergy, m: QuadraticMeasure, zeta, tau_sq,
                  convention: str = "derived"):
    """D(zeta) = factor*zeta^2*(dVstar(zeta) - b) - tau^2 (vectorized in zeta)."""
    z = np.asarray(zeta, dtype=float)
    if np.any(z == 0.0):
        raise SingularDualError("dual residual is taken at zeta = 0; the dual density is singular there")
    out = _kernels.residual(energy, m.b, residual_factor(m, convention), z, tau_sq)
    return float(out) if out.ndim == 0 else out


def _closed_form_geometry(energy: CanonicalEnergy, m: QuadraticMeasure,
                          convention: str):
    """(zeta_c, eta^2, z0neg) of the negative branch for the built-in cases.

    Returns None when no closed form exists (the generic scan path is used
    instead); nan entries mean the feature is absent: zc = nan is "no
    negative roots at all", z0neg = nan is "the curve only decays to zero at
    -inf" (log model) rather than crossing it.
    """
    if isinstance(energy, QuadraticEnergy):
        if m.b >= 0.0:
            return math.nan, math.nan, math.nan
        zc, z0neg = 2.0 * m.b * energy.alpha / 3.0, energy.alpha * m.b
    elif isinstance(energy, LogNeoHookeanEnergy) and m.b == 0.0:
        zc, z0neg = -2.0 * energy.c2, math.nan
    else:
        return None
    # the fold level eta^2 is the height of the unloaded dual curve at zc
    eta_sq = float(_kernels.residual(energy, m.b, residual_factor(m, convention), zc, 0.0))
    return zc, eta_sq, z0neg


def _scan_grid() -> np.ndarray:
    """Symmetric logarithmic zeta grid over [-1e3, 1e3], 5000 points a side,
    excluding zero."""
    mags = np.logspace(-8.0, 3.0, 5000)
    return np.concatenate([-mags[::-1], mags])


def _outer_scan_points(D, end: float, sign: float) -> list[float]:
    """Doublings of a scan-grid end until D takes its asymptotic sign there.

    Beyond such a point the dual curve keeps that sign, so no root lies
    outside the extended grid.  Gives up after _kernels._EXPAND_LIMIT
    doublings with RootSolveError rather than drop a root silently.
    """
    out = []
    z = end
    while sign != 0.0 and np.sign(D(z)) != sign:
        if len(out) == _kernels._EXPAND_LIMIT:
            raise RootSolveError(
                f"dual curve has not reached its asymptotic sign at zeta={z!r}; "
                "a root beyond the scan range cannot be bracketed",
                best_zeta=z, best_residual=float(D(z)),
            )
        z = 2.0 * z
        out.append(z)
    return out


def _critical_points(energy, m, grid) -> list[float]:
    """Interior critical points of the dual curve by derivative sign scan."""
    def slope(z):
        with np.errstate(over="ignore", invalid="ignore"):
            return 2.0 * (energy.dVstar(z) - m.b) + z * energy.d2Vstar(z)

    g = slope(grid)
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
    return out


def fold_threshold(energy: CanonicalEnergy, m: QuadraticMeasure,
                   convention: str = "derived") -> FoldThreshold:
    """Negative critical point zeta_c and fold level eta.

    The root count of the dual equation drops from three to one as tau crosses
    eta.  Closed form for the built-in models: zeta_c = -2*c2 for the log
    model, zeta_c = 2*b*alpha/3 for the quadratic one (b < 0 required); other
    combinations fall back to the derivative sign scan.
    """
    geom = _closed_form_geometry(energy, m, convention)
    if geom is None:
        f = residual_factor(m, convention)
        neg = [c for c in _critical_points(energy, m, _scan_grid()) if c < 0.0]
        if len(neg) > 1:
            raise NotImplementedError(
                "multiple negative critical points of the dual curve; "
                "model outside the supported family"
            )
        geom = ((neg[0], f * neg[0] ** 2 * (dVstar(energy, neg[0]) - m.b), math.nan)
                if neg else (math.nan, math.nan, math.nan))
    zc, eta_sq, _ = geom
    if not math.isfinite(zc):
        raise NotImplementedError(
            "no negative-branch fold for this energy/measure combination "
            "(quadratic energy requires b < 0)"
        )
    return FoldThreshold(zc, math.sqrt(eta_sq))


def _hessian_eigs(energy, m, zeta, tau_sq):
    """(along, perpendicular) Hessian eigenvalues at gamma = tau/(2a*zeta).

    d2V(xi) at xi = dV*(zeta) is taken as 1/d2V*(zeta), which stays defined
    (+inf) where dV*(zeta) underflows to the edge of the xi domain.
    """
    a = m.a
    gsq = tau_sq / (4.0 * a * a * zeta * zeta)
    with np.errstate(divide="ignore"):
        d2v = 1.0 / energy.d2Vstar(zeta)
    along = 2.0 * a * zeta + 4.0 * a * a * d2v * gsq
    return along, 2.0 * a * zeta


#: label codes, 1-5 in TrialityLabel order; _LABELS[code] is the label (None: no root)
_NO_ROOT, _GLOBAL_MIN, _LOCAL_MIN, _LOCAL_MAX, _SADDLE, _DEGENERATE = range(6)
_LABELS = np.array([None, *TrialityLabel], dtype=object)


def classify_root(energy: CanonicalEnergy, m: QuadraticMeasure, zeta: float,
                  tau_vec) -> TrialityLabel:
    """Triality label of a verified root for the stress vector tau_vec.

    zeta > 0 is a global minimizer outright; for zeta < 0 the label follows
    the definiteness of the composed-energy Hessian at gamma = tau/(2a*zeta),
    with a scale-aware zero tolerance on the eigenvalues (see label_array).
    """
    t = np.asarray(tau_vec, dtype=float).ravel()
    return label_array(energy, m, [[float(zeta)]], [float(t @ t)], [[False]], t.size)[0, 0]


def _generic_roots_point(energy, m, factor, t2, opts):
    """All roots at one point by the sign-scan fallback.

    Scans the dual curve on a logarithmic grid, refines every sign-change
    bracket with the kernel's bracketed Newton, and adds tangent (fold) roots
    at critical points whose level matches tau^2.  Returns (zeta, residual,
    degenerate) triples.
    """
    def D(z):
        return _kernels.residual(energy, m.b, factor, z, t2)

    found: list[tuple[float, float, bool]] = []

    def is_new(z):
        return all(abs(z - p[0]) > 1e-9 * (1.0 + abs(z)) for p in found)

    def refine(lo, hi):
        x, fx, ok = _kernels.newton_bracketed(
            energy, m.b, factor, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
            t2, opts.tol * max(1.0, t2), opts.max_iter)
        if not ok.all():
            z, r = float(x[~ok][0]), float(fx[~ok][0])
            raise RootSolveError(
                f"dual root iteration did not converge: best zeta={z!r}, |D|={abs(r)!r}",
                best_zeta=z, best_residual=r,
            )
        for r, res in zip(x.tolist(), fx.tolist()):
            if is_new(r):
                found.append((r, res, False))

    # D -> +inf as zeta -> +inf; as zeta -> -inf its sign is that of
    # lim dV* - b, and where dV* decays to b itself (log model, b = 0) the
    # dual term vanishes and D tends to -tau^2
    gap = energy.xi_min - m.b
    neg_sign = np.sign(gap) if gap != 0.0 else -np.sign(t2)
    grid = _scan_grid()
    grid = np.concatenate([_outer_scan_points(D, grid[0], neg_sign)[::-1], grid,
                           _outer_scan_points(D, grid[-1], 1.0)])
    vals = D(grid)
    # sign changes between nonzero values (exact zeros are handled below, and
    # this skips underflow plateaus) that do not straddle the excluded zeta = 0
    cells = np.nonzero((np.diff(np.sign(vals)) != 0) & (vals[:-1] != 0.0) & (vals[1:] != 0.0)
                       & ~((grid[:-1] < 0.0) & (grid[1:] > 0.0)))[0]
    refine(grid[cells], grid[cells + 1])
    # isolated exact zeros are genuine roots that landed on a grid point; a
    # run of zeros is the underflow floor of a strictly positive curve
    for i in np.nonzero(vals == 0.0)[0]:
        left = vals[i - 1] if i > 0 else 0.0
        right = vals[i + 1] if i + 1 < vals.size else 0.0
        if left != 0.0 and right != 0.0 and is_new(grid[i]):
            found.append((float(grid[i]), 0.0, False))
    # critical points: a level match is a tangent (fold) root; otherwise split
    # the enclosing cell there, which resolves root pairs closer than the grid
    for c in _critical_points(energy, m, grid):
        dc = D(c)
        if abs(dc) <= _kernels._DEGENERATE_RTOL * max(1.0, t2):
            if is_new(c):
                found.append((c, dc, True))
            continue
        j = int(np.searchsorted(grid, c)) - 1
        for lo, hi, flo, fhi in ((grid[j], c, vals[j], dc),
                                 (c, grid[j + 1], dc, vals[j + 1])):
            if flo != 0.0 and fhi != 0.0 and (flo > 0.0) != (fhi > 0.0):
                refine([lo], [hi])
    return found


def solve_roots_array(energy: CanonicalEnergy, m: QuadraticMeasure, tau_sq,
                      opts: SolverOptions | None = None,
                      convention: str = "derived"):
    """Enumerate dual roots for an array of tau^2 values.

    Returns (roots, residuals, degenerate, counts): roots is (n, 3) nan-padded
    with slot 0 the positive root and slots 1-2 the negative roots descending;
    degenerate marks fold roots reported once at zeta_c.  Built-in models go
    through the batch kernels; other energy/measure combinations use the
    generic scan fallback point by point.
    """
    opts = opts or SolverOptions()
    t2 = np.ascontiguousarray(tau_sq, dtype=float)
    if np.any(~np.isfinite(t2)) or np.any(t2 < 0.0):
        raise DomainError("tau^2 values must be finite and nonnegative")
    factor = residual_factor(m, convention)
    geom = _closed_form_geometry(energy, m, convention)
    if geom is not None:
        zc, eta_sq, z0neg = geom
        roots, resid, flags, counts = _kernels.solve_roots_batch(
            energy, m.b, factor, t2, opts.tol, opts.max_iter, zc, eta_sq, z0neg
        )
        if np.any(flags == 2):
            i, k = np.argwhere(flags == 2)[0]
            raise RootSolveError(
                f"dual root iteration did not converge at point {i} (slot {k}): "
                f"best zeta={roots[i, k]!r}, |D|={abs(resid[i, k])!r}",
                best_zeta=float(roots[i, k]),
                best_residual=float(resid[i, k]),
            )
        return roots, resid, flags == 1, counts

    n = t2.size
    roots = np.full((n, 3), np.nan)
    resid = np.zeros((n, 3))
    deg = np.zeros((n, 3), dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        found = _generic_roots_point(energy, m, factor, float(t2[i]), opts)
        pos = [f for f in found if f[0] > 0.0]
        neg = sorted((f for f in found if f[0] < 0.0), key=lambda f: -f[0])
        if len(pos) > 1 or len(neg) > 2:
            raise NotImplementedError(
                f"{len(found)} real dual roots at tau^2={t2[i]}; "
                "more than three is outside the supported model family"
            )
        slotted = [(0, f) for f in pos] + [(j + 1, f) for j, f in enumerate(neg)]
        for k, (z, r, d) in slotted:
            roots[i, k] = z
            resid[i, k] = r
            deg[i, k] = d
        counts[i] = len(found)
    return roots, resid, deg, counts


def solve_all_roots(energy: CanonicalEnergy, m: QuadraticMeasure, tau_sq: float,
                    opts: SolverOptions | None = None, dim: int = 1,
                    convention: str = "derived") -> DualRootSet:
    """All real dual roots at one material point, labeled and ordered.

    Parameters
    ----------
    tau_sq : squared stress magnitude at the point (>= 0).
    dim : dimension of the strain vector, used for the Hessian spectrum in
        the labels (1 for bars, 2 for anti-plane sections, 9 for 3x3 tensors).
    """
    roots, resid, degenerate, _ = solve_roots_array(
        energy, m, np.asarray([tau_sq], dtype=float), opts, convention
    )
    labels = label_array(energy, m, roots, [tau_sq], degenerate, dim)
    out = [DualRoot(float(z), float(r), lab)
           for z, r, lab in zip(roots[0], resid[0], labels[0]) if not np.isnan(z)]
    out.sort(key=lambda r: -r.zeta)
    return DualRootSet(float(tau_sq), tuple(out))


def label_array(energy: CanonicalEnergy, m: QuadraticMeasure, roots, tau_sq,
                degenerate, dim: int) -> np.ndarray:
    """Labels of every slot of an (n, k) roots array with per-point tau_sq.

    Returns an object array of TrialityLabel, None at nan slots.  Flagged
    fold roots are DEGENERATE and zeta > 0 is a global minimizer outright.
    Every other root is labelled from the Hessian spectrum of _hessian_eigs
    at gamma = tau/(2a*zeta), `along` once and `perp` dim-1 times, counting
    eigenvalues within EIG_ZERO_RTOL*(1 + |2a*zeta|) of zero as zero.  Labels
    are computed as integer codes over whole arrays and looked up once.
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
