"""Hot numeric kernels: dual-root batch solving and discrete energy/gradient.

One numpy implementation, vectorised over material points.  Every kernel
takes the energy object and evaluates its unchecked array methods
(``energy.V``, ``energy.dVstar``, ...).

Discrete energy: the ``stored_energy*`` kernels take nodal fields with a
leading start axis, u of shape (starts, n) or (starts, ny, nx), and return
one stored energy per start (the gradient kernels also fill grad, shaped
like u).  A start with any xi outside the energy's domain gets +inf (and a
zero gradient) without affecting the other starts; the domain test is
skipped for a domain unbounded below.  In 2-D the four corner quadrature
points are stacked, so each call evaluates energy.V (and energy.dV) once.

Root solving: per material point the residual is

    D(zeta) = factor * zeta^2 * (dVstar(zeta) - b) - tau^2

with factor = 4a under the derived convention.  D has one sign change on
zeta > 0 for any tau^2 > 0, and zero, one (fold) or two sign changes on
zeta < 0 depending on tau^2 relative to the fold level eta^2 = D-max at the
negative critical point zc.  ``expand`` pushes a bracket end out until D
takes a given sign and ``refine`` solves every bracket by safeguarded Newton
iteration (bisection fallback keeps iterates inside the bracket) under the
one stop rule |D| <= tol*max(1, tau^2).  The batch solver serves the
built-in closed-form geometries; nonstandard models go through the sign-scan
fallback in the dual-solve module, which uses the same two stages.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import RootSolveError

_DEGENERATE_RTOL = 1e-13  # |tau^2 - eta^2| window treated as the fold
_EXPAND_LIMIT = 600       # bracket-expansion doublings before giving up


def residual(energy, b, factor, z, t2):
    """D(z) = factor*z^2*(dV*(z) - b) - t2, overflow to +-inf allowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return factor * z * z * (energy.dVstar(z) - b) - t2


def _residual_prime(energy, b, factor, z):
    with np.errstate(over="ignore", invalid="ignore"):
        return factor * (2.0 * z * (energy.dVstar(z) - b) + z * z * energy.d2Vstar(z))


def expand(fn, base, width, sign):
    """Ends base + width*2^k, per entry the fewest doublings k >= 0 at which
    fn (an array function of zeta, usually D) takes the sign `sign`; raises
    RootSolveError after _EXPAND_LIMIT doublings rather than leave a root
    beyond the last end unbracketed."""
    width = np.array(width, dtype=float)
    for _ in range(_EXPAND_LIMIT + 1):
        z = base + width
        f = fn(z)
        bad = np.sign(f) != sign
        if not bad.any():
            return z
        width[bad] *= 2.0
    z, r = float(z[bad][0]), float(f[bad][0])
    raise RootSolveError(
        f"dual curve has not reached its asymptotic sign at zeta={z!r}; "
        "a root beyond the scan range cannot be bracketed",
        best_zeta=z, best_residual=r,
    )


def newton_bracketed(energy, b, factor, lo, hi, t2, tol, max_iter):
    """Safeguarded Newton on per-point brackets [lo, hi] with a sign change.

    Returns (x, D(x), converged) arrays; converged means |D(x)| <= tol.
    """
    lo = lo.copy()
    hi = hi.copy()
    fhi = residual(energy, b, factor, hi, t2)
    x = 0.5 * (lo + hi)
    fx = residual(energy, b, factor, x, t2)
    done = np.abs(fx) <= tol
    for _ in range(max_iter):
        if done.all():
            break
        act = ~done
        same_side = (fx > 0.0) == (fhi > 0.0)
        upd_hi = act & same_side
        upd_lo = act & ~same_side
        hi[upd_hi] = x[upd_hi]
        fhi[upd_hi] = fx[upd_hi]
        lo[upd_lo] = x[upd_lo]
        fp = _residual_prime(energy, b, factor, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xn = x - fx / fp
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = np.where(act, xn, x)
        fx = np.where(act, residual(energy, b, factor, x, t2), fx)
        done = done | (np.abs(fx) <= tol)
    return x, fx, done


def refine(energy, b, factor, lo, hi, t2, tol_rel, max_iter):
    """Roots of D in per-point brackets [lo, hi] with a sign change.

    Stops where |D| <= tol_rel*max(1, tau^2) and returns (zeta, D(zeta));
    raises RootSolveError with the first iterate that did not get there.
    """
    x, fx, ok = newton_bracketed(energy, b, factor, lo, hi, t2,
                                 tol_rel * np.maximum(1.0, t2), max_iter)
    if not ok.all():
        z, r = float(x[~ok][0]), float(fx[~ok][0])
        raise RootSolveError(
            f"dual root iteration did not converge: best zeta={z!r}, |D|={abs(r)!r}",
            best_zeta=z, best_residual=r,
        )
    return x, fx


def solve_roots_batch(energy, b, factor, tau_sq, tol_rel, max_iter, zc, eta_sq, z0neg):
    """Vectorized root enumeration over an array of tau^2 values.

    Returns (roots, residuals, degenerate, counts); roots shape (n, 3),
    nan-padded, slot 0 the positive root, slots 1-2 the negative roots in
    descending order; degenerate marks fold roots reported once at zc.
    """
    tau_sq = np.ascontiguousarray(tau_sq, dtype=float)
    roots = np.full((tau_sq.size, 3), np.nan)
    resid = np.zeros(roots.shape)
    degenerate = np.zeros(roots.shape, dtype=bool)

    def solve(slot, at, lo, hi):
        roots[at, slot], resid[at, slot] = refine(energy, b, factor, lo, hi, tau_sq[at],
                                                  tol_rel, max_iter)

    pos = tau_sq > 0.0
    if pos.any():
        k = np.count_nonzero(pos)
        hi = expand(partial(residual, energy, b, factor, t2=tau_sq[pos]), 0.0, np.ones(k), 1.0)
        solve(0, pos, np.zeros(k), hi)

    if np.isfinite(zc):
        degtol = _DEGENERATE_RTOL * max(1.0, eta_sq)
        zero = tau_sq == 0.0
        deg = ~zero & (np.abs(tau_sq - eta_sq) <= degtol)
        sub = ~zero & ~deg & (tau_sq < eta_sq)
        if zero.any() and np.isfinite(z0neg):
            roots[zero, 1] = z0neg
            resid[zero, 1] = residual(energy, b, factor, z0neg, 0.0)
        if deg.any():
            roots[deg, 1] = zc
            resid[deg, 1] = residual(energy, b, factor, zc, tau_sq[deg])
            degenerate[deg, 1] = True
        if sub.any():
            k = np.count_nonzero(sub)
            solve(1, sub, np.full(k, zc), np.zeros(k))
            lo = (np.full(k, z0neg) if np.isfinite(z0neg) else
                  expand(partial(residual, energy, b, factor, t2=tau_sq[sub]),
                         zc, np.full(k, -max(1.0, abs(zc))), -1.0))
            solve(2, sub, lo, np.full(k, zc))

    counts = np.sum(~np.isnan(roots), axis=1).astype(np.int64)
    return roots, resid, degenerate, counts


def _outside_domain(energy, xi):
    """Per start (leading axis of xi), whether any xi lies on or below the
    domain floor; such xi are moved to xi_min + 1 in place so V and dV stay
    finite and quiet.  Returns None when every start is inside."""
    if energy.xi_min == -math.inf:  # an unbounded domain (the quadratic energy's) needs no test
        return None
    bad = xi <= energy.xi_min
    if not bad.any():
        return None
    xi[bad] = energy.xi_min + 1.0
    return bad.reshape(len(xi), -1).any(axis=1)


def stored_energy_1d(u, h, energy, m):
    g = (u[..., 1:] - u[..., :-1]) / h
    xi = m.a * g * g + m.b
    out = _outside_domain(energy, xi)
    e = h * energy.V(xi).sum(axis=-1)
    if out is not None:
        e[out] = np.inf
    return e


def stored_energy_grad_1d(u, h, energy, m, grad):
    grad[:] = 0.0
    g = (u[..., 1:] - u[..., :-1]) / h
    xi = m.a * g * g + m.b
    out = _outside_domain(energy, xi)
    s = 2.0 * m.a * g * energy.dV(xi)
    grad[..., :-1] -= s
    grad[..., 1:] += s
    e = h * energy.V(xi).sum(axis=-1)
    if out is not None:
        e[out] = np.inf
        grad[out] = 0.0
    return e


#: the four corner quadrature points of a cell, as (cx, cy): cx = 0/1 takes the
#: x-difference on its bottom/top edge, cy = 0/1 the y-difference on its left/right
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
_EDGE = (np.s_[:-1], np.s_[1:])  # the lower/upper of two adjacent node lines


def _measure_2d(u, hx, hy, m):
    """Node differences dx (S, ny, nx-1) and dy (S, ny-1, nx), and xi at the
    corner points, xi[:, cx, cy] of shape (S, ny-1, nx-1)."""
    dx = (u[:, :, 1:] - u[:, :, :-1]) / hx
    dy = (u[:, 1:, :] - u[:, :-1, :]) / hy
    sx, sy = dx * dx, dy * dy
    xi = np.empty((len(u), 2, 2, u.shape[1] - 1, u.shape[2] - 1))
    for cx, cy in _CORNERS:
        np.add(sx[:, _EDGE[cx]], sy[:, :, _EDGE[cy]], out=xi[:, cx, cy])
    xi *= m.a
    xi += m.b
    return dx, dy, xi


def _corner_sum(w, v):
    # the corner points are added one after another, each summed over its cells
    s = v.reshape(len(v), len(_CORNERS), -1).sum(axis=-1)
    total = w * s[:, 0]
    for q in range(1, len(_CORNERS)):
        total += w * s[:, q]
    return total


def stored_energy_2d(u, hx, hy, energy, m):
    _, _, xi = _measure_2d(u, hx, hy, m)
    out = _outside_domain(energy, xi)
    e = _corner_sum(0.25 * hx * hy, energy.V(xi))
    if out is not None:
        e[out] = np.inf
    return e


def stored_energy_grad_2d(u, hx, hy, energy, m, grad):
    grad[:] = 0.0
    dx, dy, xi = _measure_2d(u, hx, hy, m)
    out = _outside_domain(energy, xi)
    w = 0.25 * hx * hy
    coef = energy.dV(xi)
    ax, ay = 2.0 * m.a * dx, 2.0 * m.a * dy
    lo, hi = _EDGE
    for cx, cy in _CORNERS:
        c = coef[:, cx, cy]
        rows, cols = _EDGE[cx], _EDGE[cy]
        s = ax[:, rows] * c * (w / hx)   # x-difference: nodes (rows, lo) -> (rows, hi)
        grad[:, rows, lo] -= s
        grad[:, rows, hi] += s
        s = ay[:, :, cols] * c * (w / hy)  # y-difference: nodes (lo, cols) -> (hi, cols)
        grad[:, lo, cols] -= s
        grad[:, hi, cols] += s
    e = _corner_sum(w, energy.V(xi))
    if out is not None:
        e[out] = np.inf
        grad[out] = 0.0
    return e
