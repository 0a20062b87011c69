"""Hot numeric kernels: dual-root batch solving and discrete energy/gradient.

One numpy implementation, vectorised over material points.  Every kernel
takes the energy object and evaluates its unchecked array methods
(``energy.V``, ``energy.dVstar``, ...); the domain policy here is that a
discrete energy with any xi outside the energy's domain is +inf.

Root solving: per material point the residual is

    D(zeta) = factor * zeta^2 * (dVstar(zeta) - b) - tau^2

with factor = 4a under the derived convention.  D has one sign change on
zeta > 0 for any tau^2 > 0, and zero, one (fold) or two sign changes on
zeta < 0 depending on tau^2 relative to the fold level eta^2 = D-max at the
negative critical point zc.  Each bracket is refined by safeguarded Newton
iteration (bisection fallback keeps iterates inside the bracket).  The batch
solver serves the built-in closed-form geometries; nonstandard models go
through the sign-scan fallback in the dual-solve module, which refines its
brackets with the same ``newton_bracketed``.

Flags per root slot: 0 = converged, 1 = degenerate fold root, 2 = failed.
"""
from __future__ import annotations

import math

import numpy as np

_DEGENERATE_RTOL = 1e-13  # |tau^2 - eta^2| window treated as the fold
_EXPAND_LIMIT = 600       # bracket-expansion doublings before giving up


def residual(energy, b, factor, z, t2):
    """D(z) = factor*z^2*(dV*(z) - b) - t2, overflow to +-inf allowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return factor * z * z * (energy.dVstar(z) - b) - t2


def _residual_prime(energy, b, factor, z):
    with np.errstate(over="ignore", invalid="ignore"):
        return factor * (2.0 * z * (energy.dVstar(z) - b) + z * z * energy.d2Vstar(z))


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
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / fp
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = np.where(act, xn, x)
        fx = np.where(act, residual(energy, b, factor, x, t2), fx)
        done = done | (np.abs(fx) <= tol)
    return x, fx, done


def solve_roots_batch(energy, b, factor, tau_sq, tol_rel, max_iter, zc, eta_sq, z0neg):
    """Vectorized root enumeration over an array of tau^2 values.

    Returns (roots, residuals, flags, counts); roots shape (n, 3), nan-padded,
    slot 0 the positive root, slots 1-2 the negative roots in descending order.
    """
    tau_sq = np.ascontiguousarray(tau_sq, dtype=float)
    n = tau_sq.size
    roots = np.full((n, 3), np.nan)
    resid = np.zeros((n, 3))
    flags = np.zeros((n, 3), dtype=np.int64)
    tol = tol_rel * np.maximum(1.0, tau_sq)

    pos = tau_sq > 0.0
    if pos.any():
        t2 = tau_sq[pos]
        hi = np.ones(t2.size)
        f = residual(energy, b, factor, hi, t2)
        for _ in range(_EXPAND_LIMIT):
            bad = f <= 0.0
            if not bad.any():
                break
            hi[bad] *= 2.0
            f[bad] = residual(energy, b, factor, hi[bad], t2[bad])
        x, fx, ok = newton_bracketed(energy, b, factor, np.zeros(t2.size), hi, t2,
                                     tol[pos], max_iter)
        roots[pos, 0] = x
        resid[pos, 0] = fx
        flags[pos, 0] = np.where(ok, 0, 2)

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
            flags[deg, 1] = 1
        if sub.any():
            t2 = tau_sq[sub]
            x, fx, ok = newton_bracketed(energy, b, factor, np.full(t2.size, zc),
                                         np.zeros(t2.size), t2, tol[sub], max_iter)
            roots[sub, 1] = x
            resid[sub, 1] = fx
            flags[sub, 1] = np.where(ok, 0, 2)
            if np.isfinite(z0neg):
                lo = np.full(t2.size, z0neg)
            else:
                w = np.full(t2.size, max(1.0, abs(zc)))
                lo = zc - w
                f = residual(energy, b, factor, lo, t2)
                for _ in range(_EXPAND_LIMIT):
                    bad = f >= 0.0
                    if not bad.any():
                        break
                    w[bad] *= 2.0
                    lo[bad] = zc - w[bad]
                    f[bad] = residual(energy, b, factor, lo[bad], t2[bad])
            x, fx, ok = newton_bracketed(energy, b, factor, lo, np.full(t2.size, zc),
                                         t2, tol[sub], max_iter)
            roots[sub, 2] = x
            resid[sub, 2] = fx
            flags[sub, 2] = np.where(ok, 0, 2)

    counts = np.sum(~np.isnan(roots), axis=1).astype(np.int64)
    return roots, resid, flags, counts


def _outside_domain(energy, xi):
    # a domain unbounded below (the quadratic energy's) needs no array test
    return energy.xi_min > -math.inf and bool(np.any(xi <= energy.xi_min))


def stored_energy_1d(u, h, energy, m):
    g = np.diff(u) / h
    xi = m.a * g * g + m.b
    if _outside_domain(energy, xi):
        return np.inf
    return h * float(np.sum(energy.V(xi)))


def stored_energy_grad_1d(u, h, energy, m, grad):
    grad[:] = 0.0
    g = np.diff(u) / h
    xi = m.a * g * g + m.b
    if _outside_domain(energy, xi):
        return np.inf
    s = 2.0 * m.a * g * energy.dV(xi)
    grad[:-1] -= s
    grad[1:] += s
    return h * float(np.sum(energy.V(xi)))


def _cell_differences(u, hx, hy):
    """One-sided differences per cell: x on the bottom/top edge, y on the left/right."""
    return {"bot": (u[:-1, 1:] - u[:-1, :-1]) / hx,
            "top": (u[1:, 1:] - u[1:, :-1]) / hx,
            "lft": (u[1:, :-1] - u[:-1, :-1]) / hy,
            "rgt": (u[1:, 1:] - u[:-1, 1:]) / hy}


#: the four corner quadrature points of a cell, as (x-difference, y-difference)
_QP_2D = (("bot", "lft"), ("bot", "rgt"), ("top", "lft"), ("top", "rgt"))
# node slices receiving the -/+ ends of each one-sided difference
_ENDS_2D = {"bot": (np.s_[:-1, :-1], np.s_[:-1, 1:]), "top": (np.s_[1:, :-1], np.s_[1:, 1:]),
            "lft": (np.s_[:-1, :-1], np.s_[1:, :-1]), "rgt": (np.s_[:-1, 1:], np.s_[1:, 1:])}


def stored_energy_2d(u, hx, hy, energy, m):
    diffs = _cell_differences(u, hx, hy)
    w = 0.25 * hx * hy
    total = 0.0
    for qx, qy in _QP_2D:
        gx, gy = diffs[qx], diffs[qy]
        xi = m.a * (gx * gx + gy * gy) + m.b
        if _outside_domain(energy, xi):
            return np.inf
        total += w * float(np.sum(energy.V(xi)))
    return total


def stored_energy_grad_2d(u, hx, hy, energy, m, grad):
    grad[:, :] = 0.0
    diffs = _cell_differences(u, hx, hy)
    w = 0.25 * hx * hy
    total = 0.0
    for qx, qy in _QP_2D:
        gx, gy = diffs[qx], diffs[qy]
        xi = m.a * (gx * gx + gy * gy) + m.b
        if _outside_domain(energy, xi):
            return np.inf
        total += w * float(np.sum(energy.V(xi)))
        coef = energy.dV(xi)
        for q, s in ((qx, 2.0 * m.a * gx * coef * (w / hx)),
                     (qy, 2.0 * m.a * gy * coef * (w / hy))):
            neg, pos = _ENDS_2D[q]
            grad[neg] -= s
            grad[pos] += s
    return total
