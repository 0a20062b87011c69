"""Hot numeric kernels: dual-root batch solving and discrete energy/gradient.

One numpy implementation, vectorised over material points.  Every kernel
takes the energy object; the root kernels evaluate its array methods
(``energy.dVstar``, ``energy.d2Vstar``), the discrete-energy kernels take V
and dV from ``canonical.closed_V``, the one domain rule.

Discrete energy: the ``stored_energy*`` kernels take nodal fields with a
leading start axis, u of shape (starts, n) or (starts, ny, nx), and return
one stored energy per start; the gradient kernels fill grad, shaped like
u, evaluate no energy and return a per-start mask of the starts outside the
domain.  Under the closed-domain rule an xi on the floor xi_min adds V's
limit there (0 for the log model) and no gradient term; a start with any xi
below the floor gets +inf (or a zero gradient) without affecting the other
starts.  In 2-D the four corner quadrature points are stacked, so each call
evaluates V (or dV) once.

Root solving: per material point the residual of the measure m = (a, b) is

    D(zeta) = 4a * zeta^2 * (dVstar(zeta) - b) - tau^2

(the paper's single-factor eq. (45) is the measure a = 1/4).  The caller
splits the zeta axis at the critical points of the unloaded curve
h = D + tau^2 (and at zero), so h is monotone on every piece and a piece
holds at most one root.  ``solve_roots_batch`` loops over the pieces, not
the points: ``expand`` pushes an infinite piece end out until D takes its
asymptotic sign and ``refine`` solves all brackets of a piece at once by
safeguarded Newton iteration (bisection fallback keeps iterates inside the
bracket) under the one stop rule |D| <= TOL*max(1, tau^2).  Both loops work
on an active set: arrays of the points that have not finished, compacted
as points finish, so a point that converges in a few iterates costs a few
evaluations whatever the slowest point of its piece needs.  Each Newton
iterate evaluates dV* once, for D and D' both.  Loads at a critical level
give one fold root at that critical point.
"""
from __future__ import annotations

import math

import numpy as np

from .canonical import TOL, closed_V
from .errors import RootSolveError

MAX_ITER = 200           # Newton/bisection steps per bracket
_DEGENERATE_RTOL = 1e-13  # |tau^2 - eta^2| window treated as the fold
_EXPAND_LIMIT = 600       # bracket-expansion doublings before giving up
_REFINE_CHUNK = 1 << 12   # points per refine chunk: 32 KiB per state array


def _residual_dv(energy, m, z, t2):
    """(D(z), dV*(z)): the one formula D(z) = 4a*z^2*(dV*(z) - b) - t2,
    overflow to +-inf allowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        dv = energy.dVstar(z)
        return 4.0 * m.a * z * z * (dv - m.b) - t2, dv


def residual(energy, m, z, t2):
    """D(z) = 4a*z^2*(dV*(z) - b) - t2, overflow to +-inf allowed."""
    return _residual_dv(energy, m, z, t2)[0]


def expand(energy, m, base, width, sign, t2):
    """Ends base + width*2^k, per entry the fewest doublings k >= 0 at which
    D with the loads t2 takes the sign `sign`; raises RootSolveError after
    _EXPAND_LIMIT doublings rather than leave a root beyond the last end
    unbracketed.

    Active set: after the first try only the entries of the wrong sign are
    doubled and evaluated again, each written out once it has the sign.
    """
    width = np.asarray(width, dtype=float)
    out = base + width
    bad = np.sign(residual(energy, m, out, t2)) != sign
    idx = np.flatnonzero(bad)  # the entries still short of the sign, ascending
    for _ in range(_EXPAND_LIMIT):
        if not idx.size:
            break
        width, t2 = width[bad] * 2.0, t2[bad]
        z = base + width
        f = residual(energy, m, z, t2)
        bad = np.sign(f) != sign
        out[idx[~bad]] = z[~bad]
        idx = idx[bad]
    if idx.size:
        z, r = float(z[bad][0]), float(f[bad][0])
        raise RootSolveError(
            f"dual curve has not reached its asymptotic sign at zeta={z!r}; "
            "a root beyond the scan range cannot be bracketed",
            best_zeta=z, best_residual=r,
        )
    return out


def refine(energy, m, lo, hi, t2):
    """Roots of D in per-point brackets [lo, hi] with a sign change; lo and
    hi are arrays or scalars that broadcast against the loads t2.

    Safeguarded Newton from the bracket midpoint: a step that leaves the
    bracket or is not finite is replaced by the bisection midpoint.  Stops
    where |D| <= TOL*max(1, tau^2) and returns (zeta, D(zeta)); raises
    RootSolveError with the first iterate that did not get there within
    MAX_ITER steps.

    Active set: the loop holds the state of the unconverged brackets only:
    their indices in ascending order, lo, hi, the iterate x, D(x), dV*(x),
    tau^2, tol and whether D(hi) > 0 (that flag never changes, since hi only
    moves to an x where D has its sign).  A point's (zeta, D) is written out
    in the iterate that meets the stop rule, and the point leaves the state.
    Each iterate evaluates dV* once: D(x) and D'(x) share it, and d2V* comes
    from it through energy.d2Vstar(x, dv).  The points go through the loop
    _REFINE_CHUNK at a time, in order, which bounds the state's memory.
    """
    zeta, resid = np.empty(t2.shape), np.empty(t2.shape)
    lo, hi = np.broadcast_to(lo, t2.shape), np.broadcast_to(hi, t2.shape)
    for i in range(0, t2.size, _REFINE_CHUNK):
        sl = slice(i, i + _REFINE_CHUNK)
        _refine_chunk(energy, m, lo[sl], hi[sl], t2[sl], zeta[sl], resid[sl])
    return zeta, resid


def _refine_chunk(energy, m, lo, hi, t2, zeta, resid):
    """refine on one chunk of points; (zeta, D) go into the views zeta and
    resid."""
    np.add(lo, hi, out=zeta)
    zeta *= 0.5
    fx, dv = _residual_dv(energy, m, zeta, t2)
    resid[:] = fx
    tol = TOL * np.maximum(1.0, t2)
    idx = np.flatnonzero(~(np.abs(fx) <= tol))
    x, fx, dv, t2, tol, lo, hi = (v[idx] for v in (zeta, fx, dv, t2, tol, lo, hi))
    hi_pos = residual(energy, m, hi, t2) > 0.0
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        # the bracket end on the side of x moves to x
        same_side = (fx > 0.0) == hi_pos
        np.copyto(hi, x, where=same_side)
        np.copyto(lo, x, where=~same_side)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fp = 4.0 * m.a * (2.0 * x * (dv - m.b) + x * x * energy.d2Vstar(x, dv))
            xn = x - fx / fp
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        x = np.where(bad, 0.5 * (lo + hi), xn)
        fx, dv = _residual_dv(energy, m, x, t2)
        done = np.abs(fx) <= tol
        if done.any():
            at = idx[done]
            zeta[at], resid[at] = x[done], fx[done]
            keep = ~done
            idx, x, fx, dv, t2, tol, lo, hi, hi_pos = (
                v[keep] for v in (idx, x, fx, dv, t2, tol, lo, hi, hi_pos))
    if idx.size:
        z, r = float(x[0]), float(fx[0])
        raise RootSolveError(
            f"dual root iteration did not converge: best zeta={z!r}, |D|={abs(r)!r}",
            best_zeta=z, best_residual=r,
        )


def solve_roots_batch(energy, m, tau_sq, ends, levels, critical):
    """Every real root of D for an array of tau^2 values, one piece at a time.

    ends are the ascending finite ends (zero among them) of the pieces on
    which the unloaded curve h = D + tau^2 is monotone, levels the values of
    h at -inf, at each end and at +inf, and critical marks the ends that are
    critical points of h.  A piece holds one root exactly where tau^2 lies
    strictly between its end levels; those points go to one refine call, an
    infinite end first pushed out by expand from the finite one.  A load
    tau^2 > 0 within _DEGENERATE_RTOL of a critical level gives one fold root
    at that critical point instead, and tau^2 exactly at the level of a
    nonzero non-critical end gives a root at that end.

    Returns (roots, residuals, degenerate, counts); roots shape (n, 3),
    nan-padded, slot 0 the positive root, slots 1-2 the negative roots in
    descending order; degenerate marks the fold roots.
    """
    tau_sq = np.ascontiguousarray(tau_sq, dtype=float)
    roots = np.full((tau_sq.size, 3), np.nan)
    resid = np.zeros(roots.shape)
    degenerate = np.zeros(roots.shape, dtype=bool)
    free = np.ones(tau_sq.size, dtype=np.int64)  # next empty negative slot per point

    def put(at, positive, z, r, deg=False):
        slot = 0 if positive else free[at]
        full = ~np.isnan(roots[at, 0]) if positive else slot > 2
        if full.any():
            raise NotImplementedError(
                f"more than three real dual roots, or two positive ones, at "
                f"tau^2={float(tau_sq[at[full][0]])!r}: outside the supported model family")
        flat = 3 * at + slot  # np.put indexes the flattened (n, 3) arrays
        np.put(roots, flat, z)
        np.put(resid, flat, r)
        if deg:
            np.put(degenerate, flat, True)
        if not positive:
            free[at] += 1

    # fold[k]: the loaded points within the fold window of the critical end bounds[k]
    bounds = [-math.inf, *ends, math.inf]
    fold = [np.zeros(tau_sq.shape, dtype=bool)] * len(bounds)
    for k in np.flatnonzero(critical) + 1:
        window = _DEGENERATE_RTOL * max(1.0, levels[k])
        fold[k] = (tau_sq > 0.0) & (np.abs(tau_sq - levels[k]) <= window)
    for k in range(len(bounds) - 2, -1, -1):  # descending zeta: piece k, then its left end
        end, llo, lhi = bounds[k], levels[k], levels[k + 1]
        inside = (tau_sq > min(llo, lhi)) & (tau_sq < max(llo, lhi))
        at = np.flatnonzero(inside & ~fold[k] & ~fold[k + 1])
        if at.size:
            t2 = tau_sq[at]
            if k == 0:
                width = np.full(at.size, -max(1.0, abs(bounds[1])))
                lo = expand(energy, m, bounds[1], width, np.sign(llo - lhi), t2)
            else:
                lo = end
            if k == len(bounds) - 2:
                width = np.full(at.size, max(1.0, abs(end)))
                hi = expand(energy, m, end, width, np.sign(lhi - llo), t2)
            else:
                hi = bounds[k + 1]
            put(at, end >= 0.0, *refine(energy, m, lo, hi, t2))
        if k > 0 and end != 0.0:
            at = np.flatnonzero(fold[k] if critical[k - 1] else tau_sq == llo)
            if at.size:
                r = residual(energy, m, end, tau_sq[at])
                put(at, end > 0.0, end, r, critical[k - 1])

    counts = np.sum(~np.isnan(roots), axis=1).astype(np.int64)
    return roots, resid, degenerate, counts


def _outside_starts(below, grad):
    """Zero the gradient of the starts (leading axis) with an xi below the
    floor; their mask."""
    if below is None:
        return np.zeros(len(grad), dtype=bool)
    out = below.reshape(len(below), -1).any(axis=1)
    grad[out] = 0.0
    return out


def stored_energy_1d(u, h, energy, m):
    g = (u[..., 1:] - u[..., :-1]) / h
    v, _ = closed_V(energy, m, m.a * g * g + m.b)
    return h * v.sum(axis=-1)


def stored_energy_grad_1d(u, h, energy, m, grad):
    grad[:] = 0.0
    g = (u[..., 1:] - u[..., :-1]) / h
    dv, below = closed_V(energy, m, m.a * g * g + m.b, slope=True)
    s = 2.0 * m.a * g * dv
    grad[..., :-1] -= s
    grad[..., 1:] += s
    return _outside_starts(below, grad)


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
    v, _ = closed_V(energy, m, xi)
    return _corner_sum(0.25 * hx * hy, v)


def stored_energy_grad_2d(u, hx, hy, energy, m, grad):
    grad[:] = 0.0
    dx, dy, xi = _measure_2d(u, hx, hy, m)
    coef, below = closed_V(energy, m, xi, slope=True)
    w = 0.25 * hx * hy
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
    return _outside_starts(below, grad)
