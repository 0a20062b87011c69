"""Independent verification: direct minimization of the discretized primal
functional, finite-difference gradient checks, and quasiconvexity probes.

The discrete functional places strain quadrature points at the cell corners
(one-sided differences per cell), so constant-strain states are exactly
representable and on constant-stress instances the discrete minimum
coincides with the dual prediction.  Minimization is plain
gradient descent with Armijo backtracking (c = 1e-4, shrink 1/2) from
uniform random starts, which is the simplest method with guaranteed monotone
decrease; speed is irrelevant at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .canonical import CanonicalEnergy, QuadraticMeasure
from .config import (IntervalGeometry, OracleOptions, ProblemSpec, build_grid,
                     build_tau_grid, build_tau_interval, interval_nodes)
from .energies import trapezoid_weights_interval
from .errors import OracleError
from .fields import boundary_traction, edge_slice, write_csv

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_STEP = 64.0
MIN_STEP = 1e-18

#: energy clustering tolerance for the basin census
CLUSTER_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Nodal discretization of one primal instance."""

    energy: CanonicalEnergy
    measure: QuadraticMeasure
    ndim: int                  # 1 or 2
    shape: tuple[int, ...]     # (n,) or (ny, nx)
    spacings: tuple[float, ...]
    fixed: np.ndarray          # boolean mask of Dirichlet nodes
    load: np.ndarray           # linear functional weights: Pi(u) = E_W(u) - sum(load*u)

    def energy_value(self, u: np.ndarray) -> float:
        if self.ndim == 1:
            ew = _kernels.stored_energy_1d(u, self.spacings[0], self.energy, self.measure)
        else:
            ew = _kernels.stored_energy_2d(u, *self.spacings, self.energy, self.measure)
        if not np.isfinite(ew):
            return np.inf
        return ew - float(np.sum(self.load * u))

    def energy_gradient(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        grad = np.empty_like(u)
        if self.ndim == 1:
            ew = _kernels.stored_energy_grad_1d(u, self.spacings[0], self.energy, self.measure, grad)
        else:
            ew = _kernels.stored_energy_grad_2d(u, *self.spacings, self.energy, self.measure, grad)
        if not np.isfinite(ew):
            return np.inf, grad
        grad -= self.load
        grad[self.fixed] = 0.0
        return ew - float(np.sum(self.load * u)), grad


def discretize(spec: ProblemSpec) -> DiscreteProblem:
    """Assemble the discrete instance (grid, Dirichlet mask, load vector)."""
    if isinstance(spec.geometry, IntervalGeometry):
        x = interval_nodes(spec)
        tau = build_tau_interval(spec, x)
        n = x.size
        fixed = np.zeros(n, dtype=bool)
        load = np.zeros(n)
        if spec.geometry.fixed_end == "left":
            fixed[0] = True
            load[-1] = tau[-1]          # t = +tau at the right traction end
        else:
            fixed[-1] = True
            load[0] = -tau[0]           # outward normal -1
        return DiscreteProblem(spec.energy, spec.measure, 1, (n,), (float(x[1] - x[0]),), fixed, load)
    grid = build_grid(spec)
    tau = build_tau_grid(spec, grid)
    load = np.zeros(grid.shape)
    t_edges = boundary_traction(tau)
    for edge, tvals in t_edges.items():
        h = grid.hy if edge in ("left", "right") else grid.hx
        w = trapezoid_weights_interval(tvals.size, h)
        load[edge_slice(edge)] += w * tvals
    fixed = grid.fixed_mask()
    load[fixed] = 0.0
    return DiscreteProblem(spec.energy, spec.measure, 2, grid.shape,
                           (grid.hx, grid.hy), fixed, load)


@dataclass(frozen=True, eq=False)
class DescentResult:
    u: np.ndarray
    energy: float
    iterations: int
    converged: bool


def descend(problem: DiscreteProblem, u0: np.ndarray, max_iter: int = 20_000,
            gtol: float = 1e-9, stall_limit: int = 20) -> DescentResult:
    """Armijo-backtracking gradient descent from one start.

    Converges on a small gradient norm or when the energy improvement stays
    below float resolution for ``stall_limit`` consecutive accepted steps.
    """
    u = np.array(u0, dtype=float)
    u[problem.fixed] = 0.0
    e, g = problem.energy_gradient(u)
    if not np.isfinite(e):
        return DescentResult(u, np.inf, 0, False)
    step = 1.0
    stalled = 0
    for it in range(1, max_iter + 1):
        gsq = float(np.sum(g * g))
        if np.sqrt(gsq) <= gtol:
            return DescentResult(u, e, it - 1, True)
        accepted = False
        while step >= MIN_STEP:
            trial = u - step * g
            et = problem.energy_value(trial)
            if et <= e - ARMIJO_C * step * gsq:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            # no further decrease representable at any step size
            return DescentResult(u, e, it, True)
        stalled = stalled + 1 if e - et <= 1e-15 * (1.0 + abs(e)) else 0
        u = trial
        e, g = problem.energy_gradient(u)
        if stalled >= stall_limit:
            return DescentResult(u, e, it, True)
        step = min(step / ARMIJO_SHRINK, MAX_STEP)
    return DescentResult(u, e, max_iter, False)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    u: np.ndarray
    energy: float
    starts_used: int
    converged_fraction: float
    distinct_basins: int
    basin_energies: tuple[float, ...]


def minimize_multistart(problem: ProblemSpec | DiscreteProblem,
                        options: OracleOptions | None = None,
                        max_iter: int = 20_000) -> MinimizeResult:
    """Multistart gradient descent on the nodal values.

    options defaults to the spec's oracle options (OracleOptions() for a
    DiscreteProblem).  Starts are uniform in [-span, span] per free node with
    a fixed seed, so identical inputs reproduce bitwise-identical results.
    The basin census clusters converged energies within 1e-5.
    """
    if isinstance(problem, ProblemSpec):
        options = options or problem.oracle
        problem = discretize(problem)
    options = options or OracleOptions()
    n_starts = options.n_starts

    rng = np.random.default_rng(options.seed)
    results: list[DescentResult] = []
    for _ in range(n_starts):
        u0 = rng.uniform(-options.span, options.span, size=problem.shape)
        results.append(descend(problem, u0, max_iter=max_iter))
    converged = [r for r in results if r.converged and np.isfinite(r.energy)]
    if not converged:
        raise OracleError(f"no descent start converged out of {n_starts}")
    best = min(converged, key=lambda r: r.energy)
    energies = sorted(r.energy for r in converged)
    basins = [energies[0]]
    for e in energies[1:]:
        if e - basins[-1] > CLUSTER_TOL:
            basins.append(e)
    return MinimizeResult(
        u=best.u,
        energy=problem.energy_value(best.u),  # re-evaluated, not cached
        starts_used=n_starts,
        converged_fraction=len(converged) / n_starts,
        distinct_basins=len(basins),
        basin_energies=tuple(basins),
    )


def gradient_check(problem: ProblemSpec | DiscreteProblem, u: np.ndarray,
                   h: float = 1e-6, n_nodes: int = 50, seed: int = 0) -> float:
    """Max relative error between the analytic gradient and central differences
    over up to ``n_nodes`` randomly chosen free nodes."""
    if isinstance(problem, ProblemSpec):
        problem = discretize(problem)
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    u = np.array(u, dtype=float)
    u[problem.fixed] = 0.0
    _, g = problem.energy_gradient(u)
    free = np.argwhere(~problem.fixed)
    rng = np.random.default_rng(seed)
    pick = rng.permutation(len(free))[: min(n_nodes, len(free))]
    worst = 0.0
    for row in free[pick]:
        idx = tuple(int(v) for v in row)
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        fd = (problem.energy_value(up) - problem.energy_value(um)) / (2.0 * h)
        err = abs(fd - g[idx]) / max(1.0, abs(g[idx]))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# quasiconvexity / sub-level probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeViolation:
    gamma1: tuple[float, ...]
    gamma2: tuple[float, ...]
    theta: float
    excess: float


@dataclass(frozen=True)
class SublevelReport:
    violations: tuple[ProbeViolation, ...]
    pairs_sampled: int


_XI_EDGE_MARGIN = 1e-6  # sampled measure values within this of a finite xi_min are rejected


def _g_total(energy, m, gamma, tau):
    """Primal density for probes, extended to the closed xi domain.

    At a finite xi_min the energy takes its continuous limit there, 0 for the
    log model, and +inf below it (segment interpolates may leave the domain;
    an infinite midpoint is a genuine quasiconvexity violation since the
    admissible set itself is not convex there).
    """
    g = np.asarray(gamma, dtype=float)
    xi = m.a * np.sum(g * g, axis=-1) + m.b
    ok = xi > energy.xi_min
    v = np.where(ok, energy.V(np.where(ok, xi, 1.0)), np.where(xi == energy.xi_min, 0.0, np.inf))
    return v - np.sum(g * np.asarray(tau, dtype=float), axis=-1)


def _sample_box(rng, energy, m, n, d, box):
    """Uniform strain samples; endpoints keep Lambda 1e-6 above a finite xi_min."""
    pts = rng.uniform(-box, box, size=(n, d))
    if np.isfinite(energy.xi_min):
        for _ in range(1000):
            bad = m.a * np.sum(pts * pts, axis=-1) + m.b < energy.xi_min + _XI_EDGE_MARGIN
            if not bad.any():
                break
            pts[bad] = rng.uniform(-box, box, size=(int(bad.sum()), d))
    return pts


def gquasiconvexity_probe(energy: CanonicalEnergy, m: QuadraticMeasure, tau,
                          n_segments: int = 10_000, seed: int = 0,
                          box: float = 3.0, n_theta: int = 33,
                          tol: float = 1e-10) -> list[ProbeViolation]:
    """Search for segments violating G(theta*g1 + (1-theta)*g2) <= max(G(g1), G(g2)).

    An empty list means no violation was found (a probe, not a proof); any
    entry is a constructive counterexample to G-quasiconvexity.
    """
    t = np.asarray(tau, dtype=float).ravel()
    d = t.size
    rng = np.random.default_rng(seed)
    g1 = _sample_box(rng, energy, m, n_segments, d, box)
    g2 = _sample_box(rng, energy, m, n_segments, d, box)
    thetas = np.linspace(0.0, 1.0, n_theta)
    ends = np.maximum(_g_total(energy, m, g1, t), _g_total(energy, m, g2, t))
    out: list[ProbeViolation] = []
    seg = g1[:, None, :] * thetas[None, :, None] + g2[:, None, :] * (1.0 - thetas[None, :, None])
    vals = _g_total(energy, m, seg, t)
    excess = vals - ends[:, None] - tol
    for i, k in np.argwhere(excess > 0.0):
        out.append(ProbeViolation(tuple(g1[i]), tuple(g2[i]), float(thetas[k]),
                                  float(excess[i, k] + tol)))
    return out


def sublevel_probe(energy: CanonicalEnergy, m: QuadraticMeasure, tau, alpha: float,
                   n_pairs: int = 1000, seed: int = 0, box: float = 3.0,
                   tol: float = 1e-10) -> SublevelReport:
    """Midpoint convexity probe of the sub-level set {G <= alpha}.

    Pairs are rejection-sampled inside the set; a midpoint with G > alpha
    flags a nonconvex sub-level set.  If the set is not hit at all (alpha
    below the minimum), zero pairs are sampled and no violation is reported.
    """
    t = np.asarray(tau, dtype=float).ravel()
    d = t.size
    rng = np.random.default_rng(seed)
    inside = np.empty((0, d))
    for _ in range(200):
        if inside.shape[0] >= 2 * n_pairs:
            break
        pts = _sample_box(rng, energy, m, 4 * n_pairs, d, box)
        keep = pts[_g_total(energy, m, pts, t) <= alpha]
        inside = np.vstack([inside, keep])
    pairs = inside.shape[0] // 2
    if pairs == 0:
        return SublevelReport((), 0)
    g1 = inside[0:2 * pairs:2]
    g2 = inside[1:2 * pairs:2]
    mid = 0.5 * (g1 + g2)
    vals = _g_total(energy, m, mid, t)
    out = []
    for i in np.nonzero(vals > alpha + tol)[0]:
        out.append(ProbeViolation(tuple(g1[i]), tuple(g2[i]), 0.5, float(vals[i] - alpha)))
    return SublevelReport(tuple(out), pairs)


def violations_to_csv(violations, path) -> None:
    """CSV rows gx1,gy1,gx2,gy2,theta,excess (1-D probes write gy = 0)."""
    def pad(g):
        return tuple(g) + (0.0,) * (2 - len(g))

    rows = np.array([pad(v.gamma1) + pad(v.gamma2) + (v.theta, v.excess)
                     for v in violations]).reshape(-1, 6)
    write_csv(path, "gx1,gy1,gx2,gy2,theta,excess", rows.T)
