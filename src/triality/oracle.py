"""Independent verification: direct minimization of the discretized primal
functional, finite-difference gradient checks, and quasiconvexity probes.

The discrete functional places strain quadrature points at the cell corners
(one-sided differences per cell), so constant-strain states are exactly
representable and on constant-stress instances the discrete minimum
coincides with the dual prediction.  Minimization is gradient descent from
uniform random starts: the Barzilai-Borwein step (Barzilai & Borwein 1988)
is the first trial of a monotone Armijo backtracking search (c = 1e-4,
shrink 1/2), which keeps the spectral step globally convergent (Raydan 1997)
and every accepted step an energy decrease.  All starts descend together in
one loop over fields with a leading start axis: each start keeps its own
step, stall count, iteration count and converged flag and leaves the loop by
its own stop rule, and its arithmetic is that of a lone start, so a start's
result is independent of the batch it runs in.
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
MAX_ITER = 20_000    # descent iterations per start
GTOL = 1e-9          # gradient-norm stop
STALL_LIMIT = 20     # accepted steps without a representable decrease
#: multistart starts are uniform in [-START_SPAN, START_SPAN] per free node
START_SPAN = 2.0
#: nodal values per batch of starts (bounds the descent's working memory)
_CHUNK_ELEMENTS = 1 << 16

#: energy clustering tolerance for the basin census
CLUSTER_TOL = 1e-5

#: gradient check: central-difference step and number of sampled free nodes
FD_STEP = 1e-6
FD_NODES = 50


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Nodal discretization of one primal instance.

    ``energy_value`` and ``energy_gradient`` take a batch of nodal fields,
    shape ``(starts, *shape)``, and return one energy per start.
    """

    energy: CanonicalEnergy
    measure: QuadraticMeasure
    ndim: int                  # 1 or 2
    shape: tuple[int, ...]     # (n,) or (ny, nx)
    spacings: tuple[float, ...]
    fixed: np.ndarray          # boolean mask of Dirichlet nodes
    load: np.ndarray           # linear functional weights: Pi(u) = E_W(u) - sum(load*u)

    def _total(self, ew, u):
        """Pi per start from the stored energies; +inf where ew is not finite."""
        work = (self.load * u).reshape(len(u), -1).sum(axis=1)
        return np.where(np.isfinite(ew), ew - work, np.inf)

    def energy_value(self, u: np.ndarray) -> np.ndarray:
        if self.ndim == 1:
            ew = _kernels.stored_energy_1d(u, self.spacings[0], self.energy, self.measure)
        else:
            ew = _kernels.stored_energy_2d(u, *self.spacings, self.energy, self.measure)
        return self._total(ew, u)

    def energy_gradient(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grad = np.empty_like(u, dtype=float)
        if self.ndim == 1:
            ew = _kernels.stored_energy_grad_1d(u, self.spacings[0], self.energy, self.measure, grad)
        else:
            ew = _kernels.stored_energy_grad_2d(u, *self.spacings, self.energy, self.measure, grad)
        e = self._total(ew, u)
        grad -= self.load
        grad[:, self.fixed] = 0.0
        grad[np.isinf(e)] = 0.0  # no gradient outside the domain
        return e, grad


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
    """Outcome of a descent: scalars from ``descend`` (one start), arrays
    with a leading start axis from ``descend_batch``."""

    u: np.ndarray
    energy: float | np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray


def _chunks(n: int, shape: tuple[int, ...]):
    """Slices of at most _CHUNK_ELEMENTS nodal values (one field at least)."""
    per = max(1, _CHUNK_ELEMENTS // int(np.prod(shape)))
    return [slice(i, min(i + per, n)) for i in range(0, n, per)]


def descend(problem: DiscreteProblem, u0: np.ndarray) -> DescentResult:
    """Armijo-backtracking gradient descent from one start (see descend_batch)."""
    r = descend_batch(problem, np.asarray(u0, dtype=float)[None])
    return DescentResult(r.u[0], float(r.energy[0]), int(r.iterations[0]), bool(r.converged[0]))


def descend_batch(problem: DiscreteProblem, u0: np.ndarray) -> DescentResult:
    """Armijo-backtracking gradient descent from every start of u0, shape
    (starts, *problem.shape), run in chunks of at most _CHUNK_ELEMENTS values.

    The first trial step is 1, then the BB1 step s.s/s.y of the last move
    (s = u_new - u, y = g_new - g) clipped to [MIN_STEP, MAX_STEP] and, after
    a move that needed backtracking, to twice the accepted step; where
    s.y <= 0 (no positive curvature along s) it is twice the accepted step,
    at most MAX_STEP.  Backtracking halves it until Armijo holds.

    Each start has its own step, stall count, iteration count and converged
    flag, and stops on a gradient norm below GTOL, when no step down to
    MIN_STEP decreases the energy enough, or when the energy improvement stays
    below float resolution for STALL_LIMIT consecutive accepted steps (all
    three count as converged), after MAX_ITER iterations, or at once
    when it starts outside the domain (+inf energy; neither counts).  Every
    start sees the arithmetic of a lone start, so its result does not depend
    on the other starts or on the chunking.
    """
    u = np.array(u0, dtype=float)
    u[:, problem.fixed] = 0.0
    n = len(u)
    energy = np.full(n, np.inf)
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    for sl in _chunks(n, problem.shape):
        _descend_chunk(problem, u[sl], energy[sl], iterations[sl], converged[sl])
    return DescentResult(u, energy, iterations, converged)


def _descend_chunk(problem, u_out, e_out, it_out, conv_out):
    """Descend the starts u_out in place; results go into the *_out views.

    The loop works on compacted arrays of the active starts and writes a
    start's state out when it leaves.
    """
    e, g = problem.energy_gradient(u_out)
    idx = np.flatnonzero(np.isfinite(e))  # starts outside the domain never move
    u, e, g = u_out[idx], e[idx], g[idx]
    step = np.ones(idx.size)
    stalled = np.zeros(idx.size, dtype=np.int64)

    def leave(mask, it, conv):
        nonlocal idx, u, e, g, step, stalled
        if not mask.any():
            return
        at = idx[mask]
        u_out[at], e_out[at], it_out[at], conv_out[at] = u[mask], e[mask], it, conv
        keep = ~mask
        idx, u, e, g, step, stalled = idx[keep], u[keep], e[keep], g[keep], step[keep], stalled[keep]

    for it in range(1, MAX_ITER + 1):
        if not idx.size:
            return
        gsq = (g * g).reshape(idx.size, -1).sum(axis=1)
        small = np.sqrt(gsq) <= GTOL
        if small.any():
            leave(small, it - 1, True)
            gsq = gsq[~small]
            if not idx.size:
                return
        trial, et, accepted = _armijo(problem, u, e, g, gsq, step)
        # no further decrease representable at any step size: stay and leave
        failed = accepted < MIN_STEP
        if failed.any():
            trial[failed], et[failed] = u[failed], e[failed]
        stalled = np.where(e - et <= 1e-15 * (1.0 + np.abs(e)), stalled + 1, 0)
        s, g_old = trial - u, g
        u = trial
        e, g = problem.energy_gradient(u)
        # next trial step (see descend_batch): BB1, or doubling where s.y <= 0
        ss = (s * s).reshape(idx.size, -1).sum(axis=1)
        sy = (s * (g - g_old)).reshape(idx.size, -1).sum(axis=1)
        cap = np.where(accepted < step, accepted / ARMIJO_SHRINK, MAX_STEP)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # used where sy > 0
            bb = np.clip(ss / sy, MIN_STEP, cap)
        step = np.where(sy > 0, bb, np.minimum(accepted / ARMIJO_SHRINK, MAX_STEP))
        leave(failed | (stalled >= STALL_LIMIT), it, True)
    leave(np.ones(idx.size, dtype=bool), MAX_ITER, False)


def _armijo(problem, u, e, g, gsq, step):
    """Backtracking line search per start: the first of step, step/2, step/4,
    ... not below MIN_STEP that satisfies Armijo, one halving per pass.

    Returns (trial fields, their energies, accepted steps); a start without
    such a step gets a step below MIN_STEP and an unset trial.
    """
    trial, et, step = np.empty_like(u), np.empty_like(e), step.copy()
    todo = np.arange(len(u))
    while todo.size:
        s = step[todo]
        t = u[todo] - s.reshape(-1, *(1,) * problem.ndim) * g[todo]
        ev = problem.energy_value(t)
        ok = ev <= e[todo] - ARMIJO_C * s * gsq[todo]
        trial[todo[ok]], et[todo[ok]] = t[ok], ev[ok]
        miss = todo[~ok]
        step[miss] *= ARMIJO_SHRINK
        todo = miss[step[miss] >= MIN_STEP]
    return trial, et, step


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    u: np.ndarray
    energy: float
    starts: DescentResult        # every start's descent, leading start axis
    distinct_basins: int
    basin_energies: tuple[float, ...]

    @property
    def starts_used(self) -> int:
        return len(self.starts.energy)

    @property
    def converged_starts(self) -> int:
        """Starts that converged to a finite energy (the oracle's evidence)."""
        return int(np.count_nonzero(self.starts.converged & np.isfinite(self.starts.energy)))

    @property
    def converged_fraction(self) -> float:
        return self.converged_starts / self.starts_used


def minimize_multistart(problem: DiscreteProblem, options: OracleOptions) -> MinimizeResult:
    """Multistart gradient descent on the nodal values, all starts in one
    batched descent.

    Starts are uniform in [-START_SPAN, START_SPAN] per free node with the
    options' seed, so identical inputs reproduce bitwise-identical results.
    The basin census clusters converged energies within CLUSTER_TOL.
    """
    n_starts = options.n_starts
    rng = np.random.default_rng(options.seed)
    u0 = rng.uniform(-START_SPAN, START_SPAN, size=(n_starts, *problem.shape))
    starts = descend_batch(problem, u0)
    conv = np.flatnonzero(starts.converged & np.isfinite(starts.energy))
    if not conv.size:
        raise OracleError(f"no descent start converged out of {n_starts}")
    best = conv[np.argmin(starts.energy[conv])]
    energies = np.sort(starts.energy[conv]).tolist()
    basins = [energies[0]]
    for e in energies[1:]:
        if e - basins[-1] > CLUSTER_TOL:
            basins.append(e)
    return MinimizeResult(
        u=starts.u[best],
        energy=float(problem.energy_value(starts.u[best:best + 1])[0]),  # re-evaluated, not cached
        starts=starts,
        distinct_basins=len(basins),
        basin_energies=tuple(basins),
    )


def gradient_check(problem: DiscreteProblem, u: np.ndarray, seed: int = 0) -> float:
    """Max relative error between the analytic gradient and central differences
    of step FD_STEP over up to FD_NODES randomly chosen free nodes; nan when
    no node could be compared (every perturbed energy is +inf: u lies outside
    the domain)."""
    u = np.array(u, dtype=float)
    u[problem.fixed] = 0.0
    g = problem.energy_gradient(u[None])[1][0]
    free = np.argwhere(~problem.fixed)
    rng = np.random.default_rng(seed)
    pick = free[rng.permutation(len(free))[: min(FD_NODES, len(free))]]
    # copies k < len(pick) move node pick[k] up by FD_STEP, the rest node pick[k - len(pick)] down
    nodes = np.concatenate([pick, pick])
    shift = np.repeat([FD_STEP, -FD_STEP], len(pick))
    e = np.empty(len(nodes))
    for sl in _chunks(len(nodes), problem.shape):
        block = np.repeat(u[None], sl.stop - sl.start, axis=0)
        block[(np.arange(len(block)), *nodes[sl].T)] += shift[sl]
        e[sl] = problem.energy_value(block)
    at = tuple(pick.T)
    with np.errstate(invalid="ignore"):  # inf - inf where u is outside the domain
        fd = (e[:len(pick)] - e[len(pick):]) / (2.0 * FD_STEP)
        err = np.abs(fd - g[at]) / np.maximum(1.0, np.abs(g[at]))
    return float(np.fmax.reduce(err, initial=np.nan))  # fmax skips nan: nodes not compared


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
PROBE_BOX = 3.0         # strain samples are uniform in [-PROBE_BOX, PROBE_BOX]^d
PROBE_THETAS = 33       # points per segment of the quasiconvexity probe
PROBE_TOL = 1e-10       # energy excess that counts as a violation


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


def _sample_box(rng, energy, m, n, d):
    """Uniform strain samples; endpoints keep Lambda 1e-6 above a finite xi_min."""
    pts = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(n, d))
    if np.isfinite(energy.xi_min):
        for _ in range(1000):
            bad = m.a * np.sum(pts * pts, axis=-1) + m.b < energy.xi_min + _XI_EDGE_MARGIN
            if not bad.any():
                break
            pts[bad] = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(int(bad.sum()), d))
    return pts


def gquasiconvexity_probe(energy: CanonicalEnergy, m: QuadraticMeasure, tau,
                          n_segments: int = 10_000, seed: int = 0) -> list[ProbeViolation]:
    """Search for segments violating G(theta*g1 + (1-theta)*g2) <= max(G(g1), G(g2)).

    An empty list means no violation was found (a probe, not a proof); any
    entry is a constructive counterexample to G-quasiconvexity.
    """
    t = np.asarray(tau, dtype=float).ravel()
    d = t.size
    rng = np.random.default_rng(seed)
    g1 = _sample_box(rng, energy, m, n_segments, d)
    g2 = _sample_box(rng, energy, m, n_segments, d)
    thetas = np.linspace(0.0, 1.0, PROBE_THETAS)
    ends = np.maximum(_g_total(energy, m, g1, t), _g_total(energy, m, g2, t))
    out: list[ProbeViolation] = []
    seg = g1[:, None, :] * thetas[None, :, None] + g2[:, None, :] * (1.0 - thetas[None, :, None])
    vals = _g_total(energy, m, seg, t)
    excess = vals - ends[:, None] - PROBE_TOL
    for i, k in np.argwhere(excess > 0.0):
        out.append(ProbeViolation(tuple(g1[i]), tuple(g2[i]), float(thetas[k]),
                                  float(excess[i, k] + PROBE_TOL)))
    return out


def sublevel_probe(energy: CanonicalEnergy, m: QuadraticMeasure, tau, alpha: float,
                   n_pairs: int = 1000, seed: int = 0) -> SublevelReport:
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
        pts = _sample_box(rng, energy, m, 4 * n_pairs, d)
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
    for i in np.nonzero(vals > alpha + PROBE_TOL)[0]:
        out.append(ProbeViolation(tuple(g1[i]), tuple(g2[i]), 0.5, float(vals[i] - alpha)))
    return SublevelReport(tuple(out), pairs)


def violations_to_csv(violations, path) -> None:
    """CSV rows gx1,gy1,gx2,gy2,theta,excess (1-D probes write gy = 0)."""
    def pad(g):
        return tuple(g) + (0.0,) * (2 - len(g))

    rows = np.array([pad(v.gamma1) + pad(v.gamma2) + (v.theta, v.excess)
                     for v in violations]).reshape(-1, 6)
    write_csv(path, "gx1,gy1,gx2,gy2,theta,excess", rows.T)
