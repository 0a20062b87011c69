"""Independent verification: direct minimization of the discretized primal
functional, finite-difference gradient checks, and a quasiconvexity probe.

The discrete functional places strain quadrature points at the cell corners
(one-sided differences per cell), so constant-strain states are exactly
representable and on constant-stress instances the discrete minimum
coincides with the dual prediction.  Minimization is preconditioned gradient
descent from uniform random starts inside the energy's domain.  The
direction is the Sobolev gradient d = K^-1 g (Neuberger 1997), K the
stiffness of the grid's Dirichlet energy, so the iteration count does not
grow with the grid.  K is diagonal in the product of each axis's closed-form
sine or cosine eigenbasis, whose transforms are bins of one real FFT per
axis (Strang 1999), so K^-1 is applied exactly by one transform per axis,
one division and the inverse transforms.  The Barzilai-Borwein step in the
K metric (Barzilai & Borwein 1988) is the first trial of a monotone Armijo
backtracking search (c = 1e-4, shrink 1/2), which keeps the spectral step
globally convergent (Raydan 1997) and every accepted step an energy
decrease.  All starts descend together in one loop over fields with a
leading start axis: each start keeps its own step, stall count, iteration
count and converged flag and leaves the loop by its own stop rule, and its
arithmetic is that of a lone start, so a start's result is independent of
the batch it runs in.

Draws are 53-bit uniforms from getrandbits of the stdlib's random.Random(seed)
(MT19937, Matsumoto & Nishimura 1998), whose stream Python documents as
stable; numpy's Generator streams may change across numpy versions (NEP 19).
No command imports numpy.random: about 15 ms and 5.6 MB off each verify process.
"""
from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from . import _kernels
from .canonical import CanonicalEnergy, QuadraticMeasure
from .config import (IntervalGeometry, OracleOptions, ProblemSpec, build_tau_grid,
                     build_tau_interval)
from .energies import primal_density, trapezoid_weights_interval
from .errors import OracleError
from .fields import boundary_traction, edge_slice

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_STEP = 64.0
MIN_STEP = 1e-18
MAX_ITER = 20_000    # descent iterations per start
GTOL = 1e-9          # gradient-norm stop
STALL_LIMIT = 20     # accepted steps without a representable decrease
#: multistart starts are uniform in [-START_SPAN, START_SPAN] per free node
START_SPAN = 2.0
#: values per block of every batched evaluation here: the descent, the start
#: redraw and the gradient check (nodal values per block of fields), the
#: quasiconvexity probe (strain components per block of segments) and the
#: uniform draws (64-bit words per getrandbits); 1 << 14 float64 values,
#: 128 KiB per block array.  The preconditioner's temporaries (the field
#: zero-padded to 4N per axis, its complex spectrum) are about 4x a block array
_CHUNK_ELEMENTS = 1 << 14

#: energy clustering tolerance for the basin census
CLUSTER_TOL = 1e-5

#: gradient check: difference step in units of half the smallest spacing; sampled free nodes
FD_STEP = 1e-5
FD_NODES = 50


class DiscreteProblem(NamedTuple):
    """Nodal discretization of one primal instance.

    ``energy_value``, ``gradient`` and ``precondition`` take a batch of nodal
    fields, shape ``(starts, *shape)``; ``energy_value`` returns one energy
    per start, the other two a field per start.
    """

    energy: CanonicalEnergy
    measure: QuadraticMeasure
    shape: tuple[int, ...]     # (n,) or (ny, nx)
    spacings: tuple[float, ...]
    fixed: np.ndarray          # boolean mask of Dirichlet nodes
    load: np.ndarray           # linear functional weights: Pi(u) = E_W(u) - sum(load*u)
    stiffness: Stiffness       # K of the grid's Dirichlet energy, the preconditioner

    @property
    def ndim(self) -> int:
        return len(self.shape)

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

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """dPi/du, zero on the fixed nodes and for a start outside the domain."""
        grad = np.empty_like(u, dtype=float)
        if self.ndim == 1:
            out = _kernels.stored_energy_grad_1d(u, self.spacings[0], self.energy, self.measure, grad)
        else:
            out = _kernels.stored_energy_grad_2d(u, *self.spacings, self.energy, self.measure, grad)
        grad -= self.load
        grad[:, self.fixed] = 0.0
        grad[out] = 0.0
        return grad

    def precondition(self, g: np.ndarray) -> np.ndarray:
        """K^-1 g on the free nodes, zero on the fixed ones (see Stiffness)."""
        return self.stiffness.solve(g)


class _AxisModes(NamedTuple):
    """Closed-form generalized eigenbasis Q of the path-graph Laplacian
    (diagonal 1, 2, ..., 2, 1, off-diagonal -1) and the trapezoid weights
    M = diag(1/2, 1, ..., 1, 1/2) of an axis of n nodes on its free nodes
    (Q^T K Q = diag(lambda), Q^T M Q = I).  With N = n - 1 and f fixed ends,
    mode m is s cos(theta j) from a free first node or s sin(theta j) from a
    fixed one, theta = pi k/(2N) at bin k = 2m + f, lambda = 4 sin^2(theta/2)
    and s^2 = 2/N (1/N at bins 0 and 2N), so Q^T x and Q c are those bins of
    one real FFT of length 4N (Strang 1999).
    """

    nodes: int
    bins: slice    # rfft bins k of the modes
    sine: bool     # the first node is fixed: the modes are sines

    @classmethod
    def of(cls, fixed: np.ndarray) -> _AxisModes:
        """The modes of an axis whose fixed node lines are ``fixed`` (ends only)."""
        n, f = fixed.size, int(fixed[0]) + int(fixed[-1])
        return cls(n, slice(f, 2 * n - 1 - f, 2), bool(fixed[0]))

    @property
    def eigenvalues(self) -> np.ndarray:
        k = np.arange(2 * self.nodes - 1)[self.bins]
        return 4.0 * np.sin(np.pi * k / (4 * (self.nodes - 1))) ** 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(Q^T x)/s along the last axis, x zero on the fixed ends; negated
        for sines (the FFT's imaginary part is -sum_j x_j sin(theta j))."""
        f = np.fft.rfft(x, 4 * (self.nodes - 1))[..., self.bins]
        return f.imag if self.sine else f.real

    def inverse(self, c: np.ndarray) -> np.ndarray:
        """Q (s c) / 4 along the last axis, negated for sines like forward,
        so the two signs cancel in K^-1."""
        f = np.zeros((*c.shape[:-1], 2 * self.nodes - 1), dtype=complex)
        (f.imag if self.sine else f.real)[..., self.bins] = c
        return np.fft.irfft(f, 4 * (self.nodes - 1))[..., :self.nodes]


class Stiffness(NamedTuple):
    """Exact inverse of the stiffness K of the grid's Dirichlet energy.

    K is the quadratic form of the stored energy for V(xi) = xi, a = 1,
    b = 0: Kx/h on an interval and (hy/hx) My(x)Kx + (hx/hy) Ky(x)Mx on a
    rectangle, with K* the path-graph Laplacian and M* the trapezoid weights
    of an axis, restricted to the free nodes (fixed edges are whole node
    lines, so the free nodes are a product set).  In the product of the
    axes' generalized eigenbases (see _AxisModes) K is diagonal with the
    positive eigenvalues lambda/h on an interval and
    (hy/hx) lambda_x + (hx/hy) lambda_y on a rectangle, so K^-1 is one sine
    or cosine transform per axis, one division and the inverse transforms.
    Every transform runs along the last axis of the field, one row at a
    time, so each start's arithmetic does not depend on the batch.
    """

    fixed: np.ndarray              # boolean mask of the Dirichlet nodes
    axes: tuple[_AxisModes, ...]   # one per grid axis, in shape order
    #: K's eigenvalues in the product basis over 4 per axis: each inverse
    #: transform returns Q(s c)/4
    eigenvalues: np.ndarray

    @classmethod
    def of(cls, fixed: np.ndarray, spacings: tuple[float, ...]) -> Stiffness:
        """K of the grid whose Dirichlet nodes are ``fixed``, shape (n,) or
        (ny, nx), and whose node spacings are ``spacings``, (h,) or (hx, hy).
        Raises OracleError when an eigenvalue is not finite and positive, as
        at spacings so far out of scale that a weight over- or underflows."""
        dim = fixed.ndim
        axes = tuple(_AxisModes.of(fixed.all(axis=tuple(b for b in range(dim) if b != a)))
                     for a in range(dim))
        # axis a's term is weighted by the cell volume over h_a^2
        h = spacings[::-1]  # per grid axis, in shape order
        lam = np.ix_(*(axis.eigenvalues for axis in axes))
        with np.errstate(all="ignore"):     # an out-of-range weight is refused below
            scale = np.prod(h) / 4.0 ** dim
            eigenvalues = sum(scale / (ha * ha) * la for ha, la in zip(h, lam))
        if not np.all(np.isfinite(eigenvalues) & (eigenvalues > 0.0)):
            raise OracleError(f"the stiffness at node spacings {', '.join(map(repr, spacings))} "
                              "has an eigenvalue that is not finite and positive")
        return cls(fixed, axes, eigenvalues)

    def solve(self, g: np.ndarray) -> np.ndarray:
        """K^-1 g per start on the free nodes; zero on the fixed ones."""
        # each pass transforms the last axis and moves it to the front of the
        # field (a view): after one pass per axis the field is in shape order
        front = (0, -1, *range(1, len(self.axes)))
        c = np.where(self.fixed, 0.0, g)
        for axis in reversed(self.axes):
            c = axis.forward(c).transpose(front)
        c = c / self.eigenvalues
        for axis in reversed(self.axes):
            c = axis.inverse(c).transpose(front)
        return np.where(self.fixed, 0.0, c)


def discretize(spec: ProblemSpec) -> DiscreteProblem:
    """Assemble the discrete instance (grid, Dirichlet mask, load vector)."""
    if isinstance(spec.geometry, IntervalGeometry):
        x = spec.geometry.x
        tau = build_tau_interval(spec)
        n = x.size
        fixed = np.zeros(n, dtype=bool)
        load = np.zeros(n)
        if spec.geometry.fixed_end == "left":
            fixed[0] = True
            load[-1] = tau[-1]          # t = +tau at the right traction end
        else:
            fixed[-1] = True
            load[0] = -tau[0]           # outward normal -1
        shape, spacings = (n,), (float(x[1] - x[0]),)
    else:
        grid = spec.geometry
        tau = build_tau_grid(spec)
        load = np.zeros(grid.shape)
        t_edges = boundary_traction(grid, tau)
        for edge, tvals in t_edges.items():
            h = grid.hy if edge in ("left", "right") else grid.hx
            w = trapezoid_weights_interval(tvals.size, h)
            load[edge_slice(edge)] += w * tvals
        fixed = grid.fixed_mask()
        load[fixed] = 0.0
        shape, spacings = grid.shape, (grid.hx, grid.hy)
    return DiscreteProblem(spec.energy, spec.measure, shape, spacings, fixed, load,
                           Stiffness.of(fixed, spacings))


class DescentResult(NamedTuple):
    """Outcome of a descent: scalars from ``descend`` (one start), arrays
    with a leading start axis from ``descend_batch``."""

    u: np.ndarray
    energy: float | np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray


def _chunks(n: int, shape: tuple[int, ...]):
    """Slices of n items of the given shape with at most _CHUNK_ELEMENTS
    values per slice (one item at least)."""
    per = max(1, _CHUNK_ELEMENTS // int(np.prod(shape)))
    return [slice(i, min(i + per, n)) for i in range(0, n, per)]


def uniform(rng: random.Random, lo: float, hi: float, shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms in [lo, hi), 53 bits each, drawn per _chunks slice; getrandbits
    concatenates successive words, so a (k, n) draw is k successive (n,) draws."""
    out = np.empty(int(np.prod(shape)))
    for sl in _chunks(out.size, ()):
        n = sl.stop - sl.start
        out[sl] = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8") >> 11
    return lo + (hi - lo) * 2.0 ** -53 * out.reshape(shape)


def descend(problem: DiscreteProblem, u0: np.ndarray) -> DescentResult:
    """Preconditioned Armijo descent from one start (see descend_batch); for tests and perfbench."""
    r = descend_batch(problem, np.asarray(u0, dtype=float)[None])
    return DescentResult(r.u[0], float(r.energy[0]), int(r.iterations[0]), bool(r.converged[0]))


def descend_batch(problem: DiscreteProblem, u0: np.ndarray) -> DescentResult:
    """Preconditioned Armijo-backtracking descent from every start of u0,
    shape (starts, *problem.shape), run in chunks of at most _CHUNK_ELEMENTS
    values.

    The direction is d = K^-1 g (problem.precondition) and a trial step t is
    accepted where e(u - t*d) <= e - ARMIJO_C*t*(g.d).  The first trial step
    is 1, then the BB1 step of the last move in the K metric, t^2 (g.d)/(s.y)
    (s = u_new - u = -t*d, y = g_new - g), clipped to [MIN_STEP, MAX_STEP]
    and, after a move that needed backtracking, to twice the accepted step;
    where s.y <= 0 (no positive curvature along s) it is twice the accepted
    step, at most MAX_STEP.  Backtracking halves it until Armijo holds.

    Each start has its own step, stall count, iteration count and converged
    flag, and stops on a Euclidean gradient norm below GTOL, when no step
    down to MIN_STEP decreases the energy enough, or when the energy
    improvement stays below float resolution for STALL_LIMIT consecutive
    accepted steps (all three count as converged), after MAX_ITER
    iterations, or at once when it starts outside the domain (+inf energy;
    neither counts).  Every start sees the arithmetic of a lone start, so
    its result does not depend on the other starts or on the chunking.
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
    start's state out when it leaves.  Each accepted point costs one
    gradient; its energy is the accepted trial's.
    """
    e = problem.energy_value(u_out)
    idx = np.flatnonzero(np.isfinite(e))  # starts outside the domain never move
    if not idx.size:
        return
    u, e = u_out[idx], e[idx]
    g = problem.gradient(u)
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
        leave(np.sqrt(gsq) <= GTOL, it - 1, True)
        if not idx.size:
            return
        d = problem.precondition(g)
        gd = (g * d).reshape(idx.size, -1).sum(axis=1)
        trial, et, accepted = _armijo(problem, u, e, d, gd, step)
        # no further decrease representable at any step size: stay and leave
        failed = accepted < MIN_STEP
        if failed.any():
            trial[failed], et[failed] = u[failed], e[failed]
        stalled = np.where(e - et <= 1e-15 * (1.0 + np.abs(e)), stalled + 1, 0)
        s, g_old = trial - u, g
        u, e = trial, et
        g = problem.gradient(u)
        # next trial step (see descend_batch): BB1 in the K metric, s.K.s = t^2 g.d
        sy = (s * (g - g_old)).reshape(idx.size, -1).sum(axis=1)
        cap = np.where(accepted < step, accepted / ARMIJO_SHRINK, MAX_STEP)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # used where sy > 0
            bb = np.clip(accepted * accepted * gd / sy, MIN_STEP, cap)
        step = np.where(sy > 0, bb, np.minimum(accepted / ARMIJO_SHRINK, MAX_STEP))
        leave(failed | (stalled >= STALL_LIMIT), it, True)
    leave(np.ones(idx.size, dtype=bool), MAX_ITER, False)


def _armijo(problem, u, e, d, gd, step):
    """Backtracking line search per start along -d: the first of step,
    step/2, step/4, ... not below MIN_STEP that satisfies Armijo, one halving
    per pass.

    Returns (trial fields, their energies, accepted steps); a start without
    such a step gets a step below MIN_STEP and an unset trial.
    """
    trial, et, step = np.empty_like(u), np.empty_like(e), step.copy()
    todo = np.arange(len(u))
    while todo.size:
        s = step[todo]
        t = u[todo] - s.reshape(-1, *(1,) * problem.ndim) * d[todo]
        ev = problem.energy_value(t)
        ok = ev <= e[todo] - ARMIJO_C * s * gd[todo]
        trial[todo[ok]], et[todo[ok]] = t[ok], ev[ok]
        miss = todo[~ok]
        step[miss] *= ARMIJO_SHRINK
        todo = miss[step[miss] >= MIN_STEP]
    return trial, et, step


class MinimizeResult(NamedTuple):
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


def minimize_multistart(problem: DiscreteProblem, options: OracleOptions) -> MinimizeResult:
    """Multistart descent on the nodal values, all starts in one batched
    descent.

    Starts are uniform in [-START_SPAN, START_SPAN] per free node with the
    options' seed, so identical inputs reproduce bitwise-identical results;
    a start with some xi below the floor of V's closed domain (+inf energy)
    is redrawn, up to 1000 times.  The basin census clusters converged
    energies within CLUSTER_TOL.
    """
    n_starts = options.n_starts
    rng = random.Random(options.seed)

    def draw(k):
        u = uniform(rng, -START_SPAN, START_SPAN, (k, *problem.shape))
        u[:, problem.fixed] = 0.0
        return u

    def outside(u):
        return np.concatenate([np.isinf(problem.energy_value(u[sl]))
                               for sl in _chunks(len(u), problem.shape)])

    u0 = draw(n_starts)
    redo = np.flatnonzero(outside(u0))
    for _ in range(1000):
        if not redo.size:
            break
        u0[redo] = draw(redo.size)
        redo = redo[outside(u0[redo])]
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
    of step FD_STEP * 0.5 * min(problem.spacings) over up to FD_NODES randomly
    chosen free nodes; nan when no node could be compared (every perturbed
    energy is +inf: u lies outside the domain)."""
    u = np.array(u, dtype=float)
    u[problem.fixed] = 0.0
    g = problem.gradient(u[None])[0]
    free = np.argwhere(~problem.fixed)
    pick = free[random.Random(seed).sample(range(len(free)), min(FD_NODES, len(free)))]
    # copies k < len(pick) move node pick[k] up by step, the rest node pick[k - len(pick)] down
    step = FD_STEP * 0.5 * min(problem.spacings)
    nodes = np.concatenate([pick, pick])
    shift = np.repeat([step, -step], len(pick))
    e = np.empty(len(nodes))
    for sl in _chunks(len(nodes), problem.shape):
        block = np.repeat(u[None], sl.stop - sl.start, axis=0)
        block[(np.arange(len(block)), *nodes[sl].T)] += shift[sl]
        e[sl] = problem.energy_value(block)
    at = tuple(pick.T)
    with np.errstate(invalid="ignore"):  # inf - inf where u is outside the domain
        fd = (e[:len(pick)] - e[len(pick):]) / (2.0 * step)
        err = np.abs(fd - g[at]) / np.maximum(1.0, np.abs(g[at]))
    return float(np.fmax.reduce(err, initial=np.nan))  # fmax skips nan: nodes not compared


# ---------------------------------------------------------------------------
# generalized quasiconvexity probe
# ---------------------------------------------------------------------------

class ProbeViolations(NamedTuple):
    """The violations a probe found, one row each: segment ends gamma1 and
    gamma2, shape (k, d), and the segment's index, theta and the energy
    excess, shape (k,).  A segment may violate at several thetas."""

    segment: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    theta: np.ndarray
    excess: np.ndarray

    def __len__(self) -> int:
        """Rows, not fields: a probe without violations is falsy (the
        tuple's _make and _replace, which count fields with len, do not
        apply)."""
        return len(self.theta)


_XI_EDGE_MARGIN = 1e-6  # sampled measure values within this of a finite xi_min are rejected
PROBE_BOX = 3.0         # strain samples are uniform in [-PROBE_BOX, PROBE_BOX]^d
PROBE_THETAS = 33       # points per segment of the quasiconvexity probe
PROBE_SEGMENTS = 10_000  # segments per probe, unless the caller asks for another count
PROBE_TOL = 1e-10       # energy excess that counts as a violation
PROBE_REDRAWS = 1000    # redraws of the samples below xi_min before the probe gives up


def _sample_box(rng, energy, m, n, d):
    """Uniform strain samples; endpoints keep Lambda 1e-6 above a finite
    xi_min.  Raises OracleError when PROBE_REDRAWS redraws still leave a
    sample below that: the probe would test segments outside the domain."""
    pts = uniform(rng, -PROBE_BOX, PROBE_BOX, (n, d))
    if not np.isfinite(energy.xi_min):
        return pts
    for redraw in range(PROBE_REDRAWS + 1):
        bad = m.a * np.sum(pts * pts, axis=-1) + m.b < energy.xi_min + _XI_EDGE_MARGIN
        if not bad.any():
            return pts
        if redraw == PROBE_REDRAWS:
            raise OracleError(
                f"{int(bad.sum())} of {n} strain samples in [-{PROBE_BOX:g}, {PROBE_BOX:g}]^{d} "
                f"stay below Lambda = xi_min + {_XI_EDGE_MARGIN:g} after {PROBE_REDRAWS} redraws")
        pts[bad] = uniform(rng, -PROBE_BOX, PROBE_BOX, (int(bad.sum()), d))


def gquasiconvexity_probe(energy: CanonicalEnergy, m: QuadraticMeasure, tau,
                          n_segments: int = PROBE_SEGMENTS, seed: int = 0) -> ProbeViolations:
    """Search for segments violating G(theta*g1 + (1-theta)*g2) <= max(G(g1), G(g2)).

    No row means no violation was found (a probe, not a proof); every row is
    a constructive counterexample to G-quasiconvexity.  G is
    energies.primal_density, V on its closed domain: segment points may
    leave the domain; an infinite one is a genuine violation (the admissible
    set is not convex there) unless an end is +inf too.  The segment points
    are evaluated in blocks of segments under the _CHUNK_ELEMENTS budget;
    the rows, in segment then theta order, do not depend on the block size.
    Raises OracleError when the box holds too few strains inside the domain
    to draw the segment ends from (see _sample_box).
    """
    t = np.asarray(tau, dtype=float).ravel()
    d = t.size
    rng = random.Random(seed)
    g1 = _sample_box(rng, energy, m, n_segments, d)
    g2 = _sample_box(rng, energy, m, n_segments, d)
    thetas = np.linspace(0.0, 1.0, PROBE_THETAS)
    ends = np.maximum(primal_density(energy, m, g1, t), primal_density(energy, m, g2, t))
    none = np.empty(0, dtype=np.intp)
    hits = [(none, none, np.empty(0))]  # (segment, theta index, excess); empty if no segment
    for sl in _chunks(n_segments, (PROBE_THETAS, d)):
        seg = (g1[sl, None, :] * thetas[None, :, None]
               + g2[sl, None, :] * (1.0 - thetas[None, :, None]))
        gseg = primal_density(energy, m, seg, t)
        with np.errstate(invalid="ignore"):  # inf - inf is nan: no violation
            excess = gseg - ends[sl, None] - PROBE_TOL
        i, k = np.nonzero(excess > 0.0)
        hits.append((i + sl.start, k, excess[i, k] + PROBE_TOL))
    i, k, excess = map(np.concatenate, zip(*hits))
    return ProbeViolations(i, g1[i], g2[i], thetas[k], excess)
