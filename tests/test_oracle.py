"""Direct-minimization oracle, gradient checks, and the quasiconvexity probe."""
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from triality import (
    LogNeoHookeanEnergy,
    OracleError,
    QuadraticEnergy,
    QuadraticMeasure,
    dual_density,
)
from triality import _kernels, cli, oracle
from triality.config import ConstantTau, IntervalGeometry, OracleOptions, ProblemSpec, parse_config
from triality.fields import EDGES, Grid2
from triality.oracle import (
    descend,
    descend_batch,
    discretize,
    gquasiconvexity_probe,
    gradient_check,
    minimize_multistart,
)

from conftest import DW_MEASURE, SHEAR_MEASURE, roots_at


def interval_spec(energy, measure, tau, n=3, starts=50, seed=20240811):
    return ProblemSpec(
        energy=energy, measure=measure,
        geometry=IntervalGeometry(length=1.0, n=n),
        loading=ConstantTau((tau,)),
        oracle=OracleOptions(n_starts=starts, seed=seed),
    )


def multistart(spec):
    return minimize_multistart(discretize(spec), spec.oracle)


def dual_global_energy(energy, measure, tau_sq, length=1.0):
    z1 = roots_at(energy, measure, tau_sq)[0][0]
    return length * dual_density(energy, measure, z1, tau_sq)


def test_multistart_matches_dual_prediction_double_well(dw):
    spec = interval_spec(dw, DW_MEASURE, math.sqrt(0.1))
    res = multistart(spec)
    assert abs(res.energy - dual_global_energy(dw, DW_MEASURE, 0.1)) <= 1e-6
    assert res.converged_starts == res.starts_used
    assert res.distinct_basins >= 2  # global + local-minimum branches


def test_multistart_supercritical_single_basin(log11):
    spec = interval_spec(log11, SHEAR_MEASURE, 1.0, starts=20)
    res = multistart(spec)
    assert res.distinct_basins == 1
    assert abs(res.energy - dual_global_energy(log11, SHEAR_MEASURE, 1.0)) <= 1e-6


def test_multistart_2d_supercritical_matches_dual(log11):
    # single-basin rectangle: every start reaches the unique minimum and the
    # discrete optimum equals the dual prediction (linear solution is exact)
    spec = ProblemSpec(
        energy=log11, measure=SHEAR_MEASURE,
        geometry=Grid2(lx=1.0, ly=1.0, nx=9, ny=9),
        loading=ConstantTau((0.8, 0.0)),
        oracle=OracleOptions(n_starts=4, seed=20240811),
    )
    res = multistart(spec)
    want = dual_global_energy(log11, SHEAR_MEASURE, 0.64)
    assert res.distinct_basins == 1
    assert abs(res.energy - want) <= 1e-6


def test_multistart_unloaded_ground_state(dw):
    spec = interval_spec(dw, DW_MEASURE, 0.0, starts=20)
    res = multistart(spec)
    assert abs(res.energy) <= 1e-8  # well bottom |gamma|^2 = 2 has zero energy


def test_single_cell_basins_match_branch_energies(dw, log11):
    # one-cell bars: the only minima are the pure branches, so the basin
    # census must reproduce {Pi(zeta_1), Pi(zeta_2)}
    for energy, m, t2 in ((dw, DW_MEASURE, 0.1), (log11, SHEAR_MEASURE, 0.2)):
        spec = interval_spec(energy, m, math.sqrt(t2), n=2, starts=40)
        res = multistart(spec)
        zetas = roots_at(energy, m, t2)[0]
        want = sorted(dual_density(energy, m, z, t2) for z in zetas[:2])
        assert res.distinct_basins == 2
        assert np.allclose(sorted(res.basin_energies), want, atol=1e-6)


def test_weak_duality_and_energy_recomputed(dw):
    for t2 in (0.05, 0.1, 8.0 / 27.0, 0.5, 1.0):
        spec = interval_spec(dw, DW_MEASURE, math.sqrt(t2), n=3, starts=30)
        res = multistart(spec)
        assert res.energy >= dual_global_energy(dw, DW_MEASURE, t2) - 1e-6
        prob = discretize(spec)
        assert res.energy == pytest.approx(prob.energy_value(res.u[None])[0], abs=1e-12)


def test_multistart_reproducible(log11):
    spec = interval_spec(log11, SHEAR_MEASURE, 0.5, n=5, starts=10)
    r1 = multistart(spec)
    r2 = multistart(spec)
    assert r1.energy == r2.energy
    assert np.array_equal(r1.u, r2.u)
    assert r1.basin_energies == r2.basin_energies


def test_descent_stays_in_local_basin(log11):
    # start within 1e-2 of the branch-2 strain: descent must not tunnel out
    t2 = 0.2
    z2 = roots_at(log11, SHEAR_MEASURE, t2)[0][1]
    gamma2 = math.sqrt(t2) / (2.0 * SHEAR_MEASURE.a * z2)
    spec = interval_spec(log11, SHEAR_MEASURE, math.sqrt(t2), n=5)
    prob = discretize(spec)
    x = np.linspace(0.0, 1.0, 5)
    branch_energy = dual_density(log11, SHEAR_MEASURE, z2, t2)
    for delta in (-1e-2, 0.0, 1e-2):
        r = descend(prob, (gamma2 + delta) * x)
        assert r.converged
        assert abs(r.energy - branch_energy) <= 1e-8


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_fold_starts_converge_to_the_global_minimum():
    # loaded exactly at the fold (tau^2 = 8/27), where plain gradient descent
    # converges sublinearly: every start converges within MAX_ITER and the
    # lowest basin is the dual prediction
    spec = parse_config(CONFIGS / "doublewell_1d.cfg")
    res = multistart(spec)
    assert res.converged_starts == spec.oracle.n_starts
    t2 = spec.loading.vec[0] ** 2
    want = dual_global_energy(spec.energy, spec.measure, t2)
    assert abs(res.basin_energies[0] - want) <= 1e-6


def lone_starts(problem, options):
    """The multistart starts as documented, drawn one start at a time."""
    rng = random.Random(options.seed)
    return [oracle.uniform(rng, -oracle.START_SPAN, oracle.START_SPAN, problem.shape)
            for _ in range(options.n_starts)]


def test_uniform_draws_do_not_depend_on_batch_or_chunking(monkeypatch):
    lo, hi = -oracle.START_SPAN, oracle.START_SPAN
    batch = oracle.uniform(random.Random(7), lo, hi, (5, 3001))
    rng = random.Random(7)
    assert np.array_equal(batch, [oracle.uniform(rng, lo, hi, (3001,)) for _ in range(5)])
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 10)
    assert np.array_equal(batch, oracle.uniform(random.Random(7), lo, hi, (5, 3001)))
    assert ((lo <= batch) & (batch < hi)).all()
    steps = (batch - lo) / (hi - lo) * 2.0 ** 53    # exact: hi - lo and lo are powers of two
    assert np.array_equal(steps, np.floor(steps))
    # the stdlib's documented MT19937 stream: a change there must fail here
    assert oracle.uniform(random.Random(0), 0.0, 1.0, (2,)).tolist() == [
        0.38524530801093704, 0.8902439183457648]


# doublewell_1d starts need up to about 1490 iterations at the degenerate
# fold (19 of 50 more than 1000); a lower cap keeps converged and
# unconverged starts while bounding the lone-start reruns
@pytest.mark.parametrize("name, max_iter", [("doublewell_1d", 1000), ("doublewell_1d_sub", 20000),
                                            ("log_1d_sub", 20000), ("log_1d_super", 20000)])
def test_batched_descent_matches_lone_starts_1d(name, max_iter, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITER", max_iter)
    spec = parse_config(CONFIGS / f"{name}.cfg")
    prob = discretize(spec)
    res = multistart(spec)
    runs = res.starts
    assert runs.u.shape == (spec.oracle.n_starts, *prob.shape)
    picks = range(spec.oracle.n_starts)
    if name == "doublewell_1d":
        assert runs.converged.any() and not runs.converged.all()
        picks = [*np.flatnonzero(runs.converged)[:2], *np.flatnonzero(~runs.converged)[:2]]
    starts = lone_starts(prob, spec.oracle)
    for i in picks:
        r = descend(prob, starts[i])
        assert np.array_equal(r.u, runs.u[i]), i
        assert r.energy == runs.energy[i], i
        assert (r.iterations, r.converged) == (runs.iterations[i], runs.converged[i]), i


def scalar_descent(prob, u0):
    """Reference: the one-start preconditioned Armijo loop in scalar
    arithmetic, the algorithm the batched descent runs per start.  The
    direction is d = K^-1 g, a step t is accepted where
    e(u - t*d) <= e - c*t*(g.d), and the next trial step is the BB1 step in
    the K metric, t^2 (g.d)/(s.y), in [MIN_STEP, MAX_STEP], capped at twice
    the accepted step after a backtrack, or the doubled accepted step where
    s.y <= 0."""
    def value(v):
        return float(prob.energy_value(v[None])[0])

    def grad(v):
        return prob.gradient(v[None])[0]

    u = np.array(u0, dtype=float)
    u[prob.fixed] = 0.0
    e = value(u)
    if not np.isfinite(e):
        return u, np.inf, 0, False
    g = grad(u)
    step, stalled = 1.0, 0
    for it in range(1, oracle.MAX_ITER + 1):
        if np.sqrt(float(np.sum(g * g))) <= oracle.GTOL:
            return u, e, it - 1, True
        d = prob.precondition(g[None])[0]
        gd = float(np.sum(g * d))
        tried = step
        while step >= oracle.MIN_STEP:
            trial = u - step * d
            et = value(trial)
            if et <= e - oracle.ARMIJO_C * step * gd:
                break
            step *= oracle.ARMIJO_SHRINK
        else:
            return u, e, it, True
        stalled = stalled + 1 if e - et <= 1e-15 * (1.0 + abs(e)) else 0
        s, g_old = trial - u, g
        u, e = trial, et
        g = grad(u)
        if stalled >= oracle.STALL_LIMIT:
            return u, e, it, True
        sy = float(np.sum(s * (g - g_old)))
        if sy > 0:
            cap = step / oracle.ARMIJO_SHRINK if step < tried else oracle.MAX_STEP
            step = min(max(step * step * gd / sy, oracle.MIN_STEP), cap)
        else:
            step = min(step / oracle.ARMIJO_SHRINK, oracle.MAX_STEP)
    return u, e, oracle.MAX_ITER, False


@pytest.mark.parametrize("name", ["doublewell_1d_sub", "log_1d_sub"])
def test_batched_descent_matches_the_scalar_loop(name):
    spec = parse_config(CONFIGS / f"{name}.cfg")
    prob = discretize(spec)
    starts = lone_starts(prob, spec.oracle)[:8]
    runs = descend_batch(prob, np.array(starts))
    for i, u0 in enumerate(starts):
        u, e, its, conv = scalar_descent(prob, u0)
        assert np.array_equal(u, runs.u[i]) and e == runs.energy[i], i
        assert (its, conv) == (runs.iterations[i], runs.converged[i]), i


def assert_lone_starts_match(spec):
    prob = discretize(spec)
    runs = multistart(spec).starts
    assert runs.converged.all()
    for i, u0 in enumerate(lone_starts(prob, spec.oracle)):
        r = descend(prob, u0)
        assert np.array_equal(r.u, runs.u[i]) and r.energy == runs.energy[i], i
        assert (r.iterations, r.converged) == (runs.iterations[i], runs.converged[i]), i


def test_batched_descent_matches_lone_starts_2d(log11):
    assert_lone_starts_match(ProblemSpec(
        energy=log11, measure=SHEAR_MEASURE,
        geometry=Grid2(lx=1.0, ly=1.0, nx=9, ny=9),
        loading=ConstantTau((0.8, 0.0)),
        oracle=OracleOptions(n_starts=3, seed=20240811),
    ))


@pytest.mark.parametrize("nx, ny, fixed", [(13, 7, {"left", "top"}), (6, 11, {"bottom"})])
def test_batched_descent_matches_lone_starts_2d_either_mode_axis(dw, nx, ny, fixed):
    # the preconditioner's modes are sines along x and cosines along y (13x7)
    # and the reverse (6x11)
    assert_lone_starts_match(ProblemSpec(
        energy=dw, measure=DW_MEASURE,
        geometry=Grid2(lx=1.0, ly=2.0, nx=nx, ny=ny, fixed_edges=frozenset(fixed)),
        loading=ConstantTau((0.8, 0.3)),
        oracle=OracleOptions(n_starts=3, seed=20240811),
    ))


def test_start_outside_domain_leaves_the_others_alone(log11):
    spec = interval_spec(log11, QuadraticMeasure(1.0, -0.5), 0.5, n=5, starts=3)
    prob = discretize(spec)
    # three starts inside the domain by the multistart's rule: redraw a start
    # with +inf energy
    rng, inside = random.Random(spec.oracle.seed), []
    while len(inside) < 3:
        u = oracle.uniform(rng, -oracle.START_SPAN, oracle.START_SPAN, prob.shape)
        u[prob.fixed] = 0.0
        if np.isfinite(prob.energy_value(u[None])[0]):
            inside.append(u)
    inside = np.array(inside)
    assert np.isfinite(prob.energy_value(inside)).all()
    outside = np.array([0.0, 0.0, 0.3, 0.6, 0.9])  # zero strain in the first cell: xi = b < 0
    alone = descend_batch(prob, inside)
    mixed = descend_batch(prob, np.insert(inside, 2, outside, axis=0))
    assert mixed.energy[2] == np.inf
    assert mixed.iterations[2] == 0 and not mixed.converged[2]
    keep = [0, 1, 3]
    assert np.array_equal(mixed.u[keep], alone.u)
    assert np.array_equal(mixed.energy[keep], alone.energy)
    assert np.array_equal(mixed.iterations[keep], alone.iterations)
    assert np.array_equal(mixed.converged[keep], alone.converged)
    # with b = 0 that cell lies on the floor xi = 0, which the closed domain admits
    floor = discretize(interval_spec(log11, SHEAR_MEASURE, 0.5, n=5))
    assert np.isfinite(floor.energy_value(outside[None])).all()
    assert np.isfinite(floor.gradient(outside[None])).all()


def test_results_do_not_depend_on_chunking(dw, monkeypatch):
    spec = interval_spec(dw, DW_MEASURE, math.sqrt(0.1), n=5, starts=7)
    prob = discretize(spec)
    u0 = np.array(lone_starts(prob, spec.oracle))
    whole = descend_batch(prob, u0)
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 10)  # two starts per chunk
    assert len(oracle._chunks(7, prob.shape)) == 4
    split = descend_batch(prob, u0)
    for field in ("u", "energy", "iterations", "converged"):
        assert np.array_equal(getattr(whole, field), getattr(split, field)), field


class LinearV:
    """V(xi) = xi: with a = 1, b = 0 the stored energy is the quadratic form
    u.K.u of the grid stiffness, so the gradient kernel returns 2 K u."""
    xi_min = -math.inf

    def V(self, xi):
        return xi

    def dV(self, xi):
        return np.ones_like(xi)


def dense_stiffness(prob):
    """K assembled column by column from the gradient kernel (unit fields)."""
    n = prob.fixed.size
    units = np.eye(n).reshape(n, *prob.shape)
    grad = np.empty_like(units)
    m = QuadraticMeasure(1.0, 0.0)
    if prob.ndim == 1:
        _kernels.stored_energy_grad_1d(units, *prob.spacings, LinearV(), m, grad)
    else:
        _kernels.stored_energy_grad_2d(units, *prob.spacings, LinearV(), m, grad)
    return 0.5 * grad.reshape(n, n)


EDGE_SUBSETS = [set(c) for k in (1, 2, 3) for c in itertools.combinations(EDGES, k)]
STIFFNESS_CASES = (
    [interval_spec(QuadraticEnergy(1.0), DW_MEASURE, 0.3, n=7)]
    + [ProblemSpec(energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
                   geometry=IntervalGeometry(length=1.3, n=6, fixed_end="right"),
                   loading=ConstantTau((0.3,)))]
    + [ProblemSpec(energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
                   geometry=Grid2(lx=lx, ly=ly, nx=nx, ny=ny, fixed_edges=frozenset(f)),
                   loading=ConstantTau((0.3, 0.1)))
       for nx, ny, lx, ly in ((6, 4, 1.0, 2.5), (4, 7, 1.7, 0.6)) for f in EDGE_SUBSETS]
    # no free node: two fixed edges two nodes apart
    + [ProblemSpec(energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
                   geometry=Grid2(lx=1.0, ly=1.0, nx=2, ny=5,
                                  fixed_edges=frozenset({"left", "right"})),
                   loading=ConstantTau((0.3, 0.1)))])


@pytest.mark.parametrize("spec", STIFFNESS_CASES)
def test_precondition_inverts_the_dense_stiffness(spec):
    prob = discretize(spec)
    free = ~prob.fixed.ravel()
    k = dense_stiffness(prob)[np.ix_(free, free)]
    g = np.random.default_rng(5).standard_normal((3, *prob.shape))
    g[:, prob.fixed] = 0.0
    d = prob.precondition(g)
    assert np.all(d[:, prob.fixed] == 0.0)
    for gi, di in zip(g, d):
        gf, df = gi.ravel()[free], di.ravel()[free]
        assert np.linalg.norm(k @ df - gf) <= 1e-12 * np.linalg.norm(gf)


def held_arrays(obj):
    """Every numpy array a record holds, through its fields and tuples (a
    record is a NamedTuple)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from held_arrays(item)


def test_precondition_builds_no_matrix_along_a_long_axis():
    # 500000 x 2 rectangle: nothing the preconditioner keeps outgrows the grid
    spec = ProblemSpec(energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
                       geometry=Grid2(lx=1.0, ly=1.0, nx=500_000, ny=2),
                       loading=ConstantTau((0.3, 0.0)))
    prob = discretize(spec)
    arrays = list(held_arrays(prob.stiffness))
    assert arrays and max(a.size for a in arrays) <= prob.fixed.size


@pytest.mark.parametrize("fixed_end", ["left", "right"])
def test_precondition_on_a_long_interval_is_the_double_cumulative_sum(fixed_end):
    # K = D^T D / h with the fixed node held at 0, so from a fixed left end
    # K^-1 g is d_j = h sum_{i=1..j} sum_{k>=i} g_k; a fixed right end mirrors it
    n = 100_001
    prob = discretize(ProblemSpec(energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
                                  geometry=IntervalGeometry(length=2.5, n=n, fixed_end=fixed_end),
                                  loading=ConstantTau((0.3,))))
    g = np.random.default_rng(3).standard_normal((2, n))
    g[:, prob.fixed] = 0.0
    flip = slice(None, None, -1) if fixed_end == "right" else slice(None)
    tail = np.cumsum(g[:, flip][:, ::-1], axis=1)[:, ::-1]  # sum_{k>=i} g_k
    tail[:, 0] = 0.0
    want = (prob.spacings[0] * np.cumsum(tail, axis=1))[:, flip]
    d = prob.precondition(g)
    assert np.all(d[:, prob.fixed] == 0.0)
    assert np.max(np.abs(d - want)) <= 1e-12 * np.max(np.abs(want))


def _thin_rectangle(tmp_path) -> Path:
    """log_rect_const.cfg on a 5x5 grid with ly = 1e-9."""
    text = (CONFIGS / "log_rect_const.cfg").read_text(encoding="utf-8")
    for key, value in (("nx", "5"), ("ny", "5"), ("ly", "1e-9")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg = tmp_path / "thin.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def test_thin_rectangle_oracle_finds_the_dual_minimum(tmp_path):
    # ly = 1e-9: the axes' stiffness coefficients hy/hx and hx/hy differ by a
    # factor of 1e18; the descent still reaches Pi_d(zeta_1), with no warning
    spec = parse_config(_thin_rectangle(tmp_path))
    pd1 = cli.branch_energy_report(cli.solve_instance(spec), 0).dual
    assert abs(pd1 - -4.99836103e-10) <= 1e-18
    res = multistart(spec)
    assert res.converged_starts == res.starts_used
    assert abs(res.energy - pd1) <= cli.ORACLE_TOL
    assert abs(res.energy - pd1) <= 1e-8 * abs(pd1)


def test_thin_rectangle_verify_passes(tmp_path, capsys):
    # the gradient check's step scales with the grid: a fixed step of 1e-6,
    # 8000 times the check point's scale hy/2, read a relative error of 9.6
    assert cli.main(["verify", str(_thin_rectangle(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert re.search(r"(?m)^\[verify\] PASS gradient check: max relative error = ", out)
    assert out.splitlines()[-1] == "[verify] OK: 6/6 checks passed"


def test_multistart_draws_starts_inside_the_domain(log11):
    # b < 0: a cell with gamma^2 <= 0.5 lies outside the domain, and many
    # uniform box draws have one; they are drawn again
    spec = interval_spec(log11, QuadraticMeasure(1.0, -0.5), 0.6, n=5, starts=20, seed=7)
    res = multistart(spec)
    assert np.all(np.isfinite(res.starts.energy)) and res.converged_starts == 20


def test_multistart_reports_per_start_iterations(dw, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITER", 15)  # the starts need 12 to 36 iterations
    spec = interval_spec(dw, DW_MEASURE, math.sqrt(0.1), n=5, starts=6)
    res = multistart(spec)
    its, conv = res.starts.iterations, res.starts.converged
    assert its.shape == (6,) and conv.any() and not conv.all()
    assert np.all(its[conv] < 15) and np.all(its[~conv] == 15)
    assert res.converged_starts == np.count_nonzero(res.starts.converged)


def test_oracle_failure_when_nothing_converges(dw, monkeypatch):
    # zero iterations cannot converge from random starts
    monkeypatch.setattr(oracle, "MAX_ITER", 0)
    spec = interval_spec(dw, DW_MEASURE, math.sqrt(0.1), n=5, starts=3)
    with pytest.raises(OracleError):
        multistart(spec)


def test_gradient_check_quadratic_energy(rng):
    # composed quartic still checks far below the contract tolerance
    spec = interval_spec(QuadraticEnergy(1.0), QuadraticMeasure(1.0, 0.0), 0.3, n=9)
    u = 0.2 * rng.standard_normal(9)
    assert gradient_check(discretize(spec), u) <= 1e-9


def test_gradient_check_double_well_and_log(rng):
    spec = interval_spec(QuadraticEnergy(1.0), DW_MEASURE, math.sqrt(0.1), n=9)
    u = 0.3 * rng.standard_normal(9)
    assert gradient_check(discretize(spec), u) <= 1e-6
    spec = interval_spec(LogNeoHookeanEnergy(1.0, 1.0), SHEAR_MEASURE, 0.5, n=9)
    u = np.linspace(0.0, 0.4, 9) + 0.05 * rng.standard_normal(9)
    assert gradient_check(discretize(spec), u) <= 1e-6


def test_gradient_check_zero_state(dw):
    spec = interval_spec(dw, DW_MEASURE, 0.0, n=5)
    prob = discretize(spec)
    g = prob.gradient(np.zeros((1, 5)))
    assert np.all(g == 0.0)
    assert gradient_check(prob, np.zeros(5)) <= 1e-9


def test_gradient_check_outside_the_domain_compares_nothing(log11):
    # b < 0 and u = 0: xi = -0.5 in every cell, every perturbed energy is +inf
    spec = interval_spec(log11, QuadraticMeasure(1.0, -0.5), 0.6, n=5)
    assert math.isnan(gradient_check(discretize(spec), np.zeros(5)))


def test_gradient_check_matches_node_by_node_differences(rng, monkeypatch):
    spec = ProblemSpec(
        energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
        geometry=Grid2(lx=1.0, ly=1.0, nx=9, ny=7),
        loading=ConstantTau((0.4, 0.1)),
    )
    prob = discretize(spec)
    u = 0.05 * rng.standard_normal(prob.shape)
    u[prob.fixed] = 0.0
    g = prob.gradient(u[None])[0]
    free = np.argwhere(~prob.fixed)
    pick = free[random.Random(3).sample(range(len(free)), 20)]
    step = oracle.FD_STEP * 0.5 * min(prob.spacings)
    want = 0.0
    for idx in map(tuple, pick):
        up, um = u.copy(), u.copy()
        up[idx] += step
        um[idx] -= step
        fd = (prob.energy_value(up[None])[0] - prob.energy_value(um[None])[0]) / (2.0 * step)
        want = max(want, abs(fd - g[idx]) / max(1.0, abs(g[idx])))
    monkeypatch.setattr(oracle, "FD_NODES", 20)
    assert gradient_check(prob, u, seed=3) == want
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 200)  # three copies per chunk
    assert gradient_check(prob, u, seed=3) == want


def test_gradient_check_2d(rng):
    spec = ProblemSpec(
        energy=QuadraticEnergy(1.0), measure=DW_MEASURE,
        geometry=Grid2(lx=1.0, ly=1.0, nx=9, ny=7),
        loading=ConstantTau((0.4, 0.1)),
    )
    prob = discretize(spec)
    u = 0.05 * rng.standard_normal(prob.shape)
    assert gradient_check(prob, u) <= 1e-6


def test_quasiconvexity_probe_expected_regimes(dw, log11):
    # supercritical 1-D section: no violation in 10^4 segments
    assert len(gquasiconvexity_probe(dw, DW_MEASURE, [1.0], n_segments=10_000, seed=1)) == 0
    assert len(gquasiconvexity_probe(log11, SHEAR_MEASURE, [1.0], n_segments=10_000, seed=1)) == 0
    # Mexican hat: violations must be found
    viols = gquasiconvexity_probe(dw, DW_MEASURE, [0.0, 0.0], n_segments=10_000, seed=1)
    assert len(viols) >= 1
    assert viols.gamma1.shape == viols.gamma2.shape == (len(viols), 2)
    assert viols.segment.shape == viols.theta.shape == viols.excess.shape == (len(viols),)
    assert np.all(viols.excess > 0.0) and np.all((0.0 <= viols.theta) & (viols.theta <= 1.0))
    # convex composed energy: G-quasiconvex for any load
    assert len(gquasiconvexity_probe(QuadraticEnergy(2.0), QuadraticMeasure(1.0, 0.0),
                                     [0.7, 0.3], n_segments=10_000, seed=1)) == 0


def test_probe_violations_are_genuine(dw):
    from triality.energies import primal_density
    viols = gquasiconvexity_probe(dw, DW_MEASURE, [0.0, 0.0], n_segments=2_000, seed=7)
    tau = np.zeros(2)
    rows = zip(viols.gamma1[:20], viols.gamma2[:20], viols.theta[:20], viols.excess[:20])
    for g1, g2, theta, excess in rows:
        mid = theta * g1 + (1.0 - theta) * g2
        ends = max(primal_density(dw, DW_MEASURE, g1, tau), primal_density(dw, DW_MEASURE, g2, tau))
        assert primal_density(dw, DW_MEASURE, mid, tau) > ends
        assert primal_density(dw, DW_MEASURE, mid, tau) - ends == pytest.approx(excess, rel=1e-9)


@pytest.mark.parametrize("case", ["mexican_hat", "log_domain_edge", "supercritical"])
def test_probe_does_not_depend_on_block_size(case, dw, log11, monkeypatch):
    energy, m, tau = {
        "mexican_hat": (dw, DW_MEASURE, [0.0, 0.0]),  # violations
        "log_domain_edge": (log11, QuadraticMeasure(1.0, -0.5), [0.6]),  # ends near xi_min
        "supercritical": (dw, DW_MEASURE, [1.0]),  # no violation
    }[case]
    n, d = 2_000, len(tau)
    default = gquasiconvexity_probe(energy, m, tau, n_segments=n, seed=7)
    for budget, one_block in ((200, False), (1 << 20, True)):  # 3 or 6 segments; all of them
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", budget)
        assert (len(oracle._chunks(n, (oracle.PROBE_THETAS, d))) == 1) == one_block
        got = gquasiconvexity_probe(energy, m, tau, n_segments=n, seed=7)
        for field in ("segment", "gamma1", "gamma2", "theta", "excess"):
            assert np.array_equal(getattr(got, field), getattr(default, field)), (budget, field)
    if case == "supercritical":
        assert default.gamma1.shape == default.gamma2.shape == (0, d)
        assert default.theta.shape == default.excess.shape == (0,)
    else:
        assert len(default) >= 1


def _traced_peak(fn):
    fn()  # warm up: first-call caches are not the call's working memory
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_memory_is_bounded(log11):
    # all 10^4 segments x 33 points at once would hold 13 MB
    peak = _traced_peak(lambda: gquasiconvexity_probe(log11, SHEAR_MEASURE, [0.8],
                                                      n_segments=10_000, seed=0))
    assert peak < 4e6, peak


def test_gradient_check_memory_is_bounded():
    # all 100 perturbed copies of the 17x17 field in one block would hold 3.7 MB
    prob = discretize(parse_config(CONFIGS / "log_rect_const.cfg"))
    u = np.tile(0.5 * np.linspace(0.0, 1.0, prob.shape[1]), (prob.shape[0], 1))
    peak = _traced_peak(lambda: gradient_check(prob, u))
    assert peak < 3e6, peak


def test_log_model_probe_respects_domain(log11):
    # sampling excludes |gamma|^2 < 1e-6 and the origin limit is finite
    viols = gquasiconvexity_probe(log11, SHEAR_MEASURE, [0.1, 0.0],
                                  n_segments=5_000, seed=4)
    assert np.all(np.sum(np.square(viols.gamma1), axis=1) >= 1e-6)
    assert np.all(np.sum(np.square(viols.gamma2), axis=1) >= 1e-6)


def test_log_model_probe_shifted_measure(log11):
    # b < 0 makes the admissible strain set an annulus exterior: endpoints
    # stay inside it and segments crossing the inadmissible band are
    # (correctly) flagged, since the domain itself is not convex
    m = QuadraticMeasure(1.0, -0.5)
    viols = gquasiconvexity_probe(log11, m, [0.6], n_segments=5_000, seed=4)
    assert len(viols) >= 1
    assert np.all(m.a * np.sum(np.square(viols.gamma1), axis=1) + m.b >= 1e-6)
    assert np.all(m.a * np.sum(np.square(viols.gamma2), axis=1) + m.b >= 1e-6)
