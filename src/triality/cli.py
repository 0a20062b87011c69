"""Command-line pipelines: solve one instance, sweep the load, or verify.

    triality solve  <config> [--out DIR]
    triality sweep  <config> --tau-min A --tau-max B --steps N [--out DIR]
    triality verify <config>

Every command solves the dual equation of the configured measure (a, b).
The paper's single-factor eq. (45) is that equation for the measure
(1/4, b): its sweep is a sweep of a config with measure_a = 0.25.

Exit codes: 0 success, 1 failed verification check, 2 configuration error
(malformed, non-finite or out-of-range values, or a model outside the
supported family), 3 solver failure.  The oracle's start count and seed
come from the config file; every other solver, oracle and check setting is
a module constant.  All CSV output uses 17 significant digits; runs are
serial and deterministic for a fixed config.

Only verify loads the oracle module, only solve and sweep the CSV text module
(_csvtext, on the first write).  No command imports dataclasses: the records
are NamedTuples (a validating one checks its fields in __new__), which exec no
methods at import, cached bytecode or not: about 9 ms off every solve or sweep
and 12 ms off every verify process.  Nor numpy.random: the oracle draws 53-bit
uniforms from getrandbits of random.Random(seed), a stream Python documents as
stable (numpy's may change, NEP 19): about 15 ms and 5.6 MB off each verify.

The process entry (``entry``, behind ``python -m triality.cli`` and the
``triality`` script) runs main() and then freezes the cyclic GC, after every
output file is closed: interpreter shutdown then skips its final collections
over the numpy and triality module objects, about 20 ms per process.
main() itself leaves the GC alone, so tests and other in-process callers
keep their collector state.
"""
from __future__ import annotations

import argparse
import gc
import random
import sys
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from . import _kernels, dualsolve, energies, fields
from .canonical import closed_V
from .config import (
    MAX_NODES,
    ConstantTau,
    ProblemSpec,
    build_tau_grid,
    build_tau_interval,
    parse_config,
)
from .errors import (
    ConfigError,
    NonIntegrableFieldError,
    OracleError,
    RootSolveError,
    SingularDualError,
    TrialityError,
)
from .fields import format_float

ORACLE_TOL = 1e-6
GRAD_TOL = 1e-6
PATH_RTOL = 1e-8


class InstanceSolution(NamedTuple):
    """Dual solution of one configured instance, over its flattened nodes.

    A node's roots, residuals and labels depend on it only through its
    tau^2, so they are held once per distinct load: loads are the distinct
    tau^2 values, ascending, and node i has tau^2 = loads[load[i]].  Node
    coordinates are not held: _node_axes gives them as the grid's axes.
    """

    spec: ProblemSpec
    tau: np.ndarray         # (n, d)
    weights: np.ndarray     # (n,) quadrature weights
    loads: np.ndarray       # (m,) distinct tau^2, ascending
    load: np.ndarray        # (n,) index into loads
    roots: np.ndarray       # (m, 3) nan-padded
    residuals: np.ndarray   # (m, 3)
    counts: np.ndarray      # (m,)
    labels: np.ndarray      # (m, 3) int8 TrialityLabel codes, 0 without a root

    def node_roots(self, k: int) -> np.ndarray:
        """Root of branch slot k at every node, (n,)."""
        return self.roots[self.load, k]


def solve_instance(spec: ProblemSpec) -> InstanceSolution:
    if spec.dim == 1:
        x = spec.geometry.x
        tau = build_tau_interval(spec)[:, None]
        weights = energies.trapezoid_weights_interval(x.size, float(x[1] - x[0]))
    else:
        grid = spec.geometry
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            tau = build_tau_grid(spec).reshape(-1, 2)
        weights = energies.trapezoid_weights_grid(grid).ravel()
    with np.errstate(over="ignore"):
        tau_sq = np.sum(tau * tau, axis=-1)
    if not np.all(np.isfinite(tau_sq)):
        raise ConfigError("loading: the stress or tau^2 is not finite at every node")
    # the kernel and the labels work point by point, so the sorted distinct
    # loads give every node the bits it would get on its own
    loads, load = np.unique(tau_sq, return_inverse=True)
    roots, resid, degenerate, counts = dualsolve.solve_roots_array(spec.energy, spec.measure, loads)
    labels = dualsolve.label_array(spec.energy, spec.measure, roots, degenerate, spec.dim)
    return InstanceSolution(spec, tau, weights, loads, load,
                            roots, resid, counts, labels)


def full_branches(sol: InstanceSolution) -> list[int]:
    """Branch slots defined at every node (0-based)."""
    return [k for k in range(3) if not np.any(np.isnan(sol.roots[:, k]))]


def branch_energy_report(sol: InstanceSolution, k: int) -> energies.EnergyReport:
    return energies.make_energy_report(sol.spec.energy, sol.spec.measure,
                                       sol.node_roots(k), sol.tau, sol.weights)


#: label text by TrialityLabel code: code 0 is a slot without a root
_LABEL_NAMES = np.array(["", *map(str, dualsolve.TrialityLabel)])


def branch_label_name(sol: InstanceSolution, k: int) -> str:
    """Name of the one label of branch slot k's roots, else "mixed"."""
    present = np.bincount(sol.labels[:, k], minlength=_LABEL_NAMES.size) > 0
    names = _LABEL_NAMES[1:][present[1:]]
    return str(names[0]) if names.size == 1 else "mixed"


def _branch_fields(sol: InstanceSolution, k: int) -> tuple[fields.Grid2, np.ndarray, np.ndarray]:
    """(grid, zeta, tau) of branch k in grid shape (rectangle instances)."""
    grid = sol.spec.geometry
    return grid, sol.node_roots(k).reshape(grid.shape), sol.tau.reshape(grid.shape + (2,))


def reconstruct_branch(sol: InstanceSolution, k: int) -> np.ndarray:
    """Displacement of branch k in node order, (n,) on an interval and
    (ny, nx) on a rectangle; raises NonIntegrableFieldError if the strain is
    not a gradient or the path integral overflows."""
    spec = sol.spec
    if spec.dim == 1:
        u = fields.reconstruct_interval(spec.geometry, sol.node_roots(k), sol.tau[:, 0],
                                        spec.measure)
    else:
        u = fields.reconstruct_displacement(*_branch_fields(sol, k), spec.measure)
    if not np.all(np.isfinite(u)):
        raise NonIntegrableFieldError(
            "the path integral of the dual strain is not finite at every node")
    return u


_write_rows = fields.write_csv   # pipeline CSV files; its own name for perfbench's tracer


def _node_axes(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) axes of the nodes: node i sits at x[i % x.size], y[i // x.size]
    (row-major by y then x); y is [0] on an interval."""
    if spec.dim == 1:
        return spec.geometry.x, np.zeros(1)
    return spec.geometry.x, spec.geometry.y


def _node_columns(x: np.ndarray, y: np.ndarray, node: np.ndarray) -> list:
    """x and y of the given nodes as write_csv (axis, index) columns."""
    iy, ix = np.divmod(node, x.size)
    return [(x, ix), (y, iy)]


def _roots_blocks(sol: InstanceSolution):
    """roots.csv columns, one block per CSV_BLOCK_ROWS // (roots per node)
    nodes, so a block fills at most one formatted piece, and only one block
    is gathered at a time.  Every float column is a (table, index) pair
    into the grid axes or the per-load arrays."""
    x, y = _node_axes(sol.spec)
    slots = sol.roots.shape[1]
    roots, residuals = sol.roots.ravel(), sol.residuals.ravel()
    found = ~np.isnan(sol.roots)
    step = fields.CSV_BLOCK_ROWS // slots
    for start in range(0, sol.load.size, step):
        load = sol.load[start:start + step]
        node, k = np.nonzero(found[load])
        at = load[node]
        slot = at * slots + k
        yield [*_node_columns(x, y, node + start), (sol.loads, at), k + 1,
               (roots, slot), (residuals, slot), _LABEL_NAMES[sol.labels[at, k]]]


def write_roots_csv(sol: InstanceSolution, path: Path) -> None:
    _write_rows(path, "x,y,tau_sq,k,zeta,residual,label", _roots_blocks(sol))


def write_energy_csv(sol: InstanceSolution, reports: dict[int, energies.EnergyReport],
                     names: dict[int, str], path: Path) -> None:
    """One row per full branch; names[k] is branch_label_name(sol, k)."""
    ks = sorted(reports)
    _write_rows(path, "tau_sq,zeta,label,primal,dual,gap",
                [[[float(np.mean(sol.loads[sol.load]))] * len(ks),
                  [float(np.mean(sol.node_roots(k))) for k in ks],
                  [names[k] for k in ks],
                  [reports[k].primal for k in ks], [reports[k].dual for k in ks],
                  [reports[k].gap for k in ks]]])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def run_solve(spec: ProblemSpec, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    sol = solve_instance(spec)
    lines = [_instance_summary(spec)]
    try:
        fold = dualsolve.fold_threshold(spec.energy, spec.measure)
        fold45 = dualsolve.fold_threshold(spec.energy, dualsolve.paper_eq45(spec.measure))
        lines.append(f"fold: zeta_c={format_float(fold.zeta_c)} "
                     f"eta(derived)={format_float(fold.eta)} "
                     f"eta(paper-eq45)={format_float(fold45.eta)}")
    except NotImplementedError:
        lines.append("fold: none (no single negative fold)")
    cmin, cmax = int(sol.counts.min()), int(sol.counts.max())
    lines.append(f"root counts over {sol.load.size} nodes: min={cmin} max={cmax}")

    write_roots_csv(sol, outdir / "roots.csv")
    reports = {k: branch_energy_report(sol, k) for k in full_branches(sol)}
    names = {k: branch_label_name(sol, k) for k in reports}
    write_energy_csv(sol, reports, names, outdir / "energy_report.csv")
    gap_bad = False
    for k, rep in sorted(reports.items()):
        ok = rep.gap_ok()
        gap_bad |= not ok
        lines.append(
            f"branch {k + 1}: label={names[k]} "
            f"zeta_mean={format_float(float(np.mean(sol.node_roots(k))))} "
            f"Pi={format_float(rep.primal)} Pi_d={format_float(rep.dual)} "
            f"gap={rep.gap:.3e} point_mismatch={rep.point_mismatch:.3e}"
            + ("" if ok else "  << RED FLAG: duality gap exceeds tolerance"))
        try:
            u = reconstruct_branch(sol, k)
            fname = f"fields_u_{k + 1}.csv"
            fields.write_scalar_csv(outdir / fname,
                                    *_node_columns(*_node_axes(spec), np.arange(u.size)), u)
            lines.append(f"branch {k + 1}: displacement written to {fname}")
        except (NonIntegrableFieldError, SingularDualError) as exc:
            lines.append(f"branch {k + 1}: reconstruction skipped ({exc})")
    partial = [k + 1 for k in range(3)
               if k not in reports and not np.all(np.isnan(sol.roots[:, k]))]
    if partial:
        lines.append(f"partial branches (not defined at every node, no energy row): {partial}")
    if gap_bad:
        lines.append("duality-gap check: RED FLAG (see branches above)")
    else:
        lines.append(f"duality-gap check: OK (tol {energies.GAP_RTOL:g} relative)")
    (outdir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"wrote {outdir}/roots.csv, energy_report.csv, report.txt")
    return 0


def _instance_summary(spec: ProblemSpec) -> str:
    g = spec.geometry
    if spec.dim == 1:
        geo = f"interval L={g.length} n={g.n} fixed={g.fixed_end}"
    else:
        geo = (f"rectangle {g.lx}x{g.ly} nodes {g.nx}x{g.ny} "
               f"fixed={','.join(sorted(g.fixed_edges))}")
    return f"instance: {spec.energy} measure(a={spec.measure.a}, b={spec.measure.b}) {geo} {spec.loading}"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def run_sweep(spec: ProblemSpec, outdir: Path, tau_min: float, tau_max: float, steps: int) -> int:
    if not 2 <= steps <= MAX_NODES:
        raise ConfigError(f"sweep needs 2 <= steps <= {MAX_NODES}")
    if not (0.0 <= tau_min <= tau_max and np.isfinite(tau_max * tau_max)):
        raise ConfigError("sweep needs 0 <= tau-min <= tau-max with tau-max^2 finite")
    outdir.mkdir(parents=True, exist_ok=True)
    taus = np.linspace(tau_min, tau_max, steps)
    roots, _, _, counts = dualsolve.solve_roots_array(spec.energy, spec.measure, taus ** 2)
    found = ~np.isnan(roots)
    t2 = np.broadcast_to((taus * taus)[:, None], roots.shape)
    pid = np.full(roots.shape, np.nan)
    pid[found] = energies.dual_density(spec.energy, spec.measure, roots[found], t2[found])
    _write_rows(outdir / "sweep.csv", "tau,root_count,zeta1,zeta2,zeta3,Pi_d_1,Pi_d_2,Pi_d_3",
                [[taus, counts, *roots.T, *pid.T]])

    # dual algebraic curve h(zeta) of the measure and of its eq. (45) form
    try:
        fold = dualsolve.fold_threshold(spec.energy, spec.measure)
    except NotImplementedError:
        fold = None
    z_lo = 4.0 * fold.zeta_c - 1.0 if fold is not None else -3.0
    z_hi = max(1.5, 1.5 * float(roots[-1, 0])) if taus[-1] > 0 else 1.5
    zgrid = np.linspace(z_lo, z_hi, 1001)
    h2 = [_kernels.residual(spec.energy, m, zgrid, 0.0)
          for m in (spec.measure, dualsolve.paper_eq45(spec.measure))]
    h = [np.sqrt(np.where(v >= 0, v, np.nan)) for v in h2]
    _write_rows(outdir / "hcurve.csv", "zeta,h_derived,h_paper45", [[zgrid, *h]])
    tau_mid = fold.eta if fold is not None else 0.5 * (taus[0] + taus[-1])
    _write_figure_curves(spec, outdir, (float(taus[0]), float(tau_mid), float(taus[-1])))
    print(f"wrote {outdir}/sweep.csv ({steps} rows), hcurve.csv, wcurve.csv, "
          f"gcurve.csv, gdcurve.csv")
    return 0


def _write_figure_curves(spec: ProblemSpec, outdir: Path, tau_marks) -> None:
    """Composed energy W(gamma), total potential G(gamma) and dual density
    G^d(zeta) sampled at the loads tau_marks (sweep ends and fold load)."""
    energy, m = spec.energy, spec.measure

    gamma = np.linspace(-3.0, 3.0, 1200)  # even count: skips gamma = 0 exactly
    xi = m.a * gamma * gamma + m.b
    w, below = closed_V(energy, m, xi)
    if below is not None:
        w[below] = np.nan  # a gap in the plots where W is +inf; dW is nan there
    dw = 2.0 * m.a * gamma * closed_V(energy, m, xi, slope=True)[0]
    _write_rows(outdir / "wcurve.csv", "gamma,W,dW", [[gamma, w, dw]])
    _write_rows(outdir / "gcurve.csv", "gamma,G_tau_lo,G_tau_fold,G_tau_hi",
                [[gamma] + [w - gamma * t for t in tau_marks]])

    zgrid = np.linspace(-6.0, 3.0, 1200)  # even count: skips zeta = 0 exactly
    gd = [energies.dual_density(energy, m, zgrid, t * t) for t in tau_marks]
    _write_rows(outdir / "gdcurve.csv", "zeta,Gd_tau_lo,Gd_tau_fold,Gd_tau_hi", [[zgrid, *gd]])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(spec: ProblemSpec) -> int:
    from . import oracle  # only verify pays for compiling the oracle

    checks: list[tuple[str, str, str]] = []  # (status, name, detail)

    def add(status, name, detail):
        checks.append((status, name, detail))
        print(f"[verify] {status:4s} {name}: {detail}")

    sol = solve_instance(spec)
    branches = full_branches(sol)
    reports = {k: branch_energy_report(sol, k) for k in branches}
    prob = oracle.discretize(spec)  # shared by the descent and the gradient check

    # 1 duality gap on every full branch
    for k in branches:
        rep = reports[k]
        status = "PASS" if rep.gap_ok() else "FAIL"
        add(status, f"duality-gap branch {k + 1}",
            f"|Pi - Pi_d| = {abs(rep.gap):.3e}, Pi_d = {rep.dual:.9g} (rtol {energies.GAP_RTOL:g})")

    # residual re-validation comes free with the gap check data
    found = sol.residuals[~np.isnan(sol.roots)]
    if found.size == 0:
        add("SKIP", "root residuals", "no dual root at any node")
    else:
        worst = float(np.nanmax(np.abs(found)))
        tol = 1e-10 * max(1.0, float(sol.loads[-1]))
        add("PASS" if worst <= tol else "FAIL", "root residuals",
            f"max |D(zeta)| = {worst:.3e} (tol {tol:.1e})")

    # 2 oracle agreement (constant loading only).  The exact match needs one
    # basin and a constant-strain branch 1 that meets u = 0 on every fixed
    # node: an interval's is anchored at its one fixed end, a rectangle's
    # fits only a load with no component along a fixed edge.
    u1 = None  # branch-1 displacement of a rectangle, shared with the curl/path audit
    if not isinstance(spec.loading, ConstantTau):
        add("SKIP", "oracle agreement",
            "non-constant loading: discrete minimum and quadrature differ at O(h^2)")
    elif 0 not in branches:
        add("SKIP", "oracle agreement", "no branch 1 at every node: no Pi_d(zeta_1) to compare")
    else:
        pd1 = reports[0].dual
        inexact = None
        if not (np.all(sol.counts == 1) and sol.loads[0] > 0):
            inexact = "multi-branch instance"
        elif spec.dim == 2:
            try:
                u1 = reconstruct_branch(sol, 0)
            except NonIntegrableFieldError as exc:
                inexact = f"branch 1 not reconstructed ({exc})"
            else:
                misfit = float(np.max(np.abs(u1[spec.geometry.fixed_mask()])))
                if misfit > PATH_RTOL * max(1.0, float(np.max(np.abs(u1)))):
                    inexact = f"branch 1 has |u| = {misfit:.3e} on a fixed edge"
        try:
            res = oracle.minimize_multistart(prob, spec.oracle)
            weak_ok = res.energy >= pd1 - ORACLE_TOL
            iters = res.starts.iterations
            detail = (f"best = {res.energy:.9g}, Pi_d(zeta_1) = {pd1:.9g}, "
                      f"basins = {res.distinct_basins}, converged = {res.converged_starts}/"
                      f"{res.starts_used} starts, iterations p50/max = "
                      f"{np.median(iters):g}/{iters.max()}")
            if inexact is None:
                match_ok = abs(res.energy - pd1) <= ORACLE_TOL
                add("PASS" if (weak_ok and match_ok) else "FAIL", "oracle agreement", detail)
            else:
                add("PASS" if weak_ok else "FAIL", "oracle weak duality",
                    detail + f" ({inexact}: exact match not required)")
        except OracleError as exc:
            add("FAIL", "oracle agreement", str(exc))

    # 3 gradient check at order-one strains: uniform in [-sqrt 3, sqrt 3], unit variance
    rng, r3 = random.Random(spec.oracle.seed), np.sqrt(3.0)
    u = 0.5 * min(prob.spacings) * oracle.uniform(rng, -r3, r3, prob.shape)
    err = oracle.gradient_check(prob, u, seed=spec.oracle.seed)
    if np.isnan(err):
        add("SKIP", "gradient check", "no node compared: the check point lies outside the domain")
    else:
        add("PASS" if err <= GRAD_TOL else "FAIL", "gradient check",
            f"max relative error = {err:.3e} (tol {GRAD_TOL:g})")

    # 4 curl / path-independence audit on branch 1
    if spec.dim == 1:
        add("SKIP", "curl/path audit", "1-D path integration is unique")
    elif 0 in branches:
        try:
            u1 = reconstruct_branch(sol, 0) if u1 is None else u1
        except NonIntegrableFieldError as exc:
            add("SKIP", "curl/path audit", f"{exc}; reconstruction not applicable")
        else:
            disc = fields.path_discrepancy(*_branch_fields(sol, 0), spec.measure)
            lim = PATH_RTOL * max(1.0, float(np.max(np.abs(u1))))
            add("PASS" if disc <= lim else "FAIL", "curl/path audit",
                f"curl-free strain, two-path discrepancy {disc:.3e} (tol {lim:.1e})")
    else:
        add("SKIP", "curl/path audit", "no full branch to reconstruct")

    # 5 quasiconvexity probe along the 1-D strain section at the weakest
    # load loads[0] (the section the fold threshold governs; composed 2-D
    # energies carry a load-independent hump off the loading axis).
    # A local minimizer, maximizer or saddle root there (a nondegenerate
    # negative root) is a second stationary basin, so
    # violations must be found; with none (or only the tangent fold root)
    # the section is quasiconvex and the probe must come back empty.
    if sol.loads[0] == 0.0:
        add("SKIP", "quasiconvexity probe",
            "unloaded node present: no load regime to check against")
    else:
        tau_probe = np.array([np.sqrt(float(sol.loads[0]))])
        basins = (dualsolve.TrialityLabel.LOCAL_MIN, dualsolve.TrialityLabel.LOCAL_MAX,
                  dualsolve.TrialityLabel.SADDLE)
        second_basin = any(lab in basins for lab in sol.labels[0].tolist())
        n_seg = oracle.PROBE_SEGMENTS
        try:
            viols = oracle.gquasiconvexity_probe(spec.energy, spec.measure, tau_probe,
                                                 n_segments=n_seg, seed=spec.oracle.seed)
        except OracleError as exc:
            add("SKIP", "quasiconvexity probe", str(exc))
        else:
            load, want = ("multi-branch", ">= 1") if second_basin else ("single-branch", "0")
            add("PASS" if bool(viols) == second_basin else "FAIL", "quasiconvexity probe",
                f"{load} load: {len(set(viols.segment.tolist()))} violations in {n_seg} segments "
                f"(want {want})")

    ran = [s for s, _, _ in checks if s != "SKIP"]
    failed = ran.count("FAIL")
    print(f"[verify] {'OK' if failed == 0 else 'FAILED'}: "
          f"{len(ran) - failed}/{len(ran)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="triality",
                                description="Canonical-dual solver for nonconvex shear problems")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary, writes):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("config", help="problem configuration file (key = value)")
        if writes:
            sp.add_argument("--out", default=None, help="output directory (default: <config stem>_out)")
        return sp

    command("solve", "solve one instance and write roots/fields/energies", True)
    sp = command("sweep", "sweep the load magnitude and write sweep.csv/hcurve.csv", True)
    sp.add_argument("--tau-min", type=float, required=True)
    sp.add_argument("--tau-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    command("verify", "run the verification checks on one instance", False)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_config(args.config)
        if args.command == "verify":
            return run_verify(spec)
        outdir = Path(args.out) if args.out else Path(Path(args.config).stem + "_out")
        if args.command == "solve":
            return run_solve(spec, outdir)
        return run_sweep(spec, outdir, args.tau_min, args.tau_max, args.steps)
    except (ConfigError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RootSolveError, OracleError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except TrialityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> NoReturn:
    """Process entry: main(), then gc.freeze() (see the module docstring),
    then exit with main's code through SystemExit, so stdio is flushed and
    atexit handlers run as usual."""
    rc = main()
    gc.freeze()
    raise SystemExit(rc)


if __name__ == "__main__":
    entry()
