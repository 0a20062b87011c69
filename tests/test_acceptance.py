"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them inline).
"""
import math
from pathlib import Path

import numpy as np

from triality import (
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    TrialityLabel,
    dual_density,
    fold_threshold,
    primal_density,
    solve_roots_array,
)
from triality.cli import branch_energy_report, full_branches, solve_instance
from triality.config import ConstantTau, IntervalGeometry, OracleOptions, ProblemSpec, parse_config
from triality.dualsolve import paper_eq45
from triality.fields import (
    Grid2,
    _dual_strain,
    curl2,
    path_discrepancy,
    reconstruct_displacement,
)
from triality.oracle import (
    descend,
    discretize,
    gquasiconvexity_probe,
    gradient_check,
    minimize_multistart,
)

from conftest import (
    DW_MEASURE,
    SHEAR_MEASURE,
    antiplane_deformation_gradient,
    principal_invariants,
    random_rotation,
    roots_at,
    rotation_invariance_check,
)

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
DW = QuadraticEnergy(1.0)
LOG = LogNeoHookeanEnergy(1.0, 1.0)
SEED = 20240811


def report(cid, ok, detail):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


def bar_spec(energy, measure, tau, n=3):
    return ProblemSpec(energy=energy, measure=measure,
                       geometry=IntervalGeometry(length=1.0, n=n),
                       loading=ConstantTau((tau,)),
                       oracle=OracleOptions(n_starts=50, seed=SEED))


def test_c01_cubic_branch_structure():
    counts = {}
    for t2 in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0):
        counts[t2] = len(roots_at(DW, DW_MEASURE, t2)[0])
    ok = all(counts[t2] == 3 for t2 in (0.05, 0.1, 0.2))
    ok &= all(counts[t2] == 1 for t2 in (0.3, 0.5, 1.0))
    z, _, labels = roots_at(DW, DW_MEASURE, 8.0 / 27.0)
    err1 = abs(z[0] - 1.0 / 3.0)
    err2 = abs(z[1] + 2.0 / 3.0)
    ok &= len(z) == 2 and err1 <= 1e-10 and err2 <= 1e-10
    ok &= labels[1] == TrialityLabel.DEGENERATE
    report("C01", ok, f"cubic branch counts {counts}; fold roots off by "
                      f"({err1:.2e}, {err2:.2e}), fold label {TrialityLabel(labels[1])}")


def test_c02_complementary_dual_equality():
    # per-point densities at the fold load on a unit interval
    t2 = 8.0 / 27.0
    z1 = roots_at(DW, DW_MEASURE, t2)[0][0]
    tau = np.array([math.sqrt(t2)])
    gam = tau / (2.0 * DW_MEASURE.a * z1)
    pd = primal_density(DW, DW_MEASURE, gam, tau)
    dd = dual_density(DW, DW_MEASURE, z1, t2)
    ok = abs(pd + 5.0 / 6.0) <= 1e-12 and abs(dd + 5.0 / 6.0) <= 1e-12
    # integrated equality on every shipped instance, every full branch
    worst = 0.0
    n_branches = 0
    for cfg in CONFIGS:
        sol = solve_instance(parse_config(cfg))
        for k in full_branches(sol):
            rep = branch_energy_report(sol, k)
            worst = max(worst, abs(rep.gap) / max(1.0, abs(rep.dual)))
            n_branches += 1
    ok &= worst <= 1e-8 and n_branches >= 8
    report("C02", ok, f"per-point densities ({pd:.15f}, {dd:.15f}) vs -5/6; "
                      f"max relative gap over {n_branches} shipped branches = {worst:.2e}")


def test_c03_legendre_identity_sweep():
    worst = 0.0
    for energy, lo, hi in ((DW, -5.0, 5.0), (LOG, 1e-3, 10.0)):
        xi = np.linspace(lo, hi, 10_000)
        z = energy.dV(xi)
        res = np.abs(energy.V(xi) + energy.Vstar(z) - xi * z)
        worst = max(worst, float(np.max(res / np.maximum(1.0, np.abs(xi * z)))))
    report("C03", worst <= 1e-10, f"Legendre identity residual over 2x10^4 samples = {worst:.2e}")


def test_c04_global_minimizer_agreement():
    cases = [(DW, DW_MEASURE, 0.1), (DW, DW_MEASURE, 1.0),
             (LOG, SHEAR_MEASURE, 0.2), (LOG, SHEAR_MEASURE, 1.0)]
    details = []
    ok = True
    for energy, m, t2 in cases:
        spec = bar_spec(energy, m, math.sqrt(t2))
        res = minimize_multistart(discretize(spec), spec.oracle)
        zetas, _, labels = roots_at(energy, m, t2)
        branch = {lab: dual_density(energy, m, z, t2) for z, lab in zip(zetas, labels)}
        pd1 = dual_density(energy, m, zetas[0], t2)
        diff = abs(res.energy - pd1)
        ok &= diff <= 1e-6
        # the global label marks the argmin of the branch energies
        ok &= min(branch.values()) == branch[TrialityLabel.GLOBAL_MIN]
        details.append(f"{type(energy).__name__}/t2={t2}: |best-Pi_d|={diff:.2e}")
    report("C04", ok, "; ".join(details))


def test_c05_triality_labels_vs_oracle():
    t2 = 0.2
    (z1, z2, z3), _, labels = roots_at(LOG, SHEAR_MEASURE, t2)
    labels = list(labels)
    ok = labels == [TrialityLabel.GLOBAL_MIN, TrialityLabel.LOCAL_MIN, TrialityLabel.LOCAL_MAX]
    hess3 = 2.0 * z3 + 4.0 * LOG.c2
    ok &= hess3 < 0.0
    # descent started within 1e-2 of the branch-2 strain stays in that basin
    spec = bar_spec(LOG, SHEAR_MEASURE, math.sqrt(t2), n=5)
    prob = discretize(spec)
    x = np.linspace(0.0, 1.0, 5)
    gamma2 = math.sqrt(t2) / (2.0 * z2)
    e2 = dual_density(LOG, SHEAR_MEASURE, z2, t2)
    drift = 0.0
    for delta in (-1e-2, 1e-2):
        r = descend(prob, (gamma2 + delta) * x)
        drift = max(drift, abs(r.energy - e2))
    ok &= drift <= 1e-8
    report("C05", ok, f"labels {[str(l) for l in labels]}, 1-D Hessian at zeta_3 = {hess3:.3f}, "
                      f"basin drift {drift:.2e}")


def test_c06_fold_threshold():
    details = []
    ok = True
    for energy, m in ((DW, DW_MEASURE), (LOG, SHEAR_MEASURE)):
        zc, eta = fold_threshold(energy, m)
        eta_sq = eta * eta
        t2 = np.linspace(0.0, 2.0 * eta_sq, 200)
        _, _, _, counts = solve_roots_array(energy, m, t2)
        step = (t2[1] - t2[0]) * (1.0 + 1e-12)
        three_max = t2[counts == 3].max()
        one_min = t2[(counts == 1) & (t2 > 0)].min()
        ok &= abs(three_max - eta_sq) <= step and abs(one_min - eta_sq) <= step
        details.append(f"{type(energy).__name__}: transition within one step of eta^2")
    zc, eta_d = fold_threshold(LOG, SHEAR_MEASURE)
    _, eta_45 = fold_threshold(LOG, paper_eq45(SHEAR_MEASURE))
    ok &= abs(zc + 2.0 * LOG.c2) <= 1e-12
    ok &= abs(eta_d - 4.0 * math.exp(-2.0)) <= 1e-12
    ok &= abs(eta_45 - 2.0 * math.exp(-2.0)) <= 1e-12
    # only the derived convention satisfies the dual equality of C02
    t2 = 0.2
    z45 = roots_at(LOG, paper_eq45(SHEAR_MEASURE), t2)[0][0]
    tau = np.array([math.sqrt(t2)])
    gam = tau / (2.0 * z45)
    gap45 = abs(primal_density(LOG, SHEAR_MEASURE, gam, tau)
                - dual_density(LOG, SHEAR_MEASURE, z45, t2))
    ok &= gap45 > 1e-8
    report("C06", ok, f"zeta_c = {zc}, eta(derived) = {eta_d:.12f} (= 4e^-2), "
                      f"eta(paper-eq45) = {eta_45:.12f} (= 2e^-2); "
                      f"paper-eq45 breaks the duality gap by {gap45:.2e}; " + "; ".join(details))


def test_c07_reconstruction_fidelity():
    n = 64
    g = Grid2(lx=1.0, ly=1.0, nx=n, ny=n)
    tau0 = 0.8
    z1 = roots_at(LOG, SHEAR_MEASURE, tau0 * tau0)[0][0]
    zeta = np.full(g.shape, z1)
    tau = np.stack([np.full(g.shape, tau0), np.zeros(g.shape)], axis=-1)
    curl_resid = float(np.max(np.abs(curl2(g, _dual_strain(zeta[..., None], tau, SHEAR_MEASURE)))))
    disc = path_discrepancy(g, zeta, tau, SHEAR_MEASURE)
    u = reconstruct_displacement(g, zeta, tau, SHEAR_MEASURE)
    X, _ = g.coords()
    err = float(np.max(np.abs(u - tau0 * X / (2.0 * z1))))
    ok = curl_resid <= 1e-12 and disc <= 1e-8 and err <= 1e-10
    report("C07", ok, f"64x64 constant field: curl residual {curl_resid:.2e}, "
                      f"two-path discrepancy {disc:.2e}, closed-form error {err:.2e}")


def test_c08_gradient_check():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for energy, m, tau in ((DW, DW_MEASURE, math.sqrt(0.1)), (LOG, SHEAR_MEASURE, 0.5)):
        spec = bar_spec(energy, m, tau, n=9)
        prob = discretize(spec)
        u = np.linspace(0.0, 0.4, 9) + 0.03 * rng.standard_normal(9)
        worst = max(worst, gradient_check(prob, u, seed=SEED))
    report("C08", worst <= 1e-6, f"max relative gradient error over both models = {worst:.2e}")


def test_c09_quasiconvexity_probes():
    sup = gquasiconvexity_probe(DW, DW_MEASURE, [1.0], n_segments=10_000, seed=SEED)
    hat = gquasiconvexity_probe(DW, DW_MEASURE, [0.0, 0.0], n_segments=10_000, seed=SEED)
    ok = len(sup) == 0 and len(hat) >= 1
    report("C09", ok, f"supercritical: {len(sup)} violations in 10^4 segments (want 0); "
                      f"unloaded hat: {len(hat)} violations (want >= 1)")


def test_c10_rotation_invariance():
    rng = np.random.default_rng(SEED)
    worst = (0.0, 0.0)
    for _ in range(100):
        F = rng.standard_normal((3, 3))
        T = rng.standard_normal((3, 3))
        r1, r2 = rotation_invariance_check(SHEAR_MEASURE, F, T, random_rotation(rng))
        worst = (max(worst[0], r1), max(worst[1], r2))
    ok = worst[0] <= 1e-12 and worst[1] <= 1e-12
    report("C10", ok, f"100 random rotations: measure residual {worst[0]:.2e}, "
                      f"work residual {worst[1]:.2e}")


def test_c11_isochoric_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        gu = rng.standard_normal(2)
        F = antiplane_deformation_gradient(gu)
        i1, i2, i3 = principal_invariants(F)
        s = 3.0 + float(gu @ gu)
        worst = max(worst, abs(np.linalg.det(F) - 1.0), abs(i3 - 1.0),
                    abs(i1 - s) / (1.0 + s), abs(i2 - s) / (1.0 + s))
    report("C11", worst <= 1e-12, f"100 random gradients: max isochoric/invariant residual = {worst:.2e}")
