"""Energy densities, quadrature, tensor reconstruction, rotation invariance."""
import math

import numpy as np
import pytest

from triality import (
    InvalidRotationError,
    QuadraticMeasure,
    SingularDualError,
    TrialityLabel,
    dV,
    dVstar,
    d2V,
    dual_density,
    gap_density,
    primal_density,
    rotation_invariance_check,
    solve_all_roots,
    tensor_reconstruct,
    total_complementary_density,
)
from triality.energies import (
    EnergyReport,
    TENSOR_MEASURE,
    make_energy_report,
    random_rotation,
    trapezoid_weights_grid,
    trapezoid_weights_interval,
)
from triality.fields import Grid2

from conftest import DW_MEASURE, SHEAR_MEASURE


def test_primal_density_hand_values(dw):
    g = np.array([math.sqrt(8.0 / 3.0), 0.0])
    tau = np.array([math.sqrt(8.0 / 27.0), 0.0])
    assert primal_density(dw, DW_MEASURE, g, tau) == pytest.approx(-5.0 / 6.0, abs=1e-14)
    assert primal_density(dw, DW_MEASURE, np.zeros(2), tau) == pytest.approx(0.5, abs=1e-15)
    well = np.array([math.sqrt(2.0), 0.0])
    assert primal_density(dw, DW_MEASURE, well, np.zeros(2)) == pytest.approx(0.0, abs=1e-14)


def test_dual_density_hand_values(dw, log11):
    assert dual_density(dw, DW_MEASURE, 1.0 / 3.0, 8.0 / 27.0) == pytest.approx(-5.0 / 6.0, abs=1e-14)
    assert dual_density(log11, SHEAR_MEASURE, 2.0, 16.0) == pytest.approx(-3.0, abs=1e-14)
    # unloaded: b*zeta - V*(zeta)
    z = -0.4
    assert dual_density(dw, DW_MEASURE, z, 0.0) == pytest.approx(-z - z * z / 2.0, abs=1e-15)
    with pytest.raises(SingularDualError):
        dual_density(dw, DW_MEASURE, 0.0, 1.0)


def test_total_complementary_consistency(dw, log11, rng):
    # at the stationary strain gamma = tau/(2 a zeta) with zeta a root: Xi = G^d
    for energy, m, t2 in ((dw, DW_MEASURE, 0.1), (log11, SHEAR_MEASURE, 0.2)):
        tau = np.array([math.sqrt(t2)])
        for root in solve_all_roots(energy, m, t2).roots:
            gam = tau / (2.0 * m.a * root.zeta)
            xi_v = total_complementary_density(energy, m, gam, root.zeta, tau)
            assert xi_v == pytest.approx(dual_density(energy, m, root.zeta, t2), abs=1e-12)
            assert xi_v == pytest.approx(primal_density(energy, m, gam, tau), abs=1e-12)
    # at zeta = dV(Lambda(gamma)): Xi = G (Legendre identity)
    for _ in range(100):
        gam = rng.uniform(-2.0, 2.0, size=2)
        tau = rng.uniform(-1.0, 1.0, size=2)
        lam = DW_MEASURE.a * float(gam @ gam) + DW_MEASURE.b
        z = dV(dw, lam)
        if z == 0.0:
            continue
        assert total_complementary_density(dw, DW_MEASURE, gam, z, tau) == pytest.approx(
            primal_density(dw, DW_MEASURE, gam, tau), abs=1e-12)
    # gamma = 0: b*zeta - V*(zeta)
    z = 0.7
    assert total_complementary_density(dw, DW_MEASURE, np.zeros(2), z, tau) == pytest.approx(
        DW_MEASURE.b * z - z * z / 2.0, abs=1e-14)


def test_gap_density_values():
    assert gap_density(QuadraticMeasure(1.0, 0.0), np.array([1.0, 0.0]), 1.0) == 1.0
    assert gap_density(DW_MEASURE, np.array([math.sqrt(2.0), 0.0]), -1.0) == pytest.approx(-1.0, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(2)
        assert gap_density(DW_MEASURE, d, 0.8) >= 0.0


def test_integrate_cases():
    g = Grid2(nx=64, ny=64, hx=1.0 / 63, hy=1.0 / 63)
    c = 0.37
    w2 = trapezoid_weights_grid(g)
    assert np.sum(w2 * np.full(g.shape, c)) == pytest.approx(c, abs=1e-14)
    X, _ = g.coords()
    assert np.sum(w2 * X) == pytest.approx(0.5, abs=1e-10)
    # t = 1 along one unit edge
    assert np.sum(trapezoid_weights_interval(g.ny, g.hy)) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(trapezoid_weights_interval(11, 0.1)) == pytest.approx(1.0, abs=1e-14)
    w = trapezoid_weights_interval(5, 0.25)
    assert w[0] == w[-1] == 0.125 and w[1] == 0.25


def test_energy_report_theorem_equalities(dw, log11):
    # constant-stress unit interval: per-branch primal == dual to roundoff
    for energy, m, t2 in ((dw, DW_MEASURE, 8.0 / 27.0), (log11, SHEAR_MEASURE, 0.2)):
        n = 21
        w = trapezoid_weights_interval(n, 1.0 / (n - 1))
        tau = np.full((n, 1), math.sqrt(t2))
        for root in solve_all_roots(energy, m, t2).roots:
            rep = make_energy_report(energy, m, np.full(n, root.zeta), tau, w)
            assert isinstance(rep, EnergyReport)
            assert abs(rep.gap) <= 1e-8 * max(1.0, abs(rep.dual))
            assert rep.point_mismatch <= 1e-12
            assert rep.complementary == pytest.approx(rep.dual, abs=1e-12)
            assert rep.gap_ok()


def test_gao_strang_inequality_at_global_root(dw, log11, rng):
    # primal density at gamma_1 + d never drops below the root value
    for energy, m, t2 in ((dw, DW_MEASURE, 0.1), (log11, SHEAR_MEASURE, 0.2)):
        z1 = solve_all_roots(energy, m, t2).roots[0].zeta
        tau = np.array([math.sqrt(t2), 0.0])
        g1 = tau / (2.0 * m.a * z1)
        base = primal_density(energy, m, g1, tau)
        d = rng.uniform(-2.0, 2.0, size=(1000, 2))
        vals = primal_density(energy, m, g1 + d, tau)
        assert np.all(vals - base >= -1e-10)


def test_xi_stationarity_at_roots(dw):
    t2 = 0.1
    tau = np.array([math.sqrt(t2), 0.0])
    h = 1e-6
    for root in solve_all_roots(dw, DW_MEASURE, t2).roots:
        z = root.zeta
        gam = tau / (2.0 * DW_MEASURE.a * z)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            d = (total_complementary_density(dw, DW_MEASURE, gam + e, z, tau)
                 - total_complementary_density(dw, DW_MEASURE, gam - e, z, tau)) / (2 * h)
            assert abs(d) <= 1e-6
        dz = (total_complementary_density(dw, DW_MEASURE, gam, z + h, tau)
              - total_complementary_density(dw, DW_MEASURE, gam, z - h, tau)) / (2 * h)
        assert abs(dz) <= 1e-6


def test_hessian_psd_at_global_root(dw, log11):
    # Legendre-Hadamard at the positive branch: both eigenvalues nonnegative
    for energy, m, t2 in ((dw, DW_MEASURE, 0.2), (log11, SHEAR_MEASURE, 0.2)):
        z1 = solve_all_roots(energy, m, t2).roots[0].zeta
        a = m.a
        gsq = t2 / (4 * a * a * z1 * z1)
        xi = dVstar(energy, z1)
        along = 2 * a * z1 + 4 * a * a * d2V(energy, xi) * gsq
        assert along >= 0.0 and 2 * a * z1 >= 0.0


def test_tensor_reconstruct_identity_case(log11):
    zbar = dV(log11, 3.0)  # dVstar(zbar) = 3, so T = 2 zbar I solves the dual equation
    T = 2.0 * zbar * np.eye(3)
    branches = tensor_reconstruct(log11, T)
    match = [b for b in branches if abs(b.zeta - zbar) < 1e-9]
    assert len(match) == 1
    assert np.max(np.abs(match[0].F - np.eye(3))) <= 1e-14
    assert match[0].label is TrialityLabel.GLOBAL_MIN


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_tensor_reconstruct_contracts(log11, rng, a):
    m = QuadraticMeasure(a, 0.0)
    T = rng.standard_normal((3, 3))
    tau_sq = float(np.sum(T * T))
    scale = max(1.0, float(np.max(np.abs(T))))
    branches = tensor_reconstruct(log11, T, m)
    assert branches
    for b in branches:
        assert np.max(np.abs(b.sigma - T)) <= 1e-14 * scale
        lam = a * float(np.sum(b.F * b.F))
        assert lam == pytest.approx(dVstar(log11, b.zeta), rel=1e-9)
        assert b.zeta ** 2 * 4.0 * a * dVstar(log11, b.zeta) == pytest.approx(tau_sq, rel=1e-9)
        # stationarity of V(a|F|^2) - tr(F^T T): dW/dF = 2a*V'(Lambda(F))*F = T
        assert np.max(np.abs(2.0 * a * dV(log11, lam) * b.F - T)) <= 1e-9 * scale


def test_tensor_reconstruct_unloaded(log11):
    # tau^2 = 0: no nontrivial branch exists for the log model
    assert tensor_reconstruct(log11, np.zeros((3, 3))) == []
    with pytest.raises(ValueError):
        tensor_reconstruct(log11, np.eye(2))


def test_rotation_invariance(rng):
    T = rng.standard_normal((3, 3))
    F = rng.standard_normal((3, 3))
    assert rotation_invariance_check(TENSOR_MEASURE, F, T, np.eye(3)) == (0.0, 0.0)
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # quarter turn
    r1, r2 = rotation_invariance_check(TENSOR_MEASURE, F, T, Rz)
    assert r1 <= 1e-13 * (1.0 + abs(float(np.sum(F * F))))
    assert r2 <= 1e-12
    worst = (0.0, 0.0)
    for _ in range(100):
        R = random_rotation(rng)
        r1, r2 = rotation_invariance_check(TENSOR_MEASURE, F, T, R)
        worst = (max(worst[0], r1), max(worst[1], r2))
    assert worst[0] <= 1e-12 and worst[1] <= 1e-12


def test_rotation_validation(rng):
    F = rng.standard_normal((3, 3))
    with pytest.raises(InvalidRotationError):
        rotation_invariance_check(TENSOR_MEASURE, F, F, 2.0 * np.eye(3))
    with pytest.raises(InvalidRotationError):
        rotation_invariance_check(TENSOR_MEASURE, F, F, -np.eye(3))  # det = -1
