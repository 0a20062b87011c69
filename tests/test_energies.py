"""Energy densities, quadrature, tensor reconstruction, rotation invariance.

The total complementary density Xi and the complementary gap density G_ap of
the paper are written out here, independent of the library:

    Xi(gamma, zeta) = (a|gamma|^2 + b)*zeta - V*(zeta) - <gamma, tau>
    G_ap(d, zeta)   = a*zeta*|d|^2
"""
import math

import numpy as np
import pytest

from triality import (
    QuadraticMeasure,
    SingularDualError,
    TrialityLabel,
    dual_density,
    primal_density,
)
from triality.energies import (
    EnergyReport,
    make_energy_report,
    trapezoid_weights_grid,
    trapezoid_weights_interval,
)
from triality.fields import Grid2

from conftest import (
    DW_MEASURE,
    SHEAR_MEASURE,
    InvalidRotationError,
    random_rotation,
    roots_at,
    rotation_invariance_check,
)


def xi_density(energy, m, gamma, zeta, tau):
    lam = m.a * np.sum(gamma * gamma, axis=-1) + m.b
    return lam * zeta - energy.Vstar(zeta) - np.sum(gamma * tau, axis=-1)


def gap_density(m, d, zeta):
    return m.a * zeta * np.sum(d * d, axis=-1)


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
        for z in roots_at(energy, m, t2)[0]:
            gam = tau / (2.0 * m.a * z)
            xi_v = xi_density(energy, m, gam, z, tau)
            assert xi_v == pytest.approx(dual_density(energy, m, z, t2), abs=1e-12)
            assert xi_v == pytest.approx(primal_density(energy, m, gam, tau), abs=1e-12)
    # at zeta = dV(Lambda(gamma)): Xi = G (Legendre identity)
    for _ in range(100):
        gam = rng.uniform(-2.0, 2.0, size=2)
        tau = rng.uniform(-1.0, 1.0, size=2)
        lam = DW_MEASURE.a * float(gam @ gam) + DW_MEASURE.b
        z = dw.dV(lam)
        if z == 0.0:
            continue
        assert xi_density(dw, DW_MEASURE, gam, z, tau) == pytest.approx(
            primal_density(dw, DW_MEASURE, gam, tau), abs=1e-12)
    # gamma = 0: b*zeta - V*(zeta)
    z = 0.7
    assert xi_density(dw, DW_MEASURE, np.zeros(2), z, tau) == pytest.approx(
        DW_MEASURE.b * z - z * z / 2.0, abs=1e-14)


def test_gap_density_values(dw):
    assert gap_density(QuadraticMeasure(1.0, 0.0), np.array([1.0, 0.0]), 1.0) == 1.0
    assert gap_density(DW_MEASURE, np.array([math.sqrt(2.0), 0.0]), -1.0) == pytest.approx(-1.0, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(2)
        assert gap_density(DW_MEASURE, d, 0.8) >= 0.0
    # Xi(gamma_k + d, zeta_k) = G^d(zeta_k) + G_ap(d, zeta_k) at every root
    tau = np.array([math.sqrt(0.1), 0.0])
    for z in roots_at(dw, DW_MEASURE, 0.1)[0]:
        gam = tau / (2.0 * DW_MEASURE.a * z)
        d = rng.uniform(-2.0, 2.0, size=(100, 2))
        lhs = xi_density(dw, DW_MEASURE, gam + d, z, tau) - dual_density(dw, DW_MEASURE, z, 0.1)
        assert np.allclose(lhs, gap_density(DW_MEASURE, d, z), atol=1e-12)


def test_integrate_cases():
    g = Grid2(lx=1.0, ly=1.0, nx=64, ny=64)
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
        for z in roots_at(energy, m, t2)[0]:
            rep = make_energy_report(energy, m, np.full(n, z), tau, w)
            assert isinstance(rep, EnergyReport)
            assert abs(rep.gap) <= 1e-8 * max(1.0, abs(rep.dual))
            assert rep.point_mismatch <= 1e-12
            assert rep.gap_ok()


def test_gao_strang_inequality_at_global_root(dw, log11, rng):
    # primal density at gamma_1 + d never drops below the root value
    for energy, m, t2 in ((dw, DW_MEASURE, 0.1), (log11, SHEAR_MEASURE, 0.2)):
        z1 = roots_at(energy, m, t2)[0][0]
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
    for z in roots_at(dw, DW_MEASURE, t2)[0]:
        gam = tau / (2.0 * DW_MEASURE.a * z)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            d = (xi_density(dw, DW_MEASURE, gam + e, z, tau)
                 - xi_density(dw, DW_MEASURE, gam - e, z, tau)) / (2 * h)
            assert abs(d) <= 1e-6
        dz = (xi_density(dw, DW_MEASURE, gam, z + h, tau)
              - xi_density(dw, DW_MEASURE, gam, z - h, tau)) / (2 * h)
        assert abs(dz) <= 1e-6


def test_hessian_psd_at_global_root(dw, log11):
    # Legendre-Hadamard at the positive branch: both eigenvalues nonnegative
    for energy, m, t2 in ((dw, DW_MEASURE, 0.2), (log11, SHEAR_MEASURE, 0.2)):
        z1 = roots_at(energy, m, t2)[0][0]
        a = m.a
        gsq = t2 / (4 * a * a * z1 * z1)
        xi = energy.dVstar(z1)
        along = 2 * a * z1 + 4 * a * a * energy.d2V(xi) * gsq
        assert along >= 0.0 and 2 * a * z1 >= 0.0


def tensor_branches(energy, m, T):
    """(zeta_k, F_k = T/(2a*zeta_k), label_k) for every root at tau^2 = tr(T^T T)."""
    zetas, _, labels = roots_at(energy, m, float(np.sum(T * T)), dim=9)
    return [(z, T / (2.0 * m.a * z), lab) for z, lab in zip(zetas, labels)]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_tensor_reconstruct_contracts(log11, rng, a):
    # every stationary deformation gradient of V(a|F|^2) - tr(F^T T) for a
    # constant 3x3 stress T, the paper's 3-D constant-stress case
    m = QuadraticMeasure(a, 0.0)
    T = rng.standard_normal((3, 3))
    tau_sq = float(np.sum(T * T))
    scale = max(1.0, float(np.max(np.abs(T))))
    branches = tensor_branches(log11, m, T)
    assert branches
    for z, F, _ in branches:
        assert np.max(np.abs(2.0 * a * z * F - T)) <= 1e-14 * scale
        lam = a * float(np.sum(F * F))
        assert lam == pytest.approx(log11.dVstar(z), rel=1e-9)
        assert z ** 2 * 4.0 * a * log11.dVstar(z) == pytest.approx(tau_sq, rel=1e-9)
        # stationarity of V(a|F|^2) - tr(F^T T): dW/dF = 2a*V'(Lambda(F))*F = T
        assert np.max(np.abs(2.0 * a * log11.dV(lam) * F - T)) <= 1e-9 * scale


def test_tensor_reconstruct_identity_case(log11):
    for a in (0.5, 1.0, 2.0):
        m = QuadraticMeasure(a, 0.0)
        # dVstar(zbar) = 3a = Lambda(I), so T = 2a zbar I has the branch F = I
        zbar = log11.dV(3.0 * a)
        match = [(F, lab) for z, F, lab in tensor_branches(log11, m, 2.0 * a * zbar * np.eye(3))
                 if abs(z - zbar) < 1e-9]
        assert len(match) == 1
        assert np.max(np.abs(match[0][0] - np.eye(3))) <= 1e-14
        assert match[0][1] is TrialityLabel.GLOBAL_MIN


def test_tensor_reconstruct_unloaded(log11):
    # tau^2 = 0: no nontrivial branch exists for the log model
    for a in (0.5, 1.0, 2.0):
        assert tensor_branches(log11, QuadraticMeasure(a, 0.0), np.zeros((3, 3))) == []


def test_rotation_invariance(rng):
    T = rng.standard_normal((3, 3))
    F = rng.standard_normal((3, 3))
    assert rotation_invariance_check(SHEAR_MEASURE, F, T, np.eye(3)) == (0.0, 0.0)
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # quarter turn
    r1, r2 = rotation_invariance_check(SHEAR_MEASURE, F, T, Rz)
    assert r1 <= 1e-13 * (1.0 + abs(float(np.sum(F * F))))
    assert r2 <= 1e-12
    worst = (0.0, 0.0)
    for _ in range(100):
        R = random_rotation(rng)
        r1, r2 = rotation_invariance_check(SHEAR_MEASURE, F, T, R)
        worst = (max(worst[0], r1), max(worst[1], r2))
    assert worst[0] <= 1e-12 and worst[1] <= 1e-12


def test_rotation_validation(rng):
    F = rng.standard_normal((3, 3))
    with pytest.raises(InvalidRotationError):
        rotation_invariance_check(SHEAR_MEASURE, F, F, 2.0 * np.eye(3))
    with pytest.raises(InvalidRotationError):
        rotation_invariance_check(SHEAR_MEASURE, F, F, -np.eye(3))  # det = -1
