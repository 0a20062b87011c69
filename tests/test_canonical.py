"""Canonical energies, conjugates, and the quadratic measure family."""
import math

import numpy as np
import pytest

from triality import (
    DomainError,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    closed_V,
)
from triality.canonical import TOL

from conftest import conjugate_sup, measure_eval, random_rotation


def test_log_values(log11):
    assert log11.V(1.0) == pytest.approx(1.0, abs=1e-15)
    assert log11.V(math.e) == pytest.approx(2.0 * math.e, rel=1e-15)
    assert log11.dV(1.0) == pytest.approx(2.0, abs=1e-15)
    assert log11.d2V(1.0) == pytest.approx(1.0, abs=1e-15)
    assert log11.Vstar(2.0) == pytest.approx(1.0, abs=1e-15)
    assert log11.dVstar(2.0) == pytest.approx(1.0, abs=1e-15)
    assert log11.dVstar(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_quadratic_values(dw):
    assert dw.V(0.0) == 0.0
    assert dw.Vstar(0.0) == 0.0
    xi = np.linspace(-4, 4, 101)
    assert np.allclose(dw.dV(xi), xi)          # identity map for alpha = 1
    assert np.allclose(dw.dVstar(dw.dV(xi)), xi)
    e2 = QuadraticEnergy(alpha=2.5)
    assert e2.Vstar(5.0) == pytest.approx(5.0, abs=1e-14)  # zeta^2 / (2 alpha)


def test_closed_domain_rule(dw, log11):
    assert (dw.xi_min, log11.xi_min) == (-math.inf, 0.0)
    m = QuadraticMeasure(1.0, -0.5)
    window = (TOL + 4.0 * math.ulp(1.0)) * 0.5  # the rounding window at the floor, TOL*|b| + ulps
    # inside, the floor, just inside the window, just below it, far below
    xi = np.array([math.e, 1.0, 0.0, -0.9 * window, -1.1 * window, -1.0])
    v, below = closed_V(log11, m, xi)
    assert v[:2].tolist() == log11.V(xi[:2]).tolist()
    assert v[2:].tolist() == [0.0, 0.0, math.inf, math.inf]
    assert below.tolist() == [False] * 4 + [True] * 2
    dv, below = closed_V(log11, m, xi, slope=True)
    assert dv[:2].tolist() == log11.dV(xi[:2]).tolist()
    assert dv[2:4].tolist() == [0.0, 0.0] and np.isnan(dv[4:]).all()
    assert below.tolist() == [False] * 4 + [True] * 2
    # every xi inside: the formula and no mask; scalars as well
    inside = np.array([1e-300, 0.5, 2.0])
    v, below = closed_V(log11, m, inside)
    assert below is None and v.tolist() == log11.V(inside).tolist()
    assert closed_V(log11, m, 0.0) == (0.0, None)
    assert closed_V(log11, m, -1.0)[0] == math.inf
    # b = 0: no window, the floor is xi_min itself
    v, below = closed_V(log11, QuadraticMeasure(1.0, 0.0), np.array([0.0, -5e-324]))
    assert v.tolist() == [0.0, math.inf] and below.tolist() == [False, True]
    # the double well has no floor
    xi = np.array([-1e150, -1.0, 0.0, 2.0])
    for slope, f in ((False, dw.V), (True, dw.dV)):
        v, below = closed_V(dw, QuadraticMeasure(0.5, -1.0), xi, slope=slope)
        assert below is None and v.tolist() == f(xi).tolist()


def test_material_constants_validated():
    with pytest.raises(DomainError):
        LogNeoHookeanEnergy(c1=0.0, c2=1.0)
    with pytest.raises(DomainError):
        LogNeoHookeanEnergy(c1=1.0, c2=-2.0)
    with pytest.raises(DomainError):
        QuadraticEnergy(alpha=0.0)
    with pytest.raises(DomainError):
        QuadraticMeasure(a=-1.0)


@pytest.mark.parametrize("energy,xi_lo,xi_hi", [
    (QuadraticEnergy(1.0), -5.0, 5.0),
    (QuadraticEnergy(3.0), -5.0, 5.0),
    (LogNeoHookeanEnergy(1.0, 1.0), 1e-3, 10.0),
    (LogNeoHookeanEnergy(0.5, 2.0), 1e-3, 10.0),
])
def test_duality_identity_sweep(energy, xi_lo, xi_hi):
    xi = np.linspace(xi_lo, xi_hi, 10_000)
    z = energy.dV(xi)
    res = np.abs(energy.V(xi) + energy.Vstar(z) - xi * z)
    assert np.all(res <= 1e-10 * np.maximum(1.0, np.abs(xi * z)))


@pytest.mark.parametrize("energy,xi_lo,xi_hi", [
    (QuadraticEnergy(1.0), -5.0, 5.0),
    (LogNeoHookeanEnergy(1.0, 1.0), 1e-3, 10.0),
])
def test_inverse_map_and_convexity(energy, xi_lo, xi_hi):
    xi = np.linspace(xi_lo, xi_hi, 10_000)
    assert np.all(energy.d2V(xi) > 0.0)
    back = energy.dVstar(energy.dV(xi))
    assert np.max(np.abs(back - xi) / np.maximum(1e-300, np.abs(xi))) <= 1e-9


def test_conjugate_matches_bruteforce_sup(log11, dw):
    # independent oracle: sup over a fine xi grid
    for zeta in (0.5, 1.5, 2.0):
        assert log11.Vstar(zeta) == pytest.approx(
            conjugate_sup(log11, zeta, 1e-6, 20.0), abs=1e-6)
    for zeta in (-2.0, 0.7, 3.0):
        assert dw.Vstar(zeta) == pytest.approx(
            conjugate_sup(dw, zeta, -10.0, 10.0), abs=1e-6)


@pytest.mark.parametrize("energy,points", [
    (QuadraticEnergy(1.0), (-2.0, 0.5, 3.0)),
    (LogNeoHookeanEnergy(1.0, 1.0), (0.2, 1.0, 4.0)),
])
def test_dV_finite_difference_order(energy, points):
    # error at h must shrink at second order (or sit at the roundoff floor,
    # as for the quadratic model whose central difference is exact)
    for xi in points:
        errs = []
        for h in (1e-3, 1e-4):
            fd = (energy.V(xi + h) - energy.V(xi - h)) / (2.0 * h)
            errs.append(abs(fd - energy.dV(xi)))
        if max(errs) <= 1e-10:
            continue
        order = math.log10(errs[0] / errs[1])
        assert order >= 1.9


def test_measure_eval_values():
    assert measure_eval(QuadraticMeasure(1.0, 0.0), [3.0, 4.0]) == 25.0
    assert measure_eval(QuadraticMeasure(0.5, -1.0), [0.0, 0.0]) == -1.0
    assert measure_eval(QuadraticMeasure(0.5, -1.0), [math.sqrt(2.0), 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_measure_objectivity(rng):
    m = QuadraticMeasure(1.0, 0.0)
    for _ in range(100):
        F = rng.standard_normal((3, 3))
        R = random_rotation(rng)
        assert abs(measure_eval(m, R @ F) - measure_eval(m, F)) < 1e-12


def test_measure_directional_split(rng):
    m = QuadraticMeasure(0.5, -1.0)
    for _ in range(50):
        g = rng.standard_normal(2)
        d = rng.standard_normal(2)
        lhs = measure_eval(m, g + d)
        rhs = measure_eval(m, g) + 2.0 * m.a * float(g @ d) + m.a * float(d @ d)
        assert lhs == pytest.approx(rhs, abs=1e-12)
