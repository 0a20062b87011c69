"""Canonical energies, conjugates, and the quadratic measure family."""
import math

import numpy as np
import pytest

from triality import (
    DomainError,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    V,
    Vstar,
    d2V,
    dV,
    dVstar,
    duality_identity_residual,
    measure_eval,
)
from triality.canonical import xi_domain

from conftest import conjugate_sup


def test_log_values(log11):
    assert V(log11, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert V(log11, math.e) == pytest.approx(2.0 * math.e, rel=1e-15)
    assert dV(log11, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert d2V(log11, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert Vstar(log11, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert dVstar(log11, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert dVstar(log11, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_quadratic_values(dw):
    assert V(dw, 0.0) == 0.0
    assert Vstar(dw, 0.0) == 0.0
    xi = np.linspace(-4, 4, 101)
    assert np.allclose(dV(dw, xi), xi)          # identity map for alpha = 1
    assert np.allclose(dVstar(dw, dV(dw, xi)), xi)
    e2 = QuadraticEnergy(alpha=2.5)
    assert Vstar(e2, 5.0) == pytest.approx(5.0, abs=1e-14)  # zeta^2 / (2 alpha)


def test_log_domain_rejected(log11):
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            V(log11, bad)
        with pytest.raises(DomainError):
            dV(log11, bad)
        with pytest.raises(DomainError):
            d2V(log11, bad)
    with pytest.raises(DomainError):
        V(log11, np.array([1.0, -0.5]))


def test_material_constants_validated():
    with pytest.raises(DomainError):
        LogNeoHookeanEnergy(c1=0.0, c2=1.0)
    with pytest.raises(DomainError):
        LogNeoHookeanEnergy(c1=1.0, c2=-2.0)
    with pytest.raises(DomainError):
        QuadraticEnergy(alpha=0.0)
    with pytest.raises(DomainError):
        QuadraticMeasure(a=-1.0)


def test_domains(dw, log11):
    assert xi_domain(dw) == (-math.inf, math.inf)
    assert xi_domain(log11) == (0.0, math.inf)


@pytest.mark.parametrize("energy,xi_lo,xi_hi", [
    (QuadraticEnergy(1.0), -5.0, 5.0),
    (QuadraticEnergy(3.0), -5.0, 5.0),
    (LogNeoHookeanEnergy(1.0, 1.0), 1e-3, 10.0),
    (LogNeoHookeanEnergy(0.5, 2.0), 1e-3, 10.0),
])
def test_duality_identity_sweep(energy, xi_lo, xi_hi):
    xi = np.linspace(xi_lo, xi_hi, 10_000)
    res = duality_identity_residual(energy, xi)
    scale = np.maximum(1.0, np.abs(xi * dV(energy, xi)))
    assert np.all(res <= 1e-10 * scale)


@pytest.mark.parametrize("energy,xi_lo,xi_hi", [
    (QuadraticEnergy(1.0), -5.0, 5.0),
    (LogNeoHookeanEnergy(1.0, 1.0), 1e-3, 10.0),
])
def test_inverse_map_and_convexity(energy, xi_lo, xi_hi):
    xi = np.linspace(xi_lo, xi_hi, 10_000)
    assert np.all(d2V(energy, xi) > 0.0)
    back = dVstar(energy, dV(energy, xi))
    assert np.max(np.abs(back - xi) / np.maximum(1e-300, np.abs(xi))) <= 1e-9


def test_conjugate_matches_bruteforce_sup(log11, dw):
    # independent oracle: sup over a fine xi grid
    for zeta in (0.5, 1.5, 2.0):
        assert Vstar(log11, zeta) == pytest.approx(
            conjugate_sup(log11, zeta, 1e-6, 20.0), abs=1e-6)
    for zeta in (-2.0, 0.7, 3.0):
        assert Vstar(dw, zeta) == pytest.approx(
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
            fd = (V(energy, xi + h) - V(energy, xi - h)) / (2.0 * h)
            errs.append(abs(fd - dV(energy, xi)))
        if max(errs) <= 1e-10:
            continue
        order = math.log10(errs[0] / errs[1])
        assert order >= 1.9


def test_measure_eval_values():
    assert measure_eval(QuadraticMeasure(1.0, 0.0), [3.0, 4.0]) == 25.0
    assert measure_eval(QuadraticMeasure(0.5, -1.0), [0.0, 0.0]) == -1.0
    assert measure_eval(QuadraticMeasure(0.5, -1.0), [math.sqrt(2.0), 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_measure_objectivity(rng):
    from triality.energies import random_rotation
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
