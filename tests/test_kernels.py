"""Kernel domain policy: a discrete energy outside the xi domain is +inf and
its gradient zero, per start of a batch."""
import numpy as np

from triality import _kernels as K
from triality import LogNeoHookeanEnergy, QuadraticMeasure


def test_log_domain_guard_returns_inf():
    log11, m = LogNeoHookeanEnergy(1.0, 1.0), QuadraticMeasure(1.0, -0.5)
    # start 0 strains every cell; start 1 has a zero-strain first cell: xi = b < 0
    u = np.array([[0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    e = K.stored_energy_1d(u, 0.5, log11, m)
    assert np.isfinite(e[0]) and e[1] == np.inf
    g = np.empty_like(u)
    assert K.stored_energy_grad_1d(u, 0.5, log11, m, g).tolist() == [False, True]
    assert np.all(g[1] == 0.0) and np.any(g[0] != 0.0)
    g0 = np.empty((1, 3))
    assert not K.stored_energy_grad_1d(u[:1], 0.5, log11, m, g0).any()
    assert np.array_equal(g0[0], g[0])
    assert K.stored_energy_1d(u[:1], 0.5, log11, m)[0] == e[0]
    # with b = 0 the zero-strain cell lies on the floor xi = 0: V = 0 there, no gradient term
    m0 = QuadraticMeasure(1.0, 0.0)
    assert np.isfinite(K.stored_energy_1d(u[1:], 0.5, log11, m0)).all()
    assert not K.stored_energy_grad_1d(u[1:], 0.5, log11, m0, g0).any() and np.isfinite(g0).all()

    x, y = np.meshgrid(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3))
    u2 = np.stack([x + 0.5 * y, np.zeros((3, 3))])  # inside; zero strain, xi = b < 0
    e2 = K.stored_energy_2d(u2, 0.5, 0.5, log11, m)
    assert np.isfinite(e2[0]) and e2[1] == np.inf
    g2 = np.empty_like(u2)
    assert K.stored_energy_grad_2d(u2, 0.5, 0.5, log11, m, g2).tolist() == [False, True]
    assert np.all(g2[1] == 0.0) and np.any(g2[0] != 0.0)
    assert K.stored_energy_2d(u2[:1], 0.5, 0.5, log11, m)[0] == e2[0]
    assert np.isfinite(K.stored_energy_2d(u2[1:], 0.5, 0.5, log11, m0)).all()
    assert not K.stored_energy_grad_2d(u2[1:], 0.5, 0.5, log11, m0, g2[1:]).any()
    assert np.isfinite(g2[1]).all()
