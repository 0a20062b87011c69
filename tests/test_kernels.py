"""Kernel domain policy: a discrete energy outside the xi domain is +inf."""
import numpy as np

from triality import _kernels as K
from triality import LogNeoHookeanEnergy, QuadraticMeasure


def test_log_domain_guard_returns_inf():
    log11, m = LogNeoHookeanEnergy(1.0, 1.0), QuadraticMeasure(1.0, 0.0)
    u = np.array([0.0, 0.0, 1.0])  # first cell has zero strain: xi = 0
    g = np.empty_like(u)
    assert K.stored_energy_grad_1d(u, 0.5, log11, m, g) == np.inf
    u2 = np.zeros((3, 3))
    g2 = np.empty_like(u2)
    assert K.stored_energy_grad_2d(u2, 0.5, 0.5, log11, m, g2) == np.inf
