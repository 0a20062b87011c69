"""Shared fixtures and independent numeric oracles for the test suite.

The oracles here deliberately avoid the library's own solution paths:
roots come from dense sign scans refined by bisection (or numpy.roots for
the cubic), conjugates from a brute-force sup over a fine grid.
"""
import numpy as np
import pytest

from triality import (
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    V,
    dVstar,
)
from triality.dualsolve import residual_factor

DW_MEASURE = QuadraticMeasure(a=0.5, b=-1.0)
SHEAR_MEASURE = QuadraticMeasure(a=1.0, b=0.0)


@pytest.fixture
def dw():
    return QuadraticEnergy(alpha=1.0)


@pytest.fixture
def log11():
    return LogNeoHookeanEnergy(c1=1.0, c2=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)


def bisect(fn, lo, hi, iters=200):
    """Plain bisection; assumes a sign change on [lo, hi]."""
    flo = fn(lo)
    assert flo * fn(hi) <= 0.0, "oracle bisection needs a bracketing interval"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def scan_roots(energy, m, tau_sq, lo=-50.0, hi=50.0, n=400_001, convention="derived"):
    """All nonzero dual roots by dense sign scan + bisection (independent oracle)."""
    f = residual_factor(m, convention)

    def D(z):
        return f * z * z * (dVstar(energy, z) - m.b) - tau_sq

    grid = np.linspace(lo, hi, n)
    grid = grid[np.abs(grid) > 1e-9]
    vals = D(grid)
    roots = []
    for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
        r = grid[i] if vals[i] == 0.0 else bisect(D, grid[i], grid[i + 1])
        if not any(abs(r - p) < 1e-7 for p in roots):
            roots.append(r)
    return sorted(roots, reverse=True)


def read_csv(path):
    """(column names, data array) of an all-float CSV written by the library."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    return header, data


def conjugate_sup(energy, zeta, xi_lo, xi_hi, n=2_000_001):
    """Brute-force Legendre conjugate sup_xi (xi*zeta - V(xi)) on a grid."""
    xi = np.linspace(xi_lo, xi_hi, n)
    return float(np.max(xi * zeta - V(energy, xi)))
