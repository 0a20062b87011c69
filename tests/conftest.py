"""Shared fixtures and independent numeric oracles for the test suite.

The oracles here deliberately avoid the library's own solution paths:
roots come from dense sign scans refined by bisection (or numpy.roots for
the cubic), conjugates from a brute-force sup over a fine grid, the dual
residual from the energy's dV* alone and CSV bytes from one per-row
%-template.  roots_at is the one exception: it runs the library's root path
at a single load.  shipped_verify runs `verify` on a shipped config once per
session for the tests that check its output.
"""
import contextlib
import functools
import io
from pathlib import Path

import numpy as np
import pytest

from triality import (
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
)
from triality.cli import main
from triality.dualsolve import label_array, solve_roots_array

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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


@functools.cache
def shipped_verify(name: str) -> tuple[int, str]:
    """(exit code, stdout) of `verify` on configs/<name>, run once."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", str(CONFIGS / name)])
    return code, out.getvalue()


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


def dual_residual(energy, m, zeta, tau_sq):
    """D(zeta) = 4a*zeta^2*(dV*(zeta) - b) - tau^2, vectorized in zeta."""
    return 4.0 * m.a * zeta * zeta * (energy.dVstar(zeta) - m.b) - tau_sq


def roots_at(energy, m, tau_sq, dim=1):
    """(zetas, residuals, labels) of every dual root at one load, descending,
    from solve_roots_array + label_array, the calls the pipelines make."""
    roots, resid, degenerate, _ = solve_roots_array(energy, m, np.array([tau_sq], dtype=float))
    labels = label_array(energy, m, roots, degenerate, dim)[0]
    have = ~np.isnan(roots[0])
    return roots[0][have], resid[0][have], labels[have]


def scan_roots(energy, m, tau_sq, lo=-50.0, hi=50.0, n=400_001):
    """All nonzero dual roots by dense sign scan + bisection (independent oracle)."""
    def D(z):
        return dual_residual(energy, m, z, tau_sq)

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


def reference_csv(header, columns) -> str:
    """Every row through one %-template: "%.17g" floats, "%d" ints, "%s" else."""
    cols = [np.asarray(c) for c in columns]
    fmt = {"f": "%.17g", "i": "%d", "u": "%d"}
    template = ",".join(fmt.get(c.dtype.kind, "%s") for c in cols) + "\n"
    rows = zip(*(c.tolist() for c in cols))
    return header + "\n" + "".join(template % row for row in rows)


def conjugate_sup(energy, zeta, xi_lo, xi_hi, n=2_000_001):
    """Brute-force Legendre conjugate sup_xi (xi*zeta - V(xi)) on a grid."""
    xi = np.linspace(xi_lo, xi_hi, n)
    return float(np.max(xi * zeta - energy.V(xi)))


# ---------------------------------------------------------------------------
# 3-D measure, rotation and axial-shear geometry behind C10 and C11
# ---------------------------------------------------------------------------

#: orthonormality and det = 1 tolerance of a rotation matrix
ROTATION_TOL = 1e-12


class InvalidRotationError(ValueError):
    """Matrix fails the orthonormality / unit-determinant check."""


def measure_eval(m, gamma):
    """Lambda(gamma) = a*|gamma|^2 + b for a vector or matrix gamma."""
    g = np.asarray(gamma, dtype=float)
    return m.a * float(np.sum(g * g)) + m.b


def check_rotation(R) -> None:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidRotationError(f"rotation must be 3x3, got {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > ROTATION_TOL or abs(np.linalg.det(R) - 1.0) > ROTATION_TOL:
        raise InvalidRotationError(f"matrix fails orthonormality / det = 1 check (tol {ROTATION_TOL:g})")


def rotation_invariance_check(m, F, T, R):
    """(|Lambda(RF) - Lambda(F)|, |tr((RF)^T (RT)) - tr(F^T T)|).

    Both vanish for any rotation R: the measure is objective and the loading
    work is invariant under a common rotation of stress and deformation.
    """
    check_rotation(R)
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    lam_res = abs(measure_eval(m, R @ F) - measure_eval(m, F))
    work_res = abs(float(np.sum((R @ F) * (R @ T))) - float(np.sum(F * T)))
    return lam_res, work_res


def random_rotation(rng):
    """Haar-ish random rotation from a QR-orthonormalized Gaussian matrix."""
    A = rng.standard_normal((3, 3))
    Q, Rm = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(Rm))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def antiplane_deformation_gradient(grad_u):
    """3x3 deformation gradient of an axial shear with in-plane gradient grad_u."""
    g1, g2 = (float(v) for v in np.asarray(grad_u, dtype=float).ravel())
    F = np.eye(3)
    F[2, 0] = g1
    F[2, 1] = g2
    return F


def principal_invariants(F):
    """(I1, I2, I3) of C = F^T F."""
    C = F.T @ F
    i1 = float(np.trace(C))
    i2 = 0.5 * (i1 * i1 - float(np.trace(C @ C)))
    i3 = float(np.linalg.det(C))
    return i1, i2, i3
