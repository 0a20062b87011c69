"""Property test: triality labels against a finite-difference Hessian.

For random material constants, log-model measure shifts b of both signs and
log-uniform subcritical loads, every root from solve_roots_array is labelled
by label_array and checked against the spectrum of a central-difference
Hessian of the composed stored energy W(gamma) = V(a|gamma|^2 + b) at
gamma = tau/(2a*zeta).  W and dV* are written
out here from the model formulas, independent of the library's energy code.

Each root zeta_k is paired with the load it solves exactly,
tau_k^2 = 4a*zeta_k^2*(dV*(zeta_k) - b), which differs from the drawn tau^2
only by the solver's residual; the check is then about labelling alone and
not about root accuracy (at tiny loads the residual tolerance alone moves the
small Hessian eigenvalue 2a*zeta_1).
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from triality import (
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    SingularDualError,
    TrialityLabel,
    fold_threshold,
    label_array,
    solve_roots_array,
)
from triality import cli
from triality.canonical import TOL

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.filter_too_much])


def _model(kind, p1, p2, b=0.0):
    """(energy, measure, W, dVstar): W the composed stored energy over gamma[..., d];
    b is the log model's measure shift."""
    if kind == "double_well":
        m = QuadraticMeasure(0.5, -1.0)

        def V(xi):
            return 0.5 * p1 * xi * xi

        def dVstar(zeta):
            return zeta / p1
        energy = QuadraticEnergy(p1)
    else:
        m = QuadraticMeasure(1.0, b)

        def V(xi):
            return p1 * xi + p2 * xi * np.log(xi)

        def dVstar(zeta):
            return math.exp((zeta - p1) / p2 - 1.0)
        energy = LogNeoHookeanEnergy(p1, p2)

    def W(gamma):
        return V(m.a * np.sum(gamma * gamma, axis=-1) + m.b)
    return energy, m, W, dVstar


def _fd_hessian(W, gamma, h):
    """Central-difference Hessian: (W(++) - W(+-) - W(-+) + W(--)) / 4h^2."""
    d = gamma.size
    e = h * np.eye(d)
    H = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            H[i, j] = (W(gamma + e[i] + e[j]) - W(gamma + e[i] - e[j])
                       - W(gamma - e[i] + e[j]) + W(gamma - e[i] - e[j])) / (4.0 * h * h)
    return np.linalg.eigvalsh(0.5 * (H + H.T))


def _expected(zeta, eigs):
    if zeta > 0.0:
        assert np.all(eigs > 0.0), "positive root must be a strict local minimizer of W"
        return TrialityLabel.GLOBAL_MIN
    if np.all(eigs > 0.0):
        return TrialityLabel.LOCAL_MIN
    if np.all(eigs < 0.0):
        return TrialityLabel.LOCAL_MAX
    return TrialityLabel.SADDLE


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["double_well", "log_neohookean"]),
       p1=st.floats(0.2, 5.0), p2=st.floats(0.2, 5.0), sign=st.sampled_from([-1, 0, 1]),
       log_b=st.floats(0.01, 1.0), log_ratio=st.floats(-8.0, -0.01),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_labels_match_fd_hessian(kind, p1, p2, sign, log_b, log_ratio, theta):
    # log-model shifts: b > 0 around e^(-1 - c1/c2), above which the negative
    # side has no fold, b < 0 up to 10x below the four-root window
    # -e^(-4 - c1/c2)/2 < b < 0
    edge = math.exp(-1.0 - p1 / p2)
    if sign > 0:
        b = edge * 10.0 ** (3.0 * log_b - 2.5)
    else:
        b = sign * 0.5 * edge * math.exp(-3.0) * 10.0 ** log_b
    energy, m, W, dVstar = _model(kind, p1, p2, b)
    if kind == "log_neohookean" and b < 0.0:
        # no critical point: one negative root, on the piece that falls from
        # +inf; the load scale is h(-c2)
        t2, count = 4.0 * p2 * p2 * (dVstar(-p2) - b) * 10.0 ** log_ratio, 2
    else:
        try:
            eta = fold_threshold(energy, m).eta
        except NotImplementedError:
            assume(False)
        t2, count = eta ** 2 * 10.0 ** log_ratio, 3
        # for b > 0, h < 0 left of its negative zero; under the absolute stop
        # rule (ROADMAP item 1) a root of a load below TOL may land there and
        # solve no load at all, so the exact-load pairing needs t2 > 10*TOL
        assume(b <= 0.0 or t2 > 10.0 * TOL)
    roots, _, degenerate, counts = solve_roots_array(energy, m, np.array([t2]))
    assert counts[0] == count and not degenerate.any()
    zetas = roots[0, :count]
    t2_exact = np.array([4.0 * m.a * z * z * (dVstar(z) - m.b) for z in zetas])
    for dim, direction in ((1, np.array([1.0])),
                           (2, np.array([math.cos(theta), math.sin(theta)]))):
        labels = label_array(energy, m, zetas[:, None], np.zeros((count, 1), dtype=bool), dim)[:, 0]
        for zeta, tk2, label in zip(zetas, t2_exact, labels):
            tau = math.sqrt(tk2) * direction
            gamma = tau / (2.0 * m.a * zeta)
            # the finite-difference step follows the strain scale of W: the
            # wells of the double well at |gamma| = sqrt(-b/a); sqrt(xi/a) for
            # the log model (|gamma| at b = 0), which keeps the stencil in xi > 0
            if kind == "double_well":
                h = 1e-4 * max(float(np.linalg.norm(gamma)), math.sqrt(-m.b / m.a))
            else:
                h = 1e-4 * math.sqrt(dVstar(zeta) / m.a)
            eigs = _fd_hessian(W, gamma, h)
            assume(np.all(np.abs(eigs) > 1e-6 * (1.0 + np.max(np.abs(eigs)))))
            assert label == _expected(zeta, eigs), (dim, zeta, eigs)


def test_label_array_marks_missing_and_fold_slots():
    energy, m, _, _ = _model("double_well", 1.0, 0.0)
    roots = np.array([[1.0 / 3.0, -2.0 / 3.0, np.nan]])
    labels = label_array(energy, m, roots, np.array([[False, True, False]]), 1)
    assert labels.dtype == np.int8
    assert labels.tolist() == [[1, 5, 0]]
    assert list(labels[0]) == [TrialityLabel.GLOBAL_MIN, TrialityLabel.DEGENERATE, 0]
    # the codes are the label values, and the CSV text stays the former
    # string value of each label
    names = ["global_min", "local_min", "local_max", "saddle", "degenerate"]
    assert [(lab.value, str(lab), format(lab), str(cli._LABEL_NAMES[lab]))
            for lab in TrialityLabel] == [(i, n, n, n) for i, n in enumerate(names, 1)]


def test_zero_root_is_singular():
    energy, m, _, _ = _model("log_neohookean", 1.0, 1.0)
    with pytest.raises(SingularDualError):
        label_array(energy, m, np.array([[0.5, 0.0, np.nan]]), np.zeros((1, 3), dtype=bool), 2)
