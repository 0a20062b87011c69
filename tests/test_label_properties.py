"""Property test: triality labels against a finite-difference Hessian.

For random material constants and log-uniform subcritical loads, every root
from solve_roots_array is labelled by label_array and checked against the
spectrum of a central-difference Hessian of the composed stored energy
W(gamma) = V(a|gamma|^2 + b) at gamma = tau/(2a*zeta).  W and dV* are written
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

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.filter_too_much])


def _model(kind, p1, p2):
    """(energy, measure, W, dVstar): W the composed stored energy over gamma[..., d]."""
    if kind == "double_well":
        m = QuadraticMeasure(0.5, -1.0)

        def V(xi):
            return 0.5 * p1 * xi * xi

        def dVstar(zeta):
            return zeta / p1
        energy = QuadraticEnergy(p1)
    else:
        m = QuadraticMeasure(1.0, 0.0)

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
       p1=st.floats(0.2, 5.0), p2=st.floats(0.2, 5.0),
       log_ratio=st.floats(-8.0, -0.01), theta=st.floats(0.0, 2.0 * math.pi))
def test_labels_match_fd_hessian(kind, p1, p2, log_ratio, theta):
    energy, m, W, dVstar = _model(kind, p1, p2)
    t2 = fold_threshold(energy, m).eta ** 2 * 10.0 ** log_ratio
    roots, _, degenerate, counts = solve_roots_array(energy, m, np.array([t2]))
    assert counts[0] == 3 and not degenerate.any()
    zetas = roots[0]
    t2_exact = np.array([4.0 * m.a * z * z * (dVstar(z) - m.b) for z in zetas])
    # the finite-difference step follows the strain scale of W: the wells of
    # the double well at |gamma| = sqrt(-b/a), |gamma| itself for the log model
    scale = math.sqrt(-m.b / m.a) if m.b < 0.0 else 0.0
    for dim, direction in ((1, np.array([1.0])),
                           (2, np.array([math.cos(theta), math.sin(theta)]))):
        labels = label_array(energy, m, zetas[:, None], t2_exact,
                             np.zeros((3, 1), dtype=bool), dim)[:, 0]
        for zeta, tk2, label in zip(zetas, t2_exact, labels):
            tau = math.sqrt(tk2) * direction
            gamma = tau / (2.0 * m.a * zeta)
            h = 1e-4 * max(float(np.linalg.norm(gamma)), scale)
            eigs = _fd_hessian(W, gamma, h)
            assume(np.all(np.abs(eigs) > 1e-6 * (1.0 + np.max(np.abs(eigs)))))
            assert label is _expected(zeta, eigs), (dim, zeta, eigs)


def test_label_array_marks_missing_and_fold_slots():
    energy, m, _, _ = _model("double_well", 1.0, 0.0)
    roots = np.array([[1.0 / 3.0, -2.0 / 3.0, np.nan]])
    labels = label_array(energy, m, roots, np.array([8.0 / 27.0]), np.array([[False, True, False]]), 1)
    assert labels.dtype == object
    assert list(labels[0]) == [TrialityLabel.GLOBAL_MIN, TrialityLabel.DEGENERATE, None]


def test_zero_root_is_singular():
    energy, m, _, _ = _model("log_neohookean", 1.0, 1.0)
    with pytest.raises(SingularDualError):
        label_array(energy, m, np.array([[0.5, 0.0, np.nan]]), np.array([0.2]),
                    np.zeros((1, 3), dtype=bool), 2)
