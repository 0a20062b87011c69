"""Dual algebraic equation: residuals, root enumeration, folds, triality."""
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triality import (
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
    RootSolveError,
    SingularDualError,
    TrialityLabel,
    fold_threshold,
    label_array,
    solve_roots_array,
)
from triality import _kernels
from triality.dualsolve import _hessian_eigs, paper_eq45
from triality.energies import dual_density

from conftest import DW_MEASURE, SHEAR_MEASURE, dual_residual, roots_at, scan_roots


def test_dual_residual_values(dw, log11):
    # the test oracle and the kernel residual that the solver runs
    for D in (dual_residual, _kernels.residual):
        # double-well: D(z) = 2 z^2 (z + 1) - tau^2
        assert D(dw, DW_MEASURE, 1.0 / 3.0, 8.0 / 27.0) == pytest.approx(0.0, abs=1e-15)
        # log model: D(z) = 4 z^2 exp(z - 2) - tau^2
        assert D(log11, SHEAR_MEASURE, 2.0, 16.0) == pytest.approx(0.0, abs=1e-12)
        # unloaded cubic has the nonzero root z = -1
        assert D(dw, DW_MEASURE, -1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cubic_factorization_at_fold(dw):
    # 2 z^3 + 2 z^2 - 8/27 = 2 (z - 1/3)(z + 2/3)^2
    z, _, labels = roots_at(dw, DW_MEASURE, 8.0 / 27.0)
    assert len(z) == 2
    assert z[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert z[1] == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert labels[1] is TrialityLabel.DEGENERATE
    assert labels[0] is TrialityLabel.GLOBAL_MIN


def test_supercritical_single_root_location(dw):
    # oracle: sign change of 2 z^2 (z+1) - 1 between 0.56 and 0.57
    def D(z):
        return 2.0 * z * z * (z + 1.0) - 1.0

    assert D(0.56) < 0.0 < D(0.57)
    z, _, _ = roots_at(dw, DW_MEASURE, 1.0)
    assert len(z) == 1
    assert 0.56 < z[0] < 0.57
    # polynomial oracle for the same root
    poly_roots = np.roots([2.0, 2.0, 0.0, -1.0])
    real = sorted(float(r.real) for r in poly_roots if abs(r.imag) < 1e-12)
    assert z[0] == pytest.approx(real[-1], abs=1e-12)


def test_subcritical_three_roots_ordered(dw):
    z, _, _ = roots_at(dw, DW_MEASURE, 0.1)
    assert len(z) == 3
    z1, z2, z3 = z
    assert z1 >= 0.0 >= z2 >= z3
    oracle = scan_roots(dw, DW_MEASURE, 0.1)
    assert np.allclose(z, oracle, atol=1e-9)


@pytest.mark.parametrize("tau_sq", [1e-6, 0.01, 0.1, 0.2, 8.0 / 27.0, 0.5, 1.0, 10.0])
def test_roots_match_scan_oracle_double_well(dw, tau_sq):
    z, _, _ = roots_at(dw, DW_MEASURE, tau_sq)
    oracle = scan_roots(dw, DW_MEASURE, tau_sq)
    if abs(tau_sq - 8.0 / 27.0) < 1e-12:
        # the scan sees the double root as 0 or 2 nearby crossings; compare
        # the simple root only
        assert z[0] == pytest.approx(oracle[0], abs=1e-9)
    else:
        assert len(z) == len(oracle)
        assert np.allclose(z, oracle, atol=1e-8)


@pytest.mark.parametrize("tau_sq", [1e-4, 0.05, 0.2, 0.29, 0.4, 1.0, 16.0])
def test_roots_match_scan_oracle_log(log11, tau_sq):
    z, _, _ = roots_at(log11, SHEAR_MEASURE, tau_sq)
    oracle = scan_roots(log11, SHEAR_MEASURE, tau_sq)
    assert len(z) == len(oracle)
    assert np.allclose(z, oracle, atol=1e-8)


def test_unloaded_state(dw, log11):
    assert roots_at(dw, DW_MEASURE, 0.0)[0].tolist() == [-1.0]
    assert roots_at(log11, SHEAR_MEASURE, 0.0)[0].size == 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(0.5, 2.0), st.sampled_from([0.0, 1e-30, 1e-6, 0.3, 4.0]))
def test_quadratic_positive_shift_has_one_root_from_zero_load(b, t2):
    # b > 0: h = 4a*zeta^2*(zeta/alpha - b) is negative on (0, alpha*b) and
    # increasing beyond it, so every load has one root, the unloaded one at
    # zeta = alpha*b
    energy, m = QuadraticEnergy(1.5), QuadraticMeasure(1.0, b)
    z, resid, labels = roots_at(energy, m, t2)
    assert len(z) == 1 and labels[0] is TrialityLabel.GLOBAL_MIN
    if t2 == 0.0:
        assert z.tolist() == [1.5 * b]
    assert np.allclose(z, scan_roots(energy, m, t2), atol=1e-8)
    assert abs(resid[0]) <= 1e-12 * max(1.0, t2)


def test_residual_invariant_on_returned_roots(dw, log11, rng):
    for energy, m in ((dw, DW_MEASURE), (log11, SHEAR_MEASURE)):
        tau_sq = rng.uniform(0.0, 2.0, size=500)
        roots, resid, _, counts = solve_roots_array(energy, m, tau_sq)
        have = ~np.isnan(roots)
        scale = np.broadcast_to(np.maximum(1.0, tau_sq)[:, None], roots.shape)
        assert np.all(np.abs(resid[have]) <= 1e-10 * scale[have])
        assert np.all(counts[tau_sq > 0] >= 1)   # existence for any load
        assert not np.any(roots[have] == 0.0)    # zero branch excluded
        # re-substitution through the independent residual agrees
        for i in map(int, rng.integers(0, 500, size=20)):
            for k in range(3):
                if not np.isnan(roots[i, k]):
                    d = dual_residual(energy, m, roots[i, k], tau_sq[i])
                    assert abs(d) <= 1e-10 * max(1.0, tau_sq[i])


@pytest.mark.parametrize("energy_name", ["dw", "log11"])
def test_root_count_bifurcation(energy_name, request):
    energy = request.getfixturevalue(energy_name)
    m = DW_MEASURE if energy_name == "dw" else SHEAR_MEASURE
    zc, eta = fold_threshold(energy, m)
    eta_sq = eta * eta
    t2 = np.linspace(0.0, 2.0 * eta_sq, 200)
    _, _, _, counts = solve_roots_array(energy, m, t2)
    step = t2[1] - t2[0]
    for v, c in zip(t2, counts):
        if 0.0 < v < eta_sq - step:
            assert c == 3
        elif v > eta_sq + step:
            assert c == 1
    # transition within one step of the closed form
    three = t2[(counts == 3)]
    one = t2[(counts == 1) & (t2 > 0)]
    assert abs(three.max() - eta_sq) <= step
    assert abs(one.min() - eta_sq) <= step


def test_fold_threshold_values(dw, log11):
    zc, eta = fold_threshold(dw, DW_MEASURE)
    assert zc == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert eta * eta == pytest.approx(8.0 / 27.0, abs=1e-15)
    zc, eta = fold_threshold(log11, SHEAR_MEASURE)
    assert zc == -2.0
    assert eta == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)
    zc45, eta45 = fold_threshold(log11, paper_eq45(SHEAR_MEASURE))
    assert zc45 == -2.0
    assert eta45 == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    c2 = 1.7
    zc, _ = fold_threshold(LogNeoHookeanEnergy(0.9, c2), SHEAR_MEASURE)
    assert zc == pytest.approx(-2.0 * c2, abs=1e-15)
    with pytest.raises(NotImplementedError):
        fold_threshold(QuadraticEnergy(1.0), QuadraticMeasure(1.0, 0.0))


def test_classification_cases(dw, log11):
    # positive root of the subcritical double well
    z, _, _ = roots_at(dw, DW_MEASURE, 0.1)
    label = label_array(dw, DW_MEASURE, [[z[0]]], [0.1], [[False]], 1)[0, 0]
    assert label is TrialityLabel.GLOBAL_MIN
    # 1-D log model: scalar Hessian 2*zeta + 4*c2 decides the negative branches
    z1, z2, z3 = roots_at(log11, SHEAR_MEASURE, 0.2)[0]
    assert -2.0 < z2 < 0.0 and z3 < -2.0
    labels = label_array(log11, SHEAR_MEASURE, [[z2], [z3]], [0.2, 0.2], np.zeros((2, 1), bool), 1)
    assert list(labels[:, 0]) == [TrialityLabel.LOCAL_MIN, TrialityLabel.LOCAL_MAX]
    assert 2.0 * z2 + 4.0 > 0.0 > 2.0 * z3 + 4.0
    with pytest.raises(SingularDualError):
        label_array(dw, DW_MEASURE, [[0.0]], [0.1], [[False]], 1)


def test_classification_2d_negative_branch_is_saddle(log11):
    # in 2-D the perpendicular eigenvalue 2 a zeta < 0 makes the middle
    # branch indefinite
    _, _, labels = roots_at(log11, SHEAR_MEASURE, 0.2, dim=2)
    assert labels[0] is TrialityLabel.GLOBAL_MIN
    assert labels[1] is TrialityLabel.SADDLE
    assert labels[2] is TrialityLabel.LOCAL_MAX


def test_dual_density_concavity_around_positive_root(dw, log11, rng):
    for energy, m, tau_sq in ((dw, DW_MEASURE, 0.1), (log11, SHEAR_MEASURE, 0.2)):
        z1 = roots_at(energy, m, tau_sq)[0][0]
        for _ in range(200):
            za = z1 * rng.uniform(0.2, 1.0)
            zb = z1 * rng.uniform(1.0, 3.0)
            mid = 0.5 * (za + zb)
            lhs = dual_density(energy, m, mid, tau_sq)
            rhs = 0.5 * (dual_density(energy, m, za, tau_sq) + dual_density(energy, m, zb, tau_sq))
            assert lhs >= rhs - 1e-12


def test_generic_scan_geometry_log_nonzero_shift(log11):
    # no closed form for the log model with b != 0: with critical points
    # from the scan the piece loop must still enumerate correctly.  b < 0
    # turns the negative branch into a monotone descent from +inf (one extra
    # root); b > 0 kills it.
    for b, want in ((-0.5, 2), (0.5, 1)):
        m = QuadraticMeasure(1.0, b)
        for t2 in (0.3, 2.0):
            z, resid, _ = roots_at(log11, m, t2)
            oracle = scan_roots(log11, m, t2)
            assert len(z) == len(oracle) == want
            assert np.allclose(z, oracle, atol=1e-8)
            assert np.all(np.abs(resid) <= 1e-10 * max(1.0, t2))


def test_generic_scan_keeps_roots_beyond_the_base_grid(log11, monkeypatch):
    # log model, b = -0.5: the negative root sits near -sqrt(tau^2/2), beyond
    # |zeta| = 1e3 once tau^2 > 2e6, where expand has to find it
    m = QuadraticMeasure(1.0, -0.5)
    for t2 in (1e6, 1e7, 1e12):
        roots, _, _, counts = solve_roots_array(log11, m, np.array([t2]))
        assert counts[0] == 2
        assert roots[0, 1] == pytest.approx(-math.sqrt(t2 / 2.0), rel=1e-9)
        assert abs(dual_residual(log11, m, roots[0, 1], t2)) <= 1e-10 * t2
    # there dV*(zeta) underflows to 0.0, the edge of the xi domain: the label
    # takes d2V(xi) as 1/d2V*(zeta) = +inf rather than evaluating d2V at 0
    assert [str(lab) for lab in roots_at(log11, m, 9e6)[2]] == ["global_min", "local_min"]
    # a root the capped expansion cannot bracket is an error, not a drop
    from triality import _kernels
    monkeypatch.setattr(_kernels, "_EXPAND_LIMIT", 1)
    with pytest.raises(RootSolveError):
        solve_roots_array(log11, m, np.array([1e7]))


def test_fold_beyond_the_base_scan_grid():
    # log model, c2 = 1000, b = 0.001: the fold sits at zeta_c = -1961.3,
    # outside |zeta| <= 1e3; the critical-point scan follows the curve out
    energy, m = LogNeoHookeanEnergy(1.0, 1000.0), QuadraticMeasure(1.0, 0.001)
    zc, eta = fold_threshold(energy, m)
    assert zc == pytest.approx(-1961.31, abs=0.01)
    assert eta == pytest.approx(883.24, abs=0.01)
    # three roots below eta^2 = 7.80e5 (7e5 included: the curve there stays
    # below the load out to |zeta| = 1e3 and rises above it beyond), one above
    for t2, want in ((5e5, 3), (7e5, 3), (8e5, 1)):
        roots, _, _, counts = solve_roots_array(energy, m, np.array([t2]))
        assert counts[0] == want and roots[0, 0] > 0.0, t2
        found = roots[0][~np.isnan(roots[0])]
        assert np.all(np.abs(dual_residual(energy, m, found, t2)) <= 1e-10 * t2)


class _Scanned:
    """A built-in energy's formulas behind another class: no closed form
    applies, so the piece ends come from the critical-point scan."""

    def __init__(self, energy):
        self.energy = energy

    def __getattr__(self, name):
        return getattr(self.energy, name)


def test_generic_path_agrees_with_kernel_on_builtins(dw, log11, rng):
    # one piece loop, on ends from the critical-point scan and from the
    # closed forms, gives the same roots
    for energy, m in ((dw, DW_MEASURE), (log11, SHEAR_MEASURE)):
        assert fold_threshold(_Scanned(energy), m).zeta_c == pytest.approx(
            fold_threshold(energy, m).zeta_c, abs=1e-12)
        t2 = np.array([0.0, *rng.uniform(0.0, 1.5, size=25)])
        want, _, _, want_counts = solve_roots_array(energy, m, t2)
        got, _, _, counts = solve_roots_array(_Scanned(energy), m, t2)
        assert np.array_equal(counts, want_counts)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True)
    # the tangent fold root is reported once, as degenerate, by both
    for energy in (dw, _Scanned(dw)):
        z, _, labels = roots_at(energy, DW_MEASURE, 8.0 / 27.0)
        assert [str(lab) for lab in labels] == ["global_min", "degenerate"]
        assert z[1] == pytest.approx(-2.0 / 3.0, abs=1e-9)
    # near-fold root pairs are resolved however close they lie
    eta_sq = 16.0 * math.exp(-4.0)
    for gap in (1e-9, 1e-7, 1e-5):
        t2 = eta_sq * (1.0 - gap)
        got = roots_at(_Scanned(log11), SHEAR_MEASURE, t2)[0]
        ref = roots_at(log11, SHEAR_MEASURE, t2)[0]
        assert len(got) == len(ref) == 3
        assert np.allclose(got, ref, atol=1e-7)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c1=st.floats(0.5, 2.0), c2=st.floats(0.5, 2.0), a=st.floats(0.5, 2.0),
       b=st.floats(0.05, 1.0), b_sign=st.sampled_from((-1.0, 1.0)), tau_sq=st.floats(0.01, 5.0))
def test_log_model_shifted_measure_matches_scan_oracle(c1, c2, a, b, b_sign, tau_sq):
    # b != 0: the piece ends come from the critical-point scan; every root
    # lies well inside the oracle's scan window [-50, 50]
    energy, m = LogNeoHookeanEnergy(c1, c2), QuadraticMeasure(a, b_sign * b)
    z, _, _ = roots_at(energy, m, tau_sq)
    oracle = scan_roots(energy, m, tau_sq)
    assert len(z) == len(oracle)
    assert np.allclose(z, oracle, rtol=1e-8, atol=1e-10)


def test_one_refine_call_per_piece(log11, monkeypatch):
    # every model is solved piece by piece: the refine calls are bounded by
    # the number of pieces, not by the number of loads
    from triality.dualsolve import _curve
    calls = []
    refine = _kernels.refine
    monkeypatch.setattr(_kernels, "refine", lambda *args: calls.append(1) or refine(*args))
    m = QuadraticMeasure(1.0, 0.01)  # no closed form, a fold near zeta = -2
    _, _, _, counts = solve_roots_array(log11, m, np.linspace(0.0, 1.0, 2000))
    assert set(counts.tolist()) >= {1, 3}
    assert 0 < len(calls) <= len(_curve(log11, m).ends) + 1


def test_labels_at_zero_strain_and_extreme_constants():
    # |gamma| = 0 leaves H = 2a*zeta*I however large d2V(xi) is: the
    # unloaded root of the log model with b = 5e-324 is a local maximum
    energy, m = LogNeoHookeanEnergy(1.0, 1.0), QuadraticMeasure(1.0, 5e-324)
    z, _, labels = roots_at(energy, m, 0.0)
    assert len(z) == 1 and z[0] < -2.0
    assert labels[0] is TrialityLabel.LOCAL_MAX
    # also where d2V*(zeta) underflows to 0, so 1/d2V* is +inf
    assert label_array(energy, m, [[-743.49]], [0.0], [[False]], 1)[0, 0] is TrialityLabel.LOCAL_MAX
    # c2 = 1e308: 1/d2V*(zeta) overflows to +inf, without a warning
    _, _, labels = roots_at(LogNeoHookeanEnergy(1.0, 1e308), QuadraticMeasure(1.0, -1.0), 0.25)
    assert list(labels) == [TrialityLabel.GLOBAL_MIN, TrialityLabel.LOCAL_MIN]


def test_tiny_measure_a_bends_without_nan(log11):
    # a = 1e-300 underflows 4a^2*zeta^2 to 0; the bend term d2V*tau^2/zeta^2
    # never forms it, so d2V*(zeta) = 0 gives along = +inf (a local minimum)
    # where 0*inf used to give nan and the label fell through to saddle
    m = QuadraticMeasure(1e-300, -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, _, labels = roots_at(log11, m, 0.25)
        along, perp = _hessian_eigs(log11, m, z[1:], np.array([0.25]))
    assert len(z) == 2 and z[1] < 0.0 and log11.d2Vstar(z[1]) == 0.0
    assert not np.isnan(along[0]) and along[0] == math.inf and perp[0] < 0.0
    assert list(labels) == [TrialityLabel.GLOBAL_MIN, TrialityLabel.LOCAL_MIN]


@pytest.mark.parametrize("energy,m,count", [
    (QuadraticEnergy(1.0), DW_MEASURE, 3),
    (LogNeoHookeanEnergy(1.0, 1.0), SHEAR_MEASURE, 3),
    (LogNeoHookeanEnergy(1.0, 1.0), QuadraticMeasure(1.0, -0.5), 2),
], ids=["double-well", "log", "generic-log"])
def test_paper_eq45_convention_log_roots(energy, m, count):
    # the single-factor curve of eq. (45), z^2*(dV*(z) - b) = tau^2, is the
    # dual equation of the measure (1/4, b): its roots solve the residual
    # written out here, and the scan oracle finds as many
    tau_sq, m45 = 0.04, paper_eq45(m)
    z = roots_at(energy, m45, tau_sq)[0]
    assert np.all(np.abs(z * z * (energy.dVstar(z) - m.b) - tau_sq) <= 1e-10)
    oracle = scan_roots(energy, m45, tau_sq)
    assert len(z) == len(oracle) == count
    assert np.allclose(z, oracle, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("energy,m", [(QuadraticEnergy(1.0), DW_MEASURE),
                                      (LogNeoHookeanEnergy(1.0, 1.0), QuadraticMeasure(1.0, -0.5))],
                         ids=["closed-form", "generic-scan"])
def test_newton_nonconvergence_raises_with_best_iterate(energy, m, monkeypatch):
    # with no Newton steps allowed no bracket converges; the error carries
    # the bracket midpoint and its residual, both finite
    monkeypatch.setattr(_kernels, "MAX_ITER", 0)
    with pytest.raises(RootSolveError) as info:
        solve_roots_array(energy, m, np.array([0.1]))
    err = info.value
    assert math.isfinite(err.best_zeta) and math.isfinite(err.best_residual)
    assert abs(err.best_residual) > 1e-12


def test_integer_model_constants_give_the_float_roots():
    # int constants used to make int brackets on the batch path (RootSolveError)
    for energy, fenergy, m, fm in (
            (QuadraticEnergy(2), QuadraticEnergy(2.0), QuadraticMeasure(1, -1), QuadraticMeasure(1.0, -1.0)),
            (LogNeoHookeanEnergy(1, 2), LogNeoHookeanEnergy(1.0, 2.0), QuadraticMeasure(1, 0),
             QuadraticMeasure(1.0, 0.0))):
        for t2 in (0.0, 0.2, 5.0):
            got, want = roots_at(energy, m, t2), roots_at(fenergy, fm, t2)
            assert got[0].tolist() == want[0].tolist() and list(got[2]) == list(want[2])
    assert type(QuadraticEnergy(2).alpha) is float
    assert type(QuadraticMeasure(1, -1).b) is float


def test_readme_library_example_runs(capsys):
    # the README's library block is run as written: at tau^2 = 0.2 the log
    # model has three labelled roots, at tau^2 = 1.0 one
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, flags=re.M | re.S)
    exec(block.group(1), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FoldThreshold(zeta_c=-2.0")
    assert [line.split()[2] for line in lines[1:]] == ["global_min", "local_min", "local_max",
                                                       "global_min"]
