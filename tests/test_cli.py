"""End-to-end CLI pipelines: solve, sweep, verify, exit codes, determinism."""
import contextlib
import gc
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triality import _kernels, config, dualsolve, fields, oracle
from triality.cli import (
    branch_label_name,
    full_branches,
    main,
    solve_instance,
    write_roots_csv,
)
from triality.config import parse_config
from triality.dualsolve import TrialityLabel
from triality.errors import ConfigError

from conftest import dual_residual, read_csv, reference_csv, shipped_verify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(args):
    return main([str(a) for a in args])


def read_roots_csv(path):
    """roots.csv rows as (floats..., label string)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(tuple(float(v) for v in parts[:-1]) + (parts[-1],))
    return header, rows


def test_solve_fold_instance(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["solve", CONFIGS / "doublewell_1d.cfg", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "global_min" in text and "degenerate" in text
    header, roots = read_roots_csv(out / "roots.csv")
    assert header == ["x", "y", "tau_sq", "k", "zeta", "residual", "label"]
    assert {r[-1] for r in roots} == {"global_min", "degenerate"}
    # report lists 1/3 and -2/3 with branch-1 energy -5/6 * length
    lines = (out / "energy_report.csv").read_text().splitlines()
    assert lines[0] == "tau_sq,zeta,label,primal,dual,gap"
    b1, b2 = (line.split(",") for line in lines[1:3])
    assert float(b1[1]) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert float(b1[3]) == pytest.approx(-5.0 / 6.0, abs=1e-10)
    assert b1[2] == "global_min"
    assert float(b2[1]) == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert (out / "fields_u_1.csv").exists() and (out / "fields_u_2.csv").exists()


def test_solve_supercritical_rect_single_branch(tmp_path):
    out = tmp_path / "o"
    assert run(["solve", CONFIGS / "log_rect_const.cfg", "--out", out]) == 0
    files = sorted(p.name for p in out.glob("fields_u_*.csv"))
    assert files == ["fields_u_1.csv"]  # exactly one branch emitted
    report = (out / "report.txt").read_text()
    assert "duality-gap check: OK" in report


def test_solve_stream_partial_branches(tmp_path):
    out = tmp_path / "o"
    assert run(["solve", CONFIGS / "doublewell_rect_stream.cfg", "--out", out]) == 0
    report = (out / "report.txt").read_text()
    assert "partial branches" in report
    assert "reconstruction skipped" in report  # zeta varies: field not integrable


def test_roots_csv_round_trip_revalidates(tmp_path):
    out = tmp_path / "o"
    assert run(["solve", CONFIGS / "log_1d_sub.cfg", "--out", out]) == 0
    spec = parse_config(CONFIGS / "log_1d_sub.cfg")
    _, rows = read_roots_csv(out / "roots.csv")
    assert len(rows) == 5 * 3
    for x, y, tau_sq, k, zeta, resid, _label in rows:
        d = dual_residual(spec.energy, spec.measure, zeta, tau_sq)
        assert abs(d) <= 1e-10 * max(1.0, tau_sq)


def test_solve_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", CONFIGS / "doublewell_rect_stream.cfg", "--out", out1]) == 0
    assert run(["solve", CONFIGS / "doublewell_rect_stream.cfg", "--out", out2]) == 0
    for name in ("roots.csv", "energy_report.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    out3 = tmp_path / "c"
    assert run(["solve", CONFIGS / "log_1d_sub.cfg", "--out", out3]) == 0
    assert run(["solve", CONFIGS / "log_1d_sub.cfg", "--out", out3]) == 0
    ref = tmp_path / "d"
    assert run(["solve", CONFIGS / "log_1d_sub.cfg", "--out", ref]) == 0
    assert (out3 / "fields_u_1.csv").read_bytes() == (ref / "fields_u_1.csv").read_bytes()


def _roots_reference(sol) -> str:
    """roots.csv through the full-length gather: every (node, slot) row at once,
    the coordinates from the grid's own meshgrid."""
    node, k = np.nonzero(~np.isnan(sol.roots)[sol.load])
    at = sol.load[node]
    X, Y = sol.spec.geometry.coords()
    labels = np.array([str(TrialityLabel(lab)) for lab in sol.labels[at, k]], dtype=object)
    return reference_csv("x,y,tau_sq,k,zeta,residual,label",
                         [X.ravel()[node], Y.ravel()[node], sol.loads[at], k + 1,
                          sol.roots[at, k], sol.residuals[at, k], labels])


def _resized(tmp_path, name, n, *edits):
    text = (CONFIGS / name).read_text()
    for old, new in (("nx = 17\nny = 17", f"nx = {n}\nny = {n}"), *edits):
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / f"{n}_{name}"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("name,edit", [("doublewell_rect_stream.cfg", ("origin_y = 1.0", "origin_y = 1.37")),
                                       ("log_rect_const.cfg", ("tau_x = 0.8", "tau_x = 0.3"))],
                         ids=["distinct-loads", "constant-load"])
def test_multi_block_roots_csv_bytes(tmp_path, name, edit):
    # 53x53 = 2809 nodes: two full blocks of CSV_BLOCK_ROWS // 3 nodes and a
    # partial one, each written before the next is gathered
    cfg = _resized(tmp_path, name, 53, edit)
    sol = solve_instance(parse_config(cfg))
    step = fields.CSV_BLOCK_ROWS // 3
    assert sol.load.size > 2 * step and sol.load.size % step
    counts = set(sol.counts[sol.load].tolist())
    if name == "log_rect_const.cfg":
        assert sol.loads.size == 1 and counts == {3}
    else:
        assert sol.loads.size == sol.load.size and counts == {1, 3}
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "roots.csv").read_bytes() == _roots_reference(sol).encode("utf-8")


@pytest.mark.parametrize("name,edits", [("doublewell_rect_stream.cfg", ()),
                                        ("log_rect_const.cfg", (("tau_x = 0.8", "tau_x = 0.3"),))],
                         ids=["stream", "constant-load"])
def test_write_roots_csv_memory_does_not_grow_with_the_grid(tmp_path, name, edits):
    """The traced peak of write_roots_csv on a rectangle with 3x the nodes
    differs from that of the smaller one by less than one block of
    formatted text."""
    peaks = {}
    for n in (71, 123):
        sol = solve_instance(parse_config(_resized(tmp_path, name, n, *edits)))
        path = tmp_path / f"roots{n}.csv"
        tracemalloc.start()
        write_roots_csv(sol, path)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    with open(path, "rb") as fh:
        lines = fh.readlines()
    block_text = sum(map(len, lines[1:fields.CSV_BLOCK_ROWS + 1]))
    assert abs(peaks[123] - peaks[71]) < block_text, (peaks, block_text)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_branch_label_name_is_the_one_label_or_mixed():
    sol = solve_instance(parse_config(CONFIGS / "doublewell_rect_stream.cfg"))
    assert full_branches(sol) == [0] and sol.loads.size > 1
    assert branch_label_name(sol, 0) == "global_min"
    # a full branch whose roots carry two labels
    labels = sol.labels.copy()
    labels[-1, 0] = TrialityLabel.LOCAL_MIN
    assert branch_label_name(sol._replace(labels=labels), 0) == "mixed"


@pytest.mark.parametrize("name", ["doublewell_rect_stream.cfg", "log_rect_const.cfg"])
def test_solve_works_once_per_distinct_load(tmp_path, monkeypatch, name):
    # psi = s*(x^2 - y^2) on a square grid gives mirrored nodes the same
    # tau^2; a constant load gives every node the same one
    spec = parse_config(CONFIGS / name)
    tau = config.build_tau_grid(spec).reshape(-1, 2)
    tau_sq = np.sum(tau * tau, axis=-1)
    distinct = np.unique(tau_sq).size
    assert distinct == 1 if name == "log_rect_const.cfg" else 1 < distinct < tau_sq.size
    roots, resid, degenerate, counts = dualsolve.solve_roots_array(
        spec.energy, spec.measure, tau_sq)
    labels = dualsolve.label_array(spec.energy, spec.measure, roots, degenerate, spec.dim)

    sizes = []
    batch = _kernels.solve_roots_batch

    def counted(energy, m, t2, *curve):
        sizes.append(t2.size)
        return batch(energy, m, t2, *curve)

    monkeypatch.setattr(_kernels, "solve_roots_batch", counted)
    sol = solve_instance(spec)
    assert sizes == [distinct]
    node = sol.load
    assert np.array_equal(_bits(sol.loads[node]), _bits(tau_sq))
    assert np.array_equal(_bits(sol.roots[node]), _bits(roots))
    assert np.array_equal(_bits(sol.residuals[node]), _bits(resid))
    assert np.array_equal(sol.labels[node] == TrialityLabel.DEGENERATE, degenerate)
    assert np.array_equal(sol.counts[node], counts)
    assert np.array_equal(sol.labels[node], labels)

    out = tmp_path / "o"
    assert run(["solve", CONFIGS / name, "--out", out]) == 0
    X, Y = spec.geometry.coords()
    lines = ["x,y,tau_sq,k,zeta,residual,label"]
    for i, (x, y) in enumerate(zip(X.ravel(), Y.ravel())):
        lines += ["%.17g,%.17g,%.17g,%d,%.17g,%.17g,%s"
                  % (x, y, tau_sq[i], k + 1, roots[i, k], resid[i, k], TrialityLabel(labels[i, k]))
                  for k in range(3) if not np.isnan(roots[i, k])]
    assert (out / "roots.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_sweep_transition_and_rows(tmp_path):
    out = tmp_path / "s"
    eta = 4.0 * math.exp(-2.0)
    assert run(["sweep", CONFIGS / "log_1d_sub.cfg", "--tau-min", 0, "--tau-max",
                2 * eta, "--steps", 101, "--out", out]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header[:5] == ["tau", "root_count", "zeta1", "zeta2", "zeta3"]
    assert rows.shape[0] == 101
    taus, counts = rows[:, 0], rows[:, 1]
    step = (taus[1] - taus[0]) * (1.0 + 1e-12)
    three = taus[counts == 3]
    one = taus[(counts == 1) & (taus > 0)]
    assert abs(three.max() - eta) <= step
    assert abs(one.min() - eta) <= step
    header, hh = read_csv(out / "hcurve.csv")
    assert header == ["zeta", "h_derived", "h_paper45"]
    # both convention curves peak at zeta_c = -2 with eta and eta/2
    zc_rows = hh[np.abs(hh[:, 0] + 2.0) < 5e-3]
    assert abs(zc_rows[:, 1].max() - eta) < 1e-3
    assert abs(zc_rows[:, 2].max() - eta / 2.0) < 1e-3
    # figure curves: W double well with wells at |gamma| = exp(-1), depth -exp(-2)
    header, wc = read_csv(out / "wcurve.csv")
    assert header == ["gamma", "W", "dW"]
    assert wc[:, 1].min() == pytest.approx(-math.exp(-2.0), abs=1e-5)
    header, gc = read_csv(out / "gcurve.csv")
    assert header == ["gamma", "G_tau_lo", "G_tau_fold", "G_tau_hi"]
    i = np.argmin(np.abs(gc[:, 0] - 1.0))
    assert gc[i, 3] == pytest.approx(wc[i, 1] - gc[i, 0] * 2 * eta, abs=1e-12)
    header, gd = read_csv(out / "gdcurve.csv")
    assert header == ["zeta", "Gd_tau_lo", "Gd_tau_fold", "Gd_tau_hi"]
    assert not np.any(gd[:, 0] == 0.0)


def test_generic_measure_override_end_to_end(tmp_path, capsys):
    # log model with a shifted measure, b = -0.5: its curve has no critical
    # point (x = -e^4 < -1/e), and solve and verify must still exit 0
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "model = log_neohookean\nmeasure_b = -0.5\ngeometry = interval\n"
        "length = 1\nn = 5\nfixed_edges = left\nloading = constant_tau\n"
        "tau_x = 0.6\noracle_starts = 20\noracle_seed = 7\n")
    out = tmp_path / "o"
    assert run(["solve", cfg, "--out", out]) == 0
    report = (out / "report.txt").read_text()
    assert "duality-gap check: OK" in report
    capsys.readouterr()
    assert run(["verify", cfg]) == 0
    # the random check point has xi <= 0 in every cell: nothing to compare
    assert "SKIP gradient check: no node compared" in capsys.readouterr().out


def test_oracle_runs_where_two_fixed_edges_meet(tmp_path, capsys):
    # where two fixed edges meet, the corner cell takes both differences
    # along fixed lines, so xi = b = 0 there for every field: the floor of the
    # closed domain, not outside it.  The constant-strain branch 1 meets
    # u = 0 on every fixed node only when the load has no component along a
    # fixed edge; otherwise the discrete minimum lies above Pi_d and only
    # weak duality is checked.
    cfg = tmp_path / "c.cfg"
    for fixed, tau_x, tau_y, oracle_check in (
            ("left,bottom", 0.8, 0.3, "PASS oracle weak duality"),
            ("left", 0.8, 0.3, "PASS oracle weak duality"),
            ("bottom", 0.8, 0.0, "PASS oracle weak duality"),
            ("left,right", 0.8, 0.0, "PASS oracle weak duality"),
            ("bottom", 0.0, 0.8, "PASS oracle agreement")):
        cfg.write_text(
            "model = log_neohookean\ngeometry = rectangle\nlx = 1\nly = 1\nnx = 9\nny = 9\n"
            f"fixed_edges = {fixed}\nloading = constant_tau\ntau_x = {tau_x}\ntau_y = {tau_y}\n"
            "oracle_starts = 6\noracle_seed = 20240811\n")
        assert run(["verify", cfg]) == 0, fixed
        out = capsys.readouterr().out
        converged = re.search(r"converged = (\d+)/6 starts", out)
        assert converged and int(converged.group(1)) >= 1, fixed
        assert oracle_check in out, fixed
        weak = oracle_check.endswith("weak duality")
        assert ("on a fixed edge: exact match not required" in out) == weak, fixed
        assert "PASS gradient check" in out and "SKIP gradient check" not in out, fixed


def test_interval_fixed_right_end(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(
        "model = double_well\ngeometry = interval\nlength = 1\nn = 9\n"
        "fixed_edges = right\nloading = constant_tau\ntau_x = 1.0\n"
        "oracle_starts = 10\noracle_seed = 5\n")
    out = tmp_path / "o"
    assert run(["solve", cfg, "--out", out]) == 0
    _, rows = read_csv(out / "fields_u_1.csv")
    u = rows[:, 2]
    assert u[-1] == 0.0          # anchored at the fixed right end
    assert abs(u[0]) > 0.1       # linear ramp toward the traction end
    assert run(["verify", cfg]) == 0


def test_sweep_two_rows(tmp_path):
    out = tmp_path / "s"
    assert run(["sweep", CONFIGS / "doublewell_1d.cfg", "--tau-min", 0.1,
                "--tau-max", 0.9, "--steps", 2, "--out", out]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert rows.shape[0] == 2


#: "status check" of every verify line, in order, per shipped config
_VERIFY_1D_TAIL = ("PASS gradient check", "SKIP curl/path audit", "PASS quasiconvexity probe")
SHIPPED_VERDICTS = {
    "doublewell_1d.cfg": ("PASS duality-gap branch 1", "PASS duality-gap branch 2",
                          "PASS root residuals", "PASS oracle weak duality") + _VERIFY_1D_TAIL,
    "doublewell_1d_sub.cfg": ("PASS duality-gap branch 1", "PASS duality-gap branch 2",
                              "PASS duality-gap branch 3", "PASS root residuals",
                              "PASS oracle weak duality") + _VERIFY_1D_TAIL,
    "log_1d_sub.cfg": ("PASS duality-gap branch 1", "PASS duality-gap branch 2",
                       "PASS duality-gap branch 3", "PASS root residuals",
                       "PASS oracle weak duality") + _VERIFY_1D_TAIL,
    "log_1d_super.cfg": ("PASS duality-gap branch 1", "PASS root residuals",
                         "PASS oracle agreement") + _VERIFY_1D_TAIL,
    # oracle: non-constant load; curl/path: the field is not integrable
    "doublewell_rect_stream.cfg": ("PASS duality-gap branch 1", "PASS root residuals",
                                   "SKIP oracle agreement", "PASS gradient check",
                                   "SKIP curl/path audit", "PASS quasiconvexity probe"),
    "log_rect_const.cfg": ("PASS duality-gap branch 1", "PASS root residuals",
                           "PASS oracle agreement", "PASS gradient check",
                           "PASS curl/path audit", "PASS quasiconvexity probe"),
}


def test_verify_shipped_configs_pass():
    assert sorted(SHIPPED_VERDICTS) == sorted(p.name for p in CONFIGS.glob("*.cfg"))
    for name, want in SHIPPED_VERDICTS.items():
        code, out = shipped_verify(name)
        assert code == 0, name
        got = re.findall(r"^\[verify\] (PASS|FAIL|SKIP) ([^:]+):", out, flags=re.M)
        assert tuple(f"{status} {check}" for status, check in got) == want, name


def test_verify_rect_constant_load_passes_curl_audit(tmp_path, capsys):
    # a constant load on a rectangle gives a curl-free branch-1 strain, so the
    # curl/path audit reconstructs the field and compares the two paths
    cfg = tmp_path / "rect.cfg"
    text = (CONFIGS / "log_rect_const.cfg").read_text()
    cfg.write_text(text.replace("oracle_starts = 6", "oracle_starts = 1"))
    assert run(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS curl/path audit" in out
    assert "OK: 6/6" in out


def test_solve_reconstructs_the_linear_field_on_a_thin_rectangle(tmp_path):
    # at ly = 1e-11 the stencil's rounding on a constant strain, about
    # ulp(gamma)/hy, lies far above CURL_RTOL*max|gamma|; the audit's rounding
    # floor accepts it, and the field is u = tau_x/(2a*zeta)*x
    cfg = _resized(tmp_path, "log_rect_const.cfg", 5, ("ly = 1.0", "ly = 1e-11"))
    out = tmp_path / "o"
    assert run(["solve", cfg, "--out", out]) == 0
    assert "branch 1: displacement written to fields_u_1.csv" in (out / "report.txt").read_text()
    spec = parse_config(cfg)
    _, rows = read_roots_csv(out / "roots.csv")
    zeta = {r[4] for r in rows}
    assert len(zeta) == 1 and {r[3] for r in rows} == {1.0}
    _, data = read_csv(out / "fields_u_1.csv")
    want = spec.loading.vec[0] / (2.0 * spec.measure.a * zeta.pop()) * data[:, 0]
    assert np.max(np.abs(data[:, 2] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name,load", [("log_1d_super.cfg", "tau_x = 1.0"),
                                       ("log_rect_const.cfg", "tau_x = 0.8")],
                         ids=["interval", "rectangle"])
def test_verify_unloaded_log_model_skips_with_reasons(tmp_path, capsys, name, load):
    # tau = 0: the log model has no dual root at any node, so there is no
    # residual to re-validate and no branch 1 for the oracle to match
    text = (CONFIGS / name).read_text()
    assert load in text
    cfg = tmp_path / name
    cfg.write_text(text.replace(load, "tau_x = 0.0"))
    assert run(["verify", cfg]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    got = re.findall(r"^\[verify\] (PASS|FAIL|SKIP) ([^:]+): (.+)$", captured.out, flags=re.M)
    assert [(status, check) for status, check, _ in got] == [
        ("SKIP", "root residuals"), ("SKIP", "oracle agreement"), ("PASS", "gradient check"),
        ("SKIP", "curl/path audit"), ("SKIP", "quasiconvexity probe")]
    reasons = {check: reason for status, check, reason in got if status == "SKIP"}
    assert reasons["root residuals"] == "no dual root at any node"
    assert reasons["oracle agreement"].startswith("no branch 1 at every node")
    # the summary counts the checks that ran, not the SKIPs
    assert captured.out.endswith("[verify] OK: 1/1 checks passed\n")


def test_verify_falls_back_to_weak_duality_without_branch_1(tmp_path, capsys, monkeypatch):
    # a refused branch-1 field (here an overflow, patched in) leaves the
    # oracle check at weak duality with the reason, and SKIPs the path audit
    monkeypatch.setattr(fields, "reconstruct_displacement",
                        lambda grid, zeta, tau, m: np.full(grid.shape, np.inf))
    cfg = tmp_path / "rect.cfg"
    cfg.write_text((CONFIGS / "log_rect_const.cfg").read_text()
                   .replace("oracle_starts = 6", "oracle_starts = 1"))
    assert run(["verify", cfg]) == 0
    out = capsys.readouterr().out
    refused = "the path integral of the dual strain is not finite at every node"
    assert re.search(rf"^\[verify\] PASS oracle weak duality: .*\(branch 1 not reconstructed "
                     rf"\({refused}\): exact match not required\)$", out, flags=re.M)
    assert f"SKIP curl/path audit: {refused}; reconstruction not applicable" in out
    assert out.endswith("[verify] OK: 5/5 checks passed\n")


def test_residual_convention_flag_is_refused(tmp_path, capsys):
    # the measure comes from the config only: no command takes a flag that
    # swaps it, and the refusal comes before any output directory is made
    sweep = ["--tau-min", "0", "--tau-max", "1", "--steps", "5"]
    for command, extra in (("solve", []), ("sweep", sweep), ("verify", [])):
        out = [] if command == "verify" else ["--out", tmp_path / command]
        with pytest.raises(SystemExit) as info:
            run([command, CONFIGS / "log_1d_sub.cfg", *out, *extra,
                 "--residual-convention", "paper-eq45"])
        assert info.value.code == 2, command
        assert "--residual-convention" in capsys.readouterr().err, command
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stem", ["log_1d_sub", "doublewell_1d"])
def test_sweep_to_the_largest_valid_load_runs_clean(stem, tmp_path, capsys):
    # tau-max^2 is finite, so the sweep is valid; its dual densities at
    # tau^2 ~ 1e308 overflow to inf, which is data, not a RuntimeWarning
    # (every warning is an error in this suite)
    out = tmp_path / "out"
    assert run(["sweep", CONFIGS / f"{stem}.cfg", "--out", out, "--tau-min", "0",
                "--tau-max", "1e154", "--steps", "3"]) == 0
    capsys.readouterr()
    assert (out / "gdcurve.csv").is_file()


def test_verify_counts_violating_segments(capsys):
    # the probe line counts segments: one that violates at several thetas
    # counts once
    cfg = CONFIGS / "doublewell_1d_sub.cfg"
    spec = parse_config(cfg)
    tau = np.sqrt(solve_instance(spec).loads[:1])
    viols = oracle.gquasiconvexity_probe(spec.energy, spec.measure, tau, seed=spec.oracle.seed)
    first = viols.segment == viols.segment[0]
    assert np.count_nonzero(first) > 1 and np.all(viols.gamma1[first] == viols.gamma1[0])
    segments = np.unique(viols.segment).size
    assert 1 <= segments < len(viols)
    assert run(["verify", cfg]) == 0
    assert f"multi-branch load: {segments} violations in 10000 segments" in capsys.readouterr().out


def test_missing_fixed_edge_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "model = double_well\ngeometry = rectangle\nnx = 5\nny = 5\n"
        "fixed_edges =\nloading = constant_tau\ntau_x = 1.0\n")
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "mixed boundary conditions" in err


def test_unknown_key_and_corrupt_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = double_well\nwibble = 3\n")
    assert run(["verify", cfg]) == 2
    assert "wibble" in capsys.readouterr().err
    # settings that no longer exist are unknown keys like any other
    for key in ("scan_points = 10000", "curl_tol = 1e-6", "tol = 1e-12", "max_iter = 200",
                "oracle_span = 2.0"):
        cfg.write_text((CONFIGS / "log_rect_const.cfg").read_text() + key + "\n")
        assert run(["verify", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err
    cfg.write_text("model double_well\n")
    assert run(["verify", cfg]) == 2
    assert run(["solve", tmp_path / "missing.cfg"]) == 2
    # malformed numbers and flags: exit 2 with a message, never a traceback
    base = (CONFIGS / "log_1d_sub.cfg").read_text()
    rect = (CONFIGS / "doublewell_rect_stream.cfg").read_text()
    for text, line, want in (
            (rect, "stream_scale = nan", "stream_scale"), (rect, "stream_scale = inf", "stream_scale"),
            (rect, "stream_scale = 1e308", "loading"), (base, "tau_x = nan", "tau_x"),
            (base, "tau_x = inf", "tau_x"), (base, "tau_x = 1e200", "loading"),
            (base, "length = inf", "length"), (base, "oracle_starts = 0", "oracle_starts"),
            (base, "oracle_starts = 1e18", "oracle_starts"),
            (rect, "lx = 5e-324", "lx"), (rect, "lx = -1", "lx"),
            (rect, "fixed_edges = left,north", "fixed_edges"),
            (rect, "fixed_edges = ,", "fixed_edges"),
            (base, "n = 1e12", "'n'"),
            (base, "model = mooney_rivlin", "'model'"), (base, "geometry = disc", "'geometry'"),
            (base, "loading = gravity", "'loading'"),
            (base, "loading = stream_function", "requires rectangle geometry"),
            (rect, "stream = cubic", "'stream'"), (rect, "nx = 2", "at least 3 nodes"),
            (rect, "nx = 60000", f"more than {config.MAX_NODES} nodes"),
            (rect, "fixed_edges = left,right,bottom,top", "all edges fixed"),
            # four real roots: a model outside the supported family
            (base, "measure_b = -0.001", "more than three")):
        key = line.split("=")[0].strip()
        cfg.write_text("".join(ln + "\n" for ln in text.splitlines()
                               if ln.split("=")[0].strip() != key) + line + "\n")
        assert run(["solve", cfg, "--out", tmp_path / "o"]) == 2, line
        assert want in capsys.readouterr().err, line
    for text, want in ((base + "n = 7\n", "duplicate config key 'n'"),
                       (base.replace("tau_x", "# tau_x"), "missing required config key 'tau_x'")):
        cfg.write_text(text)
        assert run(["solve", cfg, "--out", tmp_path / "o"]) == 2, want
        assert want in capsys.readouterr().err, want
    for flags in (("--tau-max", "inf"), ("--tau-max", "nan"), ("--tau-min", "nan"),
                  ("--tau-max", "1e200"), ("--steps", str(10**12))):
        args = dict((("--tau-min", "0"), ("--tau-max", "1.1"), ("--steps", "50"), flags))
        assert run(["sweep", CONFIGS / "log_1d_sub.cfg", "--out", tmp_path / "s",
                    *[v for kv in args.items() for v in kv]]) == 2, flags
        assert "sweep needs" in capsys.readouterr().err, flags


def test_verify_takes_no_out_flag(tmp_path, capsys):
    # verify writes no file, so --out is an argparse error there
    with pytest.raises(SystemExit) as info:
        run(["verify", CONFIGS / "log_1d_sub.cfg", "--out", tmp_path / "d"])
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _table_keys(lines):
    """Config keys named in the first column of a schema table: comma lists,
    with "measure_a/_b" short for measure_a and measure_b."""
    keys = set()
    for line in lines:
        for name in re.split(r"\s{2,}", line.strip())[0].split(", "):
            stem, _, alt = name.partition("/_")
            keys.add(stem)
            if alt:
                keys.add(stem.rsplit("_", 1)[0] + "_" + alt)
    return keys


def test_schema_tables_list_exactly_the_config_keys():
    # the README table and the config module docstring restate the schema
    readme = (CONFIGS.parent / "README.md").read_text().split("## Configuration files", 1)[1]
    table = readme.split("```", 2)[1].strip().splitlines()
    assert _table_keys(table) == config._KEYS
    schema = config.__doc__.split("Schema (unknown keys are rejected):", 1)[1]
    rows = [ln for ln in schema.split("Every number", 1)[0].splitlines()
            if ln.startswith("    ") and not ln.startswith("     ")]
    assert _table_keys(rows) == config._KEYS


def test_config_validation_details(tmp_path):
    base = ("model = log_neohookean\ngeometry = interval\nlength = 1\nn = 5\n"
            "loading = constant_tau\ntau_x = 1.0\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(base + "c2 = -1\n")
    with pytest.raises(ConfigError, match="c2"):
        parse_config(cfg)
    cfg.write_text(base.replace("n = 5", "n = 1"))
    with pytest.raises(ConfigError, match="'n'"):
        parse_config(cfg)
    cfg.write_text(base + "fixed_edges = left,right\n")
    with pytest.raises(ConfigError, match="fixed"):
        parse_config(cfg)
    cfg.write_text(base.replace("tau_x = 1.0", "tau_x = 1.0\ntau_y = 1.0"))
    with pytest.raises(ConfigError, match="tau_y"):
        parse_config(cfg)
    cfg.write_text(base)
    spec = parse_config(cfg)._replace(loading=config.StreamLoading("linear"))
    with pytest.raises(ConfigError, match="constant_tau"):
        config.build_tau_interval(spec)


#: a small solve config and the edge-case strings fed to its numeric keys
FUZZ_BASE = {"model": "log_neohookean", "geometry": "interval", "length": "1", "n": "5",
             "loading": "constant_tau", "tau_x": "0.5"}
FUZZ_KEYS = ("c1", "c2", "measure_a", "measure_b", "length", "n", "tau_x", "oracle_starts",
             "oracle_seed")
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324", "2.5", "", "abc")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES))
def test_config_fuzzing_exits_cleanly(tmp_path_factory, key, value):
    d = tmp_path_factory.mktemp("fuzz")
    cfg = d / "f.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, key: value}.items()))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(["solve", cfg, "--out", d / "o"])
    assert code in (0, 1, 2, 3), (key, value)
    if value in ("nan", "inf", "-inf"):
        assert code == 2, (key, value)


@pytest.mark.parametrize("extra", [
    {"c2": "1e308", "measure_a": "5e-324"},
    {"c2": "1e308", "length": "1e308"},
    {"measure_b": "2.5", "length": "1e308"},
])
def test_extreme_constants_flag_the_gap_without_warnings(tmp_path, capsys, extra):
    # the energy sums overflow: the report shows a red-flagged gap, and
    # filterwarnings = error turns any numpy RuntimeWarning into a failure
    cfg = tmp_path / "f.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, **extra}.items()))
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 0
    assert "RED FLAG: duality gap exceeds tolerance" in capsys.readouterr().out


def test_fold_beyond_the_float_range_keeps_both_roots(tmp_path, capsys):
    # c2 = 1e308 puts the log model's fold at -2*c2, beyond the float range:
    # solve reports no fold and keeps the negative root at every node
    cfg = tmp_path / "f.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, "c2": "1e308"}.items()))
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 0
    out = capsys.readouterr().out
    assert "fold: none (no single negative fold)" in out
    assert "root counts over 5 nodes: min=2 max=2" in out


def test_four_real_roots_exit_2(tmp_path, capsys):
    # measure_b = -1e-30 lies in (-e^(-4 - c1/c2)/2, 0): the load of
    # log_1d_sub has four real dual roots, which solve refuses with exit 2
    cfg = tmp_path / "f.cfg"
    cfg.write_text((CONFIGS / "log_1d_sub.cfg").read_text() + "measure_b = -1e-30\n")
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 2
    assert "more than three real dual roots" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", [{"geometry": "interval", "length": "1e308", "n": "5"},
                                      {"geometry": "rectangle", "lx": "1e308", "nx": "5", "ny": "5"}],
                         ids=["interval", "rectangle"])
def test_overflowing_displacement_is_skipped(tmp_path, capsys, geometry):
    # u = gamma*x passes float64's range on either geometry: one rule refuses
    # the field and writes no file, and filterwarnings = error turns any
    # numpy RuntimeWarning into a failure
    cfg = tmp_path / "f.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
        "model": "double_well", **geometry, "loading": "constant_tau", "tau_x": "100"}.items()))
    assert run(["solve", cfg, "--out", tmp_path / "o"]) == 0
    assert ("branch 1: reconstruction skipped (the path integral of the dual strain is not "
            "finite at every node)") in capsys.readouterr().out
    assert not list((tmp_path / "o").glob("fields_u_*.csv"))


def test_probe_skips_without_a_strain_sample_in_the_domain(tmp_path, capsys):
    # a = 1e-300 keeps a*|gamma|^2 + b = -0.5 below the log model's domain
    # for every strain in the probe's box: the probe has no admissible
    # segment end, so it reports SKIP with its reason instead of a verdict;
    # filterwarnings = error turns any numpy RuntimeWarning into a failure
    cfg = tmp_path / "f.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
        **FUZZ_BASE, "measure_a": "1e-300", "measure_b": "-0.5"}.items()))
    assert run(["verify", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "[verify] FAIL duality-gap branch 1", "[verify] PASS duality-gap branch 2",
        "[verify] PASS root residuals", "[verify] FAIL oracle agreement",
        "[verify] SKIP gradient check", "[verify] SKIP curl/path audit",
        "[verify] SKIP quasiconvexity probe", "[verify] FAILED"]
    assert lines[-2] == ("[verify] SKIP quasiconvexity probe: 10000 of 10000 strain samples "
                         "in [-3, 3]^1 stay below Lambda = xi_min + 1e-06 after 1000 redraws")
    assert lines[-1] == "[verify] FAILED: 2/4 checks passed"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_overflowed_stream_is_a_loading_error(tmp_path, capsys, command):
    # psi = s*(x^2 - y^2) overflows on this rectangle: the tau^2 check
    # refuses the load before any root is solved, without a numpy warning
    cfg = tmp_path / "s.cfg"
    cfg.write_text("model = double_well\ngeometry = rectangle\nlx = 1e308\nnx = 5\nny = 5\n"
                   "loading = stream_function\nstream = quadratic\nstream_scale = 1e308\n")
    out = ["--out", tmp_path / "o"] if command == "solve" else []
    assert run([command, cfg, *out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: loading: ")
    assert captured.out == ""


@pytest.mark.parametrize("command, text, code", [
    ("solve", (CONFIGS / "log_rect_const.cfg").read_text(), 0),
    ("verify", (CONFIGS / "log_1d_super.cfg").read_text(), 0),
    ("solve", "model double_well\n", 2),
    # the root kernel stops short of its tolerance near zeta = -1e4: exit 3
    ("solve", "model = double_well\nalpha = 1e4\ngeometry = interval\nn = 5\n"
              "loading = constant_tau\ntau_x = 0.7071067811865476\n", 3),
], ids=["solve", "verify", "malformed", "solver-failure"])
def test_process_entry_matches_main(tmp_path, capsysbinary, monkeypatch, command, text, code):
    # python -m triality.cli runs entry(), which freezes the GC before the
    # interpreter shuts down; its exit code, stdout, stderr and files must
    # be those of main() on the same argv, and main() leaves the GC alone
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    argv = [command, str(cfg)] + (["--out", "out"] if command == "solve" else [])
    inproc, proc = tmp_path / "inproc", tmp_path / "proc"
    inproc.mkdir()
    proc.mkdir()
    monkeypatch.chdir(inproc)
    assert main(argv) == code
    assert gc.get_freeze_count() == 0
    captured = capsysbinary.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.run([sys.executable, "-m", "triality.cli", *argv], cwd=proc, env=env,
                           capture_output=True, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files(proc) == files(inproc)


def _modules_after(argv) -> set[str]:
    """Names in sys.modules of a fresh interpreter once main(argv) returned 0."""
    program = "import sys\nfrom triality.cli import main\nprint(main(sys.argv[1:]), *sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.run([sys.executable, "-c", program, *map(str, argv)], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    code, *names = child.stdout.splitlines()[-1].split()
    assert code == "0"
    return set(names)


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
def test_commands_import_only_what_they_use(tmp_path, command):
    # solve and sweep never load the oracle or the FFT it applies K^-1 with,
    # verify never loads the CSV text module; no command loads numpy.ma,
    # whose import alone costs about 10 ms, dataclasses (the records are
    # NamedTuples, which generate no methods with exec at import) or
    # numpy.random (the oracle draws from the stdlib's random.Random)
    argv = {"solve": ["solve", CONFIGS / "log_rect_const.cfg", "--out", tmp_path],
            "sweep": ["sweep", CONFIGS / "log_1d_sub.cfg", "--tau-min", "0", "--tau-max", "1",
                      "--steps", "50", "--out", tmp_path],
            "verify": ["verify", CONFIGS / "log_rect_const.cfg"]}[command]
    modules = _modules_after(argv)
    assert ("triality.oracle" in modules) == (command == "verify")
    assert ("numpy.fft" in modules) == (command == "verify")
    assert ("triality._csvtext" in modules) == (command != "verify")
    assert "numpy.ma" not in modules
    assert "dataclasses" not in modules
    assert "numpy.random" not in modules
