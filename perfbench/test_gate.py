"""Tests of the benchmark's own checks on down-sized runs of every workload.

    python -m pytest perfbench

Each workload runs once through the real CLI at the "small" size; the gate
must pass on those outputs and fail on each deliberately damaged copy.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _env():
    return dict(os.environ, PYTHONPATH=str(REPO / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1")


def _run(step, tmp: Path, traced: bool = False):
    cfg = tmp / step.config_name
    cfg.write_text(step.config_text, encoding="utf-8")
    outdir = tmp / f"out_{step.name}"
    args = workloads.cli_args(step, str(cfg), str(outdir))
    if traced:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(tmp / f"{step.name}.json"), *args]
    else:
        argv = [sys.executable, "-m", "triality.cli", *args]
    proc = subprocess.run(argv, env=_env(), capture_output=True, timeout=120)
    return outdir, proc.stdout, proc.returncode


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    runs = {}
    for name in workloads.WORKLOADS:
        tmp = tmp_path_factory.mktemp(name)
        wl = workloads.build(name, seed=7, scale="small")
        runs[name] = [(step, *_run(step, tmp)) for step in wl.steps]
    return runs


def _copy(outdir: Path, tmp_path: Path) -> Path:
    dst = tmp_path / outdir.name
    shutil.copytree(outdir, dst)
    return dst


def _edit_line(path: Path, pick, edit) -> None:
    """Apply ``edit`` to the first data line for which ``pick`` holds."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], 1):
        if pick(line):
            new = edit(line)
            if new is None:
                del lines[i]
            else:
                lines[i] = new
            break
    else:
        raise AssertionError(f"no line of {path.name} matched")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_field(line: str, k: int, value: str) -> str:
    parts = line.split(",")
    parts[k] = value
    return ",".join(parts)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_passes_on_small_runs(small_runs, name):
    for step, outdir, stdout, rc in small_runs[name]:
        assert gate.check_step(step, outdir, stdout, rc) == []


def test_small_stream_straddles_fold(small_runs):
    step, outdir, _, _ = small_runs["solve-stream"][0]
    counts = {len(gate.expected_counts(step.model, t2)) and min(gate.expected_counts(step.model, t2))
              for _, _, t2 in step.nodes}
    assert counts == {1, 3}


@pytest.mark.parametrize("edit", ["zeta", "drop", "label", "tau_sq"])
def test_damaged_roots_csv_fails(small_runs, tmp_path, edit):
    step, outdir, stdout, rc = small_runs["solve-stream"][0]
    out = _copy(outdir, tmp_path)
    roots = out / "roots.csv"
    if edit == "zeta":
        _edit_line(roots, lambda ln: ln.split(",")[3] == "2",
                   lambda ln: _set_field(ln, 4, repr(float(ln.split(",")[4]) * (1 + 1e-7))))
    elif edit == "drop":
        _edit_line(roots, lambda ln: ln.split(",")[3] == "3", lambda ln: None)
    elif edit == "label":
        _edit_line(roots, lambda ln: ln.endswith(",saddle"),
                   lambda ln: ln[: -len("saddle")] + "local_max")
    else:
        _edit_line(roots, lambda ln: True,
                   lambda ln: _set_field(ln, 2, repr(float(ln.split(",")[2]) * 1.001)))
    assert gate.check_step(step, out, stdout, rc)


def test_label_counts_must_match(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["solve-const"][0]
    out = _copy(outdir, tmp_path)
    _edit_line(out / "roots.csv", lambda ln: ln.endswith(",local_max"),
               lambda ln: ln[: -len("local_max")] + "saddle")
    assert any("labelled" in p for p in gate.check_step(step, out, stdout, rc))


def test_energy_gap_and_fields_checked(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["solve-const"][0]
    out = _copy(outdir, tmp_path)
    _edit_line(out / "energy_report.csv", lambda ln: True,
               lambda ln: _set_field(ln, 5, "1e-6"))
    assert any("gap" in p for p in gate.check_step(step, out, stdout, rc))
    (tmp_path / "b").mkdir()
    out = _copy(outdir, tmp_path / "b")
    _edit_line(out / "fields_u_2.csv", lambda ln: not ln.startswith("0,0,"),
               lambda ln: _set_field(ln, 2, repr(float(ln.split(",")[2]) + 1e-6)))
    assert any("fields_u_2" in p for p in gate.check_step(step, out, stdout, rc))


@pytest.mark.parametrize("edit", ["drop", "count", "density", "zeta"])
def test_damaged_sweep_csv_fails(small_runs, tmp_path, edit):
    step, outdir, stdout, rc = small_runs["sweep-fold"][0]
    out = _copy(outdir, tmp_path)
    sweep = out / "sweep.csv"
    three = lambda ln: ln.split(",")[1] == "3"  # noqa: E731
    if edit == "drop":
        _edit_line(sweep, three, lambda ln: None)
    elif edit == "count":
        _edit_line(sweep, three, lambda ln: _set_field(ln, 1, "1"))
    elif edit == "density":
        _edit_line(sweep, three, lambda ln: _set_field(ln, 6, repr(float(ln.split(",")[6]) + 1e-6)))
    else:
        _edit_line(sweep, three, lambda ln: _set_field(ln, 3, repr(float(ln.split(",")[3]) * 1.01)))
    assert gate.check_step(step, out, stdout, rc)


def test_malformed_csv_fails(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["sweep-fold"][0]
    out = _copy(outdir, tmp_path)
    _edit_line(out / "sweep.csv", lambda ln: True, lambda ln: _set_field(ln, 1, "three"))
    assert any("malformed" in p for p in gate.check_step(step, out, stdout, rc))


def test_verify_needs_ok_line_and_exit_zero(small_runs):
    for step, outdir, stdout, rc in small_runs["verify-oracle"]:
        assert gate.check_step(step, outdir, stdout, rc) == []
        failed = stdout.replace(b"[verify] OK", b"[verify] FAILED")
        assert gate.check_step(step, outdir, failed, rc)
        assert gate.check_step(step, outdir, stdout, 1)


def test_changed_byte_breaks_determinism(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["solve-stream"][0]
    ref = {step.name: gate.digests(outdir, b"")}
    out = _copy(outdir, tmp_path)
    assert gate.compare_digests(ref, {step.name: gate.digests(out, b"")}, "ref") == []
    data = bytearray((out / "report.txt").read_bytes())
    data[-2] ^= 1
    (out / "report.txt").write_bytes(bytes(data))
    problems = gate.compare_digests(ref, {step.name: gate.digests(out, b"")}, "ref")
    assert problems and "report.txt" in problems[0]


def test_reruns_are_byte_identical(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["solve-const"][0]
    again, _, _ = _run(step, tmp_path)
    assert gate.digests(again, b"") == gate.digests(outdir, b"")


def test_traced_run_matches_and_reports_layers(small_runs, tmp_path):
    step, outdir, stdout, rc = small_runs["solve-const"][0]
    traced, traced_stdout, traced_rc = _run(step, tmp_path, traced=True)
    assert traced_rc == 0
    assert traced_stdout.replace(bytes(traced), b"") == stdout.replace(bytes(outdir), b"")
    assert gate.digests(traced, b"") == gate.digests(outdir, b"")
    doc = json.loads((tmp_path / f"{step.name}.json").read_text())
    m = tracing.layer_metrics([doc], wall_s=10.0)
    n = len(step.nodes)
    assert m["kernels.points"] == n
    assert m["dualsolve.roots_found"] == m["dualsolve.labels"] == 3 * n
    assert m["energies.reports"] == 3 and m["energies.dual_density_calls"] == 3
    assert m["fields.csv_bytes"] == sum((outdir / f"fields_u_{k}.csv").stat().st_size
                                        for k in (1, 2, 3))
    assert m["oracle.starts"] == 0 and m["cli.roots_csv_s"] > 0
    assert 0.0 < m["trace.uncovered_share"] < 1.0


def test_traced_verify_counts_descents(small_runs, tmp_path):
    step = small_runs["verify-oracle"][1][0]
    _, _, rc = _run(step, tmp_path, traced=True)
    assert rc == 0
    doc = json.loads((tmp_path / f"{step.name}.json").read_text())
    m = tracing.layer_metrics([doc], wall_s=10.0)
    assert m["oracle.starts"] == workloads.SIZES["small"]["bar_starts"]
    assert m["oracle.converged_fraction"] > 0 and m["oracle.iters_max"] >= m["oracle.iters_p50"] > 0
    assert m["kernels.grad_calls"] > 0 and 0 < m["oracle.armijo_accept_ratio"] <= 1
    assert m["oracle.gradient_check_s"] > 0 and m["oracle.probe_s"] > 0


def test_self_time_subtracts_children():
    doc = {"names": ["a", "b"], "id": [1, 2, 0], "parent": [0, 0, -1], "name": [1, 1, 0],
           "t0": [1.0, 3.0, 0.0], "t1": [2.0, 3.5, 5.0], "attrs": {}}
    s = tracing.SpanSet([doc])
    assert s.self_time((0, 0)) == pytest.approx(3.5)
    assert s.total("b") == pytest.approx(1.5)
    assert s.roots_total() == pytest.approx(5.0)


def test_tracer_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "src"))
    import triality.dualsolve as dualsolve

    original = dualsolve.label_array
    t = tracing.Tracer()
    t.install()
    assert dualsolve.label_array is not original
    t.restore()
    assert dualsolve.label_array is original
