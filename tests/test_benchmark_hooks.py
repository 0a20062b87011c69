"""The benchmark's contracts with the library.

`perfbench/tracing.py` swaps timing wrappers into module attributes by name
with a bare getattr, so a deleted or renamed target crashes every traced
benchmark run, and a caller that no longer looks a target up by that name
silently empties its per-layer metric.  `perfbench/gate.py` passes a
`verify` step only if its last stdout line matches `_VERIFY_OK`.
`perfbench/workloads.py` builds the command line of every step, so a deleted
or renamed CLI flag fails every run of that workload.  These tests keep all
three in step with the library.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from triality.cli import _build_parser, main

from conftest import shipped_verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # a dataclass looks its module up by name
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve_to_callables():
    targets = _load("tracing").TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is not a callable"


def test_tracer_targets_are_called_by_the_pipelines(tmp_path, monkeypatch, capsys):
    # oracle.descend is off verify's path, which descends all starts at once
    # (descend_batch); the run record of ROADMAP item 9 deletes it
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, attr, _, _ in _load("tracing").TARGETS:
        mod = importlib.import_module(modname)
        calls[modname, attr] = 0
        monkeypatch.setattr(mod, attr, counting((modname, attr), getattr(mod, attr)))
    for name in ("log_1d_sub.cfg", "log_rect_const.cfg"):
        assert main(["solve", str(CONFIGS / name), "--out", str(tmp_path / name)]) == 0
        assert main(["verify", str(CONFIGS / name)]) == 0
    assert main(["sweep", str(CONFIGS / "log_1d_sub.cfg"), "--out", str(tmp_path / "sweep"),
                 "--tau-min", "0", "--tau-max", "1.1", "--steps", "50"]) == 0
    capsys.readouterr()
    del calls["triality.oracle", "descend"]
    assert [key for key, n in calls.items() if n == 0] == []


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_verify_ends_with_the_gate_ok_line(config, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # gate.py imports workloads.py by name
    verify_ok = _load("gate")._VERIFY_OK
    code, out = shipped_verify(config.name)
    assert code == 0
    match = verify_ok.match(out.splitlines()[-1])
    assert match and match.group(1) == match.group(2)


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_command_lines_parse(name):
    workloads = _load("workloads")
    parser = _build_parser()
    for step in workloads.build(name, seed=1, scale="small").steps:
        args = parser.parse_args(workloads.cli_args(step, step.config_name, "out"))
        assert args.command == step.command and args.config == step.config_name
