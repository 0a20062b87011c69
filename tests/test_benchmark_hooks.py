"""The benchmark's contracts with the library.

`perfbench/tracing.py` swaps timing wrappers into module attributes by name
with a bare getattr, so a deleted or renamed target crashes every traced
benchmark run.  `perfbench/gate.py` passes a `verify` step only if its last
stdout line matches `_VERIFY_OK`.  These tests keep both in step with the
library.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from triality.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve_to_callables():
    targets = _load("tracing").TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is not a callable"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_verify_ends_with_the_gate_ok_line(config, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # gate.py imports workloads.py by name
    verify_ok = _load("gate")._VERIFY_OK
    assert main(["verify", str(config)]) == 0
    match = verify_ok.match(capsys.readouterr().out.splitlines()[-1])
    assert match and match.group(1) == match.group(2)
