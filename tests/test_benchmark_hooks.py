"""The benchmark tracer's patch targets exist in the library.

`perfbench/tracing.py` swaps timing wrappers into module attributes by name
with a bare getattr, so a deleted or renamed target crashes every traced
benchmark run.  This keeps the names and the library in step.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve_to_callables():
    targets = _tracing_module().TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is not a callable"
