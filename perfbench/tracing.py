"""Outside-in layer tracing of the triality CLI.

``Tracer.install`` swaps timing wrappers into the module attributes that the
CLI pipelines look up at call time (``triality.dualsolve.label_array``,
``triality.oracle.descend``, ``triality._kernels.stored_energy_grad_2d`` and
so on) and ``Tracer.restore`` puts the originals back.  Spans are kept in
memory, each with its parent's id, and written out once at the end.

``layer_metrics`` turns the span files of one traced operation into the
per-layer metrics the benchmark reports.
"""
from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _roots_attrs(args, kwargs, res):
    return {"points": int(res[0].shape[0])}


def _solve_attrs(args, kwargs, res):
    _, _, degenerate, counts = res
    return {"roots": int(np.sum(counts)), "degenerate": int(np.sum(degenerate))}


def _labels_attrs(args, kwargs, res):
    return {"labels": int(sum(v is not None for v in res.flat))}


def _bytes_attrs(args, kwargs, res):
    return {"bytes": os.path.getsize(args[0])}


def _descend_attrs(args, kwargs, res):
    return {"iterations": int(res.iterations), "converged": bool(res.converged)}


#: (module, attribute, span name, attribute extractor)
TARGETS = (
    ("triality.cli", "parse_config", "config.parse", None),
    ("triality.cli", "build_tau_grid", "config.tau", None),
    ("triality.cli", "build_tau_interval", "config.tau", None),
    ("triality.oracle", "build_tau_grid", "config.tau", None),
    ("triality.oracle", "build_tau_interval", "config.tau", None),
    ("triality.cli", "run_solve", "cli.pipeline", None),
    ("triality.cli", "run_sweep", "cli.pipeline", None),
    ("triality.cli", "run_verify", "cli.pipeline", None),
    ("triality.cli", "write_roots_csv", "cli.roots_csv", None),
    ("triality.cli", "_write_rows", "cli.rows_csv", _bytes_attrs),
    ("triality._kernels", "solve_roots_batch", "kernels.roots", _roots_attrs),
    ("triality._kernels", "stored_energy_1d", "kernels.energy", None),
    ("triality._kernels", "stored_energy_2d", "kernels.energy", None),
    ("triality._kernels", "stored_energy_grad_1d", "kernels.grad", None),
    ("triality._kernels", "stored_energy_grad_2d", "kernels.grad", None),
    ("triality.dualsolve", "solve_roots_array", "dualsolve.solve", _solve_attrs),
    ("triality.dualsolve", "label_array", "dualsolve.labels", _labels_attrs),
    ("triality.energies", "make_energy_report", "energies.report", None),
    ("triality.energies", "dual_density", "energies.dual_density", None),
    ("triality.fields", "reconstruct_displacement", "fields.reconstruct", None),
    ("triality.fields", "reconstruct_interval", "fields.reconstruct", None),
    ("triality.fields", "path_discrepancy", "fields.path_audit", None),
    ("triality.fields", "_write_csv", "fields.csv", _bytes_attrs),
    ("triality.oracle", "minimize_multistart", "oracle.multistart", None),
    ("triality.oracle", "descend", "oracle.descend", _descend_attrs),
    ("triality.oracle", "gradient_check", "oracle.gradient_check", None),
    ("triality.oracle", "gquasiconvexity_probe", "oracle.probe", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, t0: float | None = None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter() if t0 is None else t0
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrapper(self, fn, name, attrs_of):
        # inlined span(): wrapped functions can run 10^5 times per invocation
        ids, stack, spans, clock = self._ids, self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if attrs_of is not None:
                self.attrs[sid] = attrs_of(args, kwargs, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        for modname, attr, name, attrs_of in targets:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name, attrs_of))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "id": [s[0] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "name": [index[s[2]] for s in self.spans],
            "t0": [s[3] for s in self.spans],
            "t1": [s[4] for s in self.spans],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics from span files
# ---------------------------------------------------------------------------

#: (metric, unit, better) in report order
LAYER_METRICS = (
    ("config.parse_s", "s", "lower"),
    ("config.tau_s", "s", "lower"),
    ("kernels.roots_s", "s", "lower"),
    ("kernels.points", "count", "lower"),
    ("kernels.energy_s", "s", "lower"),
    ("kernels.energy_calls", "count", "lower"),
    ("kernels.grad_s", "s", "lower"),
    ("kernels.grad_calls", "count", "lower"),
    ("dualsolve.solve_s", "s", "lower"),
    ("dualsolve.roots_found", "count", "higher"),
    ("dualsolve.degenerate_roots", "count", "lower"),
    ("dualsolve.labels_s", "s", "lower"),
    ("dualsolve.labels", "count", "higher"),
    ("energies.report_s", "s", "lower"),
    ("energies.reports", "count", "higher"),
    ("energies.dual_density_s", "s", "lower"),
    ("energies.dual_density_calls", "count", "lower"),
    ("fields.reconstruct_s", "s", "lower"),
    ("fields.path_audit_s", "s", "lower"),
    ("fields.csv_s", "s", "lower"),
    ("fields.csv_bytes", "bytes", "lower"),
    ("cli.roots_csv_s", "s", "lower"),
    ("cli.rows_csv_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("cli.pipeline_self_s", "s", "lower"),
    ("oracle.multistart_s", "s", "lower"),
    ("oracle.starts", "count", "higher"),
    ("oracle.converged_fraction", "fraction", "higher"),
    ("oracle.iters_p50", "count", "lower"),
    ("oracle.iters_max", "count", "lower"),
    ("oracle.armijo_accept_ratio", "ratio", "higher"),
    ("oracle.descend_self_s", "s", "lower"),
    ("oracle.gradient_check_s", "s", "lower"),
    ("oracle.probe_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "fraction", "lower"),
)


class SpanSet:
    """Spans of several span files (one per CLI invocation), ids made unique."""

    def __init__(self, docs):
        self.name: dict[tuple, str] = {}
        self.parent: dict[tuple, tuple | None] = {}
        self.dur: dict[tuple, float] = {}
        self.attrs: dict[tuple, dict] = {}
        self.children: dict[tuple, list] = defaultdict(list)
        self.by_name: dict[str, list] = defaultdict(list)
        for f, doc in enumerate(docs):
            for sid, par, ni, t0, t1 in zip(doc["id"], doc["parent"], doc["name"],
                                            doc["t0"], doc["t1"]):
                key = (f, sid)
                self.name[key] = doc["names"][ni]
                self.by_name[self.name[key]].append(key)
                self.parent[key] = None if par < 0 else (f, par)
                self.dur[key] = t1 - t0
                if par >= 0:
                    self.children[(f, par)].append(key)
            for sid, a in doc["attrs"].items():
                self.attrs[(f, int(sid))] = a

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(self.dur[k] for k in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(self.attrs.get(k, {}).get(attr, 0) for k in self.named(name))

    def self_time(self, key) -> float:
        """Duration minus the time its direct children cover (serial spans)."""
        return self.dur[key] - sum(self.dur[c] for c in self.children[key])

    def roots_total(self) -> float:
        return sum(d for k, d in self.dur.items() if self.parent[k] is None)


def layer_metrics(docs, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``docs`` are the span files of its CLI invocations and ``wall_s`` the
    operation's wall time as measured from outside (spawn to exit).
    """
    s = SpanSet(docs)
    descents = s.named("oracle.descend")
    iters = [s.attrs[k]["iterations"] for k in descents]
    in_descent = [c for k in descents for c in s.children[k]]
    energy_in = sum(1 for c in in_descent if s.name[c] == "kernels.energy")
    grad_in = sum(1 for c in in_descent if s.name[c] == "kernels.grad")
    rows_outside_roots = [k for k in s.named("cli.rows_csv")
                          if s.parent[k] is None or s.name[s.parent[k]] != "cli.roots_csv"]
    return {
        "config.parse_s": s.total("config.parse"),
        "config.tau_s": s.total("config.tau"),
        "kernels.roots_s": s.total("kernels.roots"),
        "kernels.points": s.attr_sum("kernels.roots", "points"),
        "kernels.energy_s": s.total("kernels.energy"),
        "kernels.energy_calls": s.count("kernels.energy"),
        "kernels.grad_s": s.total("kernels.grad"),
        "kernels.grad_calls": s.count("kernels.grad"),
        "dualsolve.solve_s": s.total("dualsolve.solve"),
        "dualsolve.roots_found": s.attr_sum("dualsolve.solve", "roots"),
        "dualsolve.degenerate_roots": s.attr_sum("dualsolve.solve", "degenerate"),
        "dualsolve.labels_s": s.total("dualsolve.labels"),
        "dualsolve.labels": s.attr_sum("dualsolve.labels", "labels"),
        "energies.report_s": s.total("energies.report"),
        "energies.reports": s.count("energies.report"),
        "energies.dual_density_s": s.total("energies.dual_density"),
        "energies.dual_density_calls": s.count("energies.dual_density"),
        "fields.reconstruct_s": s.total("fields.reconstruct"),
        "fields.path_audit_s": s.total("fields.path_audit"),
        "fields.csv_s": s.total("fields.csv"),
        "fields.csv_bytes": s.attr_sum("fields.csv", "bytes"),
        "cli.roots_csv_s": s.total("cli.roots_csv"),
        "cli.rows_csv_s": sum(s.dur[k] for k in rows_outside_roots),
        "cli.csv_bytes": s.attr_sum("cli.rows_csv", "bytes"),
        "cli.pipeline_self_s": sum(s.self_time(k) for k in s.named("cli.pipeline")),
        "oracle.multistart_s": s.total("oracle.multistart"),
        "oracle.starts": len(descents),
        "oracle.converged_fraction": (sum(s.attrs[k]["converged"] for k in descents)
                                      / len(descents) if descents else 0.0),
        "oracle.iters_p50": statistics.median(iters) if iters else 0,
        "oracle.iters_max": max(iters, default=0),
        "oracle.armijo_accept_ratio": grad_in / energy_in if energy_in else 0.0,
        "oracle.descend_self_s": sum(s.self_time(k) for k in descents),
        "oracle.gradient_check_s": s.total("oracle.gradient_check"),
        "oracle.probe_s": s.total("oracle.probe"),
        "trace.wall_s": wall_s,
        "trace.uncovered_share": (wall_s - s.roots_total()) / wall_s,
    }
