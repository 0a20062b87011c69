"""End-to-end benchmark of the triality CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; it uses the sources under ``src/`` and
writes only under ``.perfbench_work/``.  Workloads: solve-stream,
solve-const, sweep-fold, verify-oracle (see ``workloads.py``).

One closed-loop client runs one operation at a time.  An operation is one
fresh ``python -m triality.cli`` process per workload step (two for
verify-oracle), with BLAS thread pools pinned to one thread.  Operations
repeat until the measured time reaches ``--seconds``.  Wall time runs from
spawn to exit; CPU time and peak RSS of each child come from ``os.wait4``.
A reference probe (``REFERENCE_CODE``, which never imports triality) runs
between every two children; each child's time is divided by the mean of the
probes around it, so a host that slows down for a while does not move the
result (see ``scaled``).  The raw times are kept in the results file.

``--trace 0`` reports the end-to-end metrics: wall_s and cpu_s (per-step
medians at the reference speed, summed over steps), peak_rss_mb (median)
and setup_s (median at the reference speed over fresh interpreters that
import ``triality.cli`` and parse the workload's configs).  ``--trace 1``
alternates plain operations with traced ones (``traced_cli.py``) and
reports the per-layer metrics of ``tracing.LAYER_METRICS``.

Every operation's outputs are hashed.  The first operation of a run goes
through the independent gate in ``gate.py``; every later one, traced or not,
must reproduce its bytes, and so must any earlier run of the same sources
and inputs in this checkout.  A failed check counts as a failed operation.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2, without that line, when the sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing
import workloads

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")          # relative to ROOT, so output paths are stable
PYTHON = sys.executable

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 5

#: nominal wall time of the reference probe; times are reported at the machine
#: speed at which the probe takes this long
REFERENCE_S = 0.2
CHILD_TIMEOUT_S = 150

#: (metric, unit) reported with --trace 0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

SETUP_CODE = """\
import sys
import triality.cli
from triality.config import parse_config
for path in sys.argv[1:]:
    parse_config(path)
"""

#: fixed work that never touches triality, run between all other children:
#: a fresh interpreter, the numpy import, scalar float formatting and small
#: numpy calls, like the start of every CLI invocation.  Its time measures the
#: machine's current speed.
REFERENCE_CODE = """\
import numpy as np
n = 0
for v in np.linspace(0.5, 2.0, 20000).tolist():
    n += len("%.17g" % (v * v - 1.0))
a = np.random.default_rng(0).random((17, 17))
for _ in range(1000):
    a = a - 1e-3 * (np.diff(a, axis=0).sum() + a)
"""

STAMP_CODE = """\
import json, sys
import numpy, triality, triality.cli
backend = getattr(triality, "backend", None)
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "backend": backend() if backend else "numpy",
                  "triality_file": triality.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    probe_s: float = math.nan  # mean reference probe time just before and after


def scaled(procs: list[Proc], attr: str) -> float:
    """Median over ``procs`` of the time ``attr`` at the reference machine speed.

    On a shared host the CPU speed drifts between fast and slow phases that
    last seconds to minutes, so raw times of one run move with the share of
    slow phases in it.  Each child is timed between two reference probes and
    divided by their mean; the ratio cancels the speed of the moment.
    """
    return REFERENCE_S * statistics.median(getattr(p, attr) / p.probe_s for p in procs)


@dataclass
class Operation:
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def record(self) -> dict:
        return {"traced": self.traced, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.rss_mb, "problems": self.problems,
                "steps": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.rss_mb,
                           "returncode": p.returncode} for p in self.procs]}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("CDT_SEED", "PYTHONPATH")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every child."""

    def __init__(self):
        self.proc = subprocess.Popen([PYTHON, "-I", str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def spawn(self, argv: list[str], env: dict[str, str], log_dir: Path) -> Proc:
        out_path, err_path = log_dir / "stdout", log_dir / "stderr"
        req = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(out_path),
               "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process exited unexpectedly")
        r = json.loads(line)
        return Proc(r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024.0, r["returncode"],
                    out_path.read_bytes(), err_path.read_bytes())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def stamp_environment(launcher: Launcher, env: dict[str, str], log_dir: Path) -> dict:
    """Environment stamp; also compiles the sources' bytecode before timing."""
    p = launcher.spawn([PYTHON, "-c", STAMP_CODE], env, log_dir)
    if p.returncode != 0:
        raise BenchError("cannot import triality.cli:\n" + p.stderr.decode(errors="replace"))
    stamp = json.loads(p.stdout.decode().strip().splitlines()[-1])
    if not Path(stamp["triality_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"triality imports from {stamp['triality_file']}, not from src/")
    stamp.update(nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
                 thread_pins=THREAD_PINS, platform=sys.platform)
    return stamp


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, launcher: Launcher):
        self.wl = workloads.build(name, seed)
        self.seconds, self.trace, self.launcher = seconds, trace, launcher
        self.env = child_env()
        self.dir = WORK / f"run-{os.getpid()}"  # private: concurrent runs cannot collide
        for sub in ("configs", "out", "spans", "logs"):
            (ROOT / self.dir / sub).mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for step in self.wl.steps:
            path = self.dir / "configs" / step.config_name
            (ROOT / path).write_text(step.config_text, encoding="utf-8")
            self.configs[step.name] = str(path)
        self.logs = ROOT / self.dir / "logs"
        self.ops: list[Operation] = []
        self.setup: list[Proc] = []
        self.probes: list[Proc] = []
        self.reference: dict | None = None

    def operation(self, traced: bool) -> Operation:
        op = Operation(traced)
        for step in self.wl.steps:
            outdir = self.dir / "out" / step.name
            shutil.rmtree(ROOT / outdir, ignore_errors=True)
            args = workloads.cli_args(step, self.configs[step.name], str(outdir))
            spans = ROOT / self.dir / "spans" / f"{step.name}.json"
            if traced:
                argv = [PYTHON, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
            else:
                argv = [PYTHON, "-m", "triality.cli", *args]
            op.procs.append(self.spawn_between_probes(argv))
        # everything below is outside the timed interval
        for step, proc in zip(self.wl.steps, op.procs):
            outdir = ROOT / self.dir / "out" / step.name
            stdout = proc.stdout if step.command == "verify" else b""
            op.digests[step.name] = gate.digests(outdir, stdout)
            if traced and proc.returncode == 0:
                op.spans.append(json.loads((ROOT / self.dir / "spans" / f"{step.name}.json")
                                           .read_text(encoding="utf-8")))
        self.check(op)
        return op

    def check(self, op: Operation) -> None:
        if self.reference is None:
            for step, proc in zip(self.wl.steps, op.procs):
                op.problems += gate.check_step(step, ROOT / self.dir / "out" / step.name,
                                               proc.stdout, proc.returncode)
            self.reference = {} if op.problems else op.digests  # {} matches nothing
        else:
            op.problems += gate.compare_digests(self.reference, op.digests,
                                                "the run's first operation")
        for step, proc in zip(self.wl.steps, op.procs):
            if proc.returncode != 0:
                op.problems.append(f"{step.name}: exit code {proc.returncode}: "
                                   + proc.stderr.decode(errors="replace")[-500:])

    def probe(self) -> Proc:
        p = self.launcher.spawn([PYTHON, "-c", REFERENCE_CODE], self.env, self.logs)
        if p.returncode != 0:
            raise BenchError("reference probe failed:\n" + p.stderr.decode(errors="replace"))
        self.probes.append(p)
        return p

    def spawn_between_probes(self, argv: list[str]) -> Proc:
        before = self.probes[-1] if self.probes else self.probe()
        proc = self.launcher.spawn(argv, self.env, self.logs)
        proc.probe_s = 0.5 * (before.wall_s + self.probe().wall_s)
        return proc

    def measure_setup(self) -> None:
        argv = [PYTHON, "-c", SETUP_CODE, *self.configs.values()]
        self.setup.append(self.spawn_between_probes(argv))

    def loop(self) -> None:
        """Operations until the measured time reaches ``seconds``, with a
        set-up sample after each of the first SETUP_REPEATS batches."""
        batches = 0
        while True:
            self.ops.append(self.operation(False))
            if self.trace:
                self.ops.append(self.operation(True))
            batches += 1
            if len(self.setup) < SETUP_REPEATS:
                self.measure_setup()
            measured = sum(p.wall_s for p in self.probes + self.setup + self.ops)
            if measured * (1 + 1 / batches) > self.seconds:
                break
        while len(self.setup) < SETUP_REPEATS:
            self.measure_setup()

    def cross_run_check(self, src: str) -> None:
        """Outputs must match any earlier run of the same sources and inputs."""
        if not self.reference:
            return
        store_path = ROOT / WORK / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        inputs = json.dumps([(s.config_text, s.extra_args) for s in self.wl.steps])
        key = f"{src}:{hashlib.sha256(inputs.encode()).hexdigest()}:{self.wl.name}"
        earlier = gate.compare_digests(store.get(key, self.reference), self.reference,
                                       "an earlier run of the same sources and inputs")
        for op in self.ops:
            op.problems += earlier
        store.setdefault(key, self.reference)
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def op_time(ops: list[Operation], attr: str) -> float:
    """Time of one operation at the reference speed: per-step medians, summed."""
    return sum(scaled([op.procs[i] for op in ops], attr) for i in range(len(ops[0].procs)))


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(r: Runner) -> dict[str, tuple[float, list[float]]]:
    """(value, raw per-operation samples) of each end-to-end metric."""
    plain = [op for op in r.ops if not op.traced]
    plain = [op for op in plain if not op.problems] or plain
    return {
        "wall_s": (op_time(plain, "wall_s"), [op.wall_s for op in plain]),
        "cpu_s": (op_time(plain, "cpu_s"), [op.cpu_s for op in plain]),
        "peak_rss_mb": (_median([op.rss_mb for op in plain]), [op.rss_mb for op in plain]),
        "setup_s": (scaled(r.setup, "wall_s"), [p.wall_s for p in r.setup]),
    }


def layer_metrics(r: Runner) -> dict[str, tuple[float, list[float]]]:
    """Per-layer metrics: medians over the traced operations."""
    traced = [op for op in r.ops if op.traced and op.spans and not op.problems]
    plain = [op for op in r.ops if not op.traced]
    per_op = [tracing.layer_metrics(op.spans, op.wall_s) for op in traced]
    out = {}
    for name, _, _ in tracing.LAYER_METRICS:
        samples = [m[name] for m in per_op if name in m]
        out[name] = (_median(samples), samples)
    if traced:
        out["trace.wall_s"] = (op_time(traced, "wall_s"), out["trace.wall_s"][1])
        out["trace.overhead_s"] = (op_time(traced, "wall_s") - op_time(plain, "wall_s"),
                                   [t.wall_s - p.wall_s for p, t in zip(plain, traced)])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with Launcher() as launcher:
        r = Runner(name, seed, seconds, trace, launcher)
        try:
            stamp = stamp_environment(launcher, r.env, r.logs)
            r.loop()
        finally:
            shutil.rmtree(ROOT / r.dir, ignore_errors=True)
    src = source_digest()
    r.cross_run_check(src)

    values = layer_metrics(r) if trace else end_to_end_metrics(r)
    units = dict(END_TO_END) | {n: u for n, u, _ in tracing.LAYER_METRICS}
    metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()}
    setup_failed = sum(p.returncode != 0 for p in r.setup)
    failed = sum(bool(op.problems) for op in r.ops) + setup_failed
    attempted = len(r.ops) + len(r.setup)

    results = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": stamp, "sources_sha256": src,
        "configs": {s.name: s.config_text for s in r.wl.steps},
        "attempted": attempted, "failed": failed,
        "operations": [op.record() for op in r.ops],
        "setup": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "returncode": p.returncode}
                  for p in r.setup],
        "reference_probe_s": [p.wall_s for p in r.probes],
        "digests": [op.digests for op in r.ops],
        "metrics": {k: {"value": v, "unit": units[k], "samples": s}
                    for k, (v, s) in values.items()},
    }
    res_dir = ROOT / WORK / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    res_path = res_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    res_path.write_text(json.dumps(results, indent=1), encoding="utf-8")

    print(f"{name} seed={seed} trace={int(trace)}: {attempted} operations attempted "
          f"({len(r.ops)} CLI, {len(r.setup)} setup), {failed} failed")
    print(f"  env: python {stamp['python']}, numpy {stamp['numpy']}, backend {stamp['backend']}, "
          f"nproc {stamp['nproc']}, threads pinned to 1")
    print(f"  reference probe: median {_median([p.wall_s for p in r.probes]):.4g} s over "
          f"{len(r.probes)}; reported times are at the speed where it takes {REFERENCE_S} s, "
          "raw samples in brackets")
    for k, (v, s) in values.items():
        spread = f"samples: min {min(s):.4g}, median {_median(s):.4g}, max {max(s):.4g}, " if s else ""
        print(f"  {k:28s} {v:12.6g} {units[k]:8s} ({spread}n={len(s)})")
    for op in r.ops:
        for p in op.problems:
            print(f"  FAILED: {p}")
    print(f"  results: {res_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "triality" / "cli.py").is_file():
            raise BenchError(f"no triality sources under {ROOT / 'src'}; "
                             "run from the repository root")
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
