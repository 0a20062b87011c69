"""Workload definitions: the config files, CLI argument lists and expected
instance geometry for each benchmark workload.

Everything the correctness gate needs (material model, node coordinates,
analytic tau^2 per node, sweep abscissae) is derived here from the workload
parameters, never from the program's own output.  The seed sets the oracle
seed and a small relative perturbation of the load; each workload keeps its
character for every seed (see ``WHY``).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: one-line reason each workload exists (mirrored in BENCHMARK.json)
WHY = {
    "solve-stream": "solve 151x151, double well, stream load straddling the fold: every tau^2 "
                    "distinct, 1 or 3 roots per node; loads labels and roots.csv",
    "solve-const": "solve 121x121, log model, constant subcritical shear: one shared tau^2, "
                   "3 full branches; energy reports, reconstruction and fields CSVs",
    "sweep-fold": "sweep 2e4 steps of tau over [0, 1.1], across the log-model fold 4/e^2: per-row "
                  "dual_density calls, sweep/hcurve CSVs; no labels, no oracle",
    "verify-oracle": "verify log_rect_const (1 start) and doublewell_1d_sub (50 starts): oracle "
                     "descent dominates; root kernel and labels nearly idle",
}

#: full-size instance parameters; ``scale="small"`` shrinks them for tests
SIZES = {
    "full": {"stream_nodes": 151, "const_nodes": 121, "sweep_steps": 20_000,
             "rect_nodes": 17, "rect_starts": 1, "bar_starts": 50},
    "small": {"stream_nodes": 21, "const_nodes": 21, "sweep_steps": 1_000,
              "rect_nodes": 9, "rect_starts": 1, "bar_starts": 8},
}

LOAD_JITTER = 0.005  # relative load perturbation drawn from the seed


@dataclass(frozen=True)
class Model:
    """Closed-form material model and measure Lambda = a*|gamma|^2 + b."""

    kind: str          # double_well | log_neohookean
    alpha: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    a: float = 0.5
    b: float = -1.0

    def config_lines(self) -> list[str]:
        if self.kind == "double_well":
            return ["model = double_well", f"alpha = {self.alpha!r}"]
        return ["model = log_neohookean", f"c1 = {self.c1!r}", f"c2 = {self.c2!r}"]


DOUBLE_WELL = Model("double_well", alpha=1.0, a=0.5, b=-1.0)
LOG_NEOHOOKEAN = Model("log_neohookean", c1=1.0, c2=1.0, a=1.0, b=0.0)


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload operation.

    ``nodes`` lists (x, y, tau_sq) per material point in output order for
    solve steps; ``taus`` holds the sweep abscissae; ``tau_vec`` is the
    constant stress of a constant-load instance (reconstruction check).
    """

    name: str
    command: str               # solve | sweep | verify
    config_name: str
    config_text: str
    model: Model
    dim: int
    extra_args: tuple[str, ...] = ()
    nodes: tuple = ()
    taus: tuple = ()
    tau_vec: tuple[float, ...] | None = None
    full_branches: int = 0     # energy_report.csv rows expected
    files: tuple[str, ...] = ()  # output files every run must produce


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


def _jitter(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-LOAD_JITTER, LOAD_JITTER)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _rect_lines(n: int, origin: tuple[float, float]) -> list[str]:
    return ["geometry = rectangle", "lx = 1.0", "ly = 1.0", f"nx = {n}", f"ny = {n}",
            f"origin_x = {origin[0]!r}", f"origin_y = {origin[1]!r}", "fixed_edges = left"]


def _rect_nodes(n: int, origin: tuple[float, float], tau_sq) -> tuple:
    """(x, y, tau^2) row-major by y then x, the CLI's node order."""
    xs = [origin[0] + v for v in _linspace(0.0, 1.0, n)]
    ys = [origin[1] + v for v in _linspace(0.0, 1.0, n)]
    return tuple((x, y, tau_sq(x, y)) for y in ys for x in xs)


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def solve_stream(seed: int, size: dict) -> tuple[Step, ...]:
    rng = random.Random(f"solve-stream:{seed}")
    scale = 0.1 * _jitter(rng)
    n, origin = size["stream_nodes"], (1.0, 1.0)
    # psi = s*(x^2 - y^2)  ->  tau = (-2*s*y, -2*s*x),  tau^2 = 4*s^2*(x^2 + y^2)
    lines = DOUBLE_WELL.config_lines() + _rect_lines(n, origin) + [
        "loading = stream_function", "stream = quadratic", f"stream_scale = {scale!r}",
        f"oracle_seed = {rng.randrange(2**31)}"]
    return (Step(
        name="solve", command="solve", config_name="stream.cfg", config_text=_text(lines),
        model=DOUBLE_WELL, dim=2,
        nodes=_rect_nodes(n, origin, lambda x, y: 4.0 * scale * scale * (x * x + y * y)),
        full_branches=1, files=("roots.csv", "energy_report.csv", "report.txt"),
    ),)


def solve_const(seed: int, size: dict) -> tuple[Step, ...]:
    rng = random.Random(f"solve-const:{seed}")
    tx, ty = 0.3 * _jitter(rng), 0.3 * _jitter(rng)
    n, origin = size["const_nodes"], (0.0, 0.0)
    lines = LOG_NEOHOOKEAN.config_lines() + _rect_lines(n, origin) + [
        "loading = constant_tau", f"tau_x = {tx!r}", f"tau_y = {ty!r}",
        f"oracle_seed = {rng.randrange(2**31)}"]
    t2 = tx * tx + ty * ty
    return (Step(
        name="solve", command="solve", config_name="const.cfg", config_text=_text(lines),
        model=LOG_NEOHOOKEAN, dim=2, nodes=_rect_nodes(n, origin, lambda x, y: t2),
        tau_vec=(tx, ty), full_branches=3,
        files=("roots.csv", "energy_report.csv", "report.txt",
               "fields_u_1.csv", "fields_u_2.csv", "fields_u_3.csv"),
    ),)


def sweep_fold(seed: int, size: dict) -> tuple[Step, ...]:
    rng = random.Random(f"sweep-fold:{seed}")
    tau_max = 1.1 * _jitter(rng)
    steps = size["sweep_steps"]
    lines = LOG_NEOHOOKEAN.config_lines() + [
        "geometry = interval", "length = 1.0", "n = 5", "fixed_edges = left",
        "loading = constant_tau", "tau_x = 0.5", f"oracle_seed = {rng.randrange(2**31)}"]
    return (Step(
        name="sweep", command="sweep", config_name="sweep.cfg", config_text=_text(lines),
        model=LOG_NEOHOOKEAN, dim=1,
        extra_args=("--tau-min", "0", "--tau-max", repr(tau_max), "--steps", str(steps)),
        taus=tuple(_linspace(0.0, tau_max, steps)),
        files=("sweep.csv", "hcurve.csv", "wcurve.csv", "gcurve.csv", "gdcurve.csv"),
    ),)


def verify_oracle(seed: int, size: dict) -> tuple[Step, ...]:
    rng = random.Random(f"verify-oracle:{seed}")
    n = size["rect_nodes"]
    rect = LOG_NEOHOOKEAN.config_lines() + _rect_lines(n, (0.0, 0.0)) + [
        "loading = constant_tau", f"tau_x = {0.8 * _jitter(rng)!r}", "tau_y = 0.0",
        f"oracle_starts = {size['rect_starts']}", f"oracle_seed = {rng.randrange(2**31)}"]
    bar = DOUBLE_WELL.config_lines() + [
        "geometry = interval", "length = 1.0", "n = 5", "fixed_edges = left",
        "loading = constant_tau", f"tau_x = {math.sqrt(0.1) * _jitter(rng)!r}",
        f"oracle_starts = {size['bar_starts']}", f"oracle_seed = {rng.randrange(2**31)}"]
    return (
        Step(name="log_rect_const", command="verify", config_name="log_rect_const.cfg",
             config_text=_text(rect), model=LOG_NEOHOOKEAN, dim=2),
        Step(name="doublewell_1d_sub", command="verify", config_name="doublewell_1d_sub.cfg",
             config_text=_text(bar), model=DOUBLE_WELL, dim=1),
    )


WORKLOADS = {
    "solve-stream": solve_stream,
    "solve-const": solve_const,
    "sweep-fold": sweep_fold,
    "verify-oracle": verify_oracle,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    return Workload(name, WORKLOADS[name](seed, SIZES[scale]))


def cli_args(step: Step, config_path: str, outdir: str) -> list[str]:
    """Arguments after ``python -m triality.cli``."""
    args = [step.command, config_path]
    if step.command != "verify":
        args += ["--out", outdir]
    return args + list(step.extra_args)
