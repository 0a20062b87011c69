"""Problem configuration: flat key = value files, validation, and assembly
of the loading field for one instance.  A rectangle geometry is a
``fields.Grid2``, which checks its own spacings and edge names; parsing adds
the CLI's rules (nx, ny >= 3, MAX_NODES, a traction edge).

Schema (unknown keys are rejected):

    model          double_well | log_neohookean
    alpha          double_well stiffness (default 1.0)
    c1, c2         log_neohookean constants (default 1.0, must be > 0)
    measure_a/_b   measure override; defaults per model:
                   double_well -> (0.5, -1.0), log_neohookean -> (1.0, 0.0)
    geometry       interval | rectangle
    length, n      interval extent and node count
    lx, ly, nx, ny  rectangle extent and node counts (nx, ny >= 3)
    origin_x/_y    rectangle origin (default 0)
    fixed_edges    interval: left | right; rectangle: comma list of edges
    loading        constant_tau | stream_function
    tau_x, tau_y   constant stress components (tau_y rectangle only)
    stream         linear | bilinear | quadratic (stream-function catalog)
    stream_scale   stream function scale (default 1.0)
    oracle_starts, oracle_seed   multistart oracle controls
                   (defaults: OracleOptions)

Every number must be finite; a geometry has at most MAX_NODES nodes and
the oracle at most MAX_NODES starts.  The solver's and the oracle's
single-valued settings are module constants (``canonical.TOL``,
``oracle.START_SPAN``, ...), not keys.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from .canonical import (
    CanonicalEnergy,
    LogNeoHookeanEnergy,
    QuadraticEnergy,
    QuadraticMeasure,
)
from .errors import ConfigError, DomainError
from .fields import EDGES, Grid2, stress_from_stream

#: node cap of one instance (and of a sweep's steps and the oracle's starts)
MAX_NODES = 10**6

DEFAULT_MEASURES = {
    "double_well": (0.5, -1.0),
    "log_neohookean": (1.0, 0.0),
}

#: divergence-free stream-function catalog: name -> psi(x, y)
STREAM_CATALOG: dict[str, Callable] = {
    "linear": lambda x, y, s: s * y,                 # tau = (s, 0)
    "bilinear": lambda x, y, s: s * x * y,           # tau = (s*x, -s*y)
    "quadratic": lambda x, y, s: s * (x * x - y * y),  # tau = (-2*s*y, -2*s*x)
}


class IntervalGeometry(NamedTuple):
    length: float
    n: int
    fixed_end: str = "left"  # left | right

    @property
    def x(self) -> np.ndarray:
        """Node coordinates, from 0 at the left end."""
        return np.linspace(0.0, self.length, self.n)


Geometry = Union[IntervalGeometry, Grid2]


class ConstantTau(NamedTuple):
    vec: tuple[float, ...]


class StreamLoading(NamedTuple):
    name: str
    scale: float = 1.0


Loading = Union[ConstantTau, StreamLoading]


class OracleOptions(NamedTuple):
    n_starts: int = 50
    seed: int = 1234


class ProblemSpec(NamedTuple):
    energy: CanonicalEnergy
    measure: QuadraticMeasure
    geometry: Geometry
    loading: Loading
    oracle: OracleOptions = OracleOptions()

    @property
    def dim(self) -> int:
        return 1 if isinstance(self.geometry, IntervalGeometry) else 2


_KEYS = {
    "model", "alpha", "c1", "c2", "measure_a", "measure_b",
    "geometry", "length", "n", "lx", "ly", "nx", "ny", "origin_x", "origin_y",
    "fixed_edges", "loading", "tau_x", "tau_y", "stream", "stream_scale",
    "oracle_starts", "oracle_seed",
}


def _parse_kv(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate config key '{key}'")
        out[key] = value
    return out


def _get_float(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        v = float(kv[key])
    except ValueError:
        raise ConfigError(f"config key '{key}': not a number: {kv[key]!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"config key '{key}': must be finite, got {kv[key]!r}")
    return v


def _get_int(kv, key, default=None):
    v = _get_float(kv, key, default)
    if v != int(v):
        raise ConfigError(f"config key '{key}': expected an integer, got {kv[key]!r}")
    return int(v)


def parse_config(path) -> ProblemSpec:
    """Parse and validate one problem configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    kv = _parse_kv(path)

    model = kv.get("model")
    if model not in DEFAULT_MEASURES:
        raise ConfigError(f"config key 'model': expected double_well or log_neohookean, got {model!r}")
    try:
        if model == "double_well":
            energy: CanonicalEnergy = QuadraticEnergy(alpha=_get_float(kv, "alpha", 1.0))
        else:
            energy = LogNeoHookeanEnergy(c1=_get_float(kv, "c1", 1.0), c2=_get_float(kv, "c2", 1.0))
        da, db = DEFAULT_MEASURES[model]
        measure = QuadraticMeasure(a=_get_float(kv, "measure_a", da), b=_get_float(kv, "measure_b", db))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    geom_kind = kv.get("geometry")
    if geom_kind == "interval":
        length = _get_float(kv, "length", 1.0)
        n = _get_int(kv, "n", 65)
        if not 2 <= n <= MAX_NODES:
            raise ConfigError(f"config key 'n': need 2 to {MAX_NODES} nodes")
        if not length / (n - 1) > 0.0:
            raise ConfigError("config key 'length': must be positive, with a nonzero node spacing")
        fixed = kv.get("fixed_edges", "left")
        if fixed not in ("left", "right"):
            raise ConfigError(
                "config key 'fixed_edges': interval needs exactly one fixed end "
                "(left or right); a mixed problem requires one traction end"
            )
        geometry: Geometry = IntervalGeometry(length=length, n=n, fixed_end=fixed)
    elif geom_kind == "rectangle":
        lx, ly = _get_float(kv, "lx", 1.0), _get_float(kv, "ly", 1.0)
        nx, ny = _get_int(kv, "nx", 33), _get_int(kv, "ny", 33)
        if nx < 3 or ny < 3:
            raise ConfigError("config keys 'nx'/'ny': need at least 3 nodes per direction")
        if nx * ny > MAX_NODES:
            raise ConfigError(f"config keys 'nx'/'ny': more than {MAX_NODES} nodes")
        fixed = frozenset(s.strip() for s in kv.get("fixed_edges", "left").split(",") if s.strip())
        if fixed == set(EDGES):
            raise ConfigError(
                "config key 'fixed_edges': all edges fixed; at least one traction edge "
                "is required to load the body"
            )
        origin = (_get_float(kv, "origin_x", 0.0), _get_float(kv, "origin_y", 0.0))
        try:  # Grid2 checks the spacings and the edge names
            geometry = Grid2(lx=lx, ly=ly, nx=nx, ny=ny, origin=origin, fixed_edges=fixed)
        except ValueError as exc:
            raise ConfigError(f"rectangle geometry: {exc}") from exc
    else:
        raise ConfigError(f"config key 'geometry': expected interval or rectangle, got {geom_kind!r}")

    load_kind = kv.get("loading")
    if load_kind == "constant_tau":
        tau_x = _get_float(kv, "tau_x")
        if geom_kind == "interval":
            if "tau_y" in kv:
                raise ConfigError("config key 'tau_y': not meaningful for interval geometry")
            loading: Loading = ConstantTau((tau_x,))
        else:
            loading = ConstantTau((tau_x, _get_float(kv, "tau_y", 0.0)))
    elif load_kind == "stream_function":
        if geom_kind != "rectangle":
            raise ConfigError("config key 'loading': stream_function requires rectangle geometry")
        name = kv.get("stream", "linear")
        if name not in STREAM_CATALOG:
            raise ConfigError(f"config key 'stream': unknown stream function {name!r}; "
                              f"catalog: {sorted(STREAM_CATALOG)}")
        loading = StreamLoading(name=name, scale=_get_float(kv, "stream_scale", 1.0))
    else:
        raise ConfigError(f"config key 'loading': expected constant_tau or stream_function, got {load_kind!r}")

    default = OracleOptions()
    oracle = OracleOptions(
        n_starts=_get_int(kv, "oracle_starts", default.n_starts),
        seed=_get_int(kv, "oracle_seed", default.seed),
    )
    for ok, rule in ((1 <= oracle.n_starts <= MAX_NODES,
                      f"'oracle_starts' must be 1 to {MAX_NODES}"),
                     (oracle.seed >= 0, "'oracle_seed' must be >= 0")):
        if not ok:
            raise ConfigError(f"config key {rule}")
    return ProblemSpec(energy=energy, measure=measure, geometry=geometry, loading=loading,
                       oracle=oracle)


# ---------------------------------------------------------------------------
# instance assembly
# ---------------------------------------------------------------------------

def build_tau_grid(spec: ProblemSpec) -> np.ndarray:
    """Nodal stress field (ny, nx, 2) on the rectangle spec.geometry.

    Stream loadings go through the discrete curl construction, which is
    divergence-free by structure and stencil-exact for the polynomial
    catalog; constant loadings are written directly.
    """
    grid, load = spec.geometry, spec.loading
    if isinstance(load, ConstantTau):
        return np.full(grid.shape + (2,), load.vec, dtype=float)
    X, Y = grid.coords()
    return stress_from_stream(grid, STREAM_CATALOG[load.name](X, Y, load.scale))


def build_tau_interval(spec: ProblemSpec) -> np.ndarray:
    """Constant 1-D stress from the end traction (statics on an interval)."""
    load = spec.loading
    if not isinstance(load, ConstantTau):
        raise ConfigError("interval geometry supports constant_tau loading only")
    return np.full(spec.geometry.n, load.vec[0])

