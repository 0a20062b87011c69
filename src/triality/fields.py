"""Discrete fields on rectangular grids: stress construction, divergence,
curl, and path-integral reconstruction of the displacement.

All stencils are second order: central differences in the interior, 3-point
one-sided at boundaries, so first derivatives of polynomials up to degree two
are exact.  Statically admissible stress is built from a stream function,
tau = (d psi/dy, -d psi/dx), which is divergence-free by construction.
Displacement reconstruction integrates gamma = tau/(2a*zeta) along the
canonical right-then-up lattice path after an explicit curl audit; a second
(up-then-right) path provides the path-independence check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import QuadraticMeasure
from .errors import NonIntegrableFieldError, SingularDualError

EDGES = ("left", "right", "bottom", "top")

#: outward unit normals of the rectangle edges
_NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "bottom": (0.0, -1.0), "top": (0.0, 1.0)}

#: curl-audit tolerance as a multiple of max|gamma|
CURL_RTOL = 1e-6

_FMT = "%.17g"


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular node grid with Dirichlet/traction edge tags: the
    rectangle geometry of a configured instance.

    The node spacings are hx = lx/(nx - 1) and hy = ly/(ny - 1).  Field
    names match the config keys, and the validation messages name them.
    """

    lx: float
    ly: float
    nx: int
    ny: int
    origin: tuple[float, float] = (0.0, 0.0)
    fixed_edges: frozenset[str] = field(default_factory=lambda: frozenset({"left"}))

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"nx, ny: need at least 2 nodes per direction, got {self.nx}x{self.ny}")
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise ValueError(f"lx, ly: extents must be positive, with nonzero node spacings, "
                             f"got lx={self.lx}, ly={self.ly}")
        bad = set(self.fixed_edges) - set(EDGES)
        if bad:
            raise ValueError(f"fixed_edges: unknown edge names {sorted(bad)}; expected subset of {EDGES}")
        if not self.fixed_edges:
            raise ValueError("fixed_edges: at least one fixed edge is required (mixed boundary conditions)")

    @property
    def hx(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def x(self) -> np.ndarray:
        return self.origin[0] + self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.origin[1] + self.hy * np.arange(self.ny)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinate arrays, shape (ny, nx)."""
        return np.meshgrid(self.x, self.y)

    @property
    def traction_edges(self) -> tuple[str, ...]:
        return tuple(e for e in EDGES if e not in self.fixed_edges)

    def fixed_mask(self) -> np.ndarray:
        """Boolean (ny, nx) mask of Dirichlet nodes; fixed wins at corners."""
        mask = np.zeros(self.shape, dtype=bool)
        for e in self.fixed_edges:
            mask[edge_slice(e)] = True
        return mask

    def first_fixed_node(self) -> tuple[int, int]:
        mask = self.fixed_mask()
        j, i = np.argwhere(mask)[0]
        return (int(i), int(j))


def edge_slice(edge: str):
    return {"left": np.s_[:, 0], "right": np.s_[:, -1],
            "bottom": np.s_[0, :], "top": np.s_[-1, :]}[edge]


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid2
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite entries")


@dataclass(frozen=True, eq=False)
class VectorField2:
    grid: Grid2
    values: np.ndarray  # (ny, nx, 2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape + (2,):
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape + (2,)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field contains non-finite entries")


def _deriv(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis (needs >= 3 points)."""
    v = np.moveaxis(values, axis, 0)
    if v.shape[0] < 3:
        raise ValueError("need at least 3 nodes along a differentiated axis")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def stress_from_stream(psi: ScalarField) -> VectorField2:
    """Divergence-free stress tau = (d psi/dy, -d psi/dx).

    Exactly divergence-free (to roundoff) for stream functions of polynomial
    degree <= 2; O(h^2) otherwise.
    """
    g = psi.grid
    out = np.empty(g.shape + (2,))
    out[..., 0] = _deriv(psi.values, g.hy, axis=0)
    out[..., 1] = -_deriv(psi.values, g.hx, axis=1)
    return VectorField2(g, out)


def divergence(v: VectorField2) -> ScalarField:
    g = v.grid
    d = _deriv(v.values[..., 0], g.hx, axis=1) + _deriv(v.values[..., 1], g.hy, axis=0)
    return ScalarField(g, d)


def curl2(v: VectorField2) -> ScalarField:
    """Scalar curl d v2/dx - d v1/dy."""
    g = v.grid
    c = _deriv(v.values[..., 1], g.hx, axis=1) - _deriv(v.values[..., 0], g.hy, axis=0)
    return ScalarField(g, c)


def boundary_traction(tau: VectorField2) -> dict[str, np.ndarray]:
    """t = n . tau along each traction edge (full edge arrays)."""
    g = tau.grid
    out = {}
    for e in g.traction_edges:
        n = _NORMALS[e]
        sl = edge_slice(e)
        out[e] = n[0] * tau.values[..., 0][sl] + n[1] * tau.values[..., 1][sl]
    return out


def _cumtrapz_from(v: np.ndarray, h: float, k0: int, axis: int) -> np.ndarray:
    """Trapezoid antiderivative along axis, zeroed at index k0."""
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    out[1:] = np.cumsum(0.5 * (v[1:] + v[:-1]) * h, axis=0)
    out = out - out[k0]
    return np.moveaxis(out, 0, axis)


def _dual_strain(zeta: np.ndarray, tau: np.ndarray, m: QuadraticMeasure) -> np.ndarray:
    """gamma = tau / (2a*zeta); refused where |zeta| < 1e-14."""
    if np.any(np.abs(zeta) < 1e-14):
        raise SingularDualError("dual field zeta vanishes (|zeta| < 1e-14) at some node")
    return tau / (2.0 * m.a * zeta)


def strain_from_dual(zeta: ScalarField, tau: VectorField2, m: QuadraticMeasure) -> VectorField2:
    """gamma = tau / (2a*zeta), the reconstruction integrand."""
    return VectorField2(tau.grid, _dual_strain(zeta.values[..., None], tau.values, m))


def _two_path_integrals(gamma: VectorField2, anchor: tuple[int, int]):
    g = gamma.grid
    i0, j0 = anchor
    gx = gamma.values[..., 0]
    gy = gamma.values[..., 1]
    x_along_row = _cumtrapz_from(gx[j0, :], g.hx, i0, axis=0)     # (nx,)
    y_cols = _cumtrapz_from(gy, g.hy, j0, axis=0)                 # (ny, nx)
    u_right_up = x_along_row[None, :] + y_cols
    y_along_col = _cumtrapz_from(gy[:, i0], g.hy, j0, axis=0)     # (ny,)
    x_rows = _cumtrapz_from(gx, g.hx, i0, axis=1)                 # (ny, nx)
    u_up_right = y_along_col[:, None] + x_rows
    return u_right_up, u_up_right


def reconstruct_displacement(zeta: ScalarField, tau: VectorField2, m: QuadraticMeasure) -> ScalarField:
    """Displacement from the dual pair by lattice path integration.

    Integrates gamma = tau/(2a*zeta) along the right-then-up path from the
    first fixed node.  The curl of gamma is audited first: a residual above
    CURL_RTOL * max|gamma| means the field is not a gradient and
    reconstruction is refused.
    """
    g = zeta.grid
    gamma = strain_from_dual(zeta, tau, m)
    resid = np.abs(curl2(gamma).values)
    scale = float(np.max(np.abs(gamma.values)))
    tol = CURL_RTOL * max(scale, 1e-300)
    worst = float(resid.max())
    if worst > tol:
        j, i = np.unravel_index(int(np.argmax(resid)), resid.shape)
        raise NonIntegrableFieldError(
            f"curl residual {worst:.3e} exceeds tolerance {tol:.3e} at node (i={i}, j={j}); "
            "the dual strain field is not a gradient",
            max_residual=worst, node=(int(i), int(j)),
        )
    u, _ = _two_path_integrals(gamma, g.first_fixed_node())
    return ScalarField(g, u)


def path_discrepancy(zeta: ScalarField, tau: VectorField2, m: QuadraticMeasure) -> float:
    """max |u_right-up - u_up-right|: the path-independence audit."""
    gamma = strain_from_dual(zeta, tau, m)
    u1, u2 = _two_path_integrals(gamma, zeta.grid.first_fixed_node())
    return float(np.max(np.abs(u1 - u2)))


def reconstruct_interval(zeta: np.ndarray, tau: np.ndarray, m: QuadraticMeasure,
                         x: np.ndarray, anchor: int = 0) -> np.ndarray:
    """1-D counterpart: cumulative trapezoid of gamma = tau/(2a*zeta)."""
    gamma = _dual_strain(np.asarray(zeta, dtype=float), np.asarray(tau, dtype=float), m)
    h = float(x[1] - x[0])
    return _cumtrapz_from(gamma, h, anchor, axis=0)


def antiplane_deformation_gradient(grad_u) -> np.ndarray:
    """3x3 deformation gradient of an axial shear with in-plane gradient grad_u."""
    g1, g2 = (float(v) for v in np.asarray(grad_u, dtype=float).ravel())
    F = np.eye(3)
    F[2, 0] = g1
    F[2, 1] = g2
    return F


def principal_invariants(F: np.ndarray) -> tuple[float, float, float]:
    """(I1, I2, I3) of C = F^T F."""
    C = F.T @ F
    i1 = float(np.trace(C))
    i2 = 0.5 * (i1 * i1 - float(np.trace(C @ C)))
    i3 = float(np.linalg.det(C))
    return i1, i2, i3


# ---------------------------------------------------------------------------
# CSV serialization: equal-length columns at 17 significant digits for
# lossless round-trips; scalar fields as x,y,value rows, row-major by y then x.
# ---------------------------------------------------------------------------

#: rows formatted per block: each block is written before the next is built
CSV_BLOCK_ROWS = 4096


def _block_field(col: np.ndarray) -> tuple[str, list]:
    """(%-field, Python values) of one column's slice of a block.

    Floats whose block holds repeated bit patterns are formatted once per
    distinct pattern and indexed back to the rows as text (field "%s").
    Bits, not values, tell them apart, so -0.0 stays apart from 0.0 and NaN
    payloads from each other.  An all-distinct float block keeps "%.17g":
    it has nothing to share, and formatting in the row template never holds
    a block of strings at once (on the 2e4-row sweep benchmark, about 8%
    less wall time and peak memory than the deduplicating path).  Ints take
    "%d" and anything else "%s".
    """
    if col.dtype.kind == "f":
        bits, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        if bits.size == col.size:
            return _FMT, col.tolist()
        text = np.array(list(map(_FMT.__mod__, bits.view(col.dtype).tolist())), dtype=object)
        return "%s", text[inverse].tolist()
    return ("%d" if col.dtype.kind in "iu" else "%s"), col.tolist()


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows, streamed in row blocks.

    Floats are printed "%.17g", ints "%d" and anything else "%s".  Each block
    of CSV_BLOCK_ROWS rows is formatted and written before the next is built,
    so memory stays bounded by one block whatever the file size.  Within a
    block each distinct float of a column is formatted once (_block_field):
    the bytes are those of "%.17g" on every row.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            fmts, values = zip(*(_block_field(c[start:start + CSV_BLOCK_ROWS]) for c in cols))
            template = ",".join(fmts) + "\n"
            fh.write("".join(map(template.__mod__, zip(*values))))


def write_scalar_csv(f: ScalarField, path) -> None:
    X, Y = f.grid.coords()
    _write_csv(path, "x,y,value", [X.ravel(), Y.ravel(), f.values.ravel()])


def _write_csv(path, header: str, columns) -> None:
    """Field files: all-float columns through write_csv."""
    write_csv(path, header, columns)


def format_float(v: float) -> str:
    """The 17-significant-digit float format used in all emitted CSV files."""
    return _FMT % v
