"""Discrete fields on rectangular grids: stress construction, curl, and
path-integral reconstruction of the displacement.

A grid field is a plain numpy array in grid shape, (ny, nx) for a scalar
field and (ny, nx, 2) for a vector field; every operator takes the Grid2
that gives the array its spacings and edges.  All stencils are second
order: central differences in the interior, 3-point one-sided at
boundaries, so first derivatives of polynomials up to degree two are exact.
Statically admissible stress is built from a stream function,
tau = (d psi/dy, -d psi/dx), which is divergence-free by construction.
Displacement reconstruction integrates gamma = tau/(2a*zeta) along the
canonical right-then-up lattice path after an explicit curl audit; a second
(up-then-right) path provides the path-independence check.  The interval
counterpart integrates the same strain along its one axis.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .canonical import QuadraticMeasure
from .errors import NonIntegrableFieldError, SingularDualError

EDGES = ("left", "right", "bottom", "top")

#: outward unit normals of the rectangle edges
_NORMALS = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "bottom": (0.0, -1.0), "top": (0.0, 1.0)}

#: curl-audit tolerance as a multiple of max|gamma|
CURL_RTOL = 1e-6

_FMT = "%.17g"


class Grid2(NamedTuple("Grid2", [("lx", float), ("ly", float), ("nx", int), ("ny", int),
                                 ("origin", tuple[float, float]),
                                 ("fixed_edges", frozenset[str])])):
    """Uniform rectangular node grid with Dirichlet/traction edge tags: the
    rectangle geometry of a configured instance.

    The node spacings are hx = lx/(nx - 1) and hy = ly/(ny - 1).  Field
    names match the config keys, and the validation messages name them.
    """

    __slots__ = ()

    def __new__(cls, lx: float, ly: float, nx: int, ny: int,
                origin: tuple[float, float] = (0.0, 0.0),
                fixed_edges: frozenset[str] = frozenset({"left"})):
        self = super().__new__(cls, lx, ly, nx, ny, origin, fixed_edges)
        if nx < 2 or ny < 2:
            raise ValueError(f"nx, ny: need at least 2 nodes per direction, got {nx}x{ny}")
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise ValueError(f"lx, ly: extents must be positive, with nonzero node spacings, "
                             f"got lx={lx}, ly={ly}")
        bad = set(fixed_edges) - set(EDGES)
        if bad:
            raise ValueError(f"fixed_edges: unknown edge names {sorted(bad)}; expected subset of {EDGES}")
        if not fixed_edges:
            raise ValueError("fixed_edges: at least one fixed edge is required (mixed boundary conditions)")
        return self

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


def stress_from_stream(grid: Grid2, psi: np.ndarray) -> np.ndarray:
    """Divergence-free stress tau = (d psi/dy, -d psi/dx), shape (ny, nx, 2).

    Exactly divergence-free (to roundoff) for stream functions of polynomial
    degree <= 2; O(h^2) otherwise.
    """
    out = np.empty(grid.shape + (2,))
    out[..., 0] = _deriv(psi, grid.hy, axis=0)
    out[..., 1] = -_deriv(psi, grid.hx, axis=1)
    return out


def curl2(grid: Grid2, v: np.ndarray) -> np.ndarray:
    """Scalar curl d v2/dx - d v1/dy of a (ny, nx, 2) field."""
    return _deriv(v[..., 1], grid.hx, axis=1) - _deriv(v[..., 0], grid.hy, axis=0)


def boundary_traction(grid: Grid2, tau: np.ndarray) -> dict[str, np.ndarray]:
    """t = n . tau along each traction edge (full edge arrays)."""
    out = {}
    for e in grid.traction_edges:
        n = _NORMALS[e]
        sl = edge_slice(e)
        out[e] = n[0] * tau[..., 0][sl] + n[1] * tau[..., 1][sl]
    return out


def _cumtrapz_from(v: np.ndarray, h: float, k0: int, axis: int) -> np.ndarray:
    """Trapezoid antiderivative along axis, zeroed at index k0.  An overflow
    is left as inf or nan for the caller to refuse."""
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = np.cumsum(0.5 * (v[1:] + v[:-1]) * h, axis=0)
        out = out - out[k0]
    return np.moveaxis(out, 0, axis)


def _dual_strain(zeta: np.ndarray, tau: np.ndarray, m: QuadraticMeasure) -> np.ndarray:
    """gamma = tau / (2a*zeta), the reconstruction integrand; refused where
    |zeta| < 1e-14.  zeta broadcasts against tau; an overflow is left as inf."""
    if np.any(np.abs(zeta) < 1e-14):
        raise SingularDualError("dual field zeta vanishes (|zeta| < 1e-14) at some node")
    with np.errstate(over="ignore"):
        return tau / (2.0 * m.a * zeta)


def _two_path_integrals(grid: Grid2, gamma: np.ndarray):
    i0, j0 = grid.first_fixed_node()
    gx = gamma[..., 0]
    gy = gamma[..., 1]
    x_along_row = _cumtrapz_from(gx[j0, :], grid.hx, i0, axis=0)     # (nx,)
    y_cols = _cumtrapz_from(gy, grid.hy, j0, axis=0)                 # (ny, nx)
    u_right_up = x_along_row[None, :] + y_cols
    y_along_col = _cumtrapz_from(gy[:, i0], grid.hy, j0, axis=0)     # (ny,)
    x_rows = _cumtrapz_from(gx, grid.hx, i0, axis=1)                 # (ny, nx)
    u_up_right = y_along_col[:, None] + x_rows
    return u_right_up, u_up_right


def reconstruct_displacement(grid: Grid2, zeta: np.ndarray, tau: np.ndarray,
                             m: QuadraticMeasure) -> np.ndarray:
    """Displacement (ny, nx) from the dual pair by lattice path integration.

    Integrates gamma = tau/(2a*zeta) along the right-then-up path from the
    first fixed node.  The curl of gamma is audited first: a residual above
    max|gamma| * max(CURL_RTOL, 8*eps/min(hx, hy)) means the field is not a
    gradient and reconstruction is refused.  The second bound is the
    stencil's own rounding error on a constant strain, which outgrows
    CURL_RTOL on very thin rectangles.
    """
    gamma = _dual_strain(zeta[..., None], tau, m)
    resid = np.abs(curl2(grid, gamma))
    scale = max(float(np.max(np.abs(gamma))), 1e-300)
    tol = scale * max(CURL_RTOL, 8.0 * np.finfo(float).eps / min(grid.hx, grid.hy))
    worst = float(resid.max())
    if worst > tol:
        j, i = np.unravel_index(int(np.argmax(resid)), resid.shape)
        raise NonIntegrableFieldError(
            f"curl residual {worst:.3e} exceeds tolerance {tol:.3e} at node (i={i}, j={j}); "
            "the dual strain field is not a gradient",
            max_residual=worst, node=(int(i), int(j)),
        )
    return _two_path_integrals(grid, gamma)[0]


def path_discrepancy(grid: Grid2, zeta: np.ndarray, tau: np.ndarray, m: QuadraticMeasure) -> float:
    """max |u_right-up - u_up-right|: the path-independence audit."""
    u1, u2 = _two_path_integrals(grid, _dual_strain(zeta[..., None], tau, m))
    return float(np.max(np.abs(u1 - u2)))


def reconstruct_interval(interval, zeta: np.ndarray, tau: np.ndarray,
                         m: QuadraticMeasure) -> np.ndarray:
    """1-D counterpart on an IntervalGeometry: cumulative trapezoid of
    gamma = tau/(2a*zeta), zero at the interval's fixed end."""
    gamma = _dual_strain(np.asarray(zeta, dtype=float), np.asarray(tau, dtype=float), m)
    x = interval.x
    anchor = 0 if interval.fixed_end == "left" else x.size - 1
    return _cumtrapz_from(gamma, float(x[1] - x[0]), anchor, axis=0)


# ---------------------------------------------------------------------------
# CSV serialization: blocks of equal-length columns at 17 significant digits for
# lossless round-trips; scalar fields as x,y,value rows, row-major by y then x.
# The text of the columns is made by _csvtext, which only the commands that
# write CSV files import (and so compile).
# ---------------------------------------------------------------------------

#: rows formatted at once: each piece is written before the next is built
CSV_BLOCK_ROWS = 4096


def write_csv(path, header: str, blocks) -> None:
    """Write CSV rows from an iterable of column blocks, streamed.

    Each block is a list of equal-length columns (blocks may differ in
    length); its rows follow those of the block before.  Callers that hold
    whole columns pass [columns]; a generator of blocks lets the caller
    build each block only when the previous one is written.  A column holds
    floats ("%.17g"), non-negative ints ("%d") or ASCII str ("%s"); any other
    column, a negative int or a NUL in the text raises ValueError.  A column
    may also be a pair (table, index) of 1-D arrays, whose rows are
    table[index]: a float table of at most CSV_BLOCK_ROWS values is formatted
    once per file (while each block passes the same, unchanged table object
    in that column) and each piece gathers its text; a larger table is
    gathered a piece at a time.  An index outside its table or not of
    integers raises ValueError, as do columns of different lengths.  Each
    block is formatted and written in pieces of at most CSV_BLOCK_ROWS rows,
    so memory stays bounded by one piece, the small tables' text (at most
    160 KB each) and the caller's block, whatever the file size.  numpy
    makes the text of a whole column at once: a float's digits come from an
    exact scaling, with Python's "%.17g" only for the roundings that scaling
    cannot prove, once per distinct bit pattern.
    """
    from . import _csvtext

    words = {}     # by column position: its small table and the table's text
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for columns in blocks:
            cols = [_csvtext.table_column(*c, words, j, CSV_BLOCK_ROWS) if isinstance(c, tuple)
                    else np.asarray(c) for j, c in enumerate(columns)]
            if len({_csvtext.length(c) for c in cols}) > 1:
                raise ValueError("write_csv: the columns of a block differ in length")
            for start in range(0, _csvtext.length(cols[0]), CSV_BLOCK_ROWS):
                rows = slice(start, start + CSV_BLOCK_ROWS)
                _csvtext.write_piece(fh, [_csvtext.piece(c, rows) for c in cols])


_write_csv = write_csv   # field files; its own name for perfbench's tracer


def write_scalar_csv(path, x, y, values: np.ndarray) -> None:
    """x,y,value rows of a nodal field: x and y write_csv columns of n rows,
    such as (grid axis, node index) pairs, and values n entries in the same
    node order (a grid field ravelled row-major by y then x)."""
    _write_csv(path, "x,y,value", [[x, y, np.ravel(values)]])


def format_float(v: float) -> str:
    """The 17-significant-digit float format used in all emitted CSV files."""
    return _FMT % v
