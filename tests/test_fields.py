"""Grid fields: stream-function stress, divergence/curl, path reconstruction,
and the CSV writer."""
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triality import (
    Grid2,
    NonIntegrableFieldError,
    QuadraticMeasure,
    SingularDualError,
    boundary_traction,
    curl2,
    reconstruct_displacement,
    stress_from_stream,
)
from triality import _csvtext, fields
from triality.config import IntervalGeometry
from triality.fields import (
    CSV_BLOCK_ROWS,
    path_discrepancy,
    reconstruct_interval,
    write_csv,
    write_scalar_csv,
)

from conftest import antiplane_deformation_gradient, principal_invariants, read_csv, reference_csv


def unit_grid(n, fixed=("left",)):
    return Grid2(lx=1.0, ly=1.0, nx=n, ny=n, fixed_edges=frozenset(fixed))


def divergence(grid, v):
    """d v1/dx + d v2/dy of a (ny, nx, 2) field by numpy.gradient: the same
    second-order stencils as the library's, computed independently."""
    return (np.gradient(v[..., 0], grid.hx, axis=1, edge_order=2)
            + np.gradient(v[..., 1], grid.hy, axis=0, edge_order=2))


def test_grid_validation():
    # each message names the offending fields, which are also the config keys
    with pytest.raises(ValueError, match="nx, ny"):
        Grid2(lx=0.3, ly=0.3, nx=1, ny=4)
    with pytest.raises(ValueError, match="lx, ly"):
        Grid2(lx=-0.3, ly=0.3, nx=4, ny=4)
    with pytest.raises(ValueError, match="fixed_edges.*mixed boundary"):
        Grid2(lx=0.3, ly=0.3, nx=4, ny=4, fixed_edges=frozenset())
    with pytest.raises(ValueError, match="fixed_edges.*north"):
        Grid2(lx=0.3, ly=0.3, nx=4, ny=4, fixed_edges=frozenset({"north"}))
    g = Grid2(lx=0.3, ly=2.0, nx=4, ny=9)
    assert (g.hx, g.hy) == (0.3 / 3, 2.0 / 8)
    # a 2-node axis is a grid, but its stencil needs 3 nodes
    with pytest.raises(ValueError, match="at least 3 nodes"):
        stress_from_stream(Grid2(lx=0.3, ly=0.3, nx=2, ny=4), np.zeros((4, 2)))
    g = unit_grid(5, fixed=("left", "bottom"))
    mask = g.fixed_mask()
    assert mask[:, 0].all() and mask[0, :].all()
    assert not mask[1:, 1:].any()
    assert g.traction_edges == ("right", "top")


def test_stream_constant_and_zero():
    g = unit_grid(9)
    X, Y = g.coords()
    c = 2.5
    tau = stress_from_stream(g, c * Y)
    assert tau.shape == g.shape + (2,)
    assert np.allclose(tau[..., 0], c, atol=1e-13)
    assert np.allclose(tau[..., 1], 0.0, atol=1e-13)
    tau0 = stress_from_stream(g, np.zeros(g.shape))
    assert np.all(tau0 == 0.0)


def test_stream_bilinear_exact_divergence_free():
    g = unit_grid(9)
    X, Y = g.coords()
    tau = stress_from_stream(g, X * Y)
    assert np.allclose(tau[..., 0], X, atol=1e-13)
    assert np.allclose(tau[..., 1], -Y, atol=1e-13)
    assert np.max(np.abs(divergence(g, tau))) < 1e-12


def test_divergence_curl_hand_cases():
    g = unit_grid(7)
    X, Y = g.coords()
    const = np.stack([np.full(g.shape, 3.0), np.full(g.shape, -2.0)], axis=-1)
    assert np.max(np.abs(divergence(g, const))) < 1e-13
    assert np.max(np.abs(curl2(g, const))) < 1e-13
    radial = np.stack([X, Y], axis=-1)
    assert np.allclose(divergence(g, radial), 2.0, atol=1e-12)
    assert np.allclose(curl2(g, radial), 0.0, atol=1e-12)
    rot = np.stack([-Y, X], axis=-1)
    assert np.allclose(divergence(g, rot), 0.0, atol=1e-12)
    assert np.allclose(curl2(g, rot), 2.0, atol=1e-12)


def test_divergence_of_stream_under_refinement():
    # the x/y difference operators commute exactly (tensor products along
    # different axes), so the discrete divergence of a stream-function stress
    # sits at the roundoff floor at every resolution: stronger than the
    # O(h^2) decay this check was designed to measure
    for n in (17, 33, 65):
        g = unit_grid(n)
        X, Y = g.coords()
        psi = np.sin(2 * X) * np.cos(Y)
        tau = stress_from_stream(g, psi)
        scale = max(1.0, float(np.max(np.abs(tau)))) / g.hx
        assert np.max(np.abs(divergence(g, tau))) <= 1e-13 * scale


def test_boundary_traction_cases():
    g = unit_grid(6)
    X, Y = g.coords()
    c = 1.7
    tau = np.stack([np.full(g.shape, c), np.zeros(g.shape)], axis=-1)
    t = boundary_traction(g, tau)
    assert set(t) == {"right", "bottom", "top"}
    assert np.allclose(t["right"], c)
    assert np.allclose(t["top"], 0.0)
    tau2 = np.stack([X, -Y], axis=-1)
    t2 = boundary_traction(g, tau2)
    assert np.allclose(t2["right"], 1.0)   # n=(1,0), tau_x = x = 1
    assert np.allclose(t2["top"], -1.0)    # n=(0,1), tau_y = -y = -1


def test_reconstruct_constant_field_exact():
    m = QuadraticMeasure(1.0, 0.0)
    g = unit_grid(64)
    X, _ = g.coords()
    tau0, zeta0 = 0.8, 0.7480
    zeta = np.full(g.shape, zeta0)
    tau = np.stack([np.full(g.shape, tau0), np.zeros(g.shape)], axis=-1)
    u = reconstruct_displacement(g, zeta, tau, m)
    exact = tau0 * X / (2.0 * zeta0)
    assert u.shape == g.shape
    assert np.max(np.abs(u - exact)) <= 1e-12
    assert u[g.first_fixed_node()[1], g.first_fixed_node()[0]] == 0.0
    assert path_discrepancy(g, zeta, tau, m) <= 1e-12


def test_reconstruct_zero_stress():
    m = QuadraticMeasure(0.5, -1.0)
    g = unit_grid(8)
    u = reconstruct_displacement(g, np.full(g.shape, -1.0), np.zeros(g.shape + (2,)), m)
    assert np.all(u == 0.0)


def test_reconstruct_convergence_on_analytic_gradient_field(monkeypatch):
    # gamma = grad(u) for u = sin(x) sin(y); tau = 2 a zeta gamma with a
    # smooth positive zeta; trapezoid path integrals converge at order 2
    monkeypatch.setattr(fields, "CURL_RTOL", 1.0)  # analytic field: skip the O(h^2) curl audit
    m = QuadraticMeasure(1.0, 0.0)
    errs = []
    for n in (17, 33, 65):
        g = unit_grid(n)
        X, Y = g.coords()
        uex = np.sin(X) * np.sin(Y)
        zeta = 0.7 + 0.2 * np.cos(X + Y)
        gx = np.cos(X) * np.sin(Y)
        gy = np.sin(X) * np.cos(Y)
        tau = 2.0 * m.a * zeta[..., None] * np.stack([gx, gy], axis=-1)
        u = reconstruct_displacement(g, zeta, tau, m)
        errs.append(np.max(np.abs(u - uex)))
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_reconstruct_errors():
    m = QuadraticMeasure(1.0, 0.0)
    g = unit_grid(9)
    X, Y = g.coords()
    tau = np.stack([np.ones(g.shape), np.zeros(g.shape)], axis=-1)
    with pytest.raises(SingularDualError):
        reconstruct_displacement(g, np.zeros(g.shape) + 1e-16, tau, m)
    # rotational field is not a gradient: audit must refuse and report a node
    rot = np.stack([-Y, X], axis=-1)
    with pytest.raises(NonIntegrableFieldError) as exc:
        reconstruct_displacement(g, np.ones(g.shape), rot, m)
    assert exc.value.node is not None
    assert exc.value.max_residual > 0.0


def test_reconstruct_interval_matches_closed_form():
    m = QuadraticMeasure(0.5, -1.0)
    interval = IntervalGeometry(length=1.0, n=21)
    x = interval.x
    zeta = np.full(x.size, 1.0 / 3.0)
    tau = np.full(x.size, np.sqrt(8.0 / 27.0))
    u = reconstruct_interval(interval, zeta, tau, m)
    gamma = tau[0] / (2.0 * m.a * zeta[0])
    assert np.max(np.abs(u - gamma * x)) < 1e-14
    u_r = reconstruct_interval(IntervalGeometry(1.0, 21, fixed_end="right"), zeta, tau, m)
    assert abs(u_r[-1]) == 0.0


def test_antiplane_gradient_and_invariants(rng):
    F = antiplane_deformation_gradient([0.0, 0.0])
    assert np.array_equal(F, np.eye(3))
    assert principal_invariants(F) == pytest.approx((3.0, 3.0, 1.0), abs=1e-14)
    i1, i2, i3 = principal_invariants(antiplane_deformation_gradient([1.0, 0.0]))
    assert (i1, i2, i3) == pytest.approx((4.0, 4.0, 1.0), abs=1e-12)
    i1, _, i3 = principal_invariants(antiplane_deformation_gradient([3.0, 4.0]))
    assert i1 == pytest.approx(28.0, abs=1e-12)
    assert i3 == pytest.approx(1.0, abs=1e-12)
    for _ in range(100):
        gu = rng.standard_normal(2)
        F = antiplane_deformation_gradient(gu)
        assert abs(np.linalg.det(F) - 1.0) <= 1e-12
        i1, i2, i3 = principal_invariants(F)
        s = 3.0 + float(gu @ gu)
        assert abs(i1 - s) <= 1e-12 * (1.0 + s)
        assert abs(i2 - s) <= 1e-12 * (1.0 + s)
        assert abs(i3 - 1.0) <= 1e-12


def test_csv_round_trip(tmp_path, rng):
    g = unit_grid(5)
    vals = rng.standard_normal(g.shape)
    X, Y = g.coords()
    write_scalar_csv(tmp_path / "s.csv", X.ravel(), Y.ravel(), vals)
    header, data = read_csv(tmp_path / "s.csv")
    assert header == ["x", "y", "value"]
    assert data.shape == (g.nx * g.ny, 3)
    assert np.array_equal(data[:, 2].reshape(g.shape), vals)  # lossless at 17 digits
    assert np.array_equal(data[:, 0].reshape(g.shape), X)
    assert np.array_equal(data[:, 1].reshape(g.shape), Y)


# ---------------------------------------------------------------------------
# write_csv against a reference that formats every row with its own template
# ---------------------------------------------------------------------------

_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0]
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, _NAN_PAYLOAD, np.inf, -np.inf,
                  5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]


#: (table, index) kinds of write_csv column by table size: one value, one
#: piece's worth (formatted once per file) and one more (gathered per piece)
TABLE_SIZES = {"table-1": 1, "table-block": CSV_BLOCK_ROWS, "table-block+1": CSV_BLOCK_ROWS + 1}


def _column(kind, n, pool, rng):
    if kind in TABLE_SIZES:     # repeated pool values, both zeros and distinct ones
        values = np.concatenate([pool, [0.0, -0.0], rng.standard_normal(TABLE_SIZES[kind])])
        with np.errstate(over="ignore"):
            table = rng.choice(values, TABLE_SIZES[kind]).astype(rng.choice([np.float64, np.float32]))
        return table, rng.integers(0, table.size, n)    # repeated and unsorted
    if kind == "repeats":
        return np.asarray(pool, dtype=np.float64)[rng.integers(0, len(pool), n)]
    if kind == "distinct":
        return rng.standard_normal(n) * 10.0 ** int(rng.integers(-300, 300))
    if kind == "float32":
        with np.errstate(over="ignore"):  # pool values beyond float32 become inf
            return np.asarray(pool, dtype=np.float32)[rng.integers(0, len(pool), n)]
    if kind == "int":   # non-negative, up to the int64 maximum
        top = rng.integers(0, 2 ** 63 - 1, n, dtype=np.int64, endpoint=True)
        return top // rng.choice([1, 2 ** 60], n)
    return np.array(["local_min", "local_max", "saddle", "mixed"])[rng.integers(0, 4, n)]  # str


def _rows(column, rows, reverse=False):
    """The rows of a write_csv column: an array, or a (table, index) pair,
    whose table comes reversed (another object, in another order) on
    request."""
    if not isinstance(column, tuple):
        return column[rows]
    table, index = column
    return (table[::-1], table.size - 1 - index[rows]) if reverse else (table, index[rows])


def _assert_same_bytes(path, header, columns, cut=0):
    """The columns as one block, and split into two blocks at row cut, both
    give the reference bytes of table[index] for a (table, index) column.
    The second block's tables are reversed copies, so text kept from the
    first block's tables would show."""
    want = reference_csv(header, [c[0][c[1]] if isinstance(c, tuple) else c
                                  for c in columns]).encode("utf-8")
    write_csv(path, header, [columns])
    assert path.read_bytes() == want
    write_csv(path, header, [[_rows(c, slice(cut)) for c in columns],
                             [_rows(c, slice(cut, None), reverse=True) for c in columns]])
    assert path.read_bytes() == want


def test_write_csv_special_values_share_a_block(tmp_path):
    vals = np.array(SPECIAL_FLOATS)
    repeated = np.tile(vals, 3)
    _assert_same_bytes(tmp_path / "r.csv", "v", [repeated])
    assert b"\n-0\n" in (tmp_path / "r.csv").read_bytes()   # -0.0 keeps its sign
    _assert_same_bytes(tmp_path / "d.csv", "v,k", [vals, np.arange(vals.size)])  # all distinct bits


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@example(n=CSV_BLOCK_ROWS + 1, kinds=["table-block", "table-block+1", "table-1"], drawn=[],
         seed=3, split=0.5)
@example(n=CSV_BLOCK_ROWS, kinds=["table-block+1", "table-block"], drawn=[], seed=4, split=0.0)
@given(n=st.sampled_from([0, 1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]),
       kinds=st.lists(st.sampled_from(["repeats", "distinct", "float32", "int", "str",
                                       *TABLE_SIZES]), min_size=1, max_size=4),
       drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
       seed=st.integers(0, 2 ** 32 - 1), split=st.floats(0.0, 1.0))
def test_write_csv_matches_the_per_row_reference(tmp_path_factory, n, kinds, drawn, seed, split):
    rng = np.random.default_rng(seed)
    pool = drawn + SPECIAL_FLOATS
    columns = [_column(kind, n, pool, rng) for kind in kinds]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    _assert_same_bytes(tmp_path_factory.mktemp("csv") / "t.csv", header, columns, int(split * n))


def test_write_csv_memory_does_not_grow_with_the_file(tmp_path):
    """The traced peak of a 60k-row write exceeds that of a 20k-row write by
    less than one block of formatted text, with and without repeated values,
    and with (table, index) columns of a small table and of one larger than
    a piece."""
    rng = np.random.default_rng(7)
    small, large = rng.standard_normal(121), rng.standard_normal(3 * CSV_BLOCK_ROWS)
    for case in ("repeats", "distinct", "tables"):
        peaks = {}
        for n in (20_000, 60_000):
            if case == "repeats":
                cols = [np.tile(np.linspace(0.0, 1.0, 121), n // 121 + 1)[:n],
                        np.repeat(np.linspace(0.0, 1.0, 121), n // 121 + 1)[:n], np.full(n, 0.18)]
            elif case == "distinct":
                cols = [rng.standard_normal(n) for _ in range(3)]
            else:
                cols = [(small, rng.integers(0, small.size, n)),
                        (large, rng.integers(0, large.size, n)), rng.standard_normal(n)]
            path = tmp_path / f"m{n}.csv"
            tracemalloc.start()
            write_csv(path, "a,b,c", [cols])
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            with open(path, "rb") as fh:
                lines = fh.readlines()
            assert len(lines) == n + 1
        block_text = sum(map(len, lines[1:CSV_BLOCK_ROWS + 1]))
        assert abs(peaks[60_000] - peaks[20_000]) < block_text, (case, peaks, block_text)


# ---------------------------------------------------------------------------
# the float text of write_csv, value by value against "%.17g"
# ---------------------------------------------------------------------------

def _assert_printed_as_17g(path, values):
    values = np.asarray(values, dtype=np.float64)
    write_csv(path, "v", [[values]])
    got = path.read_bytes().split(b"\n")[1:-1]
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != b"%.17g" % v]
    assert len(got) == values.size and not bad, bad[:5]


def _fixed_floats() -> np.ndarray:
    """Powers of ten and their neighbours, range ends, both sides of the two
    fixed/exponent switches, exact 17-digit ties, and integers above 2^53
    whose 18th digit is 5."""
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    ends = [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1e16, 1e17,
            2.0 ** 53, 2.0 ** 53 + 2.0, 1e-280, 1e280]
    switches = [np.nextafter(v, d) for v in (1e-4, 1e17) for d in (0.0, np.inf)]
    for _ in range(3):
        switches += [np.nextafter(v, d) for v, d in zip(switches[-4:], (0.0, np.inf) * 2)]
    # an exact tie needs an 18-digit decimal ending in 5: 10^(16-e) is then a
    # double (half to even) or not (3 * 2^-24, left to Python's formatting)
    ties = [1e14 + 0.125, 1e15 + 0.25, 1e15 + 0.75, 5816408364095.03125, 3 * 2.0 ** -24]
    ints = [float(10 ** 18 + 128 * k) for k in range(400) if str(10 ** 18 + 128 * k)[17] == "5"]
    assert ints
    fixed = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                            ends, switches, ties, ints])
    return np.concatenate([fixed, -fixed])


def test_float_text_of_fixed_values_is_17g(tmp_path):
    _assert_printed_as_17g(tmp_path / "f.csv", _fixed_floats())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_float_text_of_any_bit_pattern_is_17g(tmp_path_factory, patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    _assert_printed_as_17g(tmp_path_factory.mktemp("bits") / "b.csv", values)


def test_fast_path_proves_nearly_every_rounding():
    """Python's formatting is a fallback for the roundings the scaling cannot
    prove (near-ties, values next to a power of ten): on a random sample the
    exact scaling proves at least 99.9% of them."""
    rng = np.random.default_rng(11)
    a = np.abs(rng.standard_normal(100_000)) * 10.0 ** rng.integers(-200, 200, 100_000)
    _, _, unproved = _csvtext._significands(a)
    assert unproved.size <= 1e-3 * a.size


_TABLE = np.arange(3.0)


@pytest.mark.parametrize("column", [np.array(["ok", "a"], dtype=object), np.array(["ok", "é"]),
                                    np.array(["ok", "a\0b"]), np.array([0, -1]),
                                    np.array([True, False]), np.arange(3.0),
                                    (_TABLE, np.array([0, -1])), (_TABLE, np.array([0, 3])),
                                    (np.arange(CSV_BLOCK_ROWS + 1.0), np.array([0, CSV_BLOCK_ROWS + 1])),
                                    (_TABLE, np.array([0.0, 1.0])), (_TABLE, np.array([0, 1, 2]))],
                         ids=["object", "non-ascii", "nul", "negative-int", "bool", "length",
                              "index-negative", "index-past-table", "index-past-large-table",
                              "index-float", "index-length"])
def test_write_csv_refuses_other_columns(tmp_path, column):
    # the writer takes float, non-negative int and ASCII str columns, and
    # (table, index) columns whose index is of integers inside the table, all
    # of one length
    with pytest.raises(ValueError, match="write_csv"):
        write_csv(tmp_path / "t.csv", "t", [[np.arange(2.0), column]])
