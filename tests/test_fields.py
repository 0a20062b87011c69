"""Grid fields: stream-function stress, divergence/curl, path reconstruction,
and the CSV writer."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from triality import fields
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
    write_scalar_csv(tmp_path / "s.csv", np.column_stack([X.ravel(), Y.ravel()]), vals)
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


def _column(kind, n, pool, rng):
    if kind == "repeats":
        return np.asarray(pool, dtype=np.float64)[rng.integers(0, len(pool), n)]
    if kind == "distinct":
        return rng.standard_normal(n) * 10.0 ** int(rng.integers(-300, 300))
    if kind == "float32":
        with np.errstate(over="ignore"):  # pool values beyond float32 become inf
            return np.asarray(pool, dtype=np.float32)[rng.integers(0, len(pool), n)]
    if kind == "int":
        return rng.integers(-2 ** 62, 2 ** 62, n, dtype=np.int64) // rng.choice([1, 2 ** 60], n)
    if kind == "str":
        return np.array(["local_min", "local_max", "saddle", "mixed"])[rng.integers(0, 4, n)]
    return np.array(["a", "bb", "-0"], dtype=object)[rng.integers(0, 3, n)]  # object


def _assert_same_bytes(path, header, columns, cut=0):
    """The columns as one block, and split into two blocks at row cut, both
    give the reference bytes."""
    want = reference_csv(header, columns).encode("utf-8")
    write_csv(path, header, [columns])
    assert path.read_bytes() == want
    write_csv(path, header, [[c[:cut] for c in columns], [c[cut:] for c in columns]])
    assert path.read_bytes() == want


def test_write_csv_special_values_share_a_block(tmp_path):
    vals = np.array(SPECIAL_FLOATS)
    repeated = np.tile(vals, 3)
    _assert_same_bytes(tmp_path / "r.csv", "v", [repeated])
    assert b"\n-0\n" in (tmp_path / "r.csv").read_bytes()   # -0.0 keeps its sign
    _assert_same_bytes(tmp_path / "d.csv", "v,k", [vals, np.arange(vals.size)])  # all distinct bits


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([0, 1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]),
       kinds=st.lists(st.sampled_from(["repeats", "distinct", "float32", "int", "str", "object"]),
                      min_size=1, max_size=4),
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
    less than one block of formatted text, with and without repeated values."""
    rng = np.random.default_rng(7)
    for repeats in (True, False):
        peaks = {}
        for n in (20_000, 60_000):
            if repeats:
                cols = [np.tile(np.linspace(0.0, 1.0, 121), n // 121 + 1)[:n],
                        np.repeat(np.linspace(0.0, 1.0, 121), n // 121 + 1)[:n], np.full(n, 0.18)]
            else:
                cols = [rng.standard_normal(n) for _ in range(3)]
            path = tmp_path / f"m{n}.csv"
            tracemalloc.start()
            write_csv(path, "a,b,c", [cols])
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            with open(path, "rb") as fh:
                lines = fh.readlines()
            assert len(lines) == n + 1
        block_text = sum(map(len, lines[1:CSV_BLOCK_ROWS + 1]))
        assert abs(peaks[60_000] - peaks[20_000]) < block_text, (repeats, peaks, block_text)
