"""Independent correctness gate for benchmark outputs.

Root counts, residuals, triality labels and dual densities are recomputed
here from the closed forms of the two built-in models and compared with the
CSV files the CLI wrote.  Nothing from the ``triality`` package is imported,
so a defect in the code under test cannot hide itself from the gate.

Every ``check_*`` function returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

from workloads import Model, Step

RESIDUAL_RTOL = 1e-10     # |D(zeta)| <= 1e-10 * max(1, tau^2)
GAP_RTOL = 1e-8           # |Pi - Pi_d| <= 1e-8 * max(1, |Pi_d|)
FOLD_BAND = 1e-9          # |tau^2 - eta^2| <= FOLD_BAND*eta^2: count is ambiguous
EIG_BAND = 1e-9           # |Hessian eigenvalue| below this (relative): label ambiguous
COORD_TOL = 1e-12
TAU_SQ_RTOL = 1e-9
DENSITY_RTOL = 1e-10
FIELD_RTOL = 1e-9
MAX_PROBLEMS = 20         # stop collecting after this many

_VERIFY_OK = re.compile(r"^\[verify\] OK: (\d+)/(\d+) checks passed$")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def dvstar(m: Model, z: float) -> float:
    if m.kind == "double_well":
        return z / m.alpha
    return math.exp((z - m.c1) / m.c2 - 1.0)


def vstar(m: Model, z: float) -> float:
    if m.kind == "double_well":
        return z * z / (2.0 * m.alpha)
    return m.c2 * math.exp((z - m.c1) / m.c2 - 1.0)


def d2v(m: Model, xi: float) -> float:
    return m.alpha if m.kind == "double_well" else m.c2 / xi


def residual(m: Model, z: float, t2: float) -> float:
    return abs(4.0 * m.a * z * z * (dvstar(m, z) - m.b) - t2)


def residual_tol(t2: float) -> float:
    return RESIDUAL_RTOL * max(1.0, t2)


def fold_eta_sq(m: Model) -> float:
    """Fold level eta^2 of the derived dual curve (maximum over zeta < 0)."""
    if m.kind == "double_well":
        zc = 2.0 * m.b * m.alpha / 3.0
    else:
        zc = -2.0 * m.c2
    return 4.0 * m.a * zc * zc * (dvstar(m, zc) - m.b)


def expected_counts(m: Model, t2: float) -> set[int]:
    """Admissible numbers of real dual roots at tau^2 = t2."""
    eta2 = fold_eta_sq(m)
    if t2 == 0.0:
        # double well: the negative root zeta = alpha*b; log model: none
        return {1} if m.kind == "double_well" else {0}
    if abs(t2 - eta2) <= FOLD_BAND * eta2:
        return {2, 3}
    return {3} if t2 < eta2 else {1}


def expected_labels(m: Model, z: float, t2: float, dim: int) -> set[str]:
    """Admissible triality labels of the root z (Hessian of the composed energy)."""
    if z > 0.0:
        return {"global_min"}
    a = m.a
    gsq = t2 / (4.0 * a * a * z * z)
    along = 2.0 * a * z + 4.0 * a * a * d2v(m, dvstar(m, z)) * gsq
    perp = 2.0 * a * z
    if abs(along) <= EIG_BAND * (1.0 + abs(perp)):
        return {"degenerate", "local_max", "local_min", "saddle"}
    eigs = [along] + [perp] * (dim - 1)
    if all(e > 0.0 for e in eigs):
        return {"local_min"}
    if all(e < 0.0 for e in eigs):
        return {"local_max"}
    return {"saddle"}


def dual_density(m: Model, z: float, t2: float) -> float:
    return m.b * z - vstar(m, z) - t2 / (4.0 * m.a * z)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def digests(outdir: Path, stdout: bytes) -> dict[str, str]:
    """SHA-256 of every output file (recursively) and of the captured stdout."""
    out = {"<stdout>": hashlib.sha256(stdout).hexdigest()}
    for p in sorted(outdir.rglob("*")):
        if p.is_file():
            out[p.relative_to(outdir).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def compare_digests(reference: dict, digests: dict, what: str) -> list[str]:
    """Per-step output digests must equal the reference byte for byte."""
    steps = sorted(set(reference) | set(digests))
    changed = [f"{s}/{f}" for s in steps
               for f in sorted(set(reference.get(s, {})) | set(digests.get(s, {})))
               if reference.get(s, {}).get(f) != digests.get(s, {}).get(f)]
    return [f"outputs differ from {what}: {changed}"] if changed else []


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_roots_csv(path: Path, step: Step) -> list[str]:
    header, rows = read_csv(path)
    if header != ["x", "y", "tau_sq", "k", "zeta", "residual", "label"]:
        return [f"{path.name}: unexpected header {header}"]
    m, probs = step.model, []
    r = 0
    for i, (x, y, t2) in enumerate(step.nodes):
        want = expected_counts(m, t2)
        block = []
        while r < len(rows) and len(block) < 3:
            row = rows[r]
            try:
                same = abs(float(row[0]) - x) <= COORD_TOL and abs(float(row[1]) - y) <= COORD_TOL
            except (ValueError, IndexError):
                return probs + [f"{path.name}: malformed row {r + 2}"]
            if not same:
                break
            block.append(row)
            r += 1
        if len(block) not in want:
            probs.append(f"{path.name}: node {i} at ({x!r}, {y!r}) has {len(block)} roots, "
                         f"expected {sorted(want)} for tau^2={t2!r}")
        for row in block:
            probs += _check_root_row(row, m, t2, step.dim, path.name)
        if len(probs) >= MAX_PROBLEMS:
            return probs
    if r != len(rows):
        probs.append(f"{path.name}: {len(rows) - r} rows beyond the expected nodes (at row {r + 2})")
    return probs


def _check_root_row(row: list[str], m: Model, t2: float, dim: int, name: str) -> list[str]:
    if len(row) != 7:
        return [f"{name}: row {row} has {len(row)} fields"]
    t2_csv, k, z, res = float(row[2]), row[3], float(row[4]), float(row[5])
    probs = []
    if not _close(t2_csv, t2, TAU_SQ_RTOL):
        probs.append(f"{name}: tau_sq {t2_csv!r} differs from the load's {t2!r}")
    if (z > 0.0) != (k == "1"):
        probs.append(f"{name}: slot {k} holds zeta={z!r}")
    tol = residual_tol(t2)
    if not residual(m, z, t2) <= tol:
        probs.append(f"{name}: zeta={z!r} has residual {residual(m, z, t2):.3e} > {tol:.1e}")
    if not abs(res) <= tol:
        probs.append(f"{name}: reported residual {res!r} exceeds {tol:.1e}")
    if row[6] not in expected_labels(m, z, t2, dim):
        probs.append(f"{name}: zeta={z!r} labelled {row[6]}, expected "
                     f"{sorted(expected_labels(m, z, t2, dim))}")
    return probs


def check_energy_csv(path: Path, step: Step) -> list[str]:
    header, rows = read_csv(path)
    if header != ["tau_sq", "zeta", "label", "primal", "dual", "gap"]:
        return [f"{path.name}: unexpected header {header}"]
    probs = []
    if len(rows) != step.full_branches:
        probs.append(f"{path.name}: {len(rows)} branch rows, expected {step.full_branches}")
    for row in rows:
        primal, dual, gap = (float(v) for v in row[3:6])
        lim = GAP_RTOL * max(1.0, abs(dual))
        if not abs(gap) <= lim:
            probs.append(f"{path.name}: gap {gap!r} exceeds {lim:.1e}")
        if not abs(primal - dual - gap) <= lim:
            probs.append(f"{path.name}: gap column {gap!r} is not primal - dual")
    return probs


def check_report(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[-1].startswith("duality-gap check: OK"):
        return [f"{path.name}: does not end with the duality-gap OK line"]
    return []


def check_fields_csv(path: Path, step: Step, zeta: float) -> list[str]:
    """Constant load: u is linear, u = gamma.(p - p0), gamma = tau/(2a*zeta), where
    p0 is the first node (bottom-left corner, the first node of the fixed left edge)."""
    header, rows = read_csv(path)
    if header != ["x", "y", "value"]:
        return [f"{path.name}: unexpected header {header}"]
    if len(rows) != len(step.nodes):
        return [f"{path.name}: {len(rows)} rows, expected {len(step.nodes)}"]
    gx, gy = (t / (2.0 * step.model.a * zeta) for t in step.tau_vec)
    x0, y0, _ = step.nodes[0]
    want = [gx * (x - x0) + gy * (y - y0) for x, y, _ in step.nodes]
    scale = max(1.0, max(abs(w) for w in want))
    probs = []
    for (x, y, _), row, w in zip(step.nodes, rows, want):
        if abs(float(row[0]) - x) > COORD_TOL or abs(float(row[1]) - y) > COORD_TOL:
            return [f"{path.name}: node ({row[0]}, {row[1]}) out of order, expected ({x!r}, {y!r})"]
        if not abs(float(row[2]) - w) <= FIELD_RTOL * scale:
            probs.append(f"{path.name}: u({x!r}, {y!r}) = {row[2]}, expected {w!r}")
            if len(probs) >= MAX_PROBLEMS:
                break
    return probs


def check_sweep_csv(path: Path, step: Step) -> list[str]:
    header, rows = read_csv(path)
    if header != ["tau", "root_count", "zeta1", "zeta2", "zeta3", "Pi_d_1", "Pi_d_2", "Pi_d_3"]:
        return [f"{path.name}: unexpected header {header}"]
    if len(rows) != len(step.taus):
        return [f"{path.name}: {len(rows)} rows, expected {len(step.taus)}"]
    m, probs = step.model, []
    for i, (row, tau) in enumerate(zip(rows, step.taus)):
        if len(row) != 8:
            probs.append(f"{path.name}: row {i + 2} has {len(row)} fields")
            continue
        t = float(row[0])
        if abs(t - tau) > COORD_TOL * max(1.0, tau):
            probs.append(f"{path.name}: row {i + 2} tau {t!r}, expected {tau!r}")
            continue
        t2 = t * t
        zetas = [float(v) for v in row[2:5]]
        found = [k for k in range(3) if not math.isnan(zetas[k])]
        want = expected_counts(m, t2)
        if int(row[1]) != len(found) or len(found) not in want:
            probs.append(f"{path.name}: tau={t!r} root_count {row[1]} with {len(found)} roots, "
                         f"expected {sorted(want)}")
        for k in found:
            z = zetas[k]
            if (z > 0.0) != (k == 0):
                probs.append(f"{path.name}: tau={t!r} slot {k + 1} holds zeta={z!r}")
            if not residual(m, z, t2) <= residual_tol(t2):
                probs.append(f"{path.name}: tau={t!r} zeta={z!r} residual "
                             f"{residual(m, z, t2):.3e}")
            pd = float(row[5 + k])
            if not _close(pd, dual_density(m, z, t2), DENSITY_RTOL):
                probs.append(f"{path.name}: tau={t!r} Pi_d_{k + 1} = {pd!r}, expected "
                             f"{dual_density(m, z, t2)!r}")
        if not all(math.isnan(float(row[5 + k])) for k in range(3) if k not in found):
            probs.append(f"{path.name}: tau={t!r} has a dual density without a root")
        if len(found) == 3 and not zetas[1] > zetas[2]:
            probs.append(f"{path.name}: tau={t!r} negative roots not descending")
        if len(probs) >= MAX_PROBLEMS:
            break
    return probs


def check_verify_stdout(stdout: bytes) -> list[str]:
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    match = _VERIFY_OK.match(lines[-1]) if lines else None
    if not match or match.group(1) != match.group(2):
        return ["verify: stdout does not end with its OK line"]
    return []


def check_step(step: Step, outdir: Path, stdout: bytes, returncode: int) -> list[str]:
    """All checks for one CLI invocation."""
    try:
        return _check_step(step, outdir, stdout, returncode)
    except (ValueError, IndexError, KeyError) as exc:  # unparsable output
        return [f"{step.name}: malformed output: {exc!r}"]


def _check_step(step: Step, outdir: Path, stdout: bytes, returncode: int) -> list[str]:
    if returncode != 0:
        return [f"{step.name}: exit code {returncode}"]
    if step.command == "verify":
        return check_verify_stdout(stdout)
    missing = [f for f in step.files if not (outdir / f).is_file()]
    if missing:
        return [f"{step.name}: missing outputs {missing}"]
    if step.command == "sweep":
        return check_sweep_csv(outdir / "sweep.csv", step)
    probs = check_roots_csv(outdir / "roots.csv", step)
    probs += check_energy_csv(outdir / "energy_report.csv", step)
    probs += check_report(outdir / "report.txt")
    if step.tau_vec is not None and not probs:
        _, rows = read_csv(outdir / "roots.csv")
        first = {row[3]: float(row[4]) for row in rows[:3]}  # node 0 holds every branch
        for k in range(1, step.full_branches + 1):
            probs += check_fields_csv(outdir / f"fields_u_{k}.csv", step, first[str(k)])
    return probs
