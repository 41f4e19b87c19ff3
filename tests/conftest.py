"""Shared fixtures: random tetrahedron factory, a cached solved pair, and a
flat-partner configuration found by bisecting the solution family where the
partner's volume changes sign."""

from __future__ import annotations

import numpy as np
import pytest

from orthosect import analysis, cli, export, geom_core, orthology, pedal, solver
from orthosect.orthology import Tetrahedron, pair_tolerance
from orthosect.solver import (
    OrthosectSystem,
    SolverConfig,
    solve_detailed,
    trace_family,
)

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tetrahedron(rng: np.random.Generator, scale: float = 1.0,
                       min_volume: float = 0.05) -> Tetrahedron:
    """Well-conditioned random tetrahedron (volume bounded away from flat)."""
    while True:
        pts = rng.normal(size=(4, 3)) * scale
        tet = Tetrahedron.of(pts)
        if abs(tet.signed_volume) >= min_volume * scale**3:
            return tet


def random_similarity(rng: np.random.Generator, log_scale: float):
    """A random rotation, then scaling by 10**log_scale and a shift of up to
    three such scales, as a map of (n, 3) point arrays."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    scale = 10.0 ** log_scale
    shift = rng.normal(size=3) * scale * rng.uniform(0.0, 3.0)
    return lambda p: scale * p @ q.T + shift


def max_residual(a: Tetrahedron, b: Tetrahedron, tol=None) -> float:
    """The largest of the twelve orthosecting residuals of the pair, as the
    ``solve`` and ``conjugate`` commands read them."""
    system = OrthosectSystem(a, tol or pair_tolerance(a, b))
    return float(np.abs(system.residuals(b.array.reshape(12))).max())


def find_partner(a: Tetrahedron, base_seed: int) -> Tetrahedron:
    """First orthosecting partner found, escalating restarts if needed."""
    for attempt, restarts in enumerate((6, 18, 54)):
        result = solve_detailed(a, SolverConfig(seed=base_seed + 1000 * attempt,
                                                restarts=restarts))
        if result.solutions:
            return result.solutions[0]
    raise RuntimeError("no orthosecting partner found (unexpected for random input)")


def trace_vertices(trace) -> np.ndarray:
    """The distinct vertices of a curve trace in world coordinates, polyline
    by polyline (a cycle's repeated first vertex once), as an (n, 3)
    array."""
    uv = np.concatenate([poly.points[:poly.vertex_count] for poly in trace.polylines])
    return trace.origin + uv[:, :1] * trace.axis_u + uv[:, 1:] * trace.axis_v


@pytest.fixture(scope="session")
def demo_pair():
    rng = np.random.default_rng(42)
    a = random_tetrahedron(rng)
    b = find_partner(a, base_seed=0)
    return a, b, pair_tolerance(a, b)


def project_to_family(sys: OrthosectSystem, x: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Gauss-Newton projection of a nearby point onto the common zero set
    of the given residual rows of ``sys``; all twelve rows make it the
    solution family."""
    y = x.copy()
    for _ in range(50):
        r, jac, _ = sys.evaluate(y)
        r, jac = r[rows], jac[rows]
        if np.abs(r).max() <= 1e-14:
            break
        y = y + np.linalg.lstsq(jac, -r, rcond=1e-13)[0]
    return y


def five_point_partner(a: Tetrahedron, b: Tetrahedron, dropped: int,
                       rng: np.random.Generator) -> Tetrahedron:
    """A partner of ``a`` whose six edge pairs are orthogonal and whose
    pairs other than EDGE_PAIRINGS[dropped] intersect: the solved partner
    ``b`` moved 0.05 scene scales in a random direction, then projected
    onto the zero set of every residual row but that pairing's
    intersection row."""
    tol = pair_tolerance(a, b)
    step = rng.normal(size=12)
    x = b.array.reshape(12) + 0.05 * tol.scene_scale * step / np.linalg.norm(step)
    kept = np.delete(np.arange(12), 6 + dropped)
    return Tetrahedron(project_to_family(OrthosectSystem(a, tol), x, kept).reshape(4, 3))


def bisect_flat_partner(a: Tetrahedron, b: Tetrahedron,
                        steps: int = 30, h_factor: float = 0.04):
    """Walk the family from b until the partner volume changes sign, then
    bisect (with corrector projection) to a flat family member. Returns
    None when no crossing shows up in range."""
    tol = pair_tolerance(a, b)
    sys = OrthosectSystem(a, tol)
    for direction in (1, -1):
        branch = trace_family(a, b, steps=steps, h=h_factor * tol.scene_scale,
                              direction=direction, tol=tol)
        vols = [s.signed_volume for s in branch.samples]
        crossing = None
        for i in range(len(vols) - 1):
            if (vols[i] > 0) != (vols[i + 1] > 0):
                crossing = i
                break
        if crossing is None:
            continue
        xa = branch.samples[crossing].array.reshape(12)
        xb = branch.samples[crossing + 1].array.reshape(12)
        va = vols[crossing]
        for _ in range(100):
            xm = project_to_family(sys, 0.5 * (xa + xb))
            vm = Tetrahedron.of(xm.reshape(4, 3)).signed_volume
            if (vm > 0) == (va > 0):
                xa, va = xm, vm
            else:
                xb = xm
            if abs(vm) < 1e-13:
                break
        flat = Tetrahedron.of(project_to_family(sys, 0.5 * (xa + xb)).reshape(4, 3))
        min_edge = min(np.linalg.norm(flat.array[i] - flat.array[j])
                       for i in range(4) for j in range(i + 1, 4))
        if min_edge > 0.1 * tol.scene_scale and flat.is_flat():
            return flat
    return None


@pytest.fixture(scope="session")
def flat_pair():
    """(host, flat partner) frozen from a seed known to have a volume
    crossing with healthy edge lengths."""
    rng = np.random.default_rng(7)
    a = random_tetrahedron(rng, min_volume=0.0)
    b = solve_detailed(a, SolverConfig(seed=107, restarts=6)).solutions[0]
    flat = bisect_flat_partner(a, b, steps=20)
    assert flat is not None, "frozen flat-partner search regressed"
    return a, flat


@pytest.fixture()
def orthology_center_calls(monkeypatch):
    """The (a, b) arguments of every orthology-centers computation
    (``centers_from_residuals``, which ``orthology_centers`` also calls)
    made anywhere while the test runs."""
    calls = []
    real = orthology.centers_from_residuals

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    for module in (orthology, analysis, cli):
        monkeypatch.setattr(module, "centers_from_residuals", counted)
    return calls


@pytest.fixture()
def pair_measure_calls(monkeypatch):
    """The (a, b) arguments of every pair_measures call made anywhere while
    the test runs."""
    calls = []
    real = orthology.pair_measures

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    for module in (orthology, pedal, analysis, export, solver, cli):
        monkeypatch.setattr(module, "pair_measures", counted)
    return calls


@pytest.fixture()
def geometry_object_calls(monkeypatch):
    """Counts of the Line objects built and the Plane.through calls made,
    anywhere, while the test runs."""
    counts = {"Line": 0, "Plane.through": 0}
    real_post_init = geom_core.Line.__post_init__
    real_through = geom_core.Plane.through.__func__

    def line_post_init(self):
        counts["Line"] += 1
        real_post_init(self)

    def plane_through(cls, *args, **kwargs):
        counts["Plane.through"] += 1
        return real_through(cls, *args, **kwargs)

    monkeypatch.setattr(geom_core.Line, "__post_init__", line_post_init)
    monkeypatch.setattr(geom_core.Plane, "through", classmethod(plane_through))
    return counts
