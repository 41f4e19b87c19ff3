"""Sphere verification, conjugation, curve tracing, degree estimation and
conjugate sequences."""

import itertools

import numpy as np
import pytest

from conftest import find_partner, random_tetrahedron
from orthosect.analysis import (
    conjugate,
    default_window,
    estimate_degree,
    iterate_sequence,
    trace_curve,
    verify_sphere,
)
from orthosect.errors import NotOrthologicError, NotOrthosectingError
from orthosect.geom_core import Plane, SphereOrPlane, project_to_plane, sphere_through
from orthosect.orthology import EDGE_PAIRINGS, Tetrahedron, pair_tolerance
from orthosect.pedal import chain_sphere_residual, isogonal_conjugate
from orthosect.solver import (
    SolverConfig,
    intersection_gaps,
    orthosect_residuals,
    solve_detailed,
)

T_REG = Tetrahedron.of([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


# --- verify_sphere ----------------------------------------------------------


def test_verify_sphere_on_solution(demo_pair):
    a, b, tol = demo_pair
    rep = verify_sphere(a, b, tol=tol)
    assert rep.carrier.kind == "sphere"
    assert len(rep.residuals) == 6
    assert rep.max_abs_residual <= 1e-8
    assert rep.midpoint_gap is not None and rep.midpoint_gap <= 1e-8


def test_verify_sphere_rejects_skew_pair():
    with pytest.raises(NotOrthosectingError) as err:
        verify_sphere(T_REG, T_REG)
    assert err.value.gaps is not None


def test_verify_sphere_rejects_nonorthologic():
    rng = np.random.default_rng(0)
    with pytest.raises(NotOrthologicError):
        verify_sphere(random_tetrahedron(rng), random_tetrahedron(rng))


def test_verify_sphere_flat_partner(flat_pair):
    a, flat = flat_pair
    rep = verify_sphere(a, flat)
    assert rep.carrier.kind == "plane"
    assert rep.max_abs_residual <= 1e-7


def test_verify_sphere_five_point_variant():
    rng = np.random.default_rng(5)
    a = random_tetrahedron(rng)
    skip = EDGE_PAIRINGS[2]
    result = solve_detailed(a, SolverConfig(seed=21, restarts=12),
                            skip_intersection=skip)
    assert result.solutions
    b = result.solutions[0]
    gaps = intersection_gaps(a, b)
    kept = [g for p, g in gaps.items() if p != skip]
    assert max(kept) <= 1e-10
    rep = verify_sphere(a, b, five_point=True)
    assert len(rep.residuals) == 5
    assert rep.max_abs_residual <= 1e-7


def _best_four_carrier(points, tol):
    """Reference: the carrier verify_sphere used to fit, the exact sphere
    through the four points spanning the largest volume, or the SVD plane
    of all the points when those four are flat."""
    best, subset = -1.0, None
    for quad in itertools.combinations(range(len(points)), 4):
        vol = abs(float(np.linalg.det(points[list(quad[1:])] - points[quad[0]])))
        if vol > best:
            best, subset = vol, quad
    if best <= tol.eps_rel * tol.scene_scale**3:
        centroid = points.mean(axis=0)
        n = np.linalg.svd(points - centroid)[2][-1]
        return SphereOrPlane.plane(Plane(normal=n, offset=float(np.dot(n, centroid))))
    return sphere_through(*points[list(subset)], tol=tol)


# how far the least-squares carrier may sit from the best-four one: centre
# and radius relative to the radius (plane normal and offset relative to
# the scene scale), and the max point residual in scene scales
FIT_BOUND = 1e-11
RESIDUAL_BOUND = 1e-12


def test_verify_sphere_fit_matches_best_four_reference(demo_pair, flat_pair):
    rng = np.random.default_rng(17)
    pairs = [demo_pair[:2], flat_pair]
    for log_scale in (-6.0, 0.0, 6.0):
        a = random_tetrahedron(rng)
        b = find_partner(a, base_seed=int(rng.integers(1 << 20)))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3) * 2.0 * 10.0 ** log_scale
        pairs.append(tuple(Tetrahedron.of(10.0 ** log_scale * t.array @ q.T + shift)
                           for t in (a, b)))
    kinds = []
    for a, b in pairs:
        tol = pair_tolerance(a, b)
        rep = verify_sphere(a, b, tol=tol)
        points = np.array([p.array for p in rep.points.values()])
        ref = _best_four_carrier(points, tol)
        assert rep.carrier.kind == ref.kind
        kinds.append(ref.kind)
        if ref.kind == "sphere":
            assert rep.carrier.center.distance_to(ref.center) <= FIT_BOUND * ref.radius
            assert abs(rep.carrier.radius - ref.radius) <= FIT_BOUND * ref.radius
        else:
            got, want = rep.carrier.carrier, ref.carrier
            sign = 1.0 if np.dot(got.normal, want.normal) > 0 else -1.0
            assert np.abs(got.normal - sign * want.normal).max() <= FIT_BOUND
            assert abs(got.offset - sign * want.offset) <= FIT_BOUND * tol.scene_scale
        ref_residual = max(abs(ref.signed_distance(p)) for p in points) / tol.scene_scale
        assert abs(rep.max_abs_residual - ref_residual) <= RESIDUAL_BOUND
    assert kinds == ["sphere", "plane", "sphere", "sphere", "sphere"]


@pytest.mark.parametrize("call", [
    lambda a, b: verify_sphere(a, b),
    lambda a, b: conjugate(a, b),
    lambda a, b: iterate_sequence(a, b, 3),
], ids=["verify_sphere", "conjugate", "iterate_sequence"])
def test_orthosecting_guard_exception_classes(call):
    """A pair that is not orthologic raises NotOrthologicError, which
    callers catching NotOrthosectingError catch too; an orthologic pair
    whose edges miss raises NotOrthosectingError only."""
    rng = np.random.default_rng(0)
    with pytest.raises(NotOrthologicError) as err:
        call(random_tetrahedron(rng), random_tetrahedron(rng))
    assert isinstance(err.value, NotOrthosectingError)
    assert max(err.value.residuals.values()) > 1e-7
    with pytest.raises(NotOrthosectingError) as err:
        call(T_REG, T_REG)
    assert not isinstance(err.value, NotOrthologicError)
    assert max(err.value.gaps.values()) > 1e-7


# --- conjugate --------------------------------------------------------------


def test_conjugate_involution(demo_pair):
    a, b, tol = demo_pair
    c = conjugate(a, b, tol)
    assert orthosect_residuals(a, c, tol).max_abs <= tol.eps_rel
    back = conjugate(a, c, tol)
    assert np.abs(back.array - b.array).max() <= 1e-7 * tol.scene_scale


def test_conjugate_shares_carrier(demo_pair):
    a, b, tol = demo_pair
    c = conjugate(a, b, tol)
    rep_b = verify_sphere(a, b, tol=tol)
    rep_c = verify_sphere(a, c, tol=tol)
    assert rep_b.carrier.kind == rep_c.carrier.kind == "sphere"
    gap = rep_b.carrier.center.distance_to(rep_c.carrier.center)
    assert gap <= 1e-8 * tol.scene_scale
    assert abs(rep_b.carrier.radius - rep_c.carrier.radius) <= 1e-8 * tol.scene_scale


def test_conjugate_is_distinct(demo_pair):
    a, b, tol = demo_pair
    c = conjugate(a, b, tol)
    assert np.abs(c.array - b.array).max() > 1e-3 * tol.scene_scale


def test_conjugate_requires_orthosecting_pair():
    with pytest.raises(NotOrthosectingError):
        conjugate(T_REG, T_REG)


# --- trace_curve ------------------------------------------------------------


@pytest.fixture(scope="module")
def traced(demo_pair):
    a, b, tol = demo_pair
    return trace_curve(a, 4, grid=48, tol=tol)


def test_trace_curve_finds_solution_projection(demo_pair, traced):
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    d = b4.array - traced.origin.array
    uv = np.array([np.dot(d, traced.axis_u), np.dot(d, traced.axis_v)])
    best = min(np.linalg.norm(poly.points - uv, axis=1).min()
               for poly in traced.polylines)
    cell = (traced.window[2] - traced.window[0]) / (traced.grid - 1)
    assert best <= 2 * cell


def test_trace_curve_vertices_on_curve(demo_pair, traced):
    a, b, tol = demo_pair
    assert traced.vertex_count > 50
    assert traced.residual_bound <= 1e-6
    count = 0
    for branch, uv, res, tval in traced.iter_vertices():
        if count >= 25:
            break
        fs = chain_sphere_residual(a, traced.to_world(uv), tol)
        assert fs and min(abs(f) for f in fs) <= 1e-6
        count += 1


def test_trace_curve_self_conjugacy(demo_pair, traced):
    a, b, tol = demo_pair
    face = (a.vertex(1), a.vertex(2), a.vertex(3))
    checked = 0
    for branch, uv, res, tval in traced.iter_vertices():
        if checked >= 25:
            break
        p = traced.to_world(uv)
        try:
            q = isogonal_conjugate(p, face, tol)
            fs = chain_sphere_residual(a, q, tol)
        except Exception:
            continue
        if not fs:
            continue
        assert min(abs(f) for f in fs) <= 1e-5
        checked += 1
    assert checked >= 10


def test_trace_curve_empty_window(demo_pair):
    a, b, tol = demo_pair
    # a tiny window far outside the inflated triangle carries no curve points
    x0, y0, x1, y1 = default_window(a, 4)
    span = max(x1 - x0, y1 - y0)
    far = (x1 + 5 * span, y1 + 5 * span, x1 + 5.3 * span, y1 + 5.3 * span)
    trace = trace_curve(a, 4, window=far, grid=16, tol=tol)
    assert trace.polylines == ()
    assert trace.vertex_count == 0


def test_trace_curve_grid_validation(demo_pair):
    a, b, tol = demo_pair
    with pytest.raises(ValueError):
        trace_curve(a, 4, grid=8, tol=tol)


def test_trace_curve_symmetric_host():
    # host symmetric about x=0; face 4 and its curve inherit the symmetry
    a = Tetrahedron.of([(-1, 0, 0), (1, 0, 0), (0, 1.6, 0), (0, 0.5, 1.3)])
    trace = trace_curve(a, 4, grid=48)
    assert trace.polylines
    # frame: origin on the symmetry plane, axis_u along x: u -> -u symmetry
    pts = np.vstack([poly.points for poly in trace.polylines])
    cell = (trace.window[2] - trace.window[0]) / (trace.grid - 1)
    sampled = pts[:: max(1, len(pts) // 60)]
    for uv in sampled:
        mirrored = np.array([-uv[0], uv[1]])
        dist = np.linalg.norm(pts - mirrored, axis=1).min()
        assert dist <= 2.0 * cell


# --- estimate_degree --------------------------------------------------------


def test_estimate_degree_reports(traced):
    est = estimate_degree(traced, trials=150, rng_seed=3)
    assert est.lines == 150
    assert sum(est.counts.values()) == 150
    assert est.max_count >= 1
    assert 0 in est.counts  # some random chords miss the curve entirely


def test_estimate_degree_empty_trace_raises(demo_pair):
    a, b, tol = demo_pair
    x0, y0, x1, y1 = default_window(a, 4)
    span = max(x1 - x0, y1 - y0)
    far = (x1 + 5 * span, y1 + 5 * span, x1 + 5.2 * span, y1 + 5.2 * span)
    empty = trace_curve(a, 4, window=far, grid=16, tol=tol)
    with pytest.raises(ValueError):
        estimate_degree(empty, trials=10, rng_seed=0)


def test_estimate_degree_grid_stability(demo_pair):
    # refining the grid may only change counts near tangencies
    a, b, tol = demo_pair
    coarse = trace_curve(a, 4, grid=32, tol=tol)
    fine = trace_curve(a, 4, grid=64, tol=tol)
    est_c = estimate_degree(coarse, trials=120, rng_seed=9)
    est_f = estimate_degree(fine, trials=120, rng_seed=9)
    # same seed, same lines: distributions may shift only by a few lines
    diff = 0
    keys = set(est_c.counts) | set(est_f.counts)
    for k in keys:
        diff += abs(est_c.counts.get(k, 0) - est_f.counts.get(k, 0))
    assert diff / 2 <= max(est_c.tangency_flagged, est_f.tangency_flagged) + 8


# --- iterate_sequence -------------------------------------------------------


def test_sequence_n2_is_conjugate(demo_pair):
    a, b, tol = demo_pair
    run = iterate_sequence(a, b, 2, tol)
    assert len(run.tetrahedra) == 3
    direct = conjugate(b, a, tol)
    assert np.allclose(run.tetrahedra[2].array, direct.array, atol=1e-12)


def test_sequence_shared_sphere_and_two_centers(demo_pair):
    a, b, tol = demo_pair
    run = iterate_sequence(a, b, 5, tol)
    assert run.truncated_at is None
    assert len(run.tetrahedra) == 6
    assert len(run.reports) == 5
    assert run.shared_max_residual <= 1e-6
    assert len(run.distinct_centers) == 2


def test_sequence_rejects_nonpair():
    with pytest.raises(NotOrthosectingError):
        iterate_sequence(T_REG, T_REG, 3)
