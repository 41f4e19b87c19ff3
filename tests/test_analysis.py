"""Sphere verification, conjugation, curve tracing, degree estimation and
conjugate sequences."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import find_partner, five_point_partner, random_tetrahedron, trace_vertices
from oracles import exact_sphere_through, fit_plane
from orthosect import analysis, pedal
from orthosect.analysis import (
    conjugate,
    default_window,
    iterate_sequence,
    trace_curve,
    verify_sphere,
)
from orthosect.errors import DegenerateError, NotOrthologicError, NotOrthosectingError
from orthosect.geom_core import SphereOrPlane, project_to_plane
from orthosect.orthology import (EDGE_PAIRINGS, Tetrahedron, orthology_centers, pair_measures,
                                 pair_tolerance)
from orthosect.pedal import chain_sphere_residual, isogonal_conjugate
from orthosect.solver import (
    SolverConfig,
    orthosect_residuals,
    solve,
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
    b = five_point_partner(a, find_partner(a, base_seed=21), 2, rng)
    skip = EDGE_PAIRINGS[2]
    gaps = pair_measures(a, b)[1]
    assert np.delete(gaps, 2).max() <= 1e-10
    assert gaps[2] > 1e-6    # five intersecting pairs, not six
    rep = verify_sphere(a, b, five_point=True)
    assert sorted(rep.residuals) == sorted(p for p in EDGE_PAIRINGS if p != skip)
    assert rep.max_abs_residual <= 1e-7


def _best_four_carrier(points, tol):
    """Reference: the carrier verify_sphere used to fit, the exact sphere
    through the four points spanning the largest volume, or the SVD plane
    of all the points when those four are flat; independent of the
    engine's least-squares fitter."""
    best, subset = -1.0, None
    for quad in itertools.combinations(range(len(points)), 4):
        vol = abs(float(np.linalg.det(points[list(quad[1:])] - points[quad[0]])))
        if vol > best:
            best, subset = vol, quad
    if best <= tol.eps_rel * tol.scene_scale**3:
        return SphereOrPlane.plane(fit_plane(points))
    return exact_sphere_through(*points[list(subset)], tol=tol)


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


def _exact_projection(face, p):
    """Exact rational projection of ``p`` onto the plane of the triangle
    ``face``, and the triangle's vertices and normal, all as Fractions."""
    fa, fb, fc = ([Fraction(float(c)) for c in v] for v in face)
    q = [Fraction(float(c)) for c in p]
    n = _cross(_sub(fb, fa), _sub(fc, fa))
    h = _dot(_sub(q, fa), n) / _dot(n, n)
    return [x - h * y for x, y in zip(q, n)], (fa, fb, fc), n


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _exact_isogonal(face, p):
    """Isogonal conjugate of ``p`` projected onto the plane of ``face``, in
    exact rational arithmetic: barycentrics (x:y:z) map to
    (a^2/x : b^2/y : c^2/z)."""
    q, (fa, fb, fc), n = _exact_projection(face, p)
    bary = [_dot(_cross(_sub(u, q), _sub(v, q)), n) for u, v in ((fb, fc), (fc, fa), (fa, fb))]
    sides = [_dot(_sub(u, v), _sub(u, v)) for u, v in ((fb, fc), (fc, fa), (fa, fb))]
    w = [s / x for s, x in zip(sides, bary)]
    return [sum(wk * v[c] for wk, v in zip(w, (fa, fb, fc))) / sum(w) for c in range(3)]


@pytest.fixture(scope="module")
def oracle_pairs(demo_pair):
    """The demo pair and twelve solved pairs on seeded random hosts; the
    first two random pairs have carriers of radius 53 and 109 scene
    scales."""
    rng = np.random.default_rng(11)
    pairs = [demo_pair[:2]]
    while len(pairs) < 13:
        a = random_tetrahedron(rng)
        found = solve(a, SolverConfig(seed=len(pairs), restarts=8))
        if found:
            pairs.append((a, found[0]))
    return pairs


def test_conjugate_matches_exact_isogonal_conjugates(oracle_pairs):
    """Vertex i of the conjugate projects onto host face i at the isogonal
    conjugate of the projection of the partner's vertex i."""
    for a, b in oracle_pairs:
        tol = pair_tolerance(a, b)
        c = conjugate(a, b, tol)
        for i in (1, 2, 3, 4):
            face = [a.vertex(m).array for m in (1, 2, 3, 4) if m != i]
            want = _exact_isogonal(face, b.vertex(i).array)
            got = _exact_projection(face, c.vertex(i).array)[0]
            err = float(sum((g - w) ** 2 for g, w in zip(got, want))) ** 0.5
            assert err <= 1e-7 * tol.scene_scale


def test_conjugate_uses_no_pedal_construction(monkeypatch, demo_pair):
    """The conjugate comes from the carrier sphere alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("conjugate built a pedal construction")

    for name in ("isogonal_conjugate", "pedal_triangle", "pedal_circle", "spherical_chain",
                 "chain_from_pair", "reconstruct_tetrahedron"):
        monkeypatch.setattr(pedal, name, refuse)
        monkeypatch.setattr(analysis, name, refuse, raising=False)
    a, b, tol = demo_pair
    assert orthosect_residuals(a, conjugate(a, b, tol), tol).max_abs <= tol.eps_rel


def test_conjugate_of_flat_partner_is_degenerate(flat_pair):
    """Coplanar intersection points have no second point on the host edges:
    the conjugate is at infinity."""
    a, flat = flat_pair
    with pytest.raises(DegenerateError, match="^flat partner: "):
        conjugate(a, flat)


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
    for p in trace_vertices(traced)[:25]:
        fs = chain_sphere_residual(a, p, tol)
        assert fs and min(abs(f) for f in fs) <= 1e-6


def test_trace_curve_self_conjugacy(demo_pair, traced):
    a, b, tol = demo_pair
    face = (a.vertex(1), a.vertex(2), a.vertex(3))
    checked = 0
    for p in trace_vertices(traced):
        if checked >= 25:
            break
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


def test_link_segments_paths_then_cycles():
    """Open paths from their end points in ascending order, then cycles
    from their smallest index toward its first-listed neighbour, ending on
    their start."""
    segments = [(5, 3), (9, 7), (3, 8), (4, 6), (6, 2), (2, 4), (7, 1)]
    assert analysis._link_segments(segments) == [[1, 7, 9], [5, 3, 8], [2, 6, 4, 2]]


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
    assert len(run.centers) == 10
    assert run.shared_max_residual <= 1e-6
    assert len(run.distinct_centers) == 2


def test_sequence_rejects_nonpair():
    with pytest.raises(NotOrthosectingError):
        iterate_sequence(T_REG, T_REG, 3)


def test_sequence_one_orthology_centers_call_per_pair(orthology_center_calls, demo_pair):
    """Each consecutive pair's centers come from one orthology-centers
    computation, and they are the pair's ``orthology_centers``."""
    a, b, tol = demo_pair
    calls = orthology_center_calls
    run = iterate_sequence(a, b, 6, tol)
    pairs = list(zip(run.tetrahedra, run.tetrahedra[1:]))
    assert len(pairs) == 6
    assert [(id(x), id(y)) for x, y in calls] == [(id(x), id(y)) for x, y in pairs]
    expected = [orthology_centers(x, y, tol) for x, y in pairs]
    assert list(run.centers) == [c for oc in expected for c in (oc.center_a, oc.center_b)]


def test_sequence_raises_where_verify_sphere_swallowed(orthology_center_calls, pair_measure_calls,
                                                      flat_pair):
    """A flat partner has no orthology center: verify_sphere leaves its
    midpoint gap empty, and iterate_sequence raises the flat-partner error
    from the one centers computation on the pair's one measurement."""
    a, flat = flat_pair
    rep = verify_sphere(a, flat)
    assert rep.midpoint_gap is None
    calls = orthology_center_calls
    calls.clear()   # count iterate_sequence's calls only
    pair_measure_calls.clear()
    with pytest.raises(DegenerateError, match="^flat partner: "):
        iterate_sequence(a, flat, 1)
    assert len(calls) == 1
    assert len(pair_measure_calls) == 1
