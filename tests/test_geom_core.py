"""Primitive operations against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_similarity
from oracles import exact_sphere_through, foot_on_line, meet_rows, project_to_plane
from orthosect.errors import DegenerateError
from orthosect.geom_core import (
    Line,
    Plane,
    Tolerance,
    circle_through,
    closest_points,
    concurrency_rows,
    sphere_through,
)

coord = st.floats(min_value=-30.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False, allow_subnormal=False)
point3 = st.tuples(coord, coord, coord)


def _rng(seed=0):
    return np.random.default_rng(seed)


def random_line(rng):
    return Line(rng.normal(size=3), rng.normal(size=3))


def unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- closest_points ---------------------------------------------------------


def test_closest_points_concurrent_axes():
    x_axis = Line((0, 0, 0), np.array([1.0, 0, 0]))
    y_axis = Line((0, 0, 0), np.array([0, 1.0, 0]))
    r = closest_points(x_axis, y_axis)
    assert r.gap == 0.0
    assert np.array_equal(r.p1, [0, 0, 0]) and np.array_equal(r.p2, [0, 0, 0])


def test_closest_points_unit_offset():
    x_axis = Line((0, 0, 0), np.array([1.0, 0, 0]))
    other = Line((0, 1, 0), np.array([0, 0, 1.0]))
    r = closest_points(x_axis, other)
    assert np.array_equal(r.p1, [0, 0, 0])
    assert np.array_equal(r.p2, [0, 1, 0])
    assert r.gap == pytest.approx(1.0, abs=1e-15)


def _min_gap_oracle(l1, l2):
    """Dense 2-D parameter grid with nested refinement rounds."""
    t_lo, t_hi = -20.0, 20.0
    s_lo, s_hi = -20.0, 20.0
    best = np.inf
    for _ in range(7):
        ts = np.linspace(t_lo, t_hi, 41)
        ss = np.linspace(s_lo, s_hi, 41)
        p = l1.anchor[None, :] + ts[:, None] * l1.direction
        q = l2.anchor[None, :] + ss[:, None] * l2.direction
        d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        best = min(best, float(d[i, j]))
        dt = 1.5 * (t_hi - t_lo) / 40
        ds = 1.5 * (s_hi - s_lo) / 40
        t_lo, t_hi = ts[i] - dt, ts[i] + dt
        s_lo, s_hi = ss[j] - ds, ss[j] + ds
    return best


def test_closest_points_matches_grid_oracle():
    rng = _rng(5)
    for _ in range(10):
        l1, l2 = random_line(rng), random_line(rng)
        r = closest_points(l1, l2)
        # only trust the oracle when the approach lies inside its search box
        t_star = float(np.dot(r.p1 - l1.anchor, l1.direction))
        s_star = float(np.dot(r.p2 - l2.anchor, l2.direction))
        if max(abs(t_star), abs(s_star)) > 15.0:
            continue
        assert r.gap == pytest.approx(_min_gap_oracle(l1, l2), abs=1e-9)
        # the connecting segment is perpendicular to both lines
        seg = r.p2 - r.p1
        if r.gap > 1e-9:
            assert abs(np.dot(seg, l1.direction)) < 1e-9
            assert abs(np.dot(seg, l2.direction)) < 1e-9


def test_closest_points_parallel_and_identical():
    """Without a tolerance, closest_points judges identity at the scale of
    the lines' own anchors, so the verdicts hold at every scale."""
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        base = Line((0, 0, 0), np.array([1.0, 0, 0]))
        parallel = Line((0, 2 * scale, 0), np.array([-1.0, 0, 0]))
        r = closest_points(base, parallel)
        assert r.parallel and not r.identical
        assert r.gap == pytest.approx(2.0 * scale, rel=1e-15)
        same = Line((5 * scale, 0, 0), np.array([1.0, 0, 0]))
        r = closest_points(base, same)
        assert r.identical and r.gap == 0.0
        assert np.array_equal(r.p1, base.anchor)


def test_closest_points_nearly_parallel_gap_is_order_free():
    # lines meeting at (0, 0, 1) at 6e-8 rad, below the parallel cut-off:
    # l2's anchor lies on l1, while l1's anchor is 6e-8 away from l2
    angle = 6e-8
    l1 = Line((0, 0, 0), np.array([0, 0, 1.0]))
    l2 = Line((0, 0, 1), np.array([math.sin(angle), 0, math.cos(angle)]))
    r12 = closest_points(l1, l2)
    r21 = closest_points(l2, l1)
    assert r12.parallel and r21.parallel
    assert r12.gap == r21.gap
    assert not r12.identical and not r21.identical


@given(a1=point3, d1=point3, a2=point3, d2=point3)
@settings(max_examples=60, deadline=None)
def test_closest_points_symmetry(a1, d1, a2, d2):
    if np.linalg.norm(d1) < 1e-3 or np.linalg.norm(d2) < 1e-3:
        return
    l1 = Line(a1, np.asarray(d1))
    l2 = Line(a2, np.asarray(d2))
    r12 = closest_points(l1, l2)
    r21 = closest_points(l2, l1)
    assert r12.gap == pytest.approx(r21.gap, abs=1e-10)
    if not r12.parallel:
        assert np.allclose(r12.p1, r21.p2, atol=1e-8)
        assert np.allclose(r12.p2, r21.p1, atol=1e-8)


# --- project_to_plane -------------------------------------------------------


def test_project_trivial():
    pl = Plane(np.array([0, 0, 1.0]), 0.0)
    assert np.array_equal(project_to_plane((1, 2, 3), pl), [1, 2, 0])
    assert np.array_equal(project_to_plane((1, 2, 0), pl), [1, 2, 0])


@given(p=point3, n=point3, off=coord)
@settings(max_examples=60, deadline=None)
def test_project_idempotent(p, n, off):
    if np.linalg.norm(n) < 1e-3:
        return
    pl = Plane(np.asarray(n), off)
    once = project_to_plane(p, pl)
    twice = project_to_plane(once, pl)
    assert np.allclose(once, twice, atol=1e-9)


def test_project_minimizes_distance():
    rng = _rng(6)
    for _ in range(5):
        pl = Plane(rng.normal(size=3), float(rng.normal()))
        p = rng.normal(size=3) * 3
        result = project_to_plane(p, pl)
        # grid of plane points around the projection cannot beat it
        ref = np.linalg.norm(p - result)
        basis = np.linalg.svd(np.outer(pl.normal, pl.normal) - np.eye(3))[0][:, :2]
        for du in np.linspace(-2, 2, 21):
            for dv in np.linspace(-2, 2, 21):
                q = result + basis @ np.array([du, dv])
                q -= (np.dot(pl.normal, q) - pl.offset) * pl.normal
                assert np.linalg.norm(p - q) >= ref - 1e-12


# --- foot_on_line -----------------------------------------------------------


def test_foot_analytic():
    line = Line.through((1, 0, 0), (0, 1, 0))
    foot = foot_on_line((0.2, 0.3, 0), line)
    assert np.allclose(foot, [0.45, 0.55, 0.0], atol=1e-15)


def test_foot_point_on_line():
    line = Line((1, 1, 1), np.array([1.0, 2.0, 3.0]))
    p = line.anchor + 0.7 * line.direction
    assert np.allclose(foot_on_line(p, line), p, atol=1e-14)


def test_foot_matches_1d_minimization():
    rng = _rng(7)
    for _ in range(10):
        line = random_line(rng)
        p = rng.normal(size=3) * 4
        foot = foot_on_line(p, line)
        # ternary search on the parameter
        lo, hi = -100.0, 100.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if np.linalg.norm(line.anchor + m1 * line.direction - p) < np.linalg.norm(
                    line.anchor + m2 * line.direction - p):
                hi = m2
            else:
                lo = m1
        oracle = line.anchor + 0.5 * (lo + hi) * line.direction
        assert np.allclose(foot, oracle, atol=1e-9)


@given(p=point3, a=point3, d=point3)
@settings(max_examples=60, deadline=None)
def test_foot_perpendicularity(p, a, d):
    if np.linalg.norm(d) < 1e-3:
        return
    line = Line(a, np.asarray(d))
    foot = foot_on_line(p, line)
    scale = max(1.0, np.linalg.norm(np.asarray(p)), np.linalg.norm(line.anchor))
    assert abs(np.dot(np.asarray(p) - foot, line.direction)) <= 1e-12 * scale


# --- circle_through ---------------------------------------------------------


def test_circle_trivial():
    c = circle_through((1, 0, 0), (-1, 0, 0), (0, 1, 0))
    assert np.allclose(c.center, 0, atol=1e-15)
    assert c.radius == pytest.approx(1.0, abs=1e-15)


def test_circle_equilateral():
    ang = 2 * np.pi / 3
    pts = [(np.cos(k * ang), np.sin(k * ang), 0.0) for k in range(3)]
    c = circle_through(*pts)
    assert np.allclose(c.center, 0, atol=1e-12)
    assert c.radius == pytest.approx(1.0, abs=1e-12)


def test_circle_collinear_raises():
    with pytest.raises(DegenerateError):
        circle_through((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_circle_center_on_carrier():
    rng = _rng(8)
    for _ in range(10):
        pts = rng.normal(size=(3, 3)) * 2
        try:
            c = circle_through(*pts)
        except DegenerateError:
            continue
        assert abs(Plane.through(*pts).signed_distance(c.center)) < 1e-10
        for p in pts:
            assert np.linalg.norm(p - c.center) == pytest.approx(c.radius, abs=1e-9)


# --- sphere_through ---------------------------------------------------------


def test_sphere_trivial():
    s = sphere_through((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert s.kind == "sphere"
    assert np.allclose(s.center, 0, atol=1e-14)
    assert s.radius == pytest.approx(1.0, abs=1e-14)


def test_sphere_coplanar_gives_plane():
    s = sphere_through((0, 0, 1), (3, 0, 1), (0, 2, 1), (5, 7, 1))
    assert s.kind == "plane"
    assert abs(abs(s.carrier.normal[2]) - 1.0) < 1e-12
    for p in [(0, 0, 1), (5, 7, 1)]:
        assert abs(s.carrier.signed_distance(p)) < 1e-12


def test_sphere_coincident_raises():
    with pytest.raises(DegenerateError):
        sphere_through((1, 1, 1), (1, 1, 1), (1, 1, 1), (0, 0, 0))


def _circumcenter_oracle(pts):
    """Independent center: solve 2(p_i - p_3) . c = |p_i|^2 - |p_3|^2."""
    m = 2 * (pts[:3] - pts[3])
    rhs = (pts[:3] ** 2).sum(axis=1) - (pts[3] ** 2).sum()
    return np.linalg.solve(m, rhs)


def test_sphere_matches_linear_oracle():
    rng = _rng(9)
    for _ in range(10):
        pts = rng.normal(size=(4, 3)) * 2
        tol = Tolerance.for_points(pts)
        s = sphere_through(*pts, tol=tol)
        if s.kind != "sphere":
            continue
        center = _circumcenter_oracle(pts)
        assert np.allclose(s.center, center, atol=1e-9)
        for p in pts:
            assert abs(np.linalg.norm(p - s.center) - s.radius) \
                < 1e-10 * tol.scene_scale


def test_sphere_cross_consistency_on_pair(demo_pair):
    # any 4 of the 6 intersection points of a verified pair give one sphere
    from orthosect.orthology import EDGE_PAIRINGS
    a, b, tol = demo_pair
    closest = [closest_points(a.edge_line(i, j), b.edge_line(k, l), tol)
               for (i, j), (k, l) in EDGE_PAIRINGS]
    pts = [0.5 * (c.p1 + c.p2) for c in closest]
    spheres = []
    for quad in itertools.combinations(range(6), 4):
        try:
            s = sphere_through(*(pts[i] for i in quad), tol=tol)
        except DegenerateError:
            continue
        if s.kind == "sphere":
            spheres.append(s)
    assert len(spheres) >= 10
    ref = spheres[0]
    for s in spheres[1:]:
        assert np.linalg.norm(ref.center - s.center) <= 1e-8 * tol.scene_scale
        assert abs(ref.radius - s.radius) <= 1e-8 * tol.scene_scale


def _relative_volume(pts, tol):
    return abs(float(np.linalg.det(pts[1:] - pts[0]))) / 6.0 / tol.scene_scale**3


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       log_flat=st.floats(-8.0, 0.0))
@settings(max_examples=200, deadline=None)
def test_sphere_through_matches_exact_oracle(seed, log_scale, log_flat):
    """sphere_through, the least-squares fit, against the exact four-point
    construction on point sets of relative volume at least 1e-6 under a
    random rigid motion at scales 1e-12..1e12: the same kind, and centre
    and radius within 1e-9 scale max(1, R / scale)^2 (the worst of 6,000
    draws was 2.1e-13 of that).

    Below relative volume 1e-6 the two may name different kinds: the
    oracle's volume cut (eps_rel) reads a plane under 1e-7 while the
    least-squares fit, still of full rank with a radius inside
    FLAT_SPHERE_RADIUS_FACTOR scene scales, reads a sphere. On random
    draws they disagreed only for relative volumes in [1e-12, 1e-7); below
    that both read a plane."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 3))
    pts[:, 2] *= 10.0 ** log_flat
    while _relative_volume(pts, Tolerance.for_points(pts)) < 1e-6:
        pts[:, 2] *= 2.0
    pts = random_similarity(rng, log_scale)(pts)
    tol = Tolerance.for_points(pts)
    assume(_relative_volume(pts, tol) >= 1e-6)
    got, want = sphere_through(*pts, tol=tol), exact_sphere_through(*pts, tol=tol)
    assert got.kind == want.kind
    if want.kind == "sphere":
        bound = 1e-9 * tol.scene_scale * max(1.0, want.radius / tol.scene_scale) ** 2
        assert np.linalg.norm(got.center - want.center) <= bound
        assert abs(got.radius - want.radius) <= bound


# --- meet_rows --------------------------------------------------------------


def test_meet_planes_axes():
    p = meet_rows(np.array([[[1.0, 0, 0, 1.0], [0, 1.0, 0, 2.0], [0, 0, 1.0, 3.0]]]))
    assert p.tolist() == [[1.0, 2.0, 3.0]]


def test_meet_planes_parallel_raises():
    with pytest.raises(DegenerateError):
        meet_rows(np.array([[[1.0, 0, 0, 0.0], [1.0, 0, 0, 1.0], [0, 1.0, 0, 0.0]]]))


def test_meet_planes_substitution():
    rng = _rng(10)
    for _ in range(10):
        planes = [Plane(rng.normal(size=3), float(rng.normal())) for _ in range(3)]
        try:
            p = meet_rows(np.array([[[*pl.normal, pl.offset] for pl in planes]]))[0]
        except DegenerateError:
            continue
        scale = max(1.0, np.linalg.norm(p))
        for pl in planes:
            assert abs(pl.signed_distance(p)) < 1e-11 * scale


# --- concurrency_rows -------------------------------------------------------


def test_concurrency_through_origin():
    rng = _rng(11)
    p, spread = concurrency_rows(np.zeros((3, 3)), unit_rows(rng.normal(size=(3, 3))))
    assert np.allclose(p, 0, atol=1e-12)
    assert spread < 1e-12


def test_concurrency_two_skew_lines_midpoint():
    p, spread = concurrency_rows(np.array([[0, 0, 0], [0, 1.0, 0]]),
                                 np.array([[1.0, 0, 0], [0, 0, 1.0]]))
    assert np.allclose(p, [0, 0.5, 0], atol=1e-12)
    assert spread == pytest.approx(0.5, abs=1e-12)


def test_concurrency_all_parallel_raises():
    d = unit_rows(np.array([[1.0, 2.0, 3.0]] * 3))
    with pytest.raises(DegenerateError):
        concurrency_rows(np.array([[0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]]), d)


def _spread_oracle(anchors, directions, center_guess, scale):
    """Nested 3-D grid search for the minimal RMS distance."""
    lo = center_guess - 2.0
    hi = center_guess + 2.0
    best = np.inf
    for _ in range(6):
        axes = [np.linspace(lo[k], hi[k], 11) for k in range(3)]
        pts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
        rms = np.zeros(len(pts))
        for anchor, d in zip(anchors, directions):
            w = pts - anchor
            proj = w - np.outer(w @ d, d)
            rms += (proj ** 2).sum(axis=1)
        rms = np.sqrt(rms / len(anchors))
        idx = int(np.argmin(rms))
        best = min(best, float(rms[idx]))
        width = (hi - lo) / 10
        lo = pts[idx] - width
        hi = pts[idx] + width
    return best / scale


def test_concurrency_matches_grid_oracle():
    rng = _rng(12)
    target = rng.normal(size=3)
    directions, anchors = [], []
    for _ in range(4):
        directions.append(rng.normal(size=3))
        anchors.append(target + rng.normal(size=3) * 0.02)  # slightly off-concurrent
    anchors, directions = np.array(anchors), unit_rows(np.array(directions))
    tol = Tolerance.for_points(anchors)
    p, spread = concurrency_rows(anchors, directions, tol)
    oracle = _spread_oracle(anchors, directions, p, tol.scene_scale)
    assert spread == pytest.approx(oracle, abs=1e-6)
