"""Pedal triangles/circles, isogonal conjugation, chain completion,
sphericity parameters, reconstruction and circular nets."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_similarity, random_tetrahedron, trace_vertices
from oracles import (
    chain_through_sources,
    circular_net,
    exact_sphere_through,
    foot_on_line,
    pedal_circle,
    pedal_triangle,
    project_to_plane,
)
from orthosect.errors import (
    DegenerateError,
    ReconstructionError,
    SimsonDegenerateError,
)
from orthosect.geom_core import (
    Plane,
    Tolerance,
    carrier_through,
    circle_through,
    unit,
)
from orthosect import pedal
from orthosect.orthology import EDGE_PAIRINGS, Tetrahedron, pair_measures, pair_tolerance
from orthosect.pedal import (
    ChainKernel,
    PedalChain,
    SphericalChain,
    _require_orthosection,
    chain_from_pair,
    chain_sphere_residual,
    complete_chain,
    isogonal_conjugate,
    reconstruct_tetrahedron,
    spherical_chain,
)
from orthosect.analysis import trace_curve
from orthosect.solver import trace_family

EQUILATERAL = [(math.cos(k * 2 * math.pi / 3), math.sin(k * 2 * math.pi / 3), 0.0)
               for k in range(3)]


def random_triangle(rng, min_height=0.2):
    while True:
        pts = rng.normal(size=(3, 3)) * 2
        area2 = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        longest = max(np.linalg.norm(pts[1] - pts[0]), np.linalg.norm(pts[2] - pts[0]),
                      np.linalg.norm(pts[2] - pts[1]))
        if area2 / longest > min_height:
            return list(pts)


def random_interior_source(rng, face):
    w = rng.dirichlet((1.5, 1.5, 1.5))
    return sum(wi * f for wi, f in zip(w, face))


# --- pedal_triangle ---------------------------------------------------------


def test_pedal_triangle_analytic():
    _, feet = pedal_triangle((0.2, 0.3, 0), [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert np.allclose(feet[0], [0.2, 0, 0], atol=1e-15)
    assert np.allclose(feet[1], [0, 0.3, 0], atol=1e-15)
    assert np.allclose(feet[2], [0.45, 0.55, 0], atol=1e-14)


def test_pedal_triangle_circumcenter_gives_midpoints():
    _, feet = pedal_triangle((0, 0, 0), EQUILATERAL)
    face = [np.asarray(p) for p in EQUILATERAL]
    mids = [0.5 * (face[0] + face[1]), 0.5 * (face[0] + face[2]), 0.5 * (face[1] + face[2])]
    for foot, mid in zip(feet, mids):
        assert np.allclose(foot, mid, atol=1e-14)


def test_pedal_triangle_feet_perpendicular():
    rng = np.random.default_rng(0)
    for _ in range(15):
        face = random_triangle(rng)
        src = random_interior_source(rng, face)
        _, feet = pedal_triangle(src, face)
        for (i, j), foot in zip(((0, 1), (0, 2), (1, 2)), feet):
            edge = face[j] - face[i]
            assert abs(np.dot(src - foot, edge)) < 1e-10
            # foot is on the edge line
            cross = np.cross(foot - face[i], edge)
            assert np.linalg.norm(cross) < 1e-10 * np.linalg.norm(edge)


def test_pedal_triangle_degenerate_face():
    for construction in (pedal_triangle, isogonal_conjugate):
        with pytest.raises(DegenerateError):
            construction((0, 0, 0), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    # a height of 1e-9 is below eps_rel: circle_through's collinear face
    with pytest.raises(DegenerateError, match="collinear points"):
        isogonal_conjugate((0, 0, 0), [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0)])


def test_pedal_triangle_strict_mode():
    face = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    off_plane = (0.2, 0.3, 0.5)
    src, _ = pedal_triangle(off_plane, face)  # an off-plane source is projected first
    assert np.array_equal(src, [0.2, 0.3, 0.0])


# --- pedal_circle -----------------------------------------------------------


def test_pedal_circle_center_is_medial():
    c = pedal_circle((0, 0, 0), EQUILATERAL)
    assert np.allclose(c.center, 0, atol=1e-12)
    assert c.radius == pytest.approx(0.5, abs=1e-12)


def test_pedal_circle_simson_degenerate():
    # any vertex of the host lies on the circumcircle
    for construction in (pedal_circle, isogonal_conjugate):
        with pytest.raises(SimsonDegenerateError):
            construction(EQUILATERAL[0], EQUILATERAL)


def test_pedal_circle_feet_equidistant():
    rng = np.random.default_rng(1)
    for _ in range(15):
        face = random_triangle(rng)
        src = random_interior_source(rng, face)
        try:
            circle = pedal_circle(src, face)
        except SimsonDegenerateError:
            continue
        _, feet = pedal_triangle(src, face)
        for foot in feet:
            assert abs(np.linalg.norm(foot - circle.center) - circle.radius) < 1e-10


# --- isogonal_conjugate -----------------------------------------------------


def _reflect_direction(d, axis):
    axis = axis / np.linalg.norm(axis)
    return 2.0 * np.dot(d, axis) * axis - d


def _cevian_reflection_oracle(source, face):
    """Intersect the reflections of two cevians in the angle bisectors."""
    src = np.asarray(source, dtype=float)
    pts = [np.asarray(p, dtype=float) for p in face]
    lines = []
    for idx in (0, 1):
        a = pts[idx]
        others = [pts[m] for m in range(3) if m != idx]
        bisector = unit(others[0] - a) + unit(others[1] - a)
        d = _reflect_direction(src - a, bisector)
        lines.append((a, d))
    (a1, d1), (a2, d2) = lines
    m = np.array([[d1[0], -d2[0]], [d1[1], -d2[1]]])
    rhs = (a2 - a1)[:2]
    s, _ = np.linalg.solve(m, rhs)
    return a1 + s * d1


def test_isogonal_conjugate_cevian_oracle():
    face = [(0, 0, 0), (5, 0, 0), (1, 3, 0)]
    got = isogonal_conjugate((2, 1, 0), face)
    expected = _cevian_reflection_oracle((2, 1, 0), face)
    assert np.allclose(got, expected, atol=1e-10)


def test_isogonal_conjugate_center_fixed():
    q = isogonal_conjugate((0, 0, 0), EQUILATERAL)
    assert np.allclose(q, 0, atol=1e-12)


def test_isogonal_conjugate_incenter_fixed():
    rng = np.random.default_rng(2)
    for _ in range(10):
        face = random_triangle(rng)
        a, b, c = face
        la = np.linalg.norm(b - c)
        lb = np.linalg.norm(a - c)
        lc = np.linalg.norm(a - b)
        incenter = (la * a + lb * b + lc * c) / (la + lb + lc)
        q = isogonal_conjugate(incenter, face)
        assert np.allclose(q, incenter, atol=1e-9)


def test_isogonal_conjugate_involution_and_shared_circle():
    """A point and its conjugate share the pedal circle, and conjugating
    twice gives the point back, on each face as drawn and moved by a random
    rigid motion and similarity at scales 1e-9..1e9."""
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 20:
        drawn = np.array(random_triangle(rng))
        src0 = random_interior_source(rng, drawn)
        move = random_similarity(rng, rng.uniform(-9.0, 9.0))
        for face, src in ((drawn, src0), (move(drawn), move(src0[None])[0])):
            try:
                c_p = pedal_circle(src, face)
                q = isogonal_conjugate(src, face)
                c_q = pedal_circle(q, face)
                back = isogonal_conjugate(q, face)
            except SimsonDegenerateError:
                continue
            scale = Tolerance.for_points(face).scene_scale
            assert np.linalg.norm(c_p.center - c_q.center) < 1e-10 * scale
            assert abs(c_p.radius - c_q.radius) < 1e-10 * scale
            assert np.linalg.norm(back - src) < 1e-10 * scale
        checked += 1


def test_isogonal_conjugate_maps_side_line_to_opposite_vertex():
    """A point on the line of a side, inside the side or beyond either end,
    is conjugate to the opposite vertex."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        face = np.array(random_triangle(rng))
        scale = Tolerance.for_points(face).scene_scale
        for k in range(3):
            b, c = face[(k + 1) % 3], face[(k + 2) % 3]
            for s in (-1.5, 0.3, 0.5, 0.8, 2.5):
                q = isogonal_conjugate(b + s * (c - b), face)
                assert np.linalg.norm(q - face[k]) < 1e-10 * scale


# --- complete_chain ---------------------------------------------------------


def _face_source(rng, host: Tetrahedron, spread=0.8):
    """Random point in the face plane spanned by host vertices 1..3."""
    w = rng.dirichlet((1.0, 1.0, 1.0))
    jitter = rng.normal(size=3) * spread
    p = sum(wi * host.vertex(m) for wi, m in zip(w, (1, 2, 3)))
    return project_to_plane(p + jitter, host.face_plane(4))


def test_complete_chain_closure():
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        host = random_tetrahedron(rng)
        tol = Tolerance.for_points(host.vertices)
        b4 = _face_source(rng, host)
        t = float(rng.uniform(-1, 1)) * tol.scene_scale
        try:
            chain = complete_chain(host, b4, t, tol)
        except (SimsonDegenerateError, DegenerateError):
            continue
        assert chain.closure_spread <= 1e-9 * tol.scene_scale
        done += 1


def test_complete_chain_feet_are_pedal():
    # every source's feet on its face edges reproduce the chain feet
    rng = np.random.default_rng(8)
    host = random_tetrahedron(rng)
    tol = Tolerance.for_points(host.vertices)
    chain = complete_chain(host, _face_source(rng, host), 0.37, tol)
    for i in (1, 2, 3, 4):
        src = chain.source(i)
        others = [m for m in (1, 2, 3, 4) if m != i]
        assert abs(host.face_plane(i).signed_distance(src)) < 1e-9 * tol.scene_scale
        for p, q in ((others[0], others[1]), (others[0], others[2]),
                     (others[1], others[2])):
            foot = foot_on_line(src, host.edge_line(p, q))
            # the final closure foot is the one consistency gap
            limit = 1e-9 * tol.scene_scale if {p, q} != {3, 4} or i != 1 \
                else chain.closure_spread + 1e-12
            assert np.linalg.norm(foot - chain.foot(p, q)) <= max(limit, 1e-12)


def test_chain_arrays_read_only(demo_pair):
    """A chain's feet (6, 3) and sources (4, 3) are read-only arrays, from
    completion and from a pair alike."""
    a, b, tol = demo_pair
    from_pair = chain_from_pair(a, b, tol)
    completed = complete_chain(a, from_pair.source(4), 0.1 * tol.scene_scale, tol)
    for chain in (from_pair, completed):
        assert chain.feet.shape == (6, 3) and chain.sources.shape == (4, 3)
        assert not chain.feet.flags.writeable and not chain.sources.flags.writeable
        with pytest.raises(ValueError):
            chain.feet[0, 0] = 0.0


def test_complete_chain_simson_error():
    host = Tetrahedron.of([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 2)])
    circ = circle_through((1, 0, 0), (-1, 0, 0), (0, 1, 0))
    on_circle = circ.center + circ.radius * np.array([1.0, 0, 0])
    with pytest.raises(SimsonDegenerateError):
        complete_chain(host, on_circle, 0.1)


def test_complete_chain_solver_roundtrip(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    b4 = chain.source(4)
    # displacement of source 3 from the shared foot, in the documented frame
    d12 = unit(a.vertex(2) - a.vertex(1))
    n124 = unit(np.cross(a.vertex(2) - a.vertex(1),
                         a.vertex(4) - a.vertex(1)))
    u = np.cross(n124, d12)
    foot4 = foot_on_line(a.vertex(4), a.edge_line(1, 2))
    if np.dot(u, a.vertex(4) - foot4) < 0:
        u = -u
    t = float(np.dot(chain.source(3) - chain.foot(1, 2), u))
    rebuilt = complete_chain(a, b4, t, tol)
    assert np.linalg.norm(rebuilt.feet - chain.feet, axis=1).max() <= 1e-8 * tol.scene_scale


def _completed(seed, log_scale, t_share):
    """A random host under a random similarity at 10**log_scale, a random
    point of its face (1, 2, 3), t = t_share scene scales and the chain
    complete_chain builds from them; rejected (hypothesis ``assume``) where
    the chain does not exist."""
    rng = np.random.default_rng(seed)
    host = Tetrahedron.of(random_similarity(rng, log_scale)(random_tetrahedron(rng).array))
    tol = Tolerance.for_points(host.array)
    b4 = _face_source(rng, host, spread=0.8 * tol.scene_scale)
    t = t_share * tol.scene_scale
    try:
        chain = complete_chain(host, b4, t, tol)
    except (SimsonDegenerateError, DegenerateError):
        assume(False)
    return host, tol, b4, t, chain


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       t_share=st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_complete_chain_feet_are_the_curve_kernel_feet(seed, log_scale, t_share):
    """complete_chain's feet are, bit for bit, the feet the curve trace's
    kernel pass builds at the same local point and t (``_sixth_foot``), in
    EDGE_PAIRINGS order and world coordinates, at scales 1e-12..1e12."""
    host, tol, b4, t, chain = _completed(seed, log_scale, t_share)
    kernel = ChainKernel(host, tol)
    base, at0, _ = kernel._cosphericity_samples(pedal._face_source(kernel, b4)[None])
    feet = kernel._sixth_foot(base, at0, np.array([[t / kernel.scale]]))[0][0, 0]
    assert np.array_equal(chain.feet, feet[[0, 1, 3, 2, 4, 5]] * kernel.scale + kernel.shift)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       t_share=st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_complete_chain_matches_source_by_source_completion(seed, log_scale, t_share):
    """complete_chain's feet, sources and closure spread are within 1e-13
    scene scales of the chain completed source by source, at scales
    1e-12..1e12."""
    host, tol, b4, t, chain = _completed(seed, log_scale, t_share)
    kernel = ChainKernel(host, tol)
    feet, sources, spread = chain_through_sources(kernel, pedal._face_source(kernel, b4),
                                                  t / kernel.scale)
    bound = 1e-13 * tol.scene_scale
    assert np.abs(chain.feet - feet).max() <= bound
    assert np.abs(chain.sources - sources).max() <= bound
    assert abs(chain.closure_spread - spread) <= bound


# --- sphericity parameters / chain_sphere_residual --------------------------


def sphericity_roots(host, b4, tol):
    """The validated roots of ``ChainKernel.sphericity_batch`` at ``b4``,
    projected onto face (1, 2, 3), in world units."""
    kernel = ChainKernel(host, tol)
    t = kernel.sphericity_batch(pedal._face_source(kernel, b4))[0][0]
    return (t[~np.isnan(t)] * kernel.scale).tolist()


def test_spherical_parameters_validated(demo_pair):
    a, b, tol = demo_pair
    rng = np.random.default_rng(9)
    found = 0
    while found < 10:
        b4 = _face_source(rng, a)
        try:
            ts = sphericity_roots(a, b4, tol)
        except SimsonDegenerateError:
            continue
        for t in ts:
            chain = complete_chain(a, b4, t, tol)
            five = [chain.foot(1, 2), chain.foot(1, 3), chain.foot(2, 3),
                    chain.foot(1, 4)]
            carrier = exact_sphere_through(*five, tol=tol)
            assert abs(carrier.signed_distance(chain.foot(2, 4))) \
                <= 1e-9 * tol.scene_scale
        found += 1


def test_spherical_parameters_roundtrip(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    b4 = chain.source(4)
    ts = sphericity_roots(a, b4, tol)
    assert ts, "projection of a true solution must admit a sphericity parameter"
    best = min(ts, key=lambda t: np.linalg.norm(complete_chain(a, b4, t, tol).foot(1, 4)
                                                - chain.foot(1, 4)))
    rebuilt = complete_chain(a, b4, best, tol)
    assert np.linalg.norm(rebuilt.foot(1, 4) - chain.foot(1, 4)) <= 1e-8 * tol.scene_scale
    assert np.linalg.norm(rebuilt.foot(2, 4) - chain.foot(2, 4)) <= 1e-8 * tol.scene_scale


def test_spherical_parameters_empty_far_out():
    rng = np.random.default_rng(10)
    host = random_tetrahedron(rng)
    tol = Tolerance.for_points(host.vertices)
    centroid = sum(host.vertex(m) for m in (1, 2, 3)) / 3
    e1 = unit(host.vertex(2) - host.vertex(1))
    n = host.face_plane(4).normal
    e2 = np.cross(n, e1)
    empties = 0
    for radius in (3.0, 6.0, 12.0):
        for ang in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            p = centroid + radius * tol.scene_scale * (math.cos(ang) * e1
                                                       + math.sin(ang) * e2)
            try:
                if not sphericity_roots(host, p, tol):
                    empties += 1
            except SimsonDegenerateError:
                continue
    assert empties > 0, "no empty sphericity locus found in a wide scan"


def test_chain_sphere_residual_small_on_solution(demo_pair):
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    fs = chain_sphere_residual(a, b4, tol)
    assert min(abs(f) for f in fs) < 1e-8


def test_chain_sphere_residual_grows_off_curve(demo_pair):
    # 0.05 scene scales away from the curve: either every residual is far
    # from zero or the point left the real sphericity locus entirely
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    e1 = unit(a.vertex(2) - a.vertex(1))
    n = a.face_plane(4).normal
    e2 = np.cross(n, e1)
    nonempty = 0
    for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        step = math.cos(ang) * e1 + math.sin(ang) * e2
        shifted = b4 + 0.05 * tol.scene_scale * step
        fs = chain_sphere_residual(a, shifted, tol)
        if fs:
            nonempty += 1
            assert all(abs(f) > 1e-4 for f in fs)
    assert nonempty > 0


def test_chain_sphere_residual_sign_change(demo_pair):
    # crossing the curve flips the sign of the matching branch residual
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    e1 = unit(a.vertex(2) - a.vertex(1))
    eps = 0.01 * tol.scene_scale
    ts0 = sphericity_roots(a, b4, tol)
    fs_lo = chain_sphere_residual(a, b4 - eps * e1, tol)
    fs_hi = chain_sphere_residual(a, b4 + eps * e1, tol)
    idx = int(np.argmin([abs(f) for f in chain_sphere_residual(a, b4, tol)]))
    assert len(fs_lo) == len(ts0) and len(fs_hi) == len(ts0)
    assert (fs_lo[idx] > 0) != (fs_hi[idx] > 0)


# --- reconstruction ---------------------------------------------------------


def test_reconstruct_roundtrip(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    sc = spherical_chain(chain, tol)
    rebuilt = reconstruct_tetrahedron(sc, tol)
    assert np.abs(rebuilt.array - b.array).max() <= 1e-8 * tol.scene_scale


def test_reconstruct_rejects_nonspherical_chain():
    rng = np.random.default_rng(11)
    host = random_tetrahedron(rng)
    tol = Tolerance.for_points(host.vertices)
    b4 = _face_source(rng, host)
    ts = sphericity_roots(host, b4, tol)
    t_bad = (ts[0] + 0.5 * tol.scene_scale) if ts else 0.4 * tol.scene_scale
    chain = complete_chain(host, b4, t_bad, tol)
    with pytest.raises(DegenerateError):
        spherical_chain(chain, tol)  # carrier fit already refuses
    carrier, residual = carrier_through(chain.feet, tol)
    forced = SphericalChain(chain=chain, carrier=carrier, max_residual=residual)
    with pytest.raises(ReconstructionError) as err:
        reconstruct_tetrahedron(forced, tol)
    assert err.value.orthogonality is not None and err.value.gaps is not None


def test_reconstruct_flat_chain(flat_pair):
    a, flat = flat_pair
    tol = pair_tolerance(a, flat)
    chain = chain_from_pair(a, flat, tol)
    sc = spherical_chain(chain, tol)
    assert sc.carrier.kind == "plane"
    rebuilt = reconstruct_tetrahedron(sc, tol)
    assert rebuilt.is_flat()
    assert np.abs(rebuilt.array - flat.array).max() <= 1e-8 * tol.scene_scale


# --- circular net -----------------------------------------------------------


def test_circular_net_all_edges(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    for edge in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        net = circular_net(chain, edge)
        assert net.max_residual <= 1e-9 * tol.scene_scale


def test_circular_net_corners(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    net = circular_net(chain, (1, 2))
    assert np.array_equal(net.grid[0][1], a.vertex(1))
    assert np.array_equal(net.grid[2][1], a.vertex(2))
    assert np.array_equal(net.grid[1][1], chain.foot(1, 2))


def test_circular_net_detects_perturbation(demo_pair):
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    feet = chain.feet.copy()
    feet[0] += 0.05 * tol.scene_scale   # foot 12
    broken = PedalChain(host=a, feet=feet, sources=chain.sources,
                        closure_spread=chain.closure_spread)
    net = circular_net(broken, (1, 2))
    assert net.max_residual > tol.eps_rel * tol.scene_scale


def test_chain_sharing_structure(demo_pair):
    # each foot belongs to the pedal triangles of exactly the two sources
    # whose faces share that edge
    a, b, tol = demo_pair
    chain = chain_from_pair(a, b, tol)
    for (i, j), (k, l) in EDGE_PAIRINGS:
        foot = chain.foot(i, j)
        for source_idx in (k, l):
            src = chain.source(source_idx)
            recomputed = foot_on_line(src, a.edge_line(i, j))
            assert np.linalg.norm(recomputed - foot) <= 1e-9 * tol.scene_scale


# --- the array paths against the object loops they replaced ----------------


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _ref_partner_from_feet(host, feet, tol):
    """The feet-plane meet the engine once rebuilt partners by, as a loop
    over Plane.through, each vertex solved from the normals and offsets of
    the other three planes, held to the orthosection postcondition."""
    planes = []
    for k, rows in enumerate(((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))):
        arr = feet[list(rows)]
        height = np.linalg.norm(np.cross(arr[1] - arr[0], arr[2] - arr[0])) / max(
            np.linalg.norm(arr[1] - arr[0]), np.linalg.norm(arr[2] - arr[0]))
        if height <= tol.eps_rel * tol.scene_scale:
            raise DegenerateError(f"collinear feet around vertex {k + 1}: degenerate partner "
                                  f"whose face contains a host vertex")
        planes.append(Plane.through(*arr))
    verts = []
    for m in range(4):
        others = planes[:m] + planes[m + 1:]
        normals = np.array([pl.normal for pl in others])
        if abs(float(np.linalg.det(normals))) <= 1e-12:
            raise DegenerateError("ill-conditioned feet planes: planes with coplanar normals "
                                  "have no unique common point")
        verts.append(np.linalg.solve(normals, np.array([pl.offset for pl in others])))
    partner = Tetrahedron(tuple(verts))
    _require_orthosection(pair_measures(host, partner, tol))
    return partner


@pytest.fixture(scope="module")
def family_members(demo_pair):
    """The demo pair's host and its partners 15 family steps either way."""
    a, b, tol = demo_pair
    return a, [m for direction in (1, -1)
               for m in trace_family(a, b, steps=15, h=0.05 * tol.scene_scale,
                                     direction=direction, tol=tol).samples]


@given(member=st.integers(0, 31), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=100, deadline=None)
def test_partner_from_points_matches_plane_loop(family_members, member, seed, log_scale):
    """On the intersection points of family members of the demo pair under
    a random rigid motion at scales 1e-12..1e12, the partner rebuilt on its
    sources' normal lines agrees with the loop of Plane.through and
    per-vertex plane meets within 1e-10 scene scales (at most 2.0e-11 over
    3,000 draws; the loop is the less accurate route of the two)."""
    a, members = family_members
    b = members[member % len(members)]
    move = random_similarity(np.random.default_rng(seed), log_scale)
    host, feet = Tetrahedron.of(move(a.array)), move(pair_measures(a, b)[2])
    tol = Tolerance.for_points(np.vstack((host.array, feet)))
    want = _ref_partner_from_feet(host, feet, tol)
    got = Tetrahedron.of(pedal.partner_from_points(host, feet))
    _require_orthosection(pair_measures(host, got, tol))
    assert np.abs(got.array - want.array).max() <= 1e-10 * tol.scene_scale


def test_partner_from_points_is_stable_on_the_curve(demo_pair):
    """At the 730 vertices of the demo host's face-4 grid-128 trace, where
    the chains near the triple points have feet a few 1e-3 scene scales
    apart, noise of 1e-15 scene scales on the six points moves the partner
    rebuilt on its sources' normal lines by at most 1e-7 scene scales (at
    most 7.9e-9 over six noise seeds; the feet-plane meet moved it by
    9.6e-7 to 2.1e-5). One batched rebuild per draw, all rows at once; the
    test takes about 0.1 s."""
    a, _, tol = demo_pair
    kernel = ChainKernel(a, tol)
    trace = trace_curve(a, 4, grid=128, tol=tol)
    p = np.array([pedal._face_source(kernel, v) for v in trace_vertices(trace)])
    t, _, _, feet, _ = kernel._curve_feet(p, math.inf)
    points = np.array([chain.feet for chain in kernel._chains(p, t, feet)])
    assert len(points) == 730
    exact = pedal.partner_from_points(a, points)
    for seed in (0, 1):
        noise = 1e-15 * tol.scene_scale * np.random.default_rng(seed).normal(size=points.shape)
        moved = pedal.partner_from_points(a, points + noise)
        assert np.abs(moved - exact).max() <= 1e-7 * tol.scene_scale


def test_partner_from_points_rejects_a_vertex_at_infinity(flat_pair):
    """A flat partner's feet planes are its carrier plane; with the six
    points laid out as they are in that plane but on a plane that holds the
    normal line of face 1, vertex 1 is nowhere."""
    a, flat = flat_pair
    points = pair_measures(a, flat)[2]
    spread = points - points.mean(axis=0)
    carrier_axes = np.linalg.svd(spread)[2][:2]
    normal = a.faces[0, :3]
    axes = np.array([unit(np.cross(normal, carrier_axes[0])), normal])
    points = points.mean(axis=0) + spread @ carrier_axes.T @ axes
    with pytest.raises(DegenerateError, match="^feet planes parallel to the normal line of "
                                              "face 1: partner vertex 1 at infinity$"):
        pedal.partner_from_points(a, points)


def _ref_chain_from_pair(a, b, tol):
    """chain_from_pair's sources and closure spread as the loop over
    face_plane, edge_line and foot_on_line it was."""
    sources = [project_to_plane(b.vertex(i), a.face_plane(i)) for i in (1, 2, 3, 4)]
    feet = {ij: f for (ij, _), f in zip(EDGE_PAIRINGS, pair_measures(a, b, tol)[2])}
    spread = 0.0
    for i in (1, 2, 3, 4):
        others = [m for m in (1, 2, 3, 4) if m != i]
        for p, q in ((others[0], others[1]), (others[0], others[2]), (others[1], others[2])):
            foot = foot_on_line(sources[i - 1], a.edge_line(p, q))
            spread = max(spread, float(np.linalg.norm(foot - feet[p, q])))
    return np.array(sources), spread


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=100, deadline=None)
def test_chain_from_pair_matches_object_loop_bit_for_bit(seed, log_scale):
    """chain_from_pair's sources and closure spread are the loop's exactly,
    under a random rigid motion at scales 1e-12..1e12."""
    rng = np.random.default_rng(seed)
    move = random_similarity(rng, log_scale)
    a, b = (Tetrahedron.of(move(random_tetrahedron(rng).array)) for _ in range(2))
    tol = pair_tolerance(a, b)
    chain = chain_from_pair(a, b, tol)
    sources, spread = _ref_chain_from_pair(a, b, tol)
    assert np.array_equal(chain.sources, sources)
    assert chain.closure_spread == spread


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=100, deadline=None)
def test_chain_feet_in_pair_kernel_edge_order(demo_pair, seed, log_scale):
    """A pair's chain holds pair_measures' feet bit for bit, one row per
    host edge in EDGE_PAIRINGS order, and rebuilds the partner, under a
    random similarity at scales 1e-12..1e12."""
    a0, b0, _ = demo_pair
    move = random_similarity(np.random.default_rng(seed), log_scale)
    a, b = Tetrahedron.of(move(a0.array)), Tetrahedron.of(move(b0.array))
    tol = pair_tolerance(a, b)
    chain = chain_from_pair(a, b, tol)
    assert np.array_equal(chain.feet, pair_measures(a, b, tol)[2])
    for row, ((i, j), _) in enumerate(EDGE_PAIRINGS):
        assert np.array_equal(chain.foot(i, j), chain.feet[row])
        assert np.array_equal(chain.foot(j, i), chain.foot(i, j))
    rebuilt = reconstruct_tetrahedron(spherical_chain(chain, tol), tol)
    assert np.abs(rebuilt.array - b.array).max() <= 1e-11 * tol.scene_scale
