"""Orthology predicates, centers and constructor."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_similarity, random_tetrahedron
from oracles import construct_orthologic
from orthosect.errors import DegenerateError, GeometryError, NotOrthologicError
from orthosect.geom_core import Line, Plane, Tolerance, closest_points, concurrency_rows
from orthosect.orthology import (
    EDGE_PAIRINGS,
    Tetrahedron,
    edge_orthogonality_residuals,
    orthology_centers,
    pair_measures,
    pair_tolerance,
)
from orthosect.scene import Scene, load_scene, save_scene

T_REG = Tetrahedron.of([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


# --- Tetrahedron: one (4, 3) array, vertices as its rows ---------------------


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       perm=st.permutations((1, 2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_tetrahedron_forms_agree_bit_for_bit(tmp_path_factory, seed, log_scale, perm):
    """Built from four points, from a 4x3 array, or loaded back from a
    scene file, a tetrahedron holds the same array and the same vertices;
    relabeled copies index the rows."""
    rng = np.random.default_rng(seed)
    coords = random_similarity(rng, log_scale)(rng.normal(size=(4, 3)))
    from_array = Tetrahedron.of(coords)
    points = tuple(coords.copy())
    path = tmp_path_factory.mktemp("tet") / "scene.json"
    save_scene(Scene(tetrahedra={"T": from_array}), path)
    for t in (Tetrahedron(points), load_scene(path).tetrahedron("T")):
        assert np.array_equal(t.array, from_array.array)
        assert np.array_equal(t.vertices, from_array.vertices)
        assert np.array_equal(t.vertices, points)
    assert not from_array.array.flags.writeable
    original = coords.copy()
    coords[:] = math.nan    # the tetrahedron holds a copy
    assert np.array_equal(from_array.array, original)
    relabeled = from_array.relabeled(perm)
    assert np.array_equal(relabeled.array, from_array.array[np.array(perm) - 1])
    assert np.array_equal(relabeled.vertices, [original[p - 1] for p in perm])


def test_vertices_are_read_only_rows_of_the_array():
    """vertex(i) and vertices are rows of ``array`` itself, not copies, and
    cannot be written through."""
    t = Tetrahedron(np.random.default_rng(3).normal(size=(4, 3)))
    assert len(t.vertices) == 4
    for i, v in enumerate(t.vertices, start=1):
        for row in (v, t.vertex(i)):
            assert row.shape == (3,) and not row.flags.writeable
            assert np.shares_memory(row, t.array) and np.array_equal(row, t.array[i - 1])


@pytest.mark.parametrize("coords", [
    pytest.param(np.zeros((3, 3)), id="three-rows"),
    pytest.param(np.zeros((4, 2)), id="two-columns"),
    pytest.param(np.zeros(12), id="flat-twelve"),
    pytest.param([(0, 0, 0)] * 5, id="five-points"),
    pytest.param([np.zeros(3)] * 3, id="three-points"),
    pytest.param([(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)], id="ragged"),
    pytest.param([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, math.nan)], id="nan"),
    pytest.param(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -math.inf]]), id="inf"),
])
def test_tetrahedron_rejects_bad_coordinates(coords):
    with pytest.raises(ValueError):
        Tetrahedron(coords)


def test_treg_self_orthologic():
    res = edge_orthogonality_residuals(T_REG, T_REG)
    assert len(res) == 6
    assert max(res.values()) == 0.0
    rep = orthology_centers(T_REG, T_REG)
    assert np.allclose(rep.center_a, 0, atol=1e-12)
    assert np.allclose(rep.center_b, 0, atol=1e-12)
    assert rep.spread_a < 1e-12 and rep.spread_b < 1e-12


def test_residuals_translation_invariant():
    rng = np.random.default_rng(0)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    base = edge_orthogonality_residuals(a, b)
    shifted = edge_orthogonality_residuals(a, Tetrahedron(b.array + (17.0, -3.0, 4.5)))
    for pairing in EDGE_PAIRINGS:
        assert base[pairing] == pytest.approx(shifted[pairing], abs=1e-12)


def test_center_translates_with_partner():
    rng = np.random.default_rng(1)
    a = random_tetrahedron(rng)
    center = a.array.mean(axis=0) + rng.normal(size=3) * 0.4
    b = construct_orthologic(a, center)
    delta = np.array([3.0, -2.0, 1.0])
    rep0 = orthology_centers(a, b)
    rep1 = orthology_centers(a, Tetrahedron(b.array + delta))
    assert np.allclose(rep1.center_b, rep0.center_b + delta, atol=1e-8)
    # the host-side center is defined by directions only, so it stays put
    assert np.allclose(rep1.center_a, rep0.center_a, atol=1e-8)


def test_residuals_match_independent_recomputation():
    rng = np.random.default_rng(2)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    res = edge_orthogonality_residuals(a, b)
    for (i, j), (k, l) in EDGE_PAIRINGS:
        u = [a.vertex(i)[m] - a.vertex(j)[m] for m in range(3)]
        w = [b.vertex(k)[m] - b.vertex(l)[m] for m in range(3)]
        dot = sum(u[m] * w[m] for m in range(3))
        nu = math.sqrt(sum(c * c for c in u))
        nw = math.sqrt(sum(c * c for c in w))
        assert res[((i, j), (k, l))] == pytest.approx(abs(dot) / (nu * nw), abs=1e-14)


def test_zero_length_edge_error():
    bad = Tetrahedron.of([(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DegenerateError, match="A12"):
        edge_orthogonality_residuals(bad, T_REG)


# --- pair_measures against the per-pairing loop it replaced -----------------


def _ref_line_through(p, q):
    """Line.through as it was: anchor at the endpoint nearer the origin."""
    if np.dot(q, q) < np.dot(p, p):
        p, q = q, p
    d = q - p
    return p, d / float(np.linalg.norm(d))


def _ref_closest(p, u, q, v, tol):
    """The scalar closest_points body: (c1, c2, gap, cos, parallel, identical)."""
    b = float(np.dot(u, v))
    w0 = p - q
    denom = 1.0 - b * b
    if denom <= 1e-14:
        perp = w0 - np.dot(w0, v) * v
        perp_q = -w0 - np.dot(-w0, u) * u
        gap, gap_q = float(np.linalg.norm(perp)), float(np.linalg.norm(perp_q))
        if max(gap, gap_q) <= tol.eps_abs * tol.scene_scale:
            return p, p, 0.0, b, True, True
        return p, p - perp, min(gap, gap_q), b, True, False
    d = float(np.dot(u, w0))
    e = float(np.dot(v, w0))
    c1 = p + (b * e - d) / denom * u
    c2 = q + (e - b * d) / denom * v
    return c1, c2, float(np.linalg.norm(c1 - c2)), b, False, False


def _ref_pair_measures(a, b, tol):
    ortho, gaps, feet = [], [], []
    for (i, j), (k, l) in EDGE_PAIRINGS:
        u = a[i - 1] - a[j - 1]
        w = b[k - 1] - b[l - 1]
        nu, nw = float(np.linalg.norm(u)), float(np.linalg.norm(w))
        cut = tol.eps_abs * tol.scene_scale
        if nu <= cut or nw <= cut:
            side = f"A{i}{j}" if nu <= cut else f"B{k}{l}"
            raise DegenerateError(f"zero-length edge {side}")
        ortho.append(abs(float(np.dot(u, w))) / (nu * nw))
        c1, c2, gap, _, _, _ = _ref_closest(*_ref_line_through(a[i - 1], a[j - 1]),
                                            *_ref_line_through(b[k - 1], b[l - 1]), tol)
        gaps.append(gap / tol.scene_scale)
        feet.append(0.5 * (c1 + c2))
    return np.array(ortho), np.array(gaps), np.array(feet)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except DegenerateError as exc:
        return None, str(exc)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       force=st.sampled_from(("none", "parallel", "near_parallel", "identical")),
       pairing=st.integers(0, 5), scaled_eps=st.booleans())
@settings(max_examples=150, deadline=None)
def test_pair_measures_match_loop_reference_bit_for_bit(seed, log_scale, force, pairing,
                                                        scaled_eps):
    """pair_measures and closest_points reproduce the per-pairing loop of
    Line.through, the scalar closest_points and |cos| exactly, under a
    random rigid motion at scales 1e-12..1e12, with one pairing forced to
    parallel (exactly, or within the 1e-14 cut-off) or identical lines."""
    rng = np.random.default_rng(seed)
    a = random_tetrahedron(rng).array.copy()
    b = random_tetrahedron(rng).array.copy()
    (i, j), (k, l) = EDGE_PAIRINGS[pairing]
    along = a[j - 1] - a[i - 1]
    if force in ("parallel", "near_parallel"):
        b[l - 1] = b[k - 1] + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * along
        if force == "near_parallel":
            # tilt by up to 5e-8 rad, inside the 1e-14 cut-off on 1 - cos^2,
            # so that the two anchors lie at different distances
            tilt = np.cross(along, rng.normal(size=3))
            tilt *= np.linalg.norm(b[l - 1] - b[k - 1]) / np.linalg.norm(tilt)
            b[l - 1] += rng.uniform(0.0, 5e-8) * tilt
    elif force == "identical":
        b[k - 1], b[l - 1] = (a[i - 1] + t * along for t in rng.uniform(-2.0, 3.0, size=2))
    move = random_similarity(rng, log_scale)
    a, b = move(a), move(b)
    scale = 10.0 ** log_scale
    ta, tb = Tetrahedron.of(a), Tetrahedron.of(b)
    # an eps_abs shrunk with the scene also shrinks the scaled zero-edge cut
    tol = Tolerance.for_points(np.vstack((a, b)),
                               eps_abs=1e-9 * min(scale, 1.0) if scaled_eps else 1e-9)
    got, got_msg = _outcome(pair_measures, ta, tb, tol)
    want, want_msg = _outcome(_ref_pair_measures, a, b, tol)
    assert got_msg == want_msg
    if want_msg is not None:
        return
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    flags = []
    for (m, n), (r, s) in EDGE_PAIRINGS:
        cp = closest_points(ta.edge_line(m, n), tb.edge_line(r, s), tol)
        ref = _ref_closest(*_ref_line_through(a[m - 1], a[n - 1]),
                           *_ref_line_through(b[r - 1], b[s - 1]), tol)
        assert np.array_equal(cp.p1, ref[0]) and np.array_equal(cp.p2, ref[1])
        assert (cp.gap, cp.cos_angle, cp.parallel, cp.identical) == ref[2:]
        flags.append((cp.parallel, cp.identical))
    if force != "none":
        assert flags[pairing][0]
        # below unit scale a shrunk eps_abs also shrinks the identity cut-off
        # past round-off
        assert flags[pairing][1] == (force == "identical") or scaled_eps


_DEMO = load_scene(Path(__file__).parent.parent / "scenes" / "demo.json")


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       perm=st.permutations((1, 2, 3, 4)), demo=st.booleans())
@settings(max_examples=150, deadline=None)
def test_reversed_pair_measures_reverse_each_array(seed, log_scale, perm, demo):
    """pair_measures(b, a) is pair_measures(a, b) with each array reversed,
    bit for bit: EDGE_PAIRINGS read backwards swaps the two edges of every
    pairing. The conjugate sequence hands each pair's intersection points,
    reversed, to the next conjugation on this ground. Checked on the demo
    pair, both relabeled alike, and on random pairs, which are not
    orthologic, under a random similarity at scales 1e-12..1e12."""
    rng = np.random.default_rng(seed)
    if demo:
        a, b = (_DEMO.tetrahedron(name).relabeled(perm).array for name in "AB")
    else:
        a, b = (random_tetrahedron(rng).array for _ in range(2))
    move = random_similarity(rng, log_scale)
    a, b = Tetrahedron.of(move(a)), Tetrahedron.of(move(b))
    tol = pair_tolerance(a, b)
    for forward, backward in zip(pair_measures(a, b, tol), pair_measures(b, a, tol)):
        np.testing.assert_array_equal(backward, forward[::-1], strict=True)


# --- the face table and the array concurrency core against the object loops


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=100, deadline=None)
def test_face_table_matches_plane_through_bit_for_bit(seed, log_scale):
    """Each row of Tetrahedron.faces is the normal and offset of
    Plane.through on that face's vertices, exactly, under a random rigid
    motion at scales 1e-12..1e12, near-flat tetrahedra included."""
    rng = np.random.default_rng(seed)
    t = Tetrahedron.of(random_similarity(rng, log_scale)(
        random_tetrahedron(rng, min_volume=0.0).array))
    assert not t.faces.flags.writeable
    for i in (1, 2, 3, 4):
        plane = Plane.through(*(t.vertex(m) for m in (1, 2, 3, 4) if m != i))
        assert np.array_equal(t.faces[i - 1, :3], plane.normal)
        assert t.faces[i - 1, 3] == plane.offset


def _ref_concurrency(lines, tol):
    """concurrency_rows as a loop over Line objects."""
    m, rhs = np.zeros((3, 3)), np.zeros(3)
    for line in lines:
        proj = np.eye(3) - np.outer(line.direction, line.direction)
        m += proj
        rhs += proj @ line.anchor
    eigvals = np.linalg.eigvalsh(m)
    if eigvals[0] <= 1e-9 * max(eigvals[-1], 1e-300):
        raise DegenerateError("all lines parallel: concurrency point at infinity")
    x = np.linalg.solve(m, rhs)
    dists = []
    for line in lines:
        w = x - line.anchor
        dists.append(float(np.linalg.norm(w - np.dot(w, line.direction) * line.direction)))
    # d * d, not d ** 2: a float's ** 2 is libm pow, which may miss the
    # correctly rounded square by an ulp (d = 0x1.150ed9b5d1502p-81)
    return x, math.sqrt(sum(d * d for d in dists) / len(lines)) / tol.scene_scale


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@example(seed=176640, log_scale=-9.3901623268758)
@settings(max_examples=100, deadline=None)
def test_orthology_centers_match_line_loop_bit_for_bit(seed, log_scale):
    """orthology_centers and concurrency_rows reproduce the loop over the
    Line bundles through each vertex along face_plane's normal of the
    other tetrahedron, centers and spreads exactly, under a random rigid
    motion at scales 1e-12..1e12."""
    rng = np.random.default_rng(seed)
    a = random_tetrahedron(rng)
    center = a.array.mean(axis=0) + rng.normal(size=3) * 0.5
    try:
        b = construct_orthologic(a, center, rng.normal(size=4) * 2)
    except GeometryError:
        return
    move = random_similarity(rng, log_scale)
    a, b = Tetrahedron.of(move(a.array)), Tetrahedron.of(move(b.array))
    tol = pair_tolerance(a, b)
    want = []
    for s, t in ((a, b), (b, a)):
        lines = [Line(anchor=s.vertex(i), direction=t.face_plane(i).normal) for i in (1, 2, 3, 4)]
        ref, ref_msg = _outcome(_ref_concurrency, lines, tol)
        got, got_msg = _outcome(concurrency_rows, np.array([l.anchor for l in lines]),
                                np.array([l.direction for l in lines]), tol)
        assert got_msg == ref_msg
        if ref is not None:
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        want.append((ref, ref_msg))
    try:
        rep = orthology_centers(a, b, tol)
    except NotOrthologicError:
        return
    except DegenerateError as exc:
        assert str(exc) == f"flat partner: {next(msg for _, msg in want if msg)}"
        return
    (center_a, spread_a), _ = want[0]
    (center_b, spread_b), _ = want[1]
    assert np.array_equal(rep.center_a, center_a) and rep.spread_a == spread_a
    assert np.array_equal(rep.center_b, center_b) and rep.spread_b == spread_b


def test_construct_orthologic_default_offsets():
    rng = np.random.default_rng(3)
    for trial in range(20):
        a = random_tetrahedron(rng)
        center = a.array.mean(axis=0) + rng.normal(size=3) * 0.5
        b = construct_orthologic(a, center)
        res = edge_orthogonality_residuals(a, b)
        assert max(res.values()) < 1e-12


def test_construct_orthologic_center_roundtrip():
    rng = np.random.default_rng(4)
    for trial in range(20):
        a = random_tetrahedron(rng)
        center = a.array.mean(axis=0) + rng.normal(size=3) * 0.6
        offsets = rng.normal(size=4) * 2
        try:
            b = construct_orthologic(a, center, offsets)
        except DegenerateError:
            continue
        tol = pair_tolerance(a, b)
        rep = orthology_centers(a, b, tol)
        assert np.linalg.norm(rep.center_a - center) <= 1e-9 * tol.scene_scale
        assert rep.spread_a <= 1e-9 and rep.spread_b <= 1e-9


def test_construct_orthologic_degenerate_offsets():
    rng = np.random.default_rng(5)
    a = random_tetrahedron(rng)
    center = a.array.mean(axis=0) + np.array([0.1, 0.2, 0.05])
    # offsets that put all four face planes through the chosen center
    normals = [(a.vertex(i) - center) for i in (1, 2, 3, 4)]
    offsets = [float(np.dot(n / np.linalg.norm(n), center)) for n in normals]
    with pytest.raises(DegenerateError, match="single point"):
        construct_orthologic(a, center, offsets)


def test_construct_orthologic_center_at_vertex():
    a = T_REG
    with pytest.raises(DegenerateError, match="vertex"):
        construct_orthologic(a, a.vertex(2))


def test_orthology_centers_rejects_nonorthologic():
    rng = np.random.default_rng(6)
    a = random_tetrahedron(rng)
    b = construct_orthologic(a, a.array.mean(axis=0) + 0.3)
    tol = pair_tolerance(a, b)
    arr = b.array.copy()
    arr[0] += 0.1 * tol.scene_scale
    with pytest.raises(NotOrthologicError) as err:
        orthology_centers(a, Tetrahedron.of(arr), tol)
    assert err.value.residuals is not None
    assert max(err.value.residuals.values()) > tol.eps_rel


def test_five_conditions_imply_sixth():
    # build the 5-row linear system for the first five pairings and pick a
    # random solution; the sixth orthogonality condition follows
    rng = np.random.default_rng(7)
    for trial in range(25):
        a = random_tetrahedron(rng)
        rows = []
        for (i, j), (k, l) in EDGE_PAIRINGS[:5]:
            u = a.vertex(i) - a.vertex(j)
            row = np.zeros(12)
            row[3 * (k - 1):3 * k] = u
            row[3 * (l - 1):3 * l] = -u
            rows.append(row)
        null = np.linalg.svd(np.array(rows))[2][5:]
        for _ in range(10):
            x = null.T @ rng.normal(size=null.shape[0])
            b = Tetrahedron.of(x.reshape(4, 3))
            edges = [np.linalg.norm(b.array[m] - b.array[n])
                     for m in range(4) for n in range(m + 1, 4)]
            if min(edges) > 0.05 * max(edges):
                break
        else:
            continue
        res = edge_orthogonality_residuals(a, b)
        assert res[EDGE_PAIRINGS[5]] <= 1e-10


def test_flat_partner_center_error():
    # an orthologic partner confined to z=0: all perpendiculars through the
    # host's vertices are parallel (normals of one plane), center at infinity
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_tetrahedron(rng)
        rows = []
        for (i, j), (k, l) in EDGE_PAIRINGS:
            u = a.vertex(i) - a.vertex(j)
            row = np.zeros(8)  # unknowns: (x_m, y_m) of the planar partner
            row[2 * (k - 1):2 * k] = u[:2]
            row[2 * (l - 1):2 * l] = -u[:2]
            rows.append(row)
        null = np.linalg.svd(np.array(rows))[2][5:]
        xy = (null.T @ rng.normal(size=null.shape[0])).reshape(4, 2)
        flat = Tetrahedron.of(np.hstack([xy, np.zeros((4, 1))]))
        edges = [np.linalg.norm(flat.array[m] - flat.array[n])
                 for m in range(4) for n in range(m + 1, 4)]
        if min(edges) < 0.05 * max(edges):
            continue
        res = edge_orthogonality_residuals(a, flat)
        if max(res.values()) > 1e-10:
            continue
        with pytest.raises(DegenerateError, match="flat"):
            orthology_centers(a, flat)
        return
    pytest.fail("no usable planar partner drawn")
