"""Orthology predicates, centers, constructor and labeling search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tetrahedron
from orthosect.errors import DegenerateError, NotOrthologicError
from orthosect.geom_core import Point, closest_points
from orthosect.orthology import (
    EDGE_PAIRINGS,
    Tetrahedron,
    construct_orthologic,
    edge_orthogonality_residuals,
    find_labeling,
    orthology_centers,
    pair_measures,
    pair_tolerance,
)

T_REG = Tetrahedron.of([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def test_treg_self_orthologic():
    res = edge_orthogonality_residuals(T_REG, T_REG)
    assert len(res) == 6
    assert max(res.values()) == 0.0
    rep = orthology_centers(T_REG, T_REG)
    assert np.allclose(rep.center_a.array, 0, atol=1e-12)
    assert np.allclose(rep.center_b.array, 0, atol=1e-12)
    assert rep.spread_a < 1e-12 and rep.spread_b < 1e-12


def test_residuals_translation_invariant():
    rng = np.random.default_rng(0)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    base = edge_orthogonality_residuals(a, b)
    shifted = edge_orthogonality_residuals(a, b.translated((17.0, -3.0, 4.5)))
    for pairing in EDGE_PAIRINGS:
        assert base[pairing] == pytest.approx(shifted[pairing], abs=1e-12)


def test_center_translates_with_partner():
    rng = np.random.default_rng(1)
    a = random_tetrahedron(rng)
    center = Point.of(a.array.mean(axis=0) + rng.normal(size=3) * 0.4)
    b = construct_orthologic(a, center)
    delta = np.array([3.0, -2.0, 1.0])
    rep0 = orthology_centers(a, b)
    rep1 = orthology_centers(a, b.translated(delta))
    assert np.allclose(rep1.center_b.array, rep0.center_b.array + delta, atol=1e-8)
    # the host-side center is defined by directions only, so it stays put
    assert np.allclose(rep1.center_a.array, rep0.center_a.array, atol=1e-8)


def test_residuals_match_independent_recomputation():
    rng = np.random.default_rng(2)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    res = edge_orthogonality_residuals(a, b)
    for (i, j), (k, l) in EDGE_PAIRINGS:
        u = [a.vertex(i).array[m] - a.vertex(j).array[m] for m in range(3)]
        w = [b.vertex(k).array[m] - b.vertex(l).array[m] for m in range(3)]
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
        if nu <= tol.eps_abs or nw <= tol.eps_abs:
            side = f"A{i}{j}" if nu <= tol.eps_abs else f"B{k}{l}"
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
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    scale = 10.0 ** log_scale
    shift = rng.normal(size=3) * scale * rng.uniform(0.0, 3.0)
    a, b = (scale * p @ q.T + shift for p in (a, b))
    ta, tb = Tetrahedron.of(a), Tetrahedron.of(b)
    # an eps_abs shrunk with the scene lets tiny scenes past the zero-edge check
    tol = pair_tolerance(ta, tb, eps_abs=1e-9 * min(scale, 1.0) if scaled_eps else 1e-9)
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
        assert np.array_equal(cp.p1.array, ref[0]) and np.array_equal(cp.p2.array, ref[1])
        assert (cp.gap, cp.cos_angle, cp.parallel, cp.identical) == ref[2:]
        flags.append((cp.parallel, cp.identical))
    if force != "none":
        assert flags[pairing][0]
        # below unit scale a shrunk eps_abs also shrinks the identity cut-off
        # past round-off
        assert flags[pairing][1] == (force == "identical") or scaled_eps


def test_construct_orthologic_default_offsets():
    rng = np.random.default_rng(3)
    for trial in range(20):
        a = random_tetrahedron(rng)
        center = Point.of(a.array.mean(axis=0) + rng.normal(size=3) * 0.5)
        b = construct_orthologic(a, center)
        res = edge_orthogonality_residuals(a, b)
        assert max(res.values()) < 1e-12


def test_construct_orthologic_center_roundtrip():
    rng = np.random.default_rng(4)
    for trial in range(20):
        a = random_tetrahedron(rng)
        center = Point.of(a.array.mean(axis=0) + rng.normal(size=3) * 0.6)
        offsets = rng.normal(size=4) * 2
        try:
            b = construct_orthologic(a, center, offsets)
        except DegenerateError:
            continue
        tol = pair_tolerance(a, b)
        rep = orthology_centers(a, b, tol)
        assert rep.center_a.distance_to(center) <= 1e-9 * tol.scene_scale
        assert rep.spread_a <= 1e-9 and rep.spread_b <= 1e-9


def test_construct_orthologic_degenerate_offsets():
    rng = np.random.default_rng(5)
    a = random_tetrahedron(rng)
    center = Point.of(a.array.mean(axis=0) + np.array([0.1, 0.2, 0.05]))
    # offsets that put all four face planes through the chosen center
    normals = [(a.vertex(i).array - center.array) for i in (1, 2, 3, 4)]
    offsets = [float(np.dot(n / np.linalg.norm(n), center.array)) for n in normals]
    with pytest.raises(DegenerateError, match="single point"):
        construct_orthologic(a, center, offsets)


def test_construct_orthologic_center_at_vertex():
    a = T_REG
    with pytest.raises(DegenerateError, match="vertex"):
        construct_orthologic(a, a.vertex(2))


def test_orthology_centers_rejects_nonorthologic():
    rng = np.random.default_rng(6)
    a = random_tetrahedron(rng)
    b = construct_orthologic(a, Point.of(a.array.mean(axis=0) + 0.3))
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
            u = a.vertex(i).array - a.vertex(j).array
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


def test_find_labeling_identity():
    rng = np.random.default_rng(8)
    a = random_tetrahedron(rng)
    b = construct_orthologic(a, Point.of(a.array.mean(axis=0) + 0.4))
    result = find_labeling(a, b)
    assert result.permutation == (1, 2, 3, 4)
    assert result.max_residual <= 1e-12


def test_find_labeling_recovers_shuffle():
    rng = np.random.default_rng(9)
    a = random_tetrahedron(rng)
    b = construct_orthologic(a, Point.of(a.array.mean(axis=0) + 0.4))
    shuffle = (3, 1, 4, 2)
    shuffled = b.relabeled(shuffle)
    result = find_labeling(a, shuffled)
    # applying the found permutation to the shuffled copy restores orthology
    restored = shuffled.relabeled(result.permutation)
    assert max(edge_orthogonality_residuals(a, restored).values()) <= 1e-12
    inverse = tuple(shuffle.index(m) + 1 for m in (1, 2, 3, 4))
    assert result.permutation == inverse


def test_find_labeling_treg_unique_identity():
    # each edge of this tetrahedron is orthogonal to exactly one other edge,
    # so the identity is the unique zero-residual labeling
    result = find_labeling(T_REG, T_REG)
    assert result.permutation == (1, 2, 3, 4)
    assert result.max_residual == 0.0
    assert result.ties == ((1, 2, 3, 4),)


def test_find_labeling_nonorthologic_reports_value():
    rng = np.random.default_rng(10)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    result = find_labeling(a, b)
    assert result.max_residual > 1e-3  # generic pairs are far from orthologic


def test_flat_partner_center_error():
    # an orthologic partner confined to z=0: all perpendiculars through the
    # host's vertices are parallel (normals of one plane), center at infinity
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_tetrahedron(rng)
        rows = []
        for (i, j), (k, l) in EDGE_PAIRINGS:
            u = a.vertex(i).array - a.vertex(j).array
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
