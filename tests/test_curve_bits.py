"""The curve engine's batched paths against the per-call constructions they
replaced (``oracles``), bit for bit, on random hosts at scales 1e-9..1e9:
the stacked Chebyshev recurrence, the series fitted from one kernel call,
the series value and gradient of one recurrence call, the chain kernel's
constants from ``cross_rows``, the single co-sphericity pass and sphere fit
at polished vertices and the root it picks next to the divisor lines, the
planes and frames built with ``cross_rows`` in place of np.cross, the
sphere fit's one Gram-Schmidt sweep, and the crossing table built with array
operations in place of a loop over the lattice's cells."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_similarity, random_tetrahedron
from oracles import (chain_kernel_constants, chebyshev_fit_reference, chebyshev_rows,
                     crossing_table_reference, curve_chain_reference, curve_root_reference,
                     series_value_and_gradient, sphere_fit_two_loops)
from orthosect.analysis import (MIN_GRID, _Chebyshev, _FaceFrame, _chebyshev, _crossing_table,
                                default_window, face_frame)
from orthosect.geom_core import Plane, _sphere_fit, cross_rows
from orthosect.orthology import FACE_VERTICES, Tetrahedron

HOSTS = dict(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-9.0, 9.0))


def _host(seed, log_scale):
    rng = np.random.default_rng(seed)
    return rng, Tetrahedron.of(random_similarity(rng, log_scale)(random_tetrahedron(rng).array))


def _field(host, face):
    """The fitted series on the default window of ``face``, and (M, 2) frame
    points: the face's vertices, which lie on two of the lines where F is
    0/0, and random points of the window."""
    frame = _FaceFrame(host, face, None)
    window = default_window(host, face)
    field = _Chebyshev(frame, window)
    lo, hi = np.array(window[:2]), np.array(window[2:])
    rng = np.random.default_rng(face)
    corners = (host.array[FACE_VERTICES[face - 1]] - frame.origin) @ np.array(
        [frame.axis_u, frame.axis_v]).T
    return field, np.vstack([corners, lo + rng.random((40, 2)) * (hi - lo)])


def _check_equal(got, want):
    np.testing.assert_array_equal(got, want, strict=True)


@given(x=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12))
def test_stacked_chebyshev_matches_per_coordinate(x):
    rows = np.array([x, x[::-1]])
    t = _chebyshev(rows)
    both = _chebyshev(rows, slopes=True)
    for k, coord in enumerate(rows):
        _check_equal(t[k], chebyshev_rows(coord))
        _check_equal(both[0, k], chebyshev_rows(coord))
        _check_equal(both[1, k], chebyshev_rows(coord, slopes=True))
        assert both[0, k].flags.c_contiguous and both[1, k].flags.c_contiguous
    _check_equal(_chebyshev(rows[0]), chebyshev_rows(rows[0]))


@given(**HOSTS, face=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_fit_matches_two_call_reference(seed, log_scale, face):
    """One ``nonic`` call on all fit nodes, cut by the divisor it returns,
    fits what ``divisor`` on all nodes and ``nonic`` on the kept ones
    fitted."""
    host = _host(seed, log_scale)[1]
    field = _field(host, face)[0]
    coef, cut = chebyshev_fit_reference(field.frame, default_window(host, face))
    _check_equal(field.coef, coef)
    assert field.divisor_cut == cut


@given(**HOSTS, face=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_value_and_gradient_match_separate_recurrences(seed, log_scale, face):
    """The series, and F or the series next to the lines where F is 0/0,
    with the series' gradient, as the old six recurrences gave them."""
    field, uv = _field(_host(seed, log_scale)[1], face)
    series, grad = series_value_and_gradient(field.coef, field.mid, field.half, uv)
    _check_equal(field(uv), series)
    kernel = field.frame.kernel
    local = field.frame.to_local(uv)
    near = np.abs(kernel.divisor(local)) < field.divisor_cut
    assert near[:3].any()
    value, got_grad = field.value_and_gradient(uv)
    _check_equal(got_grad, grad)
    _check_equal(value, np.where(near, series, kernel.nonic(local)[0]))


@given(**HOSTS, face=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_curve_chain_matches_nonic_and_sixth_foot(seed, log_scale, face):
    """One co-sphericity pass and one sphere fit give what ``nonic``, the
    root picked from ``sphericity_batch`` and a second pass for the sixth
    foot give."""
    field, uv = _field(_host(seed, log_scale)[1], face)
    local = field.frame.to_local(uv)
    kernel = field.frame.kernel
    got = kernel.curve_chain(local, field.divisor_cut)
    for g, w in zip(got, curve_chain_reference(kernel, local, field.divisor_cut)):
        _check_equal(g, w)


@given(**HOSTS, face=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_curve_chain_picks_the_sphericity_root(seed, log_scale, face):
    """With every point counted as next to the divisor lines, the one pass
    picks the root and residual that ``sphericity_batch``'s roots give: at
    the face vertices, on the lines L23, N12 and N13 and at random points
    of the face plane."""
    rng, host = _host(seed, log_scale)
    kernel = _FaceFrame(host, face, None).kernel
    anchor, normal = kernel.divisor_lines
    along = cross_rows(np.broadcast_to(kernel.n123, normal.shape), normal)
    a = kernel.a[:3]
    on_lines = anchor[:, None] + rng.normal(size=(3, 4, 1)) * along[:, None]
    in_face = a[0] + rng.normal(size=(12, 2)) @ (a[1:] - a[0])
    local = np.vstack([a, on_lines.reshape(-1, 3), in_face])
    t, f, _ = kernel.curve_chain(local, math.inf)
    want_t, want_f = curve_root_reference(kernel, local)
    _check_equal(t, want_t)
    _check_equal(f, want_f)
    assert np.isfinite(t).any()


@given(**HOSTS, face=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_chain_kernel_constants_match_np_cross(seed, log_scale, face):
    kernel = _FaceFrame(_host(seed, log_scale)[1], face, None).kernel
    want = chain_kernel_constants(kernel.a)
    for name in ("u", "p13", "p23", "w134", "w234", "g", "circumcenter", "circumradius"):
        _check_equal(getattr(kernel, name), want[name])
    _check_equal(kernel.divisor_lines[1], want["divisor_normals"])


@given(**HOSTS)
@settings(max_examples=40, deadline=None)
def test_planes_and_frames_match_np_cross(seed, log_scale):
    rng, host = _host(seed, log_scale)
    a, b, c = host.array[:3]
    n = np.cross(b - a, c - a)
    plane = Plane.through(a, b, c)
    want = Plane(normal=n, offset=float(np.dot(n, a)))
    _check_equal(plane.normal, want.normal)
    assert plane.offset == want.offset
    face = int(rng.integers(1, 5))
    _, axis_u, axis_v = face_frame(host, face)
    _check_equal(axis_v, np.cross(host.faces[face - 1, :3], axis_u))


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 49), m=st.sampled_from([4, 5, 6]))
@settings(max_examples=60, deadline=None)
def test_sphere_fit_sweep_matches_two_loops(seed, k, m):
    """All six outputs of the one-sweep fit equal the two-loop QR's, on
    stacks at scales 1e-3..1e3: random, about a third near-flat (1e-12..1e-3
    off a plane), and some with a NaN point."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (k, 1, 1))
    points = rng.normal(size=(k, m, 3))
    flat = rng.random(k) < 1.0 / 3.0
    points[flat, :, 2] *= 10.0 ** rng.uniform(-12.0, -3.0, (int(flat.sum()), 1))
    points = points * scale + rng.normal(size=(k, 1, 3)) * scale
    points[rng.random(k) < 0.1, int(rng.integers(m)), int(rng.integers(3))] = np.nan
    got, want = _sphere_fit(points), sphere_fit_two_loops(points)
    assert got.keys() == want.keys()
    for key in want:
        _check_equal(got[key], want[key])


@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(MIN_GRID, 24),
       kind=st.sampled_from(["random", "all positive", "all saddles"]))
@settings(max_examples=60, deadline=None)
def test_crossing_table_matches_cell_loop(seed, grid, kind):
    """The crossing table numbers, orients and joins the lattice edges as
    the loop over cells did, on random corner-sign lattices with random
    saddle-centre signs, on a lattice with no sign change and on a
    checkerboard, whose every cell is a saddle."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        pos = rng.random((grid, grid)) < rng.uniform(0.2, 0.8)
    elif kind == "all positive":
        pos = np.ones((grid, grid), dtype=bool)
    else:
        pos = np.add.outer(np.arange(grid), np.arange(grid)) % 2 == rng.integers(2)
    centre = rng.random((grid - 1, grid - 1)) < 0.5
    corner = np.stack([pos[:-1, :-1], pos[1:, :-1], pos[1:, 1:], pos[:-1, 1:]], axis=-1)
    flips = corner != np.roll(corner, -1, axis=-1)
    su, sv = np.nonzero(flips.all(axis=-1))
    ends, segments = _crossing_table(flips, centre[su, sv] == corner[su, sv, 0])
    want_ends, want_segments = crossing_table_reference(pos, centre)
    _check_equal(ends, want_ends)
    _check_equal(segments, want_segments)
    if kind != "random":
        saddles = (kind == "all saddles") * (grid - 1) ** 2
        assert len(su) == saddles and len(segments) == 2 * saddles
