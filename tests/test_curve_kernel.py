"""The batched closed-form sphericity kernel: agreement with the
degree-4 fit it replaced, batch/single-point consistency, and the curve
tracer's crossing counts."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tetrahedron
from orthosect.analysis import _FaceFrame, default_window, trace_curve
from orthosect.pedal import ChainKernel
from orthosect.scene import load_scene

DEMO_SCENE = Path(__file__).parent.parent / "scenes" / "demo.json"


# --- reference: the scalar root finder the closed form replaced ------------

_NODES = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_VANDER_INV = np.linalg.inv(np.vander(_NODES, 5, increasing=True))


def _reference_fit(points):
    m = np.hstack([points, np.ones((len(points), 1))])
    rhs = -(points * points).sum(axis=1)
    sol, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
    if rank == 4:
        center = -0.5 * sol[:3]
        r2 = float(np.dot(center, center) - sol[3])
        if r2 > 0 and math.sqrt(r2) <= 1e6:
            radius = math.sqrt(r2)
            res = np.abs(np.linalg.norm(points - center, axis=1) - radius)
            return (lambda p: float(np.linalg.norm(p - center) - radius)), float(res.max())
    centroid = points.mean(axis=0)
    n = np.linalg.svd(points - centroid)[2][-1]
    res = np.abs((points - centroid) @ n)
    return (lambda p: float(np.dot(n, p - centroid))), float(res.max())


def reference_roots(kernel, b4_local):
    """(t, f) pairs by ascending t from a degree-4 fit through five
    determinant samples, np.roots, Newton polish, dedupe and a per-root
    lstsq sphere fit; plus the relative discriminant of the quadratic."""
    v12, v13, v23 = kernel.base_feet(b4_local)
    base14, base24 = kernel.line14.foot(v12), kernel.line24.foot(v12)
    mats = np.empty((5, 5, 5))
    for idx, t in enumerate(_NODES):
        pts = np.vstack([v12, v13, v23, base14 + t * kernel.g14, base24 + t * kernel.g24])
        mats[idx] = np.column_stack([(pts * pts).sum(axis=1), pts, np.ones(5)])
    coeffs = _VANDER_INV @ np.linalg.det(mats)
    c0, c1, c2 = coeffs[:3]
    rel_disc = abs(c1 * c1 - 4 * c2 * c0) / max(c1 * c1 + abs(4 * c2 * c0), 1e-300)
    mag = float(np.abs(coeffs).max())
    if mag <= 1e-12:
        return [], rel_disc
    desc = coeffs[::-1].copy()
    while len(desc) > 1 and abs(desc[0]) <= 1e-10 * mag:
        desc = desc[1:]
    if len(desc) <= 1:
        return [], rel_disc
    out, seen = [], []
    for r in np.roots(desc):
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        t = float(r.real)
        for _ in range(2):
            dp = np.polyval(np.polyder(desc), t)
            if abs(dp) < 1e-300:
                break
            t -= np.polyval(desc, t) / dp
        if any(abs(t - s) <= 1e-9 * (1.0 + abs(t)) for s in seen):
            continue
        v14, v24 = base14 + t * kernel.g14, base24 + t * kernel.g24
        dist, fit_res = _reference_fit(np.array([v12, v13, v23, v14, v24]))
        if fit_res > kernel.tol.eps_rel:
            continue
        seen.append(t)
        alpha = (np.dot(np.cross(v14 - v13, kernel.p14), kernel.n134)
                 / np.dot(np.cross(kernel.p13, kernel.p14), kernel.n134))
        out.append((t, dist(kernel.line34.foot(v13 + alpha * kernel.p13))))
    return sorted(out), rel_disc


def _face_points(rng, kernel, n):
    """Random local points on face (1, 2, 3) inside its triangle inflated
    threefold about the centroid."""
    a = kernel.a[:3]
    w = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    centroid = a.mean(axis=0)
    return centroid + 3.0 * (w @ a - centroid)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_degree4_fit(seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    host = random_tetrahedron(rng, scale=scale)
    kernel = ChainKernel(host)
    pts = _face_points(rng, kernel, 24)
    t_batch, f_batch = kernel.sphericity_batch(pts)
    compared = 0
    for k, p in enumerate(pts):
        ref, rel_disc = reference_roots(kernel, p)
        if rel_disc <= 1e-8:
            continue  # near a double root the two fits may disagree on the count
        got = np.isfinite(t_batch[k])
        assert got.sum() == len(ref)
        for (t_ref, f_ref), t, f in zip(ref, t_batch[k][got], f_batch[k][got]):
            assert abs(t - t_ref) <= 1e-9 * max(1.0, abs(t_ref))
            # the sixth foot moves with t: f is as exact as t is
            assert abs(f - f_ref) <= 1e-9 * max(1.0, abs(f_ref), abs(t_ref))
        compared += 1
    assert compared > 0


def test_batch_equals_single_point_calls():
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    frame = _FaceFrame(host, 4, None)
    x0, y0, x1, y1 = default_window(host, 4)
    uv = np.stack(np.meshgrid(np.linspace(x0, x1, 16), np.linspace(y0, y1, 16),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    local = frame.kernel.to_local(frame.origin.array + uv[:, :1] * frame.axis_u
                                  + uv[:, 1:] * frame.axis_v)
    t_batch, f_batch = frame.kernel.sphericity_batch(local)
    counts = set()
    for k, p in enumerate(local):
        roots = frame.kernel.sphericity_roots(p)
        got = np.isfinite(t_batch[k])
        assert got.sum() == len(roots)
        assert got.tolist() == sorted(got.tolist(), reverse=True)  # missing roots last
        counts.add(len(roots))
        for r, t, f in zip(roots, t_batch[k][got], f_batch[k][got]):
            assert abs(t - r["t"]) <= 1e-12 * max(1.0, abs(r["t"]))
            assert abs(f - r["f"]) <= 1e-12 * max(1.0, abs(r["t"]))
    assert counts >= {0, 2}  # the lattice straddles the real sphericity locus


# --- trace_curve ------------------------------------------------------------


# vertices per face of the demo scene's host at grid 16, measured with the
# per-point tracer; a lower count means crossings were dropped
DEMO_GRID16_VERTICES = {1: 47, 2: 48, 3: 36, 4: 63}


@pytest.mark.parametrize("face", [1, 2, 3, 4])
def test_trace_curve_vertex_counts(face):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    assert trace_curve(host, face, grid=16).vertex_count == DEMO_GRID16_VERTICES[face]


def _marched_edges(host, face, grid):
    """Unique sign-change lattice edges of the cells marching squares
    links: cells without NaN corners, saddles only with a real centre."""
    frame = _FaceFrame(host, face, None)
    x0, y0, x1, y1 = default_window(host, face)
    us, vs = np.linspace(x0, x1, grid), np.linspace(y0, y1, grid)

    def values(u, v):
        world = frame.origin.array + u * frame.axis_u + v * frame.axis_v
        return frame.kernel.sphericity_batch(frame.kernel.to_local(world))[1][0]

    f = np.array([[values(u, v) for v in vs] for u in us])
    edges = set()
    for b in range(2):
        for iu in range(grid - 1):
            for iv in range(grid - 1):
                corners = [(iu, iv), (iu + 1, iv), (iu + 1, iv + 1), (iu, iv + 1)]
                vals = [f[c][b] for c in corners]
                if any(math.isnan(x) for x in vals):
                    continue
                flips = [(corners[e], corners[(e + 1) % 4]) for e in range(4)
                         if (vals[e] > 0) != (vals[(e + 1) % 4] > 0)]
                if len(flips) == 4 and math.isnan(values(0.5 * (us[iu] + us[iu + 1]),
                                                         0.5 * (vs[iv] + vs[iv + 1]))[b]):
                    continue
                edges.update((b, *sorted(e)) for e in flips)
    return edges, int(np.isnan(f).sum())


@pytest.mark.parametrize("face", [2, 4])
def test_trace_counts_cover_every_crossing(face):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    trace = trace_curve(host, face, grid=16)
    counts = trace.counts
    edges, nan_values = _marched_edges(host, face, 16)
    assert counts.lattice_nodes == 16 * 16
    assert counts.nan_nodes == nan_values
    assert counts.crossings + counts.rejected_crossings == len(edges)
    assert counts.crossings >= trace.vertex_count > 0
    assert counts.bisection_rounds > 0
    assert counts.refine_evals >= counts.bisection_rounds


def test_trace_counts_empty_window():
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    x0, y0, x1, y1 = default_window(host, 4)
    span = max(x1 - x0, y1 - y0)
    far = (x1 + 5 * span, y1 + 5 * span, x1 + 5.3 * span, y1 + 5.3 * span)
    counts = trace_curve(host, 4, window=far, grid=16).counts
    assert counts.lattice_nodes == 256
    assert counts.crossings == counts.rejected_crossings == 0
    assert counts.bisection_rounds == counts.refine_evals == 0
