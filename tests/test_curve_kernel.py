"""The batched closed-form sphericity kernel: agreement with the
degree-4 fit it replaced, agreement of its Gram-Schmidt sphere fit with the
SVD fit it replaced, batch/single-point consistency, and the curve tracer's
crossing counts."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tetrahedron
from orthosect.analysis import _FaceFrame, default_window, trace_curve
from orthosect.geom_core import _sphere_fit
from orthosect.orthology import Tetrahedron
from orthosect.pedal import ChainKernel, _feet_on
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
    base14, base24 = _feet_on(kernel.anchor[3:5], kernel.direction[3:5], v12)
    g14, g24 = kernel.g
    # source 2 is where the perpendiculars to edges 13 and 14 in face
    # (1, 3, 4) through feet 13 and 14 meet
    n134 = Tetrahedron.of(kernel.a).faces[1, :3]
    p13, p14 = np.cross(n134, kernel.direction[1]), np.cross(n134, kernel.direction[3])
    mats = np.empty((5, 5, 5))
    for idx, t in enumerate(_NODES):
        pts = np.vstack([v12, v13, v23, base14 + t * g14, base24 + t * g24])
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
        v14, v24 = base14 + t * g14, base24 + t * g24
        dist, fit_res = _reference_fit(np.array([v12, v13, v23, v14, v24]))
        if fit_res > kernel.tol.eps_rel:
            continue
        seen.append(t)
        alpha = np.dot(np.cross(v14 - v13, p14), n134) / np.dot(np.cross(p13, p14), n134)
        out.append((t, dist(_feet_on(kernel.anchor[5], kernel.direction[5],
                                     v13 + alpha * p13))))
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


# derandomized: against exact rational determinants, LAPACK's own error
# reaches 9e-13 of the batch's largest sample in about one batch in 10^4
# (the closed form's stayed below 3.2e-13), which would make a random draw
# fail now and then for the reference's sake
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_closed_form_determinants_match_lapack(seed, log_scale):
    """The kernel's co-sphericity determinant samples (2x2 minors of the
    feet translated to foot 12) against LAPACK's determinant of the 5x5
    matrices [|p|^2, p, 1] of the same five feet, within 1e-12 of the
    batch's largest sample."""
    rng = np.random.default_rng(seed)
    host = random_tetrahedron(rng, scale=10.0 ** log_scale)
    kernel = ChainKernel(host)
    base, at0, samples = kernel._cosphericity_samples(_face_points(rng, kernel, 24))
    lapack = []
    for t in (-1.0, 0.0, 1.0):
        pts = np.concatenate([base, at0 + t * kernel.g], axis=1)
        mats = np.concatenate([(pts * pts).sum(axis=2, keepdims=True), pts,
                               np.ones(pts.shape[:2] + (1,))], axis=2)
        lapack.append(np.linalg.det(mats))
    assert np.abs(samples - lapack).max() <= 1e-12 * np.abs(lapack).max()


# --- reference: the batched-SVD sphere fit the Gram-Schmidt one replaced ----


def _svd_sphere_fit(points):
    k, m, _ = points.shape
    mat = np.concatenate([points, np.ones((k, m, 1))], axis=2)
    rhs = -(points * points).sum(axis=2)
    # minimum-norm least squares with numpy lstsq's default rank cutoff
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = s > np.finfo(float).eps * max(m, 4) * s[:, :1]
    coef = np.where(keep, np.einsum("kij,ki->kj", u, rhs) / np.where(keep, s, 1.0), 0.0)
    sol = np.einsum("kji,kj->ki", vt, coef)
    center = -0.5 * sol[:, :3]
    r2 = (center * center).sum(axis=1) - sol[:, 3]
    radius = np.sqrt(np.where(r2 > 0, r2, np.nan))
    sphere = keep.all(axis=1) & (radius <= 1e6)
    residual = np.abs(np.linalg.norm(points - center[:, None], axis=2)
                      - radius[:, None]).max(axis=1)
    normal = np.full((k, 3), np.nan)
    offset = np.full(k, np.nan)
    flat = ~sphere
    if flat.any():
        pts = points[flat]
        centroid = pts.mean(axis=1)
        n = np.linalg.svd(pts - centroid[:, None])[2][:, -1]
        normal[flat] = n
        offset[flat] = (n * centroid).sum(axis=1)
        residual[flat] = np.abs(((pts - centroid[:, None]) * n[:, None]).sum(axis=2)).max(axis=1)
    return {"sphere": sphere, "center": center, "radius": radius,
            "normal": normal, "offset": offset, "residual": residual}


EPS = np.finfo(float).eps
# Fixed before comparing: two backward-stable least-squares solvers agree to
# FIT_FACTOR * eps * kappa * (1 + kappa * rho) * max(1, |x|) in the solution
# x = (-2 c, |c|^2 - r^2), where kappa is the condition number of [x y z 1]
# and rho its relative residual; a normal-equations fit errs by kappa^2 eps.
FIT_FACTOR = 100.0
# |R|_F |R^-1|_F reads kappa up to 4x high, so rank verdicts may differ
# where the reference's kappa * eps * max(m, 4) lies in this band
RANK_BAND = (1.0 / 8.0, 2.0)


def _fit_disagreements(fit, points):
    """Stacks where ``fit`` departs from the SVD reference by more than the
    least-squares forward-error bound: a different sphere flag, centre,
    radius, residual or residual <= 1e-7 verdict, or (for planes) any
    difference at all. Returns (stack, what) pairs."""
    ref = _svd_sphere_fit(points)
    m = points.shape[1]
    mat = np.concatenate([points, np.ones(points.shape[:2] + (1,))], axis=2)
    rhs = -(points * points).sum(axis=2)
    s = np.linalg.svd(mat, compute_uv=False)
    kappa = s[:, 0] / s[:, -1]
    x = np.concatenate([-2.0 * ref["center"], (ref["center"] ** 2).sum(axis=1, keepdims=True)
                        - ref["radius"][:, None] ** 2], axis=1)
    with np.errstate(invalid="ignore"):
        rho = (np.linalg.norm(np.einsum("kmi,ki->km", mat, x) - rhs, axis=1)
               / (s[:, 0] * np.linalg.norm(x, axis=1)))
    tol = FIT_FACTOR * EPS * kappa * (1.0 + kappa * rho) * np.maximum(1.0, np.linalg.norm(x, axis=1))
    out = []
    for k in range(len(points)):
        if RANK_BAND[0] <= kappa[k] * EPS * max(m, 4) <= RANK_BAND[1]:
            continue
        if not ref["sphere"][k]:
            if fit["sphere"][k] or not all(np.array_equal(fit[key][k], ref[key][k])
                                           for key in ("normal", "offset", "residual")):
                out.append((k, "plane"))
            continue
        c, r = ref["center"][k], ref["radius"][k]
        d_r = tol[k] * (1.0 + np.linalg.norm(c)) / r
        if abs(r - 1e6) <= d_r:
            continue   # at the radius cut
        if not fit["sphere"][k]:
            out.append((k, "sphere flag"))
            continue
        d_res = tol[k] + d_r
        if np.linalg.norm(fit["center"][k] - c) > tol[k]:
            out.append((k, "centre"))
        if abs(fit["radius"][k] - r) > d_r:
            out.append((k, "radius"))
        if abs(fit["residual"][k] - ref["residual"][k]) > d_res:
            out.append((k, "residual"))
        if (abs(ref["residual"][k] - 1e-7) > d_res
                and (fit["residual"][k] <= 1e-7) != (ref["residual"][k] <= 1e-7)):
            out.append((k, "verdict"))
    return out


def _fit_stacks(rng, m, n):
    """n stacks of m points of each kind: co-spherical (whole sphere and a
    unit-size cap) at radii 1e-3..1e5 with relative noise 0 or 1e-16..1e-6,
    near-coplanar (1e-12..1e-9 off a plane), coplanar, and repeated points
    (2, 3 or 4 distinct)."""
    stacks = []
    for _ in range(n):
        radius = 10.0 ** rng.uniform(-3.0, 5.0)
        c = rng.uniform(-1.0, 1.0, 3)
        d = rng.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        noise = (rng.random() < 0.7) * 10.0 ** rng.uniform(-16.0, -6.0) * radius
        stacks.append(c + radius * d + noise * rng.normal(size=(m, 3)))
        axis = d[0]
        cap = axis + min(1.0, radius) / radius * rng.normal(size=(m, 3))
        cap /= np.linalg.norm(cap, axis=1)[:, None]
        stacks.append(c + radius * (cap - axis) + noise * rng.normal(size=(m, 3)))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        u = np.cross(normal, rng.normal(size=3))
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        ab = rng.uniform(-1.0, 1.0, (m, 2)) * scale
        flat = c * scale + ab[:, :1] * u + ab[:, 1:] * v
        stacks.append(flat)
        stacks.append(flat + 10.0 ** rng.uniform(-12.0, -9.0) * scale
                      * rng.normal(size=(m, 1)) * normal)
        distinct = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 5)), 3)) * scale + c
        stacks.append(distinct[np.concatenate([np.arange(len(distinct)),
                                               rng.integers(0, len(distinct), m - len(distinct))])])
    return np.array(stacks)


@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([5, 6]))
@settings(max_examples=40, deadline=None)
def test_sphere_fit_matches_svd_reference(seed, m):
    points = _fit_stacks(np.random.default_rng(seed), m, 8)
    assert _fit_disagreements(_sphere_fit(points), points) == []


def test_fit_bound_rejects_normal_equations():
    """The bound above is tight enough to tell a normal-equations fit, which
    squares the condition number, from a stable one (on the cap stacks)."""
    points = _fit_stacks(np.random.default_rng(7), 5, 40)[1::5]
    mat = np.concatenate([points, np.ones(points.shape[:2] + (1,))], axis=2)
    rhs = -(points * points).sum(axis=2)
    gram = np.einsum("kmi,kmj->kij", mat, mat)
    sol = np.linalg.solve(gram, np.einsum("kmi,km->ki", mat, rhs)[..., None])[..., 0]
    fit = _svd_sphere_fit(points)
    fit["center"] = -0.5 * sol[:, :3]
    with np.errstate(invalid="ignore"):
        fit["radius"] = np.sqrt((fit["center"] ** 2).sum(axis=1) - sol[:, 3])
    fit["residual"] = np.abs(np.linalg.norm(points - fit["center"][:, None], axis=2)
                             - fit["radius"][:, None]).max(axis=1)
    assert "centre" in {what for _, what in _fit_disagreements(fit, points)}


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
        t_one, f_one = (v[0] for v in frame.kernel.sphericity_batch(p[None]))
        got = np.isfinite(t_batch[k])
        assert got.tolist() == np.isfinite(t_one).tolist()
        assert got.tolist() == sorted(got.tolist(), reverse=True)  # missing roots last
        counts.add(int(got.sum()))
        for t, f, t1, f1 in zip(t_batch[k][got], f_batch[k][got], t_one[got], f_one[got]):
            assert abs(t - t1) <= 1e-12 * max(1.0, abs(t1))
            assert abs(f - f1) <= 1e-12 * max(1.0, abs(t1))
    assert counts >= {0, 2}  # the lattice straddles the real sphericity locus


# --- trace_curve ------------------------------------------------------------


# vertices per (grid, face) of the demo scene's host, at grid 16 measured
# with the per-point tracer and at grid 32 with the SVD sphere fit; a lower
# count means crossings were dropped
DEMO_VERTICES = {(16, 1): 47, (16, 2): 48, (16, 3): 36, (16, 4): 63,
                 (32, 1): 127, (32, 2): 111, (32, 3): 94, (32, 4): 122}


@pytest.mark.parametrize("grid, face", [
    pytest.param(grid, face, id=str(face) if grid == 16 else f"grid{grid}-{face}")
    for grid, face in DEMO_VERTICES])
def test_trace_curve_vertex_counts(grid, face):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    assert trace_curve(host, face, grid=grid).vertex_count == DEMO_VERTICES[grid, face]


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


# kernel calls on the demo host at grid 16 for saddle-cell centres: one per
# branch that has saddle cells
CENTRE_CALLS = {1: 2, 2: 0, 3: 1}


@pytest.mark.parametrize("face", sorted(CENTRE_CALLS))
def test_trace_kernel_calls(face, monkeypatch):
    """One lattice call, one call per bisection round and one per branch
    with saddle centres; no LAPACK determinant anywhere in the trace."""
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    calls = {"kernel": 0, "det": 0}
    batch, det = ChainKernel.sphericity_batch, np.linalg.det

    def counted_batch(self, points):
        calls["kernel"] += 1
        return batch(self, points)

    def counted_det(*args, **kwargs):
        calls["det"] += 1
        return det(*args, **kwargs)

    monkeypatch.setattr(ChainKernel, "sphericity_batch", counted_batch)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    counts = trace_curve(host, face, grid=16).counts
    assert calls == {"kernel": 1 + counts.bisection_rounds + CENTRE_CALLS[face], "det": 0}
