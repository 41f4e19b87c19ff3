"""The batched closed-form sphericity kernel: agreement with the scalar
root finder it replaced, run on the exact quadratic through rational
determinant samples, agreement of its Gram-Schmidt sphere fit with the
SVD fit it replaced, batch/single-point consistency, the nonic F9 (its
degree and its isogonal invariance), and the curve tracer: crossing counts,
vertex quality, scale equivariance and windows."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_similarity, random_tetrahedron
from oracles import sixth_foot
from orthosect import pedal
from orthosect.analysis import (FIT_CUT, NEWTON_STEPS, ZERO_TOL, _Chebyshev, _FaceFrame,
                                default_window, trace_curve)
from orthosect.errors import CurvePointError, DegenerateError
from orthosect.geom_core import Tolerance, _sphere_fit
from orthosect.orthology import Tetrahedron
from orthosect.pedal import (VERTEX_TOL, ChainKernel, _feet_on, chain_sphere_residual,
                             complete_chain)
from orthosect.scene import load_scene
from orthosect.solver import solve_from_curve_point

DEMO_SCENE = Path(__file__).parent.parent / "scenes" / "demo.json"


# --- reference: the scalar root finder the closed form replaced ------------


def _rational_det(rows):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            ratio = m[r][c] / m[c][c]
            for k in range(c + 1, len(m)):
                m[r][k] -= ratio * m[c][k]
    return det


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
    """(t, f) pairs by ascending t from the exact quadratic through the
    determinant samples at t = -1, 0, 1 of the float feet, in rational
    arithmetic, then np.roots, Newton polish, dedupe and a per-root lstsq
    sphere fit; plus the relative discriminant of the quadratic."""
    v12, v13, v23 = _feet_on(kernel.anchor[:3], kernel.direction[:3], b4_local)
    base14, base24 = _feet_on(kernel.anchor[3:5], kernel.direction[3:5], v12)
    g14, g24 = kernel.g[:2]
    # source 2 is where the perpendiculars to edges 13 and 14 in face
    # (1, 3, 4) through feet 13 and 14 meet
    n134 = Tetrahedron.of(kernel.a).faces[1, :3]
    p13, p14 = np.cross(n134, kernel.direction[1]), np.cross(n134, kernel.direction[3])
    samples = []
    for t in (-1.0, 0.0, 1.0):
        pts = [[Fraction(float(x)) for x in p]
               for p in (v12, v13, v23, base14 + t * g14, base24 + t * g24)]
        samples.append(_rational_det([[sum(x * x for x in p), *p, 1] for p in pts]))
    d_lo, d_0, d_hi = samples
    coeffs = np.array([float(d_0), float((d_hi - d_lo) / 2), float((d_hi + d_lo) / 2 - d_0)])
    c0, c1, c2 = coeffs
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


# a root at t = -1.66e6: the closed form is 5.3e-10 of t off the exact
# quadratic's, where a degree-4 float fit through five samples is 4.5e-9 off
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
@example(seed=32760450, log_scale=0.0)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_exact_quadratic(seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    host = random_tetrahedron(rng, scale=scale)
    kernel = ChainKernel(host)
    pts = _face_points(rng, kernel, 24)
    t_batch, f_batch, _ = kernel.sphericity_batch(pts)
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
    batch's largest sample: Q with feet 12, 13, 23, 14, 24 and P with foot
    34 in place of foot 24."""
    rng = np.random.default_rng(seed)
    host = random_tetrahedron(rng, scale=10.0 ** log_scale)
    kernel = ChainKernel(host)
    base, at0, samples = kernel._cosphericity_samples(_face_points(rng, kernel, 24))
    for got, row in zip(samples, (1, 2)):
        lapack = []
        for t in (-1.0, 0.0, 1.0):
            pts = np.concatenate([base, at0[:, [0, row]] + t * kernel.g[[0, row]]], axis=1)
            mats = np.concatenate([(pts * pts).sum(axis=2, keepdims=True), pts,
                                   np.ones(pts.shape[:2] + (1,))], axis=2)
            lapack.append(np.linalg.det(mats))
        assert np.abs(got - lapack).max() <= 1e-12 * np.abs(lapack).max()


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
    difference at all. Where the reference radius lies within that bound
    of the 1e6 cut, a reference sphere is not compared, and a full-rank
    reference plane (one the cut chose) may be a sphere in ``fit``; a plane
    there in both is compared as any plane is. Returns (stack, what)
    pairs."""
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
        c, r = ref["center"][k], ref["radius"][k]
        d_r = tol[k] * (1.0 + np.linalg.norm(c)) / r
        at_cut = abs(r - 1e6) <= d_r
        if not ref["sphere"][k]:
            if fit["sphere"][k]:
                if not (at_cut and kappa[k] * EPS * max(m, 4) < 1.0):
                    out.append((k, "plane"))   # not the plane the cut chose
            elif not all(np.array_equal(fit[key][k], ref[key][k])
                         for key in ("normal", "offset", "residual")):
                out.append((k, "plane"))
            continue
        if at_cut:
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
# stack 28: a reference plane of radius 1.043e6, which the fit, at 9.42e5,
# calls a sphere; the forward-error bound on the radius is about 2.7e9
@example(seed=2999, m=6)
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
    local = frame.kernel.to_local(frame.origin + uv[:, :1] * frame.axis_u
                                  + uv[:, 1:] * frame.axis_v)
    t_batch, f_batch, _ = frame.kernel.sphericity_batch(local)
    # the feet at each validated root are the oracle's there, NaN elsewhere;
    # an eps_rel so tight that round-off fails some first roots moves second
    # roots into column 0, and their feet with them
    tight = ChainKernel(host, Tolerance.for_points(host.array, eps_rel=1e-15))
    assert (tight.sphericity_batch(local)[0][:, 0] == t_batch[:, 1]).any()
    for kernel in (frame.kernel, tight):
        t, _, feet = kernel.sphericity_batch(local)
        roots = np.isfinite(t)
        assert np.array_equal(feet[roots], sixth_foot(kernel, local, t)[0][roots])
        assert np.isnan(feet[~roots]).all()
    counts = set()
    for k, p in enumerate(local):
        t_one, f_one, _ = (v[0] for v in frame.kernel.sphericity_batch(p[None]))
        got = np.isfinite(t_batch[k])
        assert got.tolist() == np.isfinite(t_one).tolist()
        assert got.tolist() == sorted(got.tolist(), reverse=True)  # missing roots last
        counts.add(int(got.sum()))
        for t, f, t1, f1 in zip(t_batch[k][got], f_batch[k][got], t_one[got], f_one[got]):
            assert abs(t - t1) <= 1e-12 * max(1.0, abs(t1))
            assert abs(f - f1) <= 1e-12 * max(1.0, abs(t1))
    assert counts >= {0, 2}  # the lattice straddles the real sphericity locus


# --- the nonic F9 -----------------------------------------------------------


def _beside_lines(kernel, p):
    """Points of ``p`` where F is not 0/0: |L23 N12 N13| at least FIT_CUT of
    its largest value over ``p``, the cut the trace's fit uses."""
    divisor = np.abs(kernel.divisor(p))
    return divisor >= FIT_CUT * divisor.max()


def _random_host(seed, log_scale):
    rng = np.random.default_rng(seed)
    host = Tetrahedron.of(random_similarity(rng, log_scale)(random_tetrahedron(rng).array))
    return rng, ChainKernel(host)


# Both bounds were set from a run of the two tests' sampling on 1,500 random
# hosts (345,000 points) before the tests first ran: on the worst of 7,500
# lines the degree-9 fit's residual reached 7.2e-9 of the line's max |F|, the
# degree-8 fit's worst line was at least 6.8e4 times worse than the degree-9
# one, and the isogonal products deviated from one constant by at most
# 1.0e-10 of their largest value. Both tests then passed 4,000 examples each.
DEGREE9_TOL = 1e-7
DEGREE8_RATIO = 1e3
ISOGONAL_TOL = 1e-9


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=30, deadline=None)
def test_nonic_has_degree_nine(seed, log_scale):
    """On five random lines across the inflated face, a degree-9 Chebyshev
    fit of the kernel's F matches it to within DEGREE9_TOL of its largest
    value, and a degree-8 fit misses by DEGREE8_RATIO times more."""
    rng, kernel = _random_host(seed, log_scale)
    s = np.cos(np.pi * (np.arange(30) + 0.5) / 30)
    worst = {8: 0.0, 9: 0.0}
    for p0, p1 in _face_points(rng, kernel, 10).reshape(5, 2, 3):
        pts = p0 + 0.5 * (s[:, None] + 1.0) * (p1 - p0)
        keep = _beside_lines(kernel, pts)
        f = kernel.nonic(pts[keep])[0]
        for degree in worst:
            fit = cheb.chebval(s[keep], cheb.chebfit(s[keep], f, degree))
            worst[degree] = max(worst[degree], np.abs(fit - f).max() / np.abs(f).max())
    assert worst[9] <= DEGREE9_TOL
    assert worst[8] >= DEGREE8_RATIO * max(worst[9], np.finfo(float).eps)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=30, deadline=None)
def test_nonic_is_isogonally_invariant(seed, log_scale):
    """F(q) S^9 / (F(p) (alpha beta gamma)^3) is one constant over random
    points p of the inflated face, q the isogonal conjugate of p with
    barycentric weights (a^2 beta gamma, b^2 alpha gamma, c^2 alpha beta)
    and S their sum; conjugates beyond three face radii of the centroid are
    left out."""
    rng, kernel = _random_host(seed, log_scale)
    a = kernel.a[:3]
    centroid = a.mean(axis=0)
    p = _face_points(rng, kernel, 40)
    bary = np.linalg.lstsq(np.vstack([a.T, np.ones(3)]), np.vstack([p.T, np.ones(len(p))]),
                           rcond=None)[0].T
    sides = ((a[[1, 0, 0]] - a[[2, 2, 1]]) ** 2).sum(axis=1)
    weights = sides * bary[:, [1, 0, 0]] * bary[:, [2, 2, 1]]
    total = weights.sum(axis=1)
    q = (weights / total[:, None]) @ a
    keep = (_beside_lines(kernel, p) & _beside_lines(kernel, q)
            & (np.linalg.norm(q - centroid, axis=1)
               <= 3.0 * np.linalg.norm(a - centroid, axis=1).max()))
    assume(keep.sum() >= 5)
    lhs = kernel.nonic(q[keep])[0] * total[keep] ** 9
    rhs = kernel.nonic(p[keep])[0] * bary[keep].prod(axis=1) ** 3
    ratio = np.median(lhs / rhs)
    assert np.abs(lhs - ratio * rhs).max() <= ISOGONAL_TOL * np.abs(lhs).max()


# --- trace_curve ------------------------------------------------------------


# vertices per (grid, face) of the demo scene's host, traced on the one
# field F9; a lower count means crossings were dropped. At grid 16 the
# lattice runs through the face vertices and along the perpendicular N12,
# where a few vertices have degenerate chains and are dropped (CHANGES.md)
DEMO_VERTICES = {(16, 1): 71, (16, 2): 56, (16, 3): 67, (16, 4): 67,
                 (32, 1): 164, (32, 2): 131, (32, 3): 170, (32, 4): 176}


@pytest.mark.parametrize("grid, face", [
    pytest.param(grid, face, id=str(face) if grid == 16 else f"grid{grid}-{face}")
    for grid, face in DEMO_VERTICES])
def test_trace_curve_vertex_counts(grid, face):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    trace = trace_curve(host, face, grid=grid)
    assert trace.vertex_count == DEMO_VERTICES[grid, face]
    # a cycle's repeated first vertex is not counted twice
    points = np.concatenate([p.points for p in trace.polylines])
    assert trace.vertex_count == len(np.unique(points, axis=0))


def _marched_edges(host, face, grid):
    """Unique lattice edges whose ends the fitted field puts on opposite
    sides of trace_curve's sign level: every one is a crossing."""
    frame = _FaceFrame(host, face, None)
    window = default_window(host, face)
    field = _Chebyshev(frame, window)
    x0, y0, x1, y1 = window
    us, vs = np.linspace(x0, x1, grid), np.linspace(y0, y1, grid)
    f = np.array([[field(np.array([[u, v]]))[0] for v in vs] for u in us])
    pos = f > ZERO_TOL * np.abs(f).max()
    edges = set()
    for iu in range(grid):
        for iv in range(grid):
            for du, dv in ((1, 0), (0, 1)):
                ju, jv = iu + du, iv + dv
                if ju < grid and jv < grid and pos[iu, iv] != pos[ju, jv]:
                    edges.add(((iu, iv), (ju, jv)))
    return edges


@pytest.mark.parametrize("face", [2, 4])
def test_trace_counts_cover_every_crossing(face):
    """Every sign-change edge of the one field is refined, and each is kept
    or counted as rejected; no lattice node lacks a value."""
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    trace = trace_curve(host, face, grid=16)
    counts = trace.counts
    assert counts.lattice_nodes == 16 * 16
    assert counts.nan_nodes == 0
    assert counts.crossings + counts.rejected_crossings == len(_marched_edges(host, face, 16))
    # a closed polyline repeats its first vertex at its end
    distinct = {tuple(uv) for poly in trace.polylines for uv in poly.points.tolist()}
    assert counts.crossings >= len(distinct) > 0
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


# vertex 4 of hosts whose edges 13 and 14 meet at about 5e-14 and 9.5e-13
# rad; on the second, Q has real roots at (-2, -2) and (3, 1.5)
@pytest.mark.parametrize("apex", [(0.0, 2.0, 1e-13), (0.0, 0.5, 4.75e-13)])
def test_host_without_source_two(apex):
    """The in-plane perpendiculars at feet 13 and 14 are parallel, so no
    chain has a source 2: every kernel result is NaN, no parameter is
    validated, no chain completes, no point is on the curve and faces 3
    and 4 (whose kernels take source 2 on that face) trace nothing."""
    host = Tetrahedron.of(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], apex], float))
    kernel = ChainKernel(host)
    points = np.array([[0.3, 0.2, 0.0], [0.1, 0.6, 0.0], [2.0, -1.0, 0.0], [-0.5, 0.4, 0.0],
                       [-2.0, -2.0, 0.0], [3.0, 1.5, 0.0]])
    local = kernel.to_local(points)
    t, f, feet = kernel.sphericity_batch(local)
    assert np.isnan(t).all() and np.isnan(f).all() and np.isnan(feet).all()
    for values in (*kernel.nonic(local)[:2], *kernel.curve_chain(local, math.inf)):
        assert np.isnan(values).all()
    t, f, _ = kernel.curve_chain(local, 0.0)
    assert np.isnan(t).all() and np.isnan(f).all()
    for b4 in points:
        assert chain_sphere_residual(host, b4) == []
        with pytest.raises(DegenerateError):
            complete_chain(host, b4, 0.3)
        with pytest.raises(CurvePointError):
            solve_from_curve_point(host, b4)
    for face in (3, 4):
        trace = trace_curve(host, face, grid=16)
        assert trace.polylines == ()
        assert trace.counts.nan_nodes == 256


@pytest.mark.parametrize("face", [1, 2, 3])
def test_trace_kernel_calls(face, monkeypatch):
    """One co-sphericity pass for the fit, one per Newton step and one at
    the polished vertices, whose one sphere fit also serves the vertices
    next to the lines where F is 0/0 (the demo's grid-16 lattice has some
    on every face), so no sphericity call; one ``nonic`` call for the fit
    and one per Newton step, and one ``divisor`` call with each and at the
    polished vertices; no LAPACK determinant and no np.cross anywhere in
    the trace."""
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    calls = {"_cosphericity_samples": 0, "sphericity_batch": 0, "nonic": 0, "divisor": 0,
             "_sphere_fit": 0, "det": 0, "cross": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("_cosphericity_samples", "sphericity_batch", "nonic", "divisor"):
        monkeypatch.setattr(ChainKernel, name, counted(name, getattr(ChainKernel, name)))
    monkeypatch.setattr(pedal, "_sphere_fit", counted("_sphere_fit", pedal._sphere_fit))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    monkeypatch.setattr(np, "cross", counted("cross", np.cross))
    trace_curve(host, face, grid=16)
    assert calls == {"_cosphericity_samples": NEWTON_STEPS + 2, "sphericity_batch": 0,
                     "nonic": NEWTON_STEPS + 1, "divisor": NEWTON_STEPS + 2,
                     "_sphere_fit": 1, "det": 0, "cross": 0}


def _first_order_distance(frame, points):
    """|F| / |grad F| at (M, 2) frame points, in scene scales: the kernel's F
    with central differences along the frame axes."""
    kernel = frame.kernel
    local = frame.to_local(points)
    step = 1e-5
    grad = [(kernel.nonic(local + step * axis)[0] - kernel.nonic(local - step * axis)[0])
            / (2.0 * step) for axis in (frame.axis_u, frame.axis_v)]
    return np.abs(kernel.nonic(local)[0]) / np.hypot(*grad)


def _vertices(trace):
    """All polyline vertices (M, 2) and their ts (M,)."""
    return (np.concatenate([p.points for p in trace.polylines]),
            np.concatenate([p.ts for p in trace.polylines]))


# The worst first-order distance to F = 0 of a kept vertex, in scene scales,
# measured 8.4e-10 over faces 1-4 at grids 16 and 64 on the demo host and on
# the bench's curve hosts for seeds 1-3: 2.7e-13 away from the lines L23, N12
# and N13, and up to 8.4e-10 next to them, where F itself is 0/0 and carries
# that much noise; the two-branch trace it replaced reached 1.7e-9
FIRST_ORDER_TOL = 1e-9


def _check_vertices(host, face, trace):
    """Every kept vertex lies within FIRST_ORDER_TOL of F = 0, its six feet
    are pairwise more than 1e-9 scene scales apart, and its sixth foot is
    within VERTEX_TOL of the carrier of the other five."""
    frame = _FaceFrame(host, face, None)
    points, ts = _vertices(trace)
    assert _first_order_distance(frame, points).max() <= FIRST_ORDER_TOL
    feet, sixth = sixth_foot(frame.kernel, frame.to_local(points),
                             ts[:, None] / frame.kernel.scale)
    i, j = np.triu_indices(6, 1)
    assert np.linalg.norm(feet[:, 0, i] - feet[:, 0, j], axis=-1).min() > 1e-9
    assert np.abs(sixth).max() <= VERTEX_TOL


@pytest.mark.parametrize("grid", [16, 64])
@pytest.mark.parametrize("face", [1, 2, 3, 4])
def test_trace_vertices_on_nonic(grid, face):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    _check_vertices(host, face, trace_curve(host, face, grid=grid))


def test_sub_window_vertices_on_nonic():
    """A window inside the default one traces the same field to the same
    first-order distance."""
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    x0, y0, x1, y1 = default_window(host, 4)
    inner = (0.7 * x0 + 0.3 * x1, 0.7 * y0 + 0.3 * y1, 0.3 * x0 + 0.7 * x1, 0.3 * y0 + 0.7 * y1)
    trace = trace_curve(host, 4, window=inner, grid=16)
    assert trace.vertex_count > 0
    _check_vertices(host, 4, trace)


# the demo trace scaled by 1e-12 and 1e12 under a random rotation and shift
# kept its vertex counts, and its points moved by at most 1.2e-8 scene scales
# over seeds 0-5 at grids 16 and 64: bisection resolves each crossing to
# REFINE_TOL along its lattice edge, and Newton polishes across the curve
EQUIVARIANCE_TOL = 1e-7


@pytest.mark.parametrize("log_scale", [-12.0, 12.0])
def test_trace_scale_equivariance(log_scale):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    moved = Tetrahedron(random_similarity(np.random.default_rng(1), log_scale)(host.array))
    scale = 10.0 ** log_scale
    for face in (1, 2, 3, 4):
        want, got = trace_curve(host, face, grid=16), trace_curve(moved, face, grid=16)
        assert [len(p.points) for p in got.polylines] == [len(p.points) for p in want.polylines]
        assert (np.abs(_vertices(got)[0] / scale - _vertices(want)[0]).max()
                <= EQUIVARIANCE_TOL * Tolerance.for_points(host.array).scene_scale)


@pytest.mark.parametrize("window", [(1.0, 1.0, 1.0, 1.0), (2.0, 0.0, 1.0, 3.0),
                                    (0.0, 1.0, 1.0, 1.0)])
def test_trace_rejects_degenerate_window(window):
    """The fit maps the window onto [-1, 1]^2, dividing by its half-widths."""
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    with pytest.raises(ValueError, match="window"):
        trace_curve(host, 4, window=window, grid=16)
