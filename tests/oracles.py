"""Independent constructions the tests check the engine against. None of
them is engine code: each one rebuilds a result from its definition, by a
route the engine does not take."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from orthosect.analysis import FIT_CUT, FIT_NODES, NONIC, _TERMS, _chebyshev
from orthosect.errors import DegenerateError, SimsonDegenerateError
from orthosect.geom_core import (
    FLAT_SPHERE_RADIUS_FACTOR,
    Circle3D,
    Line,
    Plane,
    SphereOrPlane,
    Tolerance,
    as_array,
    circle_through,
    dot_rows,
)
from orthosect.orthology import FACE_VERTICES, Tetrahedron
from orthosect.pedal import FEET_TOL, SIMSON_TOL, PedalChain, _feet_on


def project_to_plane(p, pl: Plane) -> np.ndarray:
    """Orthographic projection of a point onto a plane."""
    a = as_array(p)
    return a - pl.signed_distance(a) * pl.normal


def foot_on_line(p, l: Line) -> np.ndarray:
    """Foot of the perpendicular from a point onto a line."""
    return l.anchor + np.dot(as_array(p) - l.anchor, l.direction) * l.direction


def pedal_triangle(source, face) -> Tuple[np.ndarray, np.ndarray]:
    """The pedal triangle of a point with respect to a host triangle: the
    source projected onto the face plane (3,) and its feet (3, 3) on the
    edge lines (0, 1), (0, 2) and (1, 2) of the face, which may fall outside
    the edge segments."""
    face = np.array(face, dtype=float).reshape(3, 3)
    try:
        plane = Plane.through(*face)
    except DegenerateError as exc:
        raise DegenerateError(f"degenerate face: {exc}") from exc
    src = project_to_plane(source, plane)
    feet = np.array([foot_on_line(src, Line.through(face[i], face[j]))
                     for i, j in ((0, 1), (0, 2), (1, 2))])
    return src, feet


def pedal_circle(source, face, tol: Tolerance | None = None) -> Circle3D:
    """The circle through the pedal triangle's feet. Raises
    SimsonDegenerateError when the source lies on the host's circumcircle,
    where the feet are collinear (the Simson line)."""
    src, feet = pedal_triangle(source, face)
    face = np.array(face, dtype=float).reshape(3, 3)
    tol = tol or Tolerance.for_points(np.vstack((face, src)))
    circum = circle_through(*face, tol=tol)
    if abs(float(np.linalg.norm(src - circum.center)) - circum.radius) \
            <= SIMSON_TOL * tol.scene_scale:
        raise SimsonDegenerateError("source on the circumcircle: pedal feet are collinear")
    return circle_through(*feet, tol=tol)


# |det| of three unit plane normals at or below which they count as coplanar
MEET_DET_TOL = 1e-12


def meet_rows(planes: np.ndarray) -> np.ndarray:
    """Common points (k, 3) of k triples of (unit normal, offset) plane
    rows (k, 3, 4); raises DegenerateError on (nearly) coplanar normals."""
    normals = planes[:, :, :3]
    if (np.abs(np.linalg.det(normals)) <= MEET_DET_TOL).any():
        raise DegenerateError("planes with coplanar normals have no unique common point")
    return np.linalg.solve(normals, planes[:, :, 3:])[:, :, 0]


def construct_orthologic(a: Tetrahedron, center, offsets: Sequence[float] | None = None,
                         tol: Tolerance | None = None) -> Tetrahedron:
    """Orthologic partner of ``a`` with prescribed orthology center.

    The partner's face normals are the vectors from ``center`` to the
    vertices of ``a``; ``offsets[i]`` places face plane i as
    ``n_i . x = offsets[i]``. Partners with parallel faces are equivalent,
    so the default offsets put each face plane through the corresponding
    vertex of ``a`` to give a canonical representative.
    """
    c = as_array(center)
    tol = tol or Tolerance.for_points(np.vstack((a.array, c)))
    n = a.array - c
    length = np.sqrt(dot_rows(n, n))
    near = length <= tol.eps_abs * tol.scene_scale
    if near.any():
        raise DegenerateError(f"center coincides with vertex {int(np.argmax(near)) + 1}")
    n = n / length[:, None]
    offsets = dot_rows(n, a.array) if offsets is None else np.asarray(offsets, dtype=float)
    if offsets.shape != (4,):
        raise ValueError("need exactly four face offsets")
    planes = np.column_stack((n, offsets))
    # all four planes through one common point: degenerate (point partner)
    common = meet_rows(planes[None, :3])[0]
    if abs(np.dot(n[3], common) - offsets[3]) <= tol.eps_abs * tol.scene_scale:
        raise DegenerateError("all four face planes pass through a single point")
    return Tetrahedron.of(meet_rows(planes[FACE_VERTICES]))


def fit_plane(points: np.ndarray) -> Plane:
    """Least-squares plane through a point cloud via SVD."""
    centroid = points.mean(axis=0)
    n = np.linalg.svd(points - centroid)[2][-1]
    return Plane(normal=n, offset=float(np.dot(n, centroid)))


def exact_sphere_through(p1, p2, p3, p4, tol: Tolerance | None = None) -> SphereOrPlane:
    """The exact sphere through four points from the 4x4 linear system
    ``|x|^2 + D x + E y + F z + G = 0``, or the SVD plane of the points
    when their volume is below eps_rel times the cubed scene scale or the
    radius exceeds FLAT_SPHERE_RADIUS_FACTOR scene scales. Raises
    DegenerateError when two or more pairs of points coincide."""
    pts = np.array([as_array(p) for p in (p1, p2, p3, p4)])
    tol = tol or Tolerance.for_points(pts)
    coincident = sum(np.linalg.norm(pts[i] - pts[j]) <= tol.eps_abs * tol.scene_scale
                     for i in range(4) for j in range(i + 1, 4))
    if coincident >= 2:
        raise DegenerateError("three or more coincident points")
    volume = abs(float(np.linalg.det(pts[1:] - pts[0]))) / 6.0
    if volume < tol.eps_rel * tol.scene_scale**3:
        return SphereOrPlane.plane(fit_plane(pts))
    sol = np.linalg.solve(np.hstack([pts, np.ones((4, 1))]), -(pts * pts).sum(axis=1))
    center = -0.5 * sol[:3]
    radius = math.sqrt(max(float(np.dot(center, center) - sol[3]), 0.0))
    if radius > FLAT_SPHERE_RADIUS_FACTOR * tol.scene_scale:
        return SphereOrPlane.plane(fit_plane(pts))
    return SphereOrPlane.sphere(center, radius)


@dataclass(frozen=True, eq=False)
class CircularNet:
    """3x3 grid of points built from a chain around one host edge; every
    elementary quadrilateral of a valid chain is concyclic."""

    grid: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    residuals: Dict[Tuple[int, int], float]  # keyed by top-left grid corner

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def circular_net(chain: PedalChain, edge: Sequence[int] = (1, 2)) -> CircularNet:
    """3x3 net of chain points around a host edge, with the concyclicity
    residual of each of the four elementary quadrilaterals."""
    i, j = sorted(edge)
    if not (1 <= i < j <= 4):
        raise ValueError(f"invalid edge {edge}")
    k, l = sorted({1, 2, 3, 4} - {i, j})
    host = chain.host
    grid = (
        (chain.foot(i, k), host.vertex(i), chain.foot(i, l)),
        (chain.source(l), chain.foot(i, j), chain.source(k)),
        (chain.foot(j, k), host.vertex(j), chain.foot(j, l)),
    )
    tol = Tolerance.for_points(host.array)
    residuals = {(r, c): _concyclicity_residual(
                     [grid[r][c], grid[r][c + 1], grid[r + 1][c + 1], grid[r + 1][c]], tol)
                 for r in (0, 1) for c in (0, 1)}
    return CircularNet(grid=grid, residuals=residuals)


def _concyclicity_residual(quad, tol: Tolerance) -> float:
    """Distance of the fourth point from the circle through the other three,
    using the best-conditioned triple; includes out-of-plane deviation."""
    pts = [as_array(p) for p in quad]
    best = None
    for skip in range(4):
        tri = [pts[m] for m in range(4) if m != skip]
        area = np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
        if best is None or area > best[0]:
            best = (area, skip, tri)
    _, skip, tri = best
    circ = circle_through(*tri, tol=tol)
    rest = pts[skip]
    in_plane = abs(np.linalg.norm(rest - circ.center) - circ.radius)
    off_plane = abs(Plane.through(*tri).signed_distance(rest))
    return float(max(in_plane, off_plane))


# --- the curve engine's per-call constructions, before they were batched ---


def chebyshev_rows(x: np.ndarray, slopes: bool = False) -> np.ndarray:
    """T_0 .. T_9 at the points x (N,) as (10, N), one coordinate per call;
    with ``slopes`` their derivatives k U_(k-1) instead."""
    t = np.empty((10,) + x.shape)
    t[0], t[1] = (0.0, 1.0) if slopes else (1.0, x)
    for k in range(2, 10):
        t[k] = 2.0 * x * t[k - 1] - t[k - 2]
    return t * np.arange(10)[:, None] if slopes else t


def series_value_and_gradient(coef: np.ndarray, mid: np.ndarray, half: np.ndarray,
                              uv: np.ndarray):
    """A Chebyshev series with coefficients ``coef[i, j]`` of T_i(u) T_j(v)
    in the window (``mid``, ``half``) at (M, 2) points, and its gradient
    (M, 2): two recurrences for the value and four more for the gradient."""
    s, r = ((uv - mid) / half).T
    value = ((coef @ chebyshev_rows(r)) * chebyshev_rows(s)).sum(axis=0)
    d_u = ((coef @ chebyshev_rows(r)) * chebyshev_rows(s, slopes=True)).sum(axis=0)
    d_v = ((coef.T @ chebyshev_rows(s)) * chebyshev_rows(r, slopes=True)).sum(axis=0)
    return value, np.column_stack([d_u, d_v]) / half


def _unit(v: np.ndarray) -> np.ndarray:
    return v / float(np.linalg.norm(v))


def chain_kernel_constants(a: np.ndarray) -> dict:
    """The chain kernel's constants for the local host ``a`` (4, 3), one
    np.cross per vector: u, p13, p23, w134, w234 (NaN for parallel lines),
    g, the divisor lines' in-plane normals, and the circumcentre and
    circumradius of face (1, 2, 3)."""
    d12, d13, d23, d14, d24, d34 = (_unit(a[j] - a[i]) for i, j in
                                    ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))
    n234, n134, n124, n123 = Tetrahedron.of(a).faces[:, :3]
    u = np.cross(n124, d12)
    if np.dot(u, a[3] - (a[0] + np.dot(a[3] - a[0], d12) * d12)) < 0:
        u = -u

    def factor(d1, d2, n):
        m = np.cross(d2, n)
        denom = float(np.dot(d1, m))
        return np.full(3, np.nan) if abs(denom) < 1e-12 else m / denom

    p13, p23 = np.cross(n134, d13), np.cross(n234, d23)
    w134, w234 = factor(p13, np.cross(n134, d14), n134), factor(p23, np.cross(n234, d24), n234)
    g14 = np.dot(u, d14) * d14
    g34 = np.dot(g14, w134) * np.dot(p13, d34)
    # the circumcentre from the Gram system of the edges from vertex 1
    e1, e2 = a[1] - a[0], a[2] - a[0]
    uu, uv, vv = float(np.dot(e1, e1)), float(np.dot(e1, e2)), float(np.dot(e2, e2))
    det = uu * vv - uv * uv
    centre = a[0] + 0.5 * (uu * vv - vv * uv) / det * e1 + 0.5 * (uu * vv - uu * uv) / det * e2
    return {"u": u, "p13": p13, "p23": p23, "w134": w134, "w234": w234,
            "g": np.array([g14, np.dot(u, d24) * d24, g34 * d34]),
            "divisor_normals": np.array([np.cross(n123, d23), d12, d13]),
            "circumcenter": centre, "circumradius": float(np.linalg.norm(centre - a[0]))}


def chain_through_sources(kernel, b4_local: np.ndarray, t: float):
    """The pedal chain of a local point of face (1, 2, 3) and its parameter
    t (normalized units), completed source by source as ``ChainKernel``
    once did: source 3 is foot 12 moved by t along ``u``, feet 14 and 24
    are its feet, sources 2 and 1 the meets of the in-plane perpendiculars
    at feet 13 and 14, and 23 and 24, and foot 34 source 2's foot on edge
    line 34. Returns the feet (6, 3) in EDGE_PAIRINGS order and the sources
    (4, 3), in world coordinates, and the world distance from foot 34 to
    source 1's foot on edge line 34."""
    v12, v13, v23 = _feet_on(kernel.anchor[:3], kernel.direction[:3], b4_local)
    b3 = v12 + t * kernel.u
    v14, v24 = _feet_on(kernel.anchor[3:5], kernel.direction[3:5], b3)
    b2 = v13 + np.dot(v14 - v13, kernel.w134) * kernel.p13
    b1 = v23 + np.dot(v24 - v23, kernel.w234) * kernel.p23
    v34, closing = _feet_on(kernel.anchor[5], kernel.direction[5], np.array([b2, b1]))
    local = np.array((v12, v13, v14, v23, v24, v34, b1, b2, b3, b4_local))
    world = local * kernel.scale + kernel.shift
    return world[:6], world[6:], float(np.linalg.norm(closing - v34)) * kernel.scale


def sixth_foot(kernel, local: np.ndarray, t: np.ndarray):
    """At (N, 3) local face points and parameters t (N, K): the six feet
    (N, K, 6, 3) and the signed residual (N, K) of foot 34 against the
    carrier through the other five, from a co-sphericity pass of their own."""
    base, at0, _ = kernel._cosphericity_samples(local)
    feet, _, f = kernel._sixth_foot(base, at0, t)
    return feet, f


def feet_gap(feet: np.ndarray) -> np.ndarray:
    """The smallest distance between two of the six feet (..., 6, 3)."""
    i, j = np.triu_indices(6, 1)
    return np.linalg.norm(feet[..., i, :] - feet[..., j, :], axis=-1).min(axis=-1)


def curve_root_reference(kernel, local: np.ndarray):
    """The chain parameter t and sixth-foot residual f (N,) at (N, 3) local
    face points, picked from ``sphericity_batch``'s roots: of the validated
    roots whose six feet stay more than FEET_TOL apart, the one with the
    smallest |f|; NaN where none qualifies."""
    roots, sixth, feet = kernel.sphericity_batch(local)
    fit = np.where(feet_gap(feet) > FEET_TOL, np.abs(sixth), np.inf)
    rows, best = np.arange(len(roots)), fit.argmin(axis=1)
    found = np.isfinite(fit[rows, best])
    return (np.where(found, roots[rows, best], np.nan),
            np.where(found, sixth[rows, best], np.nan))


def curve_chain_reference(kernel, local: np.ndarray, divisor_cut: float):
    """t, the sixth-foot residual and the least distance between two of
    the six feet at (N, 3) local curve points from the kernel's separate
    calls: the common root from ``nonic``, ``curve_root_reference``'s where
    |divisor| < ``divisor_cut``, then ``sixth_foot``: up to three
    co-sphericity passes over the points and two sphere fits."""
    t = kernel.nonic(local)[1]
    near = np.abs(kernel.divisor(local)) < divisor_cut
    if near.any():
        t[near] = curve_root_reference(kernel, local[near])[0]
    feet, sixth = sixth_foot(kernel, local, t[:, None])
    return t, sixth[:, 0], feet_gap(feet[:, 0])


def crossing_table_reference(pos: np.ndarray, centre: np.ndarray):
    """``analysis._crossing_table`` cell by cell, as ``trace_curve`` once
    numbered its crossings, from the lattice's node signs ``pos`` (G, G)
    and the signs at its cell centres ``centre`` (G - 1, G - 1), read at
    saddle cells only: the ends (E, 4) and the segments (M, 2)."""
    edge_ids: Dict[Tuple, int] = {}
    ends: List[Tuple] = []

    def edge(n1, n2) -> int:
        key = (min(n1, n2), max(n1, n2))
        if key not in edge_ids:
            edge_ids[key] = len(ends)
            ends.append((*n1, *n2))
        return edge_ids[key]

    segments: List[Tuple[int, int]] = []
    corner = np.stack([pos[:-1, :-1], pos[1:, :-1], pos[1:, 1:], pos[:-1, 1:]], axis=-1)
    flips = corner != np.roll(corner, -1, axis=-1)   # edge e joins corners e, e+1
    cells = np.argwhere(flips.any(axis=-1))
    for (iu, iv), flip in zip(cells.tolist(), flips[cells[:, 0], cells[:, 1]].tolist()):
        corners = [(iu, iv), (iu + 1, iv), (iu + 1, iv + 1), (iu, iv + 1)]
        e = [(corners[k], corners[(k + 1) % 4]) for k in range(4) if flip[k]]
        if len(e) == 2:
            pairs = [e]
        # saddle: connect crossings around corners matching the center
        elif centre[iu, iv] == corner[iu, iv, 0]:
            pairs = [(e[0], e[3]), (e[1], e[2])]
        else:
            pairs = [(e[0], e[1]), (e[2], e[3])]
        segments.extend((edge(*ea), edge(*eb)) for ea, eb in pairs)
    return (np.array(ends, dtype=int).reshape(-1, 4),
            np.array(segments, dtype=int).reshape(-1, 2))


def chebyshev_fit_reference(frame, window) -> Tuple[np.ndarray, float]:
    """The fitted series' coefficients and divisor cut from two kernel
    calls: ``divisor`` on all fit nodes, then ``nonic`` on the kept ones."""
    nodes = np.cos(np.pi * (np.arange(FIT_NODES) + 0.5) / FIT_NODES)
    lo, hi = np.array(window[:2]), np.array(window[2:])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    local = frame.to_local(mid + s * half)
    divisor = np.abs(frame.kernel.divisor(local))
    cut = FIT_CUT * divisor.max()
    keep = divisor >= cut
    f = frame.kernel.nonic(local[keep])[0]
    coef = np.full((NONIC + 1, NONIC + 1), np.nan)
    if np.isfinite(f).all():
        t_u, t_v = _chebyshev(s[keep].T)
        vander = (t_u[:, None] * t_v)[_TERMS].T
        coef[:] = 0.0
        coef[_TERMS] = np.linalg.solve(vander.T @ vander, vander.T @ f)
    return coef, cut


def sphere_fit_two_loops(points: np.ndarray) -> dict:
    """``geom_core._sphere_fit`` as a left-looking modified Gram-Schmidt
    QR: each of the columns [x, y, z, 1] in turn projected on the earlier
    ones, then the right-hand side -|p|^2 projected on all four in a loop of
    its own. Each column takes the same projections in the same order as in
    the engine's one sweep."""
    k, m, _ = points.shape
    xyz = np.ascontiguousarray(points.transpose(2, 1, 0))
    cols = [xyz[0], xyz[1], xyz[2], np.ones((m, k))]
    rhs = -(xyz * xyz).sum(axis=0)
    q: List[np.ndarray] = []
    r = np.zeros((4, 4, k))
    y = np.zeros((4, 5, k))
    y[:, 1:] = np.eye(4)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, v in enumerate(cols):
            for i, qi in enumerate(q):
                r[i, j] = (qi * v).sum(axis=0)
                v = v - r[i, j] * qi
            r[j, j] = np.sqrt((v * v).sum(axis=0))
            q.append(v / r[j, j])
        for j, qj in enumerate(q):
            y[j, 0] = (qj * rhs).sum(axis=0)
            rhs = rhs - y[j, 0] * qj
        for j in range(3, -1, -1):
            for i in range(j + 1, 4):
                y[j] = y[j] - r[j, i] * y[i]
            y[j] = y[j] / r[j, j]
        sol = y[:, 0]
        cond = np.sqrt((r * r).sum(axis=(0, 1)) * (y[:, 1:] * y[:, 1:]).sum(axis=(0, 1)))
        full_rank = np.finfo(float).eps * max(m, 4) * cond < 1.0
        center = -0.5 * sol[:3]
        r2 = (center * center).sum(axis=0) - sol[3]
        radius = np.sqrt(np.where(r2 > 0, r2, np.nan))
        sphere = full_rank & (radius <= FLAT_SPHERE_RADIUS_FACTOR)
        center = np.where(sphere, center, np.nan)
        radius = np.where(sphere, radius, np.nan)
        d = xyz - center[:, None]
        residual = np.abs(np.sqrt((d * d).sum(axis=0)) - radius).max(axis=0)
    normal = np.full((k, 3), np.nan)
    offset = np.full(k, np.nan)
    flat = ~sphere & np.isfinite(points).all(axis=(1, 2))
    if flat.any():
        pts = points[flat]
        centroid = pts.mean(axis=1)
        n = np.linalg.svd(pts - centroid[:, None])[2][:, -1]
        normal[flat] = n
        offset[flat] = (n * centroid).sum(axis=1)
        residual[flat] = np.abs(((pts - centroid[:, None]) * n[:, None]).sum(axis=2)).max(axis=1)
    return {"sphere": sphere, "center": center.T, "radius": radius,
            "normal": normal, "offset": offset, "residual": residual}
