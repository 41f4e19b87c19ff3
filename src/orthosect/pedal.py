"""Pedal triangles, pedal circles, isogonal conjugation, and pedal chains.

A pedal chain on a tetrahedron is a set of four pedal triangles, one per
face, sharing the foot on each common edge. Chains are completed from one
prescribed pedal triangle plus a single scalar parameter; when the six feet
are co-spherical (or co-planar) the chain determines a unique orthosecting
partner tetrahedron, rebuilt here from the feet planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateError,
    ReconstructionError,
    SimsonDegenerateError,
)
from .geom_core import (
    Circle3D,
    Line,
    Plane,
    Point,
    SphereOrPlane,
    Tolerance,
    as_array,
    circle_through,
    concurrency_point,
    foot_on_line,
    meet_planes,
    project_to_plane,
    unit,
)
from .orthology import EDGE_PAIRINGS, Tetrahedron, by_pairing, pair_measures, pair_tolerance

# |dist(source, circumcenter) - circumradius| below this (times scene scale)
# counts as the Simson degeneracy: collinear feet, no pedal circle.
SIMSON_TOL = 1e-7

EdgeKey = frozenset

FACE_EDGE_ORDER = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True, eq=False)
class PedalTriangle:
    """Perpendicular feet of a source point on the three edge lines of a
    host triangle. Feet are ordered by FACE_EDGE_ORDER of the face vertices
    and may fall outside the edge segments (edge lines, not segments)."""

    source: Point
    face: Tuple[Point, Point, Point]
    feet: Tuple[Point, Point, Point]


@dataclass(frozen=True, eq=False)
class PedalChain:
    """Six feet keyed by unordered host-edge index pairs {i,j} plus the four
    source points, one per face plane. ``closure_spread`` measures how far
    the configuration is from a genuine chain (0 for exact ones)."""

    host: Tetrahedron
    feet: Dict[EdgeKey, Point]
    sources: Tuple[Point, Point, Point, Point]
    closure_spread: float

    def foot(self, i: int, j: int) -> Point:
        return self.feet[frozenset((i, j))]

    def source(self, i: int) -> Point:
        return self.sources[i - 1]


@dataclass(frozen=True, eq=False)
class SphericalChain:
    chain: PedalChain
    carrier: SphereOrPlane
    max_residual: float


@dataclass(frozen=True, eq=False)
class CircularNet:
    """3x3 grid of points built from a chain around one host edge; every
    elementary quadrilateral of a valid chain is concyclic."""

    grid: Tuple[Tuple[Point, Point, Point], ...]
    residuals: Dict[Tuple[int, int], float]  # keyed by top-left grid corner

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _face_plane(face) -> Plane:
    return Plane.through(face[0], face[1], face[2])


def _edge_lines(face) -> Tuple[Line, Line, Line]:
    return tuple(Line.through(face[i], face[j]) for i, j in FACE_EDGE_ORDER)


def pedal_triangle(source, face, tol: Tolerance | None = None,
                   strict: bool = False) -> PedalTriangle:
    """Pedal triangle of a point with respect to a host triangle.

    Sources off the carrier plane are projected onto it first; in strict
    mode an off-plane distance beyond eps_abs raises instead.
    """
    face = tuple(Point.of(f) if not isinstance(f, Point) else f for f in face)
    tol = tol or Tolerance.for_points(list(face) + [as_array(source)])
    try:
        plane = _face_plane(face)
    except DegenerateError as exc:
        raise DegenerateError(f"degenerate face: {exc}") from exc
    dist = abs(plane.signed_distance(source))
    if strict and dist > tol.eps_abs * tol.scene_scale:
        raise DegenerateError(f"source off the face plane by {dist:.3e}")
    src = project_to_plane(source, plane)
    feet = tuple(foot_on_line(src, line) for line in _edge_lines(face))
    return PedalTriangle(source=src, face=face, feet=feet)


def pedal_circle(source, face, tol: Tolerance | None = None) -> Circle3D:
    """Circumcircle of the pedal triangle.

    Degenerates to a line (Simson case) when the source lies on the host's
    circumcircle; that raises SimsonDegenerateError.
    """
    tri = pedal_triangle(source, face, tol)
    tol = tol or Tolerance.for_points(list(tri.face) + [tri.source])
    circum = circle_through(*tri.face, tol=tol)
    on_circle = abs(tri.source.distance_to(circum.center) - circum.radius)
    if on_circle <= SIMSON_TOL * tol.scene_scale:
        raise SimsonDegenerateError(
            "source on the circumcircle: pedal feet are collinear")
    return circle_through(*tri.feet, tol=tol)


def isogonal_conjugate(source, face, tol: Tolerance | None = None) -> Point:
    """Partner point sharing the same pedal circle: the reflection of the
    source in the pedal-circle center."""
    circle = pedal_circle(source, face, tol)
    src = project_to_plane(source, circle.carrier)
    return Point.of(2.0 * circle.center.array - src.array)


def recover_source(feet, face, tol: Tolerance | None = None):
    """Source point whose pedal triangle has the given feet.

    Intersects the in-plane perpendiculars to each edge at its foot.
    Returns ``(source, spread)``; a spread above tolerance flags feet that
    do not actually form a pedal triangle.
    """
    face = tuple(Point.of(f) if not isinstance(f, Point) else f for f in face)
    feet = tuple(Point.of(f) if not isinstance(f, Point) else f for f in feet)
    tol = tol or Tolerance.for_points(list(face) + list(feet))
    plane = _face_plane(face)
    lines = []
    for (i, j), foot in zip(FACE_EDGE_ORDER, feet):
        edge_dir = unit(face[j].array - face[i].array)
        lines.append(Line(anchor=foot, direction=np.cross(plane.normal, edge_dir)))
    return concurrency_point(lines, tol)


# ---------------------------------------------------------------------------
# chain kernel: normalized fast path shared by completion, sphericity root
# finding and curve tracing
# ---------------------------------------------------------------------------


def _sphere_fit(points: np.ndarray) -> dict:
    """Least-squares sphere (or plane) through each stack of >= 4 points in
    normalized coordinates, ``points`` of shape (K, m, 3).

    Returns arrays keyed ``sphere`` (K,) bool, ``center`` (K, 3), ``radius``
    (K,), ``normal`` (K, 3), ``offset`` (K,) and ``residual`` (K,), the max
    absolute point residual. A stack is a sphere when the linear fit has
    full rank 4, r^2 > 0 and radius <= 1e6; otherwise it gets the total
    least-squares plane. Only the entries of its own kind are meaningful;
    stacks with non-finite points get NaN throughout."""
    k, m, _ = points.shape
    # modified Gram-Schmidt QR of the columns [x, y, z, 1], then -|p|^2
    # projected onto Q and back-substituted; every step is an elementwise
    # operation on (m, K) arrays
    xyz = np.ascontiguousarray(points.transpose(2, 1, 0))
    cols = [xyz[0], xyz[1], xyz[2], np.ones((m, k))]
    rhs = -(xyz * xyz).sum(axis=0)
    q: List[np.ndarray] = []
    r = np.zeros((4, 4, k))
    # right-hand sides: Q^T rhs, then the identity, so that back-substitution
    # yields the solution and R^-1 together
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
        # rank 4 when the condition number of R, bounded above by
        # |R|_F |R^-1|_F (at most 4x the 2-norm one), is below numpy lstsq's
        # cutoff; the diagonal of R alone reads coplanar stacks as full rank
        cond = np.sqrt((r * r).sum(axis=(0, 1)) * (y[:, 1:] * y[:, 1:]).sum(axis=(0, 1)))
        full_rank = np.finfo(float).eps * max(m, 4) * cond < 1.0
        center = -0.5 * sol[:3]
        r2 = (center * center).sum(axis=0) - sol[3]
        radius = np.sqrt(np.where(r2 > 0, r2, np.nan))
        sphere = full_rank & (radius <= 1e6)
        # a rank-deficient solution may be huge: planes carry no sphere
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


def _carrier_distance(fit: dict, p: np.ndarray) -> np.ndarray:
    """Signed distance of ``p`` (..., 3) from fitted carriers broadcast
    against it."""
    to_sphere = np.linalg.norm(p - fit["center"], axis=-1) - fit["radius"]
    to_plane = (p * fit["normal"]).sum(axis=-1) - fit["offset"]
    return np.where(fit["sphere"], to_sphere, to_plane)


class _LineData:
    __slots__ = ("anchor", "direction")

    def __init__(self, anchor, direction):
        self.anchor = anchor
        self.direction = direction

    def foot(self, p):
        """Foot of the perpendicular from ``p`` (3,) or (N, 3)."""
        along = np.dot(p - self.anchor, self.direction)
        return self.anchor + np.multiply.outer(along, self.direction)


def _intersect_in_plane(a1, d1, a2, d2, n):
    """Intersection of two coplanar lines (anchor, direction) lying in the
    plane with unit normal n; anchors may be stacked as (N, 3)."""
    m = np.cross(d2, n)   # (x cross d2) . n == x . (d2 cross n)
    denom = float(np.dot(d1, m))
    if abs(denom) < 1e-12:
        raise DegenerateError("parallel in-plane perpendiculars")
    return a1 + np.multiply.outer(np.dot(a2 - a1, m) / denom, d1)


class ChainKernel:
    """Precomputed, scale-normalized machinery for pedal-chain completion
    on the face spanned by host vertices 1, 2, 3 (sources indexed so that
    source 4 lives on that face).

    All public methods take and return coordinates in the original frame;
    internal work is done with the host shifted to its centroid and scaled
    to unit diameter so residuals are scene-scale free.
    """

    def __init__(self, host: Tetrahedron, tol: Tolerance | None = None):
        self.host = host
        self.tol = tol or Tolerance.for_points(host.vertices)
        self.shift = host.array.mean(axis=0)
        self.scale = self.tol.scene_scale
        a = (host.array - self.shift) / self.scale
        self.a = a
        d12 = unit(a[1] - a[0])
        d13 = unit(a[2] - a[0])
        d23 = unit(a[2] - a[1])
        d14 = unit(a[3] - a[0])
        d24 = unit(a[3] - a[1])
        d34 = unit(a[3] - a[2])
        self.line12 = _LineData(a[0], d12)
        self.line13 = _LineData(a[0], d13)
        self.line23 = _LineData(a[1], d23)
        self.line14 = _LineData(a[0], d14)
        self.line24 = _LineData(a[1], d24)
        self.line34 = _LineData(a[2], d34)
        self.n123 = unit(np.cross(a[1] - a[0], a[2] - a[0]))
        self.off123 = float(np.dot(self.n123, a[0]))
        # displacement direction for source 3: in plane (1,2,4), perpendicular
        # to edge 1-2, pointing toward vertex 4's side
        n124 = unit(np.cross(a[1] - a[0], a[3] - a[0]))
        u = np.cross(n124, d12)
        toward4 = a[3] - self.line12.foot(a[3])
        if np.dot(u, toward4) < 0:
            u = -u
        self.u = u
        # feet 14 and 24 move along their edges by these per unit of t
        self.g14 = np.dot(u, d14) * d14
        self.g24 = np.dot(u, d24) * d24
        self.n134 = unit(np.cross(a[2] - a[0], a[3] - a[0]))
        self.n234 = unit(np.cross(a[2] - a[1], a[3] - a[1]))
        self.p13 = np.cross(self.n134, d13)
        self.p14 = np.cross(self.n134, d14)
        self.p23 = np.cross(self.n234, d23)
        self.p24 = np.cross(self.n234, d24)
        circ = circle_through(a[0], a[1], a[2], tol=Tolerance(scene_scale=1.0))
        self.circumcenter = circ.center.array
        self.circumradius = circ.radius

    # -- coordinate maps ----------------------------------------------------

    def to_local(self, p) -> np.ndarray:
        """Local coordinates of a point, or of (N, 3) stacked points."""
        p = p.array if isinstance(p, Point) else np.asarray(p, dtype=float)
        return (p - self.shift) / self.scale

    def to_world(self, p) -> Point:
        return Point.of(p * self.scale + self.shift)

    # -- local-frame pieces --------------------------------------------------

    def project_to_face(self, b4_local: np.ndarray) -> np.ndarray:
        return b4_local - (np.dot(self.n123, b4_local) - self.off123) * self.n123

    def simson_distance(self, b4_local: np.ndarray) -> float:
        return abs(float(np.linalg.norm(b4_local - self.circumcenter)) - self.circumradius)

    def base_feet(self, b4_local: np.ndarray):
        return (self.line12.foot(b4_local),
                self.line13.foot(b4_local),
                self.line23.foot(b4_local))

    def _five_feet(self, feet, t) -> np.ndarray:
        """Feet 12, 13, 23, 14, 24 as (N, k, 5, 3) from ``_sphericity``'s
        base feet and displacement parameters t of shape (k,) or (N, k)."""
        v12, v13, v23, base14, base24 = feet
        t = np.asarray(t)[..., None]
        pts = np.empty((len(v12), t.shape[-2], 5, 3))
        pts[:, :, 0], pts[:, :, 1], pts[:, :, 2] = v12[:, None], v13[:, None], v23[:, None]
        pts[:, :, 3] = base14[:, None] + t * self.g14
        pts[:, :, 4] = base24[:, None] + t * self.g24
        return pts

    def _sphericity(self, b4_local: np.ndarray) -> dict:
        """Sphericity roots of N local face points as arrays with a leading
        (N, 2) shape, one column per root of the quadratic (unsorted); t and
        f are NaN where a root is missing or fails validation against
        eps_rel."""
        p = np.asarray(b4_local, dtype=float).reshape(-1, 3)
        n = len(p)
        v12, v13, v23 = self.base_feet(p)
        feet = (v12, v13, v23, self.line14.foot(v12), self.line24.foot(v12))
        # the co-sphericity determinant of the five feet is exactly quadratic
        # in t: sample it at t = -1, 0, 1
        dets = []
        for t in (-1.0, 0.0, 1.0):
            pts = self._five_feet(feet, [t])[:, 0]
            dets.append(np.linalg.det(np.concatenate(
                [(pts * pts).sum(axis=2, keepdims=True), pts, np.ones((n, 5, 1))], axis=2)))
        d_lo, c0, d_hi = dets
        c1 = 0.5 * (d_hi - d_lo)
        c2 = 0.5 * (d_hi + d_lo) - c0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mag = np.maximum(np.maximum(np.abs(c0), np.abs(c1)), np.abs(c2))
            # mag <= 1e-12: the determinant vanishes identically (collinear
            # base feet); coefficients below 1e-10 * mag are trimmed
            live = mag > 1e-12
            quad = live & (np.abs(c2) > 1e-10 * mag)
            lin = live & ~quad & (np.abs(c1) > 1e-10 * mag)
            disc = c1 * c1 - 4.0 * c2 * c0
            root = np.sqrt(np.abs(disc))
            q = -0.5 * (c1 + np.copysign(root, c1))
            r_a = q / c2
            r_b = np.where(q != 0.0, c0 / q, r_a)
            vertex = -c1 / (2.0 * c2)
            # a complex pair within 1e-8 (1 + |re|) of the axis is a real
            # double root
            near = (disc < 0) & (root / (2.0 * np.abs(c2)) <= 1e-8 * (1.0 + np.abs(vertex)))
            t = np.full((n, 2), np.nan)
            real = quad & (disc >= 0)
            t[real, 0] = np.minimum(r_a, r_b)[real]
            t[real, 1] = np.maximum(r_a, r_b)[real]
            t[quad & near] = vertex[quad & near, None]
            t[lin, 0] = -c0[lin] / c1[lin]
            # two Newton steps on the trimmed polynomial
            a2 = np.where(quad, c2, 0.0)[:, None]
            a1 = c1[:, None]
            a0 = c0[:, None]
            polish = np.isfinite(t)
            for _ in range(2):
                slope = 2.0 * a2 * t + a1
                polish &= np.abs(slope) >= 1e-300
                t = np.where(polish, t - ((a2 * t + a1) * t + a0) / slope, t)

        five = self._five_feet(feet, t)
        fit = {key: val.reshape(n, 2, *val.shape[1:])
               for key, val in _sphere_fit(five.reshape(-1, 5, 3)).items()}
        valid = fit["residual"] <= self.tol.eps_rel
        # a second root within 1e-9 of a validated first one is the same root
        valid[:, 1] &= ~(valid[:, 0] & (np.abs(t[:, 1] - t[:, 0])
                                         <= 1e-9 * (1.0 + np.abs(t[:, 1]))))
        try:
            b2 = _intersect_in_plane(five[:, :, 1], self.p13, five[:, :, 3], self.p14,
                                     self.n134)
        except DegenerateError:
            valid[:] = False
            b2 = np.full((n, 2, 3), np.nan)
        v34 = self.line34.foot(b2)
        f = _carrier_distance(fit, v34)
        return {"t": np.where(valid, t, np.nan), "f": np.where(valid, f, np.nan),
                "v12": v12, "v13": v13, "v23": v23, "v14": five[:, :, 3],
                "v24": five[:, :, 4], "v34": v34, "b2": b2, **fit}

    def sphericity_batch(self, b4_local: np.ndarray):
        """Sphericity roots of (N, 3) local face points as two (N, 2) arrays
        ``(t, f)``: column k holds the k-th validated root by ascending t and
        the signed residual of the sixth foot against the carrier through
        the other five, NaN where a point has fewer roots. A root is
        validated when the least-squares sphere (or plane) through its five
        feet fits them within eps_rel. t is in normalized units (multiply
        by the scene scale for world units); f is the scale-normalized
        residual."""
        r = self._sphericity(b4_local)
        order = np.argsort(r["t"], axis=1)   # NaN last
        return (np.take_along_axis(r["t"], order, axis=1),
                np.take_along_axis(r["f"], order, axis=1))

    def complete_local(self, b4_local: np.ndarray, t: float) -> dict:
        """All six feet, all four sources and the closure distance for a
        given local source position and displacement parameter."""
        v12, v13, v23 = self.base_feet(b4_local)
        b3 = v12 + t * self.u
        v14 = self.line14.foot(b3)
        v24 = self.line24.foot(b3)
        b2 = _intersect_in_plane(v13, self.p13, v14, self.p14, self.n134)
        v34 = self.line34.foot(b2)
        b1 = _intersect_in_plane(v23, self.p23, v24, self.p24, self.n234)
        closure = float(np.linalg.norm(self.line34.foot(b1) - v34))
        return {
            "v12": v12, "v13": v13, "v23": v23,
            "v14": v14, "v24": v24, "v34": v34,
            "b1": b1, "b2": b2, "b3": b3, "b4": b4_local,
            "closure": closure,
        }


# ---------------------------------------------------------------------------
# public chain operations
# ---------------------------------------------------------------------------


def _chain_from_local(kernel: ChainKernel, data: dict) -> PedalChain:
    feet = {
        frozenset((1, 2)): kernel.to_world(data["v12"]),
        frozenset((1, 3)): kernel.to_world(data["v13"]),
        frozenset((2, 3)): kernel.to_world(data["v23"]),
        frozenset((1, 4)): kernel.to_world(data["v14"]),
        frozenset((2, 4)): kernel.to_world(data["v24"]),
        frozenset((3, 4)): kernel.to_world(data["v34"]),
    }
    sources = tuple(kernel.to_world(data[k]) for k in ("b1", "b2", "b3", "b4"))
    return PedalChain(host=kernel.host, feet=feet, sources=sources,
                      closure_spread=data["closure"] * kernel.scale)


def _face_source(kernel: ChainKernel, b4) -> np.ndarray:
    """Local position of ``b4`` projected onto face (1, 2, 3); raises
    SimsonDegenerateError on the face circumcircle, where the base pedal
    feet are collinear."""
    b4_local = kernel.project_to_face(kernel.to_local(b4))
    if kernel.simson_distance(b4_local) <= SIMSON_TOL:
        raise SimsonDegenerateError(
            "source on the face circumcircle: base pedal feet collinear")
    return b4_local


def complete_chain(host: Tetrahedron, b4, t: float,
                   tol: Tolerance | None = None) -> PedalChain:
    """Complete a pedal chain from one pedal triangle and one parameter.

    The source on face (1,2,3) is ``b4`` (projected onto the face plane);
    the source on face (1,2,4) is displaced from the shared foot by ``t``
    (world units) along the in-plane perpendicular to edge 1-2, oriented
    toward vertex 4. The remaining feet and sources are then determined;
    ``closure_spread`` reports the final consistency distance, which is
    zero (to round-off) for every valid input.
    """
    kernel = ChainKernel(host, tol)
    data = kernel.complete_local(_face_source(kernel, b4), float(t) / kernel.scale)
    return _chain_from_local(kernel, data)


def spherical_parameters(host: Tetrahedron, b4,
                         tol: Tolerance | None = None) -> List[float]:
    """Displacement parameters (world units) for which the five feet built
    from ``b4`` are co-spherical or co-planar; empty when no real validated
    parameter exists."""
    kernel = ChainKernel(host, tol)
    t = kernel.sphericity_batch(_face_source(kernel, b4))[0][0]
    return (t[~np.isnan(t)] * kernel.scale).tolist()


def chain_sphere_residual(host: Tetrahedron, b4,
                          tol: Tolerance | None = None) -> List[float]:
    """Signed scale-normalized distance of the sixth foot from the sphere
    (or plane) through the other five, one value per validated parameter.

    Zero characterizes points of the isogonally self-conjugate curve on the
    face plane.
    """
    kernel = ChainKernel(host, tol)
    t, f = (v[0] for v in kernel.sphericity_batch(_face_source(kernel, b4)))
    return f[~np.isnan(t)].tolist()


def chain_from_pair(a: Tetrahedron, b: Tetrahedron,
                    tol: Tolerance | None = None) -> PedalChain:
    """Extract the pedal chain of an orthosecting pair: feet are the edge
    intersection points (closest-approach midpoints), sources the
    projections of the partner's vertices onto the host's face planes."""
    tol = tol or pair_tolerance(a, b)
    feet: Dict[EdgeKey, Point] = {frozenset(ij): Point.of(foot) for (ij, _), foot
                                  in zip(EDGE_PAIRINGS, pair_measures(a, b, tol)[2])}
    sources = tuple(project_to_plane(b.vertex(i), a.face_plane(i))
                    for i in (1, 2, 3, 4))
    spread = 0.0
    for i in (1, 2, 3, 4):
        others = [m for m in (1, 2, 3, 4) if m != i]
        for p, q in ((others[0], others[1]), (others[0], others[2]), (others[1], others[2])):
            foot = foot_on_line(sources[i - 1], a.edge_line(p, q))
            spread = max(spread, foot.distance_to(feet[frozenset((p, q))]))
    return PedalChain(host=a, feet=feet, sources=sources, closure_spread=spread)


def carrier_through(points, tol: Tolerance):
    """Least-squares sphere or plane through m >= 4 points (m, 3), with the
    worst absolute point residual."""
    pts = np.asarray(points, dtype=float)
    shift = pts.mean(axis=0)
    fit = {k: v[0] for k, v in _sphere_fit((pts - shift)[None] / tol.scene_scale).items()}
    residual = float(fit["residual"]) * tol.scene_scale
    if fit["sphere"]:
        carrier = SphereOrPlane.sphere(Point.of(fit["center"] * tol.scene_scale + shift),
                                       float(fit["radius"]) * tol.scene_scale)
    else:
        n = fit["normal"]
        carrier = SphereOrPlane.plane(Plane(normal=n, offset=float(fit["offset"])
                                            * tol.scene_scale + float(np.dot(n, shift))))
    return carrier, residual


def chain_carrier(chain: PedalChain, tol: Tolerance | None = None):
    """Least-squares sphere or plane through the six chain feet, with the
    worst absolute foot residual."""
    tol = tol or Tolerance.for_points(chain.host.vertices)
    return carrier_through([as_array(p) for p in chain.feet.values()], tol)


def spherical_chain(chain: PedalChain, tol: Tolerance | None = None,
                    max_residual: float | None = None) -> SphericalChain:
    """Wrap a chain whose feet are co-spherical (or co-planar) within
    tolerance; raises DegenerateError otherwise."""
    tol = tol or Tolerance.for_points(chain.host.vertices)
    if max_residual is None:
        max_residual = tol.eps_rel * tol.scene_scale
    carrier, residual = chain_carrier(chain, tol)
    if residual > max_residual:
        raise DegenerateError(
            f"chain feet deviate from a common sphere/plane by {residual:.3e} "
            f"(> {max_residual:.3e})")
    return SphericalChain(chain=chain, carrier=carrier, max_residual=residual)


def reconstruct_tetrahedron(sc: SphericalChain, tol: Tolerance | None = None,
                            postcondition_tol: float = 1e-6) -> Tetrahedron:
    """Unique tetrahedron orthosecting the host with the chain's feet as
    edge intersections.

    Face m of the result lies in the plane of the three feet on the host
    edges through vertex m. For a plane-kind carrier (flat partner) those
    feet planes all coincide with the carrier, so each vertex is instead
    recovered as the intersection of the carrier plane with the projection
    line through its source point. The orthosection postcondition (all six
    gaps and all six orthogonality residuals below ``postcondition_tol``)
    is asserted and a ReconstructionError raised when it fails, which is
    the symptom of a chain that was not actually spherical.
    """
    chain = sc.chain
    host = chain.host
    tol = tol or Tolerance.for_points(host.vertices)
    if sc.carrier.kind == "plane":
        flat = sc.carrier.carrier
        verts = []
        for m in (1, 2, 3, 4):
            direction = host.face_plane(m).normal
            denom = float(np.dot(flat.normal, direction))
            if abs(denom) <= 1e-9:
                raise DegenerateError(
                    f"carrier plane parallel to the projection direction of face {m}")
            src = chain.source(m).array
            h = (flat.offset - float(np.dot(flat.normal, src))) / denom
            verts.append(Point.of(src + h * direction))
        b = Tetrahedron(tuple(verts))
    else:
        planes = {}
        for i in (1, 2, 3, 4):
            pts = [chain.foot(i, j) for j in (1, 2, 3, 4) if j != i]
            arr = np.array([as_array(p) for p in pts])
            height = np.linalg.norm(np.cross(arr[1] - arr[0], arr[2] - arr[0])) / max(
                np.linalg.norm(arr[1] - arr[0]), np.linalg.norm(arr[2] - arr[0]))
            if height <= tol.eps_rel * tol.scene_scale:
                raise DegenerateError(
                    f"collinear feet around vertex {i}: degenerate partner whose "
                    f"face contains a host vertex")
            planes[i] = Plane.through(*pts)
        verts = []
        for m in (1, 2, 3, 4):
            others = [planes[i] for i in (1, 2, 3, 4) if i != m]
            try:
                verts.append(meet_planes(*others))
            except DegenerateError as exc:
                raise DegenerateError(f"ill-conditioned feet planes: {exc}") from exc
        b = Tetrahedron(tuple(verts))
    ortho, gaps, _ = pair_measures(host, b, tol)
    if ortho.max() > postcondition_tol or gaps.max() > postcondition_tol:
        raise ReconstructionError(
            f"reconstructed tetrahedron fails orthosection: orthogonality "
            f"{ortho.max():.3e}, gap {gaps.max():.3e} (tol {postcondition_tol:.1e})",
            orthogonality=by_pairing(ortho), gaps=by_pairing(gaps))
    return b


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
    tol = Tolerance.for_points(host.vertices)
    residuals = {}
    for r in (0, 1):
        for c in (0, 1):
            quad = [grid[r][c], grid[r][c + 1], grid[r + 1][c + 1], grid[r + 1][c]]
            residuals[(r, c)] = _concyclicity_residual(quad, tol)
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
    in_plane = abs(np.linalg.norm(rest - circ.center.array) - circ.radius)
    off_plane = abs(circ.carrier.signed_distance(rest))
    return float(max(in_plane, off_plane))
