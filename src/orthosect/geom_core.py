"""Tolerance-aware 3D primitives: points, lines, planes, circles, spheres.

Every operation is a pure function; all residuals and degeneracy thresholds
are normalized by a scene scale (the diameter of the input points) so that
tolerances are scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateError

# Radius beyond which a fitted circumsphere is reported as a plane.
FLAT_SPHERE_RADIUS_FACTOR = 1e6


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds plus the scene scale used to normalize them."""

    eps_abs: float = 1e-9
    eps_rel: float = 1e-7
    scene_scale: float = 1.0

    def __post_init__(self):
        if not (self.eps_abs > 0 and self.eps_rel > 0 and self.scene_scale > 0):
            raise ValueError("eps_abs, eps_rel and scene_scale must be positive")

    @classmethod
    def for_points(cls, points, eps_abs: float = 1e-9, eps_rel: float = 1e-7) -> "Tolerance":
        """Tolerance whose scene scale is the diameter of the given points."""
        scale = diameter(points)
        if scale <= 0.0:
            scale = 1.0
        return cls(eps_abs=eps_abs, eps_rel=eps_rel, scene_scale=scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Point:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite point coordinates: {(self.x, self.y, self.z)}")

    @classmethod
    def of(cls, arr) -> "Point":
        a = np.asarray(arr, dtype=float).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @cached_property
    def array(self) -> np.ndarray:
        a = np.array([self.x, self.y, self.z])
        a.setflags(write=False)
        return a

    def distance_to(self, other: "Point") -> float:
        return float(np.linalg.norm(self.array - other.array))


def as_array(p) -> np.ndarray:
    """Coerce a Point or any 3-sequence to a float array of shape (3,)."""
    if isinstance(p, Point):
        return p.array
    return np.asarray(p, dtype=float).reshape(3)


def unit(v: np.ndarray, eps: float = 1e-300) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < eps:
        raise DegenerateError("cannot normalize a zero vector")
    return v / n


@dataclass(frozen=True, eq=False)
class Line:
    """Infinite line given by an anchor point and a unit direction."""

    anchor: Point
    direction: np.ndarray

    def __post_init__(self):
        d = unit(np.asarray(self.direction, dtype=float).reshape(3))
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        # anchor is the input point nearest the origin, for reproducible output
        pa, qa = as_array(p), as_array(q)
        if np.dot(qa, qa) < np.dot(pa, pa):
            p, pa, qa = q, qa, pa
        return cls(anchor=Point.of(pa), direction=qa - pa)

    def point_at(self, t: float) -> Point:
        return Point.of(self.anchor.array + t * self.direction)

    def distance_to_point(self, p) -> float:
        w = as_array(p) - self.anchor.array
        return float(np.linalg.norm(w - np.dot(w, self.direction) * self.direction))


@dataclass(frozen=True, eq=False)
class Plane:
    """Plane in Hesse form ``normal . x = offset`` with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        length = float(np.linalg.norm(n))
        if length < 1e-300:
            raise DegenerateError("plane normal must be nonzero")
        n = n / length
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset) / length)

    @classmethod
    def through(cls, p1, p2, p3) -> "Plane":
        a, b, c = as_array(p1), as_array(p2), as_array(p3)
        n = np.cross(b - a, c - a)
        if np.linalg.norm(n) < 1e-300:
            raise DegenerateError("three collinear points do not span a plane")
        return cls(normal=n, offset=float(np.dot(n, a)))

    def signed_distance(self, p) -> float:
        return float(np.dot(self.normal, as_array(p)) - self.offset)


@dataclass(frozen=True, eq=False)
class Circle3D:
    center: Point
    radius: float
    carrier: Plane

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("circle radius must be nonnegative")


@dataclass(frozen=True, eq=False)
class SphereOrPlane:
    """Common quadric of a point set: a genuine sphere, or a plane when the
    points are flat (within tolerance or beyond the radius blow-up factor)."""

    kind: str  # "sphere" | "plane"
    center: Point | None = None
    radius: float | None = None
    carrier: Plane | None = None

    def __post_init__(self):
        if self.kind == "sphere":
            if self.center is None or self.radius is None or self.carrier is not None:
                raise ValueError("sphere kind requires center and radius only")
            if not self.radius > 0:
                raise ValueError("sphere radius must be positive")
        elif self.kind == "plane":
            if self.carrier is None or self.center is not None or self.radius is not None:
                raise ValueError("plane kind requires carrier only")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def sphere(cls, center: Point, radius: float) -> "SphereOrPlane":
        return cls(kind="sphere", center=center, radius=radius)

    @classmethod
    def plane(cls, carrier: Plane) -> "SphereOrPlane":
        return cls(kind="plane", carrier=carrier)

    def signed_distance(self, p) -> float:
        """Signed deviation of ``p`` from the quadric (outside positive for
        spheres; normal side positive for planes)."""
        if self.kind == "sphere":
            return float(np.linalg.norm(as_array(p) - self.center.array) - self.radius)
        return self.carrier.signed_distance(p)


@dataclass(frozen=True, eq=False)
class LineClosest:
    """Result of the closest-approach computation between two lines."""

    p1: Point
    p2: Point
    gap: float
    cos_angle: float
    parallel: bool = False
    identical: bool = False

    @property
    def midpoint(self) -> Point:
        return Point.of(0.5 * (self.p1.array + self.p2.array))


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays; matmul runs np.dot's
    kernel on each row, so every value is bit-identical to np.dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def closest_rows(p: np.ndarray, u: np.ndarray, q: np.ndarray, v: np.ndarray,
                 tol: Tolerance | None = None):
    """Closest approach of n line pairs at once: row k pairs the line
    through ``p[k]`` with unit direction ``u[k]`` and the line through
    ``q[k]`` with unit direction ``v[k]``, all (n, 3).

    Returns ``(c1, c2, gap, cos, parallel, identical)``: the closest points
    (n, 3) on the first and second lines, the gap and the angle cosine (n,),
    and two (n,) flags. Parallel lines report the distance between them,
    the smaller of the two anchors' distances to the other line, and c1 at
    the first anchor; they are identical (first anchor as both closest
    points, gap 0) only when both anchors lie on the other line. Every
    value is the one the scalar formulas give for that row alone.
    """
    tol = tol or DEFAULT_TOL
    b = dot_rows(u, v)
    w0 = p - q
    denom = 1.0 - b * b
    parallel = denom <= 1e-14
    # parallel: perp runs from the second line to p, perp_q from the first to q
    perp = w0 - dot_rows(w0, v)[:, None] * v
    perp_q = -w0 - dot_rows(-w0, u)[:, None] * u
    gap_p, gap_q = np.sqrt(dot_rows(perp, perp)), np.sqrt(dot_rows(perp_q, perp_q))
    identical = parallel & (np.maximum(gap_p, gap_q) <= tol.eps_abs * tol.scene_scale)
    denom = np.where(parallel, 1.0, denom)
    d = dot_rows(u, w0)
    e = dot_rows(v, w0)
    c1 = p + ((b * e - d) / denom)[:, None] * u
    c2 = q + ((e - b * d) / denom)[:, None] * v
    gap = np.where(parallel, np.minimum(gap_p, gap_q), np.sqrt(dot_rows(c1 - c2, c1 - c2)))
    c1 = np.where(parallel[:, None], p, c1)
    c2 = np.where(parallel[:, None], np.where(identical[:, None], p, p - perp), c2)
    return c1, c2, np.where(identical, 0.0, gap), b, parallel, identical


def closest_points(l1: Line, l2: Line, tol: Tolerance | None = None) -> LineClosest:
    """Closest points of two lines, their gap, and the angle cosine: the
    one-row view of :func:`closest_rows`."""
    c1, c2, gap, cos, parallel, identical = closest_rows(
        l1.anchor.array[None], l1.direction[None], l2.anchor.array[None],
        l2.direction[None], tol)
    return LineClosest(Point.of(c1[0]), Point.of(c2[0]), float(gap[0]), float(cos[0]),
                       parallel=bool(parallel[0]), identical=bool(identical[0]))


def project_to_plane(p, pl: Plane) -> Point:
    """Orthographic projection of a point onto a plane."""
    a = as_array(p)
    return Point.of(a - pl.signed_distance(a) * pl.normal)


def foot_on_line(p, l: Line) -> Point:
    """Foot of the perpendicular from a point onto a line."""
    a = as_array(p)
    w = a - l.anchor.array
    return Point.of(l.anchor.array + np.dot(w, l.direction) * l.direction)


def circle_through(p1, p2, p3, tol: Tolerance | None = None) -> Circle3D:
    """Circle through three points; raises DegenerateError when collinear."""
    a, b, c = as_array(p1), as_array(p2), as_array(p3)
    if tol is None:
        tol = Tolerance.for_points([a, b, c])
    u = b - a
    v = c - a
    n = np.cross(u, v)
    n_norm = float(np.linalg.norm(n))
    longest = max(float(np.linalg.norm(u)), float(np.linalg.norm(v)), float(np.linalg.norm(c - b)))
    # n_norm / longest is the triangle height; collinear when it collapses
    if longest < 1e-300 or n_norm / longest <= tol.eps_rel * tol.scene_scale:
        raise DegenerateError("collinear points: circle degenerates to a line")
    uu = float(np.dot(u, u))
    uv = float(np.dot(u, v))
    vv = float(np.dot(v, v))
    det = uu * vv - uv * uv
    alpha = 0.5 * (uu * vv - vv * uv) / det
    beta = 0.5 * (uu * vv - uu * uv) / det
    center = a + alpha * u + beta * v
    radius = float(np.linalg.norm(center - a))
    return Circle3D(center=Point.of(center), radius=radius,
                    carrier=Plane(normal=n, offset=float(np.dot(n, a))))


def _fit_plane(points: np.ndarray) -> Plane:
    """Least-squares plane through a point cloud via SVD."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid)
    n = vt[-1]
    return Plane(normal=n, offset=float(np.dot(n, centroid)))


def sphere_through(p1, p2, p3, p4, tol: Tolerance | None = None) -> SphereOrPlane:
    """Sphere through four points, or their common plane when they are flat.

    Raises DegenerateError when three or more of the points coincide.
    """
    pts = np.array([as_array(p) for p in (p1, p2, p3, p4)])
    if tol is None:
        tol = Tolerance.for_points(pts)
    coincident = 0
    for i in range(4):
        for j in range(i + 1, 4):
            if np.linalg.norm(pts[i] - pts[j]) <= tol.eps_abs * tol.scene_scale:
                coincident += 1
    if coincident >= 2:
        raise DegenerateError("three or more coincident points")
    volume = abs(float(np.linalg.det(pts[1:] - pts[0]))) / 6.0
    if volume < tol.eps_rel * tol.scene_scale**3:
        return SphereOrPlane.plane(_fit_plane(pts))
    # x.x + D x + E y + F z + G = 0, linear in (D, E, F, G)
    m = np.hstack([pts, np.ones((4, 1))])
    rhs = -(pts * pts).sum(axis=1)
    sol = np.linalg.solve(m, rhs)
    center = -0.5 * sol[:3]
    radius = math.sqrt(max(float(np.dot(center, center) - sol[3]), 0.0))
    if radius > FLAT_SPHERE_RADIUS_FACTOR * tol.scene_scale:
        return SphereOrPlane.plane(_fit_plane(pts))
    return SphereOrPlane.sphere(Point.of(center), radius)


def meet_planes(pl1: Plane, pl2: Plane, pl3: Plane, det_threshold: float = 1e-12) -> Point:
    """Common point of three planes; raises DegenerateError when the normals
    are (nearly) coplanar."""
    normals = np.array([pl1.normal, pl2.normal, pl3.normal])
    offsets = np.array([pl1.offset, pl2.offset, pl3.offset])
    if abs(float(np.linalg.det(normals))) <= det_threshold:
        raise DegenerateError("planes with coplanar normals have no unique common point")
    return Point.of(np.linalg.solve(normals, offsets))


def concurrency_point(lines: Sequence[Line], tol: Tolerance | None = None):
    """Least-squares concurrency point of a family of lines.

    Returns ``(point, spread)`` where spread is the RMS distance from the
    point to the lines, normalized by the scene scale. Raises
    DegenerateError when fewer than two lines are given or all lines are
    parallel (concurrency point at infinity).
    """
    lines = list(lines)
    if len(lines) < 2:
        raise DegenerateError("need at least two lines for a concurrency point")
    if tol is None:
        tol = Tolerance.for_points([l.anchor for l in lines])
    m = np.zeros((3, 3))
    b = np.zeros(3)
    for l in lines:
        proj = np.eye(3) - np.outer(l.direction, l.direction)
        m += proj
        b += proj @ l.anchor.array
    eigvals = np.linalg.eigvalsh(m)
    if eigvals[0] <= 1e-9 * max(eigvals[-1], 1e-300):
        raise DegenerateError("all lines parallel: concurrency point at infinity")
    x = np.linalg.solve(m, b)
    spread = math.sqrt(sum(l.distance_to_point(x) ** 2 for l in lines) / len(lines))
    return Point.of(x), spread / tol.scene_scale


def diameter(points: Iterable) -> float:
    """Diameter (max pairwise distance) of a point set; used as scene scale."""
    arr = np.array([as_array(p) for p in points])
    n = len(arr)
    best = 0.0
    for i in range(n):
        d = np.linalg.norm(arr[i + 1:] - arr[i], axis=1)
        if d.size:
            best = max(best, float(d.max()))
    return best
