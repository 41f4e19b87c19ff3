"""Tolerance-aware 3D primitives: points, lines, planes, circles, spheres.

Every operation is a pure function; all residuals and degeneracy thresholds
are normalized by a scene scale (the diameter of the input points) so that
tolerances are scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List

import numpy as np

from .errors import DegenerateError

# Radius, in scene scales, beyond which a fitted sphere is reported as a plane.
FLAT_SPHERE_RADIUS_FACTOR = 1e6
# |det| of three unit plane normals at or below which they count as coplanar
MEET_DET_TOL = 1e-12


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
    def for_points(cls, points, **overrides: float) -> "Tolerance":
        """Tolerance whose scene scale is the diameter of the given points,
        with the ``eps_abs`` and ``eps_rel`` given in ``overrides`` in place
        of the defaults."""
        scale = diameter(points)
        if scale <= 0.0:
            scale = 1.0
        return cls(scene_scale=scale, **overrides)


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


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-300:
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
    points are flat (a rank-deficient fit or beyond the radius blow-up
    factor)."""

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


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays; matmul runs np.dot's
    kernel on each row, so every value is bit-identical to np.dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) arrays, bit-identical to
    np.cross: component c is u[c+1] v[c+2] - u[c+2] v[c+1], its operation
    order, with both products of every component from one gather each."""
    prod = u.take([1, 2, 0, 2, 0, 1], 1) * v.take([2, 0, 1, 1, 2, 0], 1)
    return prod[:, :3] - prod[:, 3:]


def plane_rows(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Unit normal and offset (k, 4) of the planes with normals ``n``
    through the points ``p``, both (k, 3), each row bit-identical to
    ``Plane(normal=n[i], offset=n[i] . p[i])``; raises DegenerateError, as
    Plane.through does, when some normal vanishes."""
    length = np.sqrt(dot_rows(n, n))
    if (length < 1e-300).any():
        raise DegenerateError("three collinear points do not span a plane")
    return np.column_stack((n, dot_rows(n, p))) / length[:, None]


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
    points, gap 0) only when both anchors lie on the other line, within
    ``tol``; by default its scene scale is the diameter of all the anchors.
    Every value is the one the scalar formulas give for that row alone at
    the same ``tol``.
    """
    tol = tol or Tolerance.for_points(np.vstack((p, q)))
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


def _sphere_fit(points: np.ndarray) -> dict:
    """Least-squares sphere (or plane) through each stack of >= 4 points in
    normalized coordinates, ``points`` of shape (K, m, 3).

    Returns arrays keyed ``sphere`` (K,) bool, ``center`` (K, 3), ``radius``
    (K,), ``normal`` (K, 3), ``offset`` (K,) and ``residual`` (K,), the max
    absolute point residual. A stack is a sphere when the linear fit has
    full rank 4, r^2 > 0 and radius <= FLAT_SPHERE_RADIUS_FACTOR; otherwise
    it gets the total least-squares plane. Only the entries of its own kind
    are meaningful; stacks with non-finite points get NaN throughout."""
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
        sphere = full_rank & (radius <= FLAT_SPHERE_RADIUS_FACTOR)
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


def sphere_through(p1, p2, p3, p4, tol: Tolerance | None = None) -> SphereOrPlane:
    """Sphere through four points, or their common plane when they are flat:
    the four-point view of :func:`carrier_through`.

    Raises DegenerateError when three or more of the points coincide.
    """
    pts = np.array([as_array(p) for p in (p1, p2, p3, p4)])
    tol = tol or Tolerance.for_points(pts)
    i, j = np.triu_indices(4, 1)
    if (np.linalg.norm(pts[j] - pts[i], axis=1) <= tol.eps_abs * tol.scene_scale).sum() >= 2:
        raise DegenerateError("three or more coincident points")
    return carrier_through(pts, tol)[0]


def meet_rows(planes: np.ndarray) -> np.ndarray:
    """Common points (k, 3) of k triples of (unit normal, offset) plane
    rows (k, 3, 4); raises DegenerateError on (nearly) coplanar normals."""
    normals = planes[:, :, :3]
    if (np.abs(np.linalg.det(normals)) <= MEET_DET_TOL).any():
        raise DegenerateError("planes with coplanar normals have no unique common point")
    return np.linalg.solve(normals, planes[:, :, 3:])[:, :, 0]


def concurrency_rows(anchors: np.ndarray, directions: np.ndarray,
                     tol: Tolerance | None = None):
    """Least-squares concurrency point (3,) of the lines through
    ``anchors`` along unit ``directions``, both (n, 3), and the RMS distance
    from it to the lines over the scene scale. Raises DegenerateError for
    fewer than two lines or all lines parallel (point at infinity)."""
    if len(anchors) < 2:
        raise DegenerateError("need at least two lines for a concurrency point")
    tol = tol or Tolerance.for_points(anchors)
    # C-ordered projectors, as matmul needs to match the per-line products,
    # summed in line order from zero, as a running sum would be
    proj = np.ascontiguousarray(np.eye(3) - directions[:, :, None] * directions[:, None, :])
    m = proj.sum(axis=0, initial=0.0)
    b = np.matmul(proj, anchors[:, :, None])[:, :, 0].sum(axis=0, initial=0.0)
    eigvals = np.linalg.eigvalsh(m)
    if eigvals[0] <= 1e-9 * max(eigvals[-1], 1e-300):
        raise DegenerateError("all lines parallel: concurrency point at infinity")
    x = np.linalg.solve(m, b)
    w = x - anchors
    w = w - dot_rows(w, directions)[:, None] * directions
    dist = np.sqrt(dot_rows(w, w))
    return x, math.sqrt(sum((dist * dist).tolist()) / len(anchors)) / tol.scene_scale


def diameter(points: np.ndarray | Iterable) -> float:
    """Diameter (max pairwise distance) of a point set, an (n, 3) array or
    an iterable of points; used as scene scale."""
    arr = points if isinstance(points, np.ndarray) else np.array([as_array(p) for p in points])
    i, j = np.triu_indices(len(arr), 1)
    return float(np.linalg.norm(arr[j] - arr[i], axis=1).max(initial=0.0))
