"""Independent constructions the tests check the engine against. None of
them is engine code: each one rebuilds a result from its definition, by a
route the engine does not take."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from orthosect.errors import DegenerateError
from orthosect.geom_core import (
    FLAT_SPHERE_RADIUS_FACTOR,
    Plane,
    SphereOrPlane,
    Tolerance,
    as_array,
    circle_through,
)
from orthosect.pedal import PedalChain


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
    off_plane = abs(circ.carrier.signed_distance(rest))
    return float(max(in_plane, off_plane))
