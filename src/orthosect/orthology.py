"""Orthology predicates, orthology centers, labeling search, and the
construction of orthologic partner tetrahedra from a chosen center.

Two tetrahedra are orthologic when the perpendiculars dropped from each
vertex of one onto the corresponding face plane of the other are
concurrent; equivalently, when all six pairs of non-corresponding edges
are orthogonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateError, NotOrthologicError, NotOrthosectingError
from .geom_core import (
    Line,
    Plane,
    Point,
    Tolerance,
    as_array,
    closest_rows,
    concurrency_point,
    dot_rows,
    meet_planes,
    unit,
)

Pairing = Tuple[Tuple[int, int], Tuple[int, int]]

# The six complementary index pairings ((i,j),(k,l)) with {i,j,k,l} = {1,2,3,4}.
# Edge A_i A_j of the first tetrahedron is matched with edge B_k B_l of the
# second ("non-corresponding edges").
EDGE_PAIRINGS: Tuple[Pairing, ...] = (
    ((1, 2), (3, 4)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
    ((2, 3), (1, 4)),
    ((2, 4), (1, 3)),
    ((3, 4), (1, 2)),
)

# 0-based host edge A_i A_j and partner edge B_k B_l of each pairing, in
# EDGE_PAIRINGS order; the partner edges are the six edges of B, each once
_I, _J, _K, _L = (np.array(c) - 1 for c in zip(*(ij + kl for ij, kl in EDGE_PAIRINGS)))


def pairing_key(pairing: Pairing) -> str:
    (i, j), (k, l) = pairing
    return f"{i}{j}|{k}{l}"


@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled 3D vertices (indices 1..4).

    Flat tetrahedra are not rejected: they carry ``flat flag`` semantics via
    :meth:`is_flat` so degenerate members of solution families stay
    representable.
    """

    vertices: Tuple[Point, Point, Point, Point]

    def __post_init__(self):
        pts = tuple(Point.of(v) if not isinstance(v, Point) else v for v in self.vertices)
        if len(pts) != 4:
            raise ValueError("a tetrahedron needs exactly four vertices")
        object.__setattr__(self, "vertices", pts)

    @classmethod
    def of(cls, coords) -> "Tetrahedron":
        arr = np.asarray(coords, dtype=float)
        if arr.shape != (4, 3):
            raise ValueError(f"expected 4x3 coordinates, got shape {arr.shape}")
        return cls(tuple(Point.of(row) for row in arr))

    @cached_property
    def array(self) -> np.ndarray:
        a = np.array([v.array for v in self.vertices])
        a.setflags(write=False)
        return a

    @cached_property
    def signed_volume(self) -> float:
        a = self.array
        return float(np.linalg.det(a[1:] - a[0])) / 6.0

    @cached_property
    def scale(self) -> float:
        a = self.array
        return max(float(np.linalg.norm(a[i] - a[j]))
                   for i in range(4) for j in range(i + 1, 4))

    def vertex(self, i: int) -> Point:
        return self.vertices[i - 1]

    def edge_line(self, i: int, j: int) -> Line:
        return Line.through(self.vertex(i), self.vertex(j))

    def face_plane(self, i: int) -> Plane:
        """Plane of the face opposite vertex ``i``."""
        j, k, l = [m for m in (1, 2, 3, 4) if m != i]
        return Plane.through(self.vertex(j), self.vertex(k), self.vertex(l))

    def centroid(self) -> Point:
        return Point.of(self.array.mean(axis=0))

    def is_flat(self, tol: Tolerance | None = None) -> bool:
        tol = tol or Tolerance(scene_scale=self.scale)
        return abs(self.signed_volume) < tol.eps_rel * tol.scene_scale**3

    def relabeled(self, perm: Sequence[int]) -> "Tetrahedron":
        """New tetrahedron whose vertex m is the old vertex perm[m-1]."""
        return Tetrahedron(tuple(self.vertex(p) for p in perm))

    def translated(self, delta) -> "Tetrahedron":
        d = as_array(delta)
        return Tetrahedron.of(self.array + d)


def pair_tolerance(a: Tetrahedron, b: Tetrahedron,
                   eps_abs: float = 1e-9, eps_rel: float = 1e-7) -> Tolerance:
    """Scene tolerance spanning the vertices of both tetrahedra."""
    return Tolerance.for_points(list(a.vertices) + list(b.vertices),
                                eps_abs=eps_abs, eps_rel=eps_rel)


@dataclass(frozen=True, eq=False)
class OrthologyReport:
    """Edge-orthogonality residuals, the two perpendicular line bundles and
    their concurrency points (orthology centers) with spreads."""

    residuals: Dict[Pairing, float]
    perpendiculars_a: Tuple[Line, Line, Line, Line]
    perpendiculars_b: Tuple[Line, Line, Line, Line]
    center_a: Point
    center_b: Point
    spread_a: float
    spread_b: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _edge_line_rows(pts: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Anchors and unit directions of the lines through rows i and j of
    ``pts``, anchored as ``Line.through`` anchors them: at the endpoint
    nearer the origin."""
    p, q = pts[i], pts[j]
    swap = (dot_rows(q, q) < dot_rows(p, p))[:, None]
    anchor = np.where(swap, q, p)
    d = np.where(swap, p, q) - anchor
    return anchor, d / np.sqrt(dot_rows(d, d))[:, None]


def pair_measures(a: Tetrahedron, b: Tetrahedron, tol: Tolerance | None = None):
    """The six non-corresponding edge pairings of a pair, in EDGE_PAIRINGS
    order, as three arrays: ``ortho`` (6,), the normalized |cos| of the
    angle between the two edges; ``gaps`` (6,), the closest-approach gap of
    the two edge lines over the scene scale; and ``feet`` (6, 3), the
    midpoint of the two closest points, which is the intersection point of
    an orthosecting pair. Raises DegenerateError on a zero-length edge."""
    tol = tol or pair_tolerance(a, b)
    pa, pb = a.array, b.array
    u = pa[_I] - pa[_J]
    w = pb[_K] - pb[_L]
    nu = np.sqrt(dot_rows(u, u))
    nw = np.sqrt(dot_rows(w, w))
    short_a, short_b = nu <= tol.eps_abs, nw <= tol.eps_abs
    if (short_a | short_b).any():
        p = int(np.argmax(short_a | short_b))
        (i, j), (k, l) = EDGE_PAIRINGS[p]
        raise DegenerateError(f"zero-length edge {f'A{i}{j}' if short_a[p] else f'B{k}{l}'}")
    ortho = np.abs(dot_rows(u, w)) / (nu * nw)
    c1, c2, gap, _, _, _ = closest_rows(*_edge_line_rows(pa, _I, _J),
                                        *_edge_line_rows(pb, _K, _L), tol)
    return ortho, gap / tol.scene_scale, 0.5 * (c1 + c2)


def by_pairing(values) -> Dict[Pairing, float]:
    """Six per-pairing values, in EDGE_PAIRINGS order, as a dict."""
    return dict(zip(EDGE_PAIRINGS, np.asarray(values, dtype=float).tolist()))


def edge_orthogonality_residuals(a: Tetrahedron, b: Tetrahedron,
                                 tol: Tolerance | None = None) -> Dict[Pairing, float]:
    """Normalized |cos| of the angle between each pair of non-corresponding
    edges; all six vanish iff the pair is orthologic under this labeling."""
    return by_pairing(pair_measures(a, b, tol)[0])


def require_orthosecting(a: Tetrahedron, b: Tetrahedron, tol: Tolerance | None = None,
                         drop_worst_gap: bool = False):
    """The one check that a pair orthosects: every pair of non-corresponding
    edges is orthogonal and intersects, within ``tol.eps_rel``.

    Raises NotOrthologicError when some pair is not orthogonal, then
    NotOrthosectingError when some pair fails to intersect. With
    ``drop_worst_gap`` the pairing with the largest gap is exempt from the
    intersection check (five intersecting pairs suffice for
    co-sphericity). Returns the checked pairings, in EDGE_PAIRINGS order,
    and their intersection points as a (5 or 6, 3) array.
    """
    tol = tol or pair_tolerance(a, b)
    ortho, gaps, feet = pair_measures(a, b, tol)
    if ortho.max() > tol.eps_rel:
        raise NotOrthologicError(f"pair is not orthologic: max residual {ortho.max():.3e}",
                                 residuals=by_pairing(ortho))
    kept = np.ones(6, dtype=bool)
    if drop_worst_gap:
        kept[np.argmax(gaps)] = False
    bad = kept & (gaps > tol.eps_rel)
    if bad.any():
        raise NotOrthosectingError(
            f"{int(bad.sum())} edge pair(s) fail to intersect (max gap "
            f"{gaps[bad].max():.3e} of scene scale)", gaps=by_pairing(gaps))
    return [p for p, k in zip(EDGE_PAIRINGS, kept) if k], feet[kept]


def _perpendicular_bundle(source: Tetrahedron, target: Tetrahedron) -> Tuple[Line, ...]:
    """Lines through each vertex of ``source`` perpendicular to the
    corresponding face plane of ``target``."""
    lines = []
    for i in (1, 2, 3, 4):
        n = target.face_plane(i).normal
        lines.append(Line(anchor=source.vertex(i), direction=n))
    return tuple(lines)


def orthology_centers(a: Tetrahedron, b: Tetrahedron,
                      tol: Tolerance | None = None) -> OrthologyReport:
    """Both orthology centers of an orthologic pair.

    Raises NotOrthologicError when some edge pair fails orthogonality, and
    DegenerateError when a perpendicular bundle is parallel (flat partner,
    center at infinity).
    """
    tol = tol or pair_tolerance(a, b)
    residuals = edge_orthogonality_residuals(a, b, tol)
    worst = max(residuals.values())
    if worst > tol.eps_rel:
        bad = {pairing_key(p): r for p, r in residuals.items() if r > tol.eps_rel}
        raise NotOrthologicError(
            f"pair is not orthologic: max residual {worst:.3e} > {tol.eps_rel:.1e} ({bad})",
            residuals=residuals)
    perps_a = _perpendicular_bundle(a, b)
    perps_b = _perpendicular_bundle(b, a)
    try:
        center_a, spread_a = concurrency_point(perps_a, tol)
        center_b, spread_b = concurrency_point(perps_b, tol)
    except DegenerateError as exc:
        raise DegenerateError(f"flat partner: {exc}") from exc
    return OrthologyReport(residuals=residuals,
                           perpendiculars_a=perps_a, perpendiculars_b=perps_b,
                           center_a=center_a, center_b=center_b,
                           spread_a=spread_a, spread_b=spread_b)


def construct_orthologic(a: Tetrahedron, center,
                         offsets: Sequence[float] | None = None,
                         tol: Tolerance | None = None) -> Tetrahedron:
    """Orthologic partner of ``a`` with prescribed orthology center.

    The partner's face normals are the vectors from ``center`` to the
    vertices of ``a``; ``offsets[i]`` places face plane i as
    ``n_i . x = offsets[i]``. Partners with parallel faces are equivalent,
    so the default offsets put each face plane through the corresponding
    vertex of ``a`` to give a canonical representative.
    """
    c = as_array(center)
    tol = tol or Tolerance.for_points(list(a.vertices) + [c])
    normals = []
    for i in (1, 2, 3, 4):
        n = a.vertex(i).array - c
        if np.linalg.norm(n) <= tol.eps_abs * tol.scene_scale:
            raise DegenerateError(f"center coincides with vertex {i}")
        normals.append(unit(n))
    if offsets is None:
        offsets = [float(np.dot(normals[i], a.vertex(i + 1).array)) for i in range(4)]
    offsets = [float(o) for o in offsets]
    if len(offsets) != 4:
        raise ValueError("need exactly four face offsets")
    planes = [Plane(normal=normals[i], offset=offsets[i]) for i in range(4)]
    # all four planes through one common point: degenerate (point partner)
    common = meet_planes(planes[0], planes[1], planes[2])
    if abs(planes[3].signed_distance(common)) <= tol.eps_abs * tol.scene_scale:
        raise DegenerateError("all four face planes pass through a single point")
    verts = []
    for m in (1, 2, 3, 4):
        others = [planes[i - 1] for i in (1, 2, 3, 4) if i != m]
        verts.append(meet_planes(*others))
    return Tetrahedron(tuple(verts))


@dataclass(frozen=True)
class LabelingResult:
    permutation: Tuple[int, int, int, int]
    max_residual: float
    ties: Tuple[Tuple[int, int, int, int], ...]


def find_labeling(a: Tetrahedron, b: Tetrahedron,
                  tie_tol: float = 1e-12) -> LabelingResult:
    """Search all 24 relabelings of ``b`` for the one minimizing the largest
    edge-orthogonality residual.

    Returns the best permutation (apply via ``b.relabeled(perm)``), its
    max residual, and every permutation tying with the best within
    ``tie_tol``. A large max residual simply means "not orthologic under
    any labeling".
    """
    best: List[Tuple[float, Tuple[int, ...]]] = []
    for perm in itertools.permutations((1, 2, 3, 4)):
        relabeled = b.relabeled(perm)
        residuals = edge_orthogonality_residuals(a, relabeled)
        best.append((max(residuals.values()), perm))
    best.sort(key=lambda item: (item[0], item[1]))
    top_val, top_perm = best[0]
    ties = tuple(perm for val, perm in best if val <= top_val + tie_tol)
    return LabelingResult(permutation=top_perm, max_residual=top_val, ties=ties)
