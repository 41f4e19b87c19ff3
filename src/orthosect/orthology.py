"""Orthology predicates, orthology centers, and the construction of
orthologic partner tetrahedra from a chosen center.

Two tetrahedra are orthologic when the perpendiculars dropped from each
vertex of one onto the corresponding face plane of the other are
concurrent; equivalently, when all six pairs of non-corresponding edges
are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DegenerateError, NotOrthologicError, NotOrthosectingError
from .geom_core import (
    Line,
    Plane,
    Tolerance,
    closest_rows,
    concurrency_rows,
    cross_rows,
    dot_rows,
    plane_rows,
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
# 0-based vertices of the face opposite each vertex, ascending
FACE_VERTICES = np.array([[m for m in range(4) if m != i] for i in range(4)])


def pairing_key(pairing: Pairing) -> str:
    (i, j), (k, l) = pairing
    return f"{i}{j}|{k}{l}"


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Four labeled 3D vertices (indices 1..4), stored as one read-only
    (4, 3) array built from any 4x3 coordinates.

    Flat tetrahedra are not rejected: they carry ``flat flag`` semantics via
    :meth:`is_flat` so degenerate members of solution families stay
    representable.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=float)
        if a.shape != (4, 3):
            raise ValueError(f"expected 4x3 coordinates, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite vertex coordinates: {a.tolist()}")
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @classmethod
    def of(cls, coords) -> "Tetrahedron":
        return cls(coords)

    @property
    def vertices(self) -> Tuple[np.ndarray, ...]:
        """The four vertices as read-only rows of ``array``."""
        return tuple(self.array)

    @cached_property
    def signed_volume(self) -> float:
        a = self.array
        return float(np.linalg.det(a[1:] - a[0])) / 6.0

    def vertex(self, i: int) -> np.ndarray:
        """Vertex ``i`` (1..4) as a read-only row of ``array``."""
        return self.array[i - 1]

    def edge_line(self, i: int, j: int) -> Line:
        return Line.through(self.array[i - 1], self.array[j - 1])

    def face_plane(self, i: int) -> Plane:
        """Plane of the face opposite vertex ``i``."""
        return Plane.through(*self.array[FACE_VERTICES[i - 1]])

    @cached_property
    def faces(self) -> np.ndarray:
        """Row i - 1 holds the unit normal and offset of the plane of the
        face opposite vertex i, bit-identical to ``face_plane(i)``'s; raises
        DegenerateError when a face's vertices are collinear."""
        p = self.array[FACE_VERTICES]
        rows = plane_rows(cross_rows(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), p[:, 0])
        rows.setflags(write=False)
        return rows

    def is_flat(self, tol: Tolerance | None = None) -> bool:
        tol = tol or Tolerance.for_points(self.array)
        return abs(self.signed_volume) < tol.eps_rel * tol.scene_scale**3

    def relabeled(self, perm: Sequence[int]) -> "Tetrahedron":
        """New tetrahedron whose vertex m is the old vertex perm[m-1]."""
        return Tetrahedron(self.array[np.asarray(perm) - 1])


def pair_tolerance(a: Tetrahedron, b: Tetrahedron) -> Tolerance:
    """Default scene tolerance spanning the vertices of both tetrahedra."""
    return Tolerance.for_points(np.vstack((a.array, b.array)))


@dataclass(frozen=True, eq=False)
class OrthologyReport:
    """Edge-orthogonality residuals and the concurrency points (orthology
    centers) of the two perpendicular bundles, with spreads."""

    residuals: Dict[Pairing, float]
    center_a: np.ndarray
    center_b: np.ndarray
    spread_a: float
    spread_b: float


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
    cut = tol.eps_abs * tol.scene_scale
    short_a, short_b = nu <= cut, nw <= cut
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


def _require_orthologic(measures, tol: Tolerance):
    """``measures``, the ``pair_measures`` of a pair that must be
    orthologic: raises NotOrthologicError, with the six residuals, when
    some pair of non-corresponding edges is not orthogonal within
    ``tol.eps_rel``."""
    ortho = measures[0]
    if ortho.max() > tol.eps_rel:
        raise NotOrthologicError(f"pair is not orthologic: max residual {ortho.max():.3e}",
                                 residuals=by_pairing(ortho))
    return measures


def require_orthosecting(measures, tol: Tolerance, drop_worst_gap: bool = False):
    """The one check that a pair orthosects, on its ``pair_measures`` at
    ``tol``: every pair of non-corresponding edges is orthogonal and
    intersects, within ``tol.eps_rel``.

    Raises NotOrthologicError when some pair is not orthogonal, then
    NotOrthosectingError when some pair fails to intersect. With
    ``drop_worst_gap`` the pairing with the largest gap is exempt from the
    intersection check (five intersecting pairs suffice for
    co-sphericity). Returns the checked pairings, in EDGE_PAIRINGS order,
    and their intersection points as a (5 or 6, 3) array.
    """
    _, gaps, feet = _require_orthologic(measures, tol)
    kept = np.ones(6, dtype=bool)
    if drop_worst_gap:
        kept[np.argmax(gaps)] = False
    bad = kept & (gaps > tol.eps_rel)
    if bad.any():
        raise NotOrthosectingError(
            f"{int(bad.sum())} edge pair(s) fail to intersect (max gap "
            f"{gaps[bad].max():.3e} of scene scale)", gaps=by_pairing(gaps))
    return [p for p, k in zip(EDGE_PAIRINGS, kept) if k], feet[kept]


def orthology_centers(a: Tetrahedron, b: Tetrahedron,
                      tol: Tolerance | None = None) -> OrthologyReport:
    """Both orthology centers of an orthologic pair.

    Raises NotOrthologicError when some edge pair fails orthogonality, and
    DegenerateError when a perpendicular bundle is parallel (flat partner,
    center at infinity).
    """
    tol = tol or pair_tolerance(a, b)
    return centers_from_residuals(a, b, _require_orthologic(pair_measures(a, b, tol), tol)[0],
                                  tol)


def centers_from_residuals(a: Tetrahedron, b: Tetrahedron, residuals: np.ndarray,
                           tol: Tolerance) -> OrthologyReport:
    """``orthology_centers`` of a pair whose six orthogonality residuals,
    ``pair_measures``' first array, have passed the orthologic check."""
    # the perpendicular bundles: the line through each vertex of one
    # tetrahedron along the normal of the other's corresponding face,
    # normalized a second time as Line normalizes its direction
    normals = [n / np.sqrt(dot_rows(n, n))[:, None] for n in (b.faces[:, :3], a.faces[:, :3])]
    try:
        (center_a, spread_a), (center_b, spread_b) = (
            concurrency_rows(t.array, n, tol) for t, n in zip((a, b), normals))
    except DegenerateError as exc:
        raise DegenerateError(f"flat partner: {exc}") from exc
    return OrthologyReport(residuals=by_pairing(residuals), center_a=center_a,
                           center_b=center_b, spread_a=spread_a, spread_b=spread_b)
