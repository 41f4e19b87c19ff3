"""Isogonal conjugation in closed form, and pedal chains.

The isogonal conjugate of a point on a triangle's plane is the barycentric
map (x : y : z) -> (a^2 yz : b^2 zx : c^2 xy); a point and its conjugate
share one pedal circle. A pedal chain on a tetrahedron is a set of four
pedal triangles, one per face, sharing the foot on each common edge.
Chains are completed from one prescribed pedal triangle plus a single
scalar parameter t, by one construction: the kernel pass the curve trace
runs builds the six feet at t, and the sources and closure come from those
feet. When the six feet are co-spherical (or co-planar) and stay apart,
the chain determines a unique orthosecting partner tetrahedron, rebuilt
here from the six feet alone: each vertex on the normal line through its
source, at the height its three feet planes agree on.

A point of the self-conjugate curve is the projected source of such a
chain, but not always of exactly one: where the curve is smooth it gives
one partner, at a crunode (two real branches crossing) both roots of the
sphericity quadratic fit and it gives two, at an acnode (an isolated real
point) none, and at the orthogonal projection of host vertex 4 onto the
face the root that fits has coincident feet, a degenerate chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    DegenerateError,
    ReconstructionError,
    SimsonDegenerateError,
)
from .geom_core import (
    Plane,
    SphereOrPlane,
    Tolerance,
    _sphere_fit,
    as_array,
    carrier_through,
    circle_through,
    cross_rows,
    dot_rows,
    unit,
)
from .orthology import (EDGE_PAIRINGS, Tetrahedron, _I, _J, _edge_line_rows,
                        by_pairing, pair_measures, pair_tolerance)

# |dist(source, circumcenter) - circumradius| below this (times scene scale)
# counts as the Simson degeneracy: collinear feet, no pedal circle.
SIMSON_TOL = 1e-7
# orthogonality residuals and gaps (over the scene scale) a rebuilt partner
# must stay below
POSTCONDITION_TOL = 1e-6
# a chain two of whose six feet lie within FEET_TOL scene scales is
# degenerate; a chain with two coincident feet on a lattice line is found by
# the curve trace to within its REFINE_TOL (1e-9), so the cut stays well
# above it
FEET_TOL = 1e-6
# a face point whose sixth foot lies within VERTEX_TOL scene scales of the
# carrier of the other five is on the self-conjugate curve: the trace keeps
# such vertices and solve_from_curve_point accepts such points
VERTEX_TOL = 1e-6

# per host vertex, the EDGE_PAIRINGS rows of the host edges through it; then
# the rows of the three edges of the face opposite each vertex in turn, flat
_FEET_AT = np.array([(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
_FACE_EDGES = np.array([r for at in _FEET_AT for r in range(6) if r not in at])
# the (partner vertex m, feet plane k) pairs with k != m, the planes through B_m
_OTHER = ~np.eye(4, dtype=bool)
# matrices taking the host's vertices to each face's edge vectors A_i - A_j
# (_FACE_EDGES order), and the six points to each feet triangle's first
# point, then its sides from it to its second and to its third point
_FACE_EDGE_VECTORS = np.eye(4)[_I[_FACE_EDGES]] - np.eye(4)[_J[_FACE_EDGES]]
_FEET_TRIANGLES = np.eye(6)[_FEET_AT.T.ravel()] - np.concatenate(
    (np.zeros((4, 6)), np.tile(np.eye(6)[_FEET_AT[:, 0]], (2, 1))))
# EDGE_PAIRINGS row of each host edge (i, j), i < j
_EDGE_ROW = {ij: r for r, (ij, _) in enumerate(EDGE_PAIRINGS)}


@dataclass(frozen=True, eq=False)
class PedalChain:
    """Six feet as a read-only (6, 3) array, one row per host edge in
    EDGE_PAIRINGS order (the layout of ``pair_measures``' feet), and the
    four sources, one per face plane, as a read-only (4, 3) array.
    ``closure_spread`` measures how far the configuration is from a genuine
    chain (0 for exact ones)."""

    host: Tetrahedron
    feet: np.ndarray
    sources: np.ndarray
    closure_spread: float

    def __post_init__(self):
        for name in ("feet", "sources"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def foot(self, i: int, j: int) -> np.ndarray:
        """The foot on host edge (i, j), a read-only row of ``feet``."""
        return self.feet[_EDGE_ROW[min(i, j), max(i, j)]]

    def source(self, i: int) -> np.ndarray:
        """The source on face plane i, a read-only row of ``sources``."""
        return self.sources[i - 1]


@dataclass(frozen=True, eq=False)
class SphericalChain:
    chain: PedalChain
    carrier: SphereOrPlane
    max_residual: float


def isogonal_conjugate(source, face, tol: Tolerance | None = None) -> np.ndarray:
    """The isogonal conjugate of a point, projected onto the plane of the
    triangle ``face`` first: with (x : y : z) its barycentrics, the point
    (a^2 yz : b^2 zx : c^2 xy), a, b and c the sides opposite the face's
    vertices. A point on a side line maps to the opposite vertex, and a
    point and its conjugate share one pedal circle. Raises DegenerateError
    for a collinear face and SimsonDegenerateError for a point on the
    circumcircle, whose conjugate is at infinity."""
    face = np.array(face, dtype=float).reshape(3, 3)
    plane = Plane.through(*face)
    p = as_array(source)
    p = p - plane.signed_distance(p) * plane.normal
    tol = tol or Tolerance.for_points(np.vstack((face, p)))
    circum = circle_through(*face, tol=tol)
    on_circle = abs(float(np.linalg.norm(p - circum.center)) - circum.radius)
    if on_circle <= SIMSON_TOL * tol.scene_scale:
        raise SimsonDegenerateError("source on the circumcircle: pedal feet are collinear")
    to_face = face - p
    nxt, last = [1, 2, 0], [2, 0, 1]
    # p's barycentrics: twice the signed areas of (p, B, C), (p, C, A) and
    # (p, A, B); the conjugate's are each squared side times the other two
    x = cross_rows(to_face[nxt], to_face[last]) @ plane.normal
    sides = face[last] - face[nxt]
    w = dot_rows(sides, sides) * x[nxt] * x[last]
    return p + w @ to_face / w.sum()


# ---------------------------------------------------------------------------
# chain kernel: normalized fast path shared by completion, sphericity root
# finding and curve tracing
# ---------------------------------------------------------------------------


def _feet_on(anchor: np.ndarray, direction: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Feet of the perpendiculars from ``p`` on the lines (anchor, unit
    direction), all broadcast together: a table of lines against
    (..., 1, 3) points gives (..., lines, 3)."""
    return anchor + ((p - anchor) * direction).sum(axis=-1)[..., None] * direction


def _in_plane_factor(d1: np.ndarray, m: np.ndarray):
    """The vector w for which a1 + ((a2 - a1) . w) d1 is the common point of
    any two lines (a1, d1) and (a2, d2) lying in the plane with unit normal
    n, from m = d2 x n ((x cross d2) . n == x . m); all NaN when the lines
    are parallel, so that what uses the common point is NaN too."""
    denom = float(np.dot(d1, m))
    return np.full(3, np.nan) if abs(denom) < 1e-12 else m / denom


# the kernel's edge lines as host vertex pairs: 12, 13, 23 on face (1, 2, 3),
# then 14, 24 and 34; and the kernel's lines in EDGE_PAIRINGS order
_LINE_ENDS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
_PAIRING_ROWS = np.array([0, 1, 3, 2, 4, 5])
# the three samples of the co-sphericity determinant, as t
_T_SAMPLES = np.array([-1.0, 0.0, 1.0])[:, None]
# the 15 pairs of six feet
_I6, _J6 = np.triu_indices(6, 1)
# Laplace expansion of a 4x4 determinant with columns (|d|^2, x, y, z) along
# its first two rows: the column pairs (j, k) of the 2x2 minors, each with
# its sign; the pairs in reverse order are the complements
_MINOR_J, _MINOR_K = np.array([(0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3)])
_MINOR_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[:, None]


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
        self.tol = tol or Tolerance.for_points(host.array)
        self.shift = host.array.mean(axis=0)
        self.scale = self.tol.scene_scale
        self.a = a = (host.array - self.shift) / self.scale
        # the line table: anchors and unit directions in _LINE_ENDS order
        self.anchor = a[[i for i, _ in _LINE_ENDS]]
        self.direction = np.array([unit(a[j] - a[i]) for i, j in _LINE_ENDS])
        d12, d13, _, d14, d24, _ = self.direction
        # unit normals of the faces opposite vertices 1..4
        normals = Tetrahedron.of(a).faces[:, :3]
        self.n123 = normals[3]
        self.off123 = float(np.dot(self.n123, a[0]))
        # in-plane perpendiculars, one cross product each: to edge 12 in
        # plane (1,2,4), to edges 13 and 23 in planes (1,3,4) and (2,3,4), to
        # edges 14 and 24 in the same two planes, and to edge 23 in (1,2,3)
        perp = cross_rows(normals[[2, 1, 0, 1, 0, 3]], self.direction[[0, 1, 2, 3, 4, 2]])
        u, self.p13, self.p23 = perp[:3]
        # displacement direction for source 3: in plane (1,2,4), perpendicular
        # to edge 1-2, pointing toward vertex 4's side
        toward4 = a[3] - _feet_on(a[0], d12, a[3])
        self.u = u = -u if np.dot(u, toward4) < 0 else u
        # source 2 (source 1) is where the in-plane perpendiculars at feet
        # 13 and 14 (23 and 24) meet: foot 13 (23) plus a multiple of p13
        # (p23); NaN where they are parallel
        m134, m234 = cross_rows(perp[3:5], normals[[1, 0]])
        self.w134 = _in_plane_factor(self.p13, m134)
        self.w234 = _in_plane_factor(self.p23, m234)
        # feet 14, 24 and 34 move along their edges by these per unit of t
        # (foot 34 through source 2, so NaN without it)
        g14 = np.dot(u, d14) * d14
        g34 = np.dot(g14, self.w134) * np.dot(self.p13, self.direction[5])
        self.g = np.array([g14, np.dot(u, d24) * d24, g34 * self.direction[5]])
        # the lines the resultant of the two determinants vanishes on besides
        # the nonic: edge line 23 and the perpendiculars to edges 12 and 13 at
        # vertex 1, as in-plane (anchor, normal) rows
        self.divisor_lines = (a[[1, 0, 0]], np.array([perp[5], d12, d13]))
        circ = circle_through(a[0], a[1], a[2], tol=Tolerance(scene_scale=1.0))
        self.circumcenter, self.circumradius = circ.center, circ.radius

    def to_local(self, p) -> np.ndarray:
        """Local coordinates of a point, or of (N, 3) stacked points."""
        return (np.asarray(p, dtype=float) - self.shift) / self.scale

    def _cosphericity_samples(self, p: np.ndarray):
        """For (N, 3) local points: feet 12, 13, 23 (N, 3, 3), feet 14, 24
        and 34 at t = 0 (N, 3, 3), which move by ``self.g`` per unit of t,
        and the co-sphericity determinants det[|p|^2, p, 1] at t = -1, 0, 1
        of feet 12, 13, 23 and 14 with foot 24 (Q) and with foot 34 (P), as
        (2, 3, N). Translated to foot 12 a determinant is det[|d|^2, d] of
        its last four feet: the sum of the fixed rows' (13, 23) 2x2 minors
        times the moving rows' (14 with 24 or 34) complementary ones. Foot
        34 and P are NaN without source 2 (``self.w134``)."""
        base = _feet_on(self.anchor[:3], self.direction[:3], p[:, None])
        v12, v13 = base[:, :1], base[:, 1]
        at0 = np.empty((len(p), 3, 3))
        at0[:, :2] = _feet_on(self.anchor[3:5], self.direction[3:5], v12)
        at0[:, 2] = _feet_on(self.anchor[5], self.direction[5],
                             v13 + np.dot(at0[:, 0] - v13, self.w134)[:, None] * self.p13)
        # coordinates first: rows 13, 23 as (3, 2, N), rows 14, 24, 34 at the
        # three t as (3, 3, 3, N); lifted to columns (|d|^2, x, y, z) first
        fixed = (base[:, 1:] - v12).T
        moving = (at0 - v12).T[:, :, None] + self.g.T[:, :, None, None] * _T_SAMPLES
        fixed, moving = (np.concatenate([(d * d).sum(axis=0)[None], d]) for d in (fixed, moving))
        j, k = _MINOR_J, _MINOR_K
        minors = (fixed[j, 0] * fixed[k, 1] - fixed[k, 0] * fixed[j, 1]) * _MINOR_SIGN
        j, k = j[::-1], k[::-1]
        first, second = moving[:, :1], moving[:, 1:]
        return base, at0, (minors[:, None, None] * (first[j] * second[k]
                                                     - first[k] * second[j])).sum(axis=0)

    def _feet(self, base: np.ndarray, at0: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The six feet (N, K, 6, 3) at parameters t (N, K) in the kernel's
        line order: ``_cosphericity_samples``' base feet 12, 13 and 23, then
        its at0 feet 14, 24 and 34 moved by g t."""
        feet = np.empty((*t.shape, 6, 3))
        feet[:, :, :3], feet[:, :, 3:] = base[:, None], at0[:, None] + t[..., None, None] * self.g
        return feet

    def _sixth_foot(self, base: np.ndarray, at0: np.ndarray, t: np.ndarray):
        """The six feet (N, K, 6, 3) at parameters t (N, K) (``_feet``), the
        carrier fit of the first five (feet 12, 13, 23, 14, 24) and the
        signed residual f (N, K) of the sixth, foot 34, against that
        carrier."""
        feet = self._feet(base, at0, t)
        fit = {key: val.reshape(*t.shape, *val.shape[1:])
               for key, val in _sphere_fit(feet[:, :, :5].reshape(-1, 5, 3)).items()}
        v34 = feet[:, :, 5]
        f = np.where(fit["sphere"], np.linalg.norm(v34 - fit["center"], axis=-1) - fit["radius"],
                     (v34 * fit["normal"]).sum(axis=-1) - fit["offset"])
        return feet, fit, f

    @staticmethod
    def _quadratics(samples: np.ndarray):
        """Coefficients (c0, c1, c2) of the quadratics through samples at
        t = -1, 0, 1 (first axis)."""
        d_lo, c0, d_hi = samples
        return c0, 0.5 * (d_hi - d_lo), 0.5 * (d_hi + d_lo) - c0

    def sphericity_batch(self, b4_local: np.ndarray):
        """Sphericity roots of (N, 3) local face points as ``(t, f, feet)``:
        column k of the (N, 2) arrays t and f holds the k-th validated root
        by ascending t and the signed residual of the sixth foot against the
        carrier through the other five, and feet (N, 2, 6, 3) the six feet
        at that root; all NaN where a point has fewer roots. A root is
        validated when its sixth foot exists (it needs source 2) and the
        least-squares sphere (or plane) through its five feet fits them
        within eps_rel. t is in normalized units (multiply by the scene
        scale for world units); f is the scale-normalized residual."""
        p = np.asarray(b4_local, dtype=float).reshape(-1, 3)
        base, at0, samples = self._cosphericity_samples(p)
        t = self._q_roots(samples)
        feet, fit, f = self._sixth_foot(base, at0, t)
        return self._validated(t, f, feet, fit["residual"])

    @classmethod
    def _q_roots(cls, samples: np.ndarray) -> np.ndarray:
        """Q's real roots (N, 2) from the co-sphericity samples (2, 3, N), in
        either order; NaN where Q has fewer."""
        # the determinant is exactly quadratic in t
        c0, c1, c2 = cls._quadratics(samples[0])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            abs1, abs2 = np.abs(c1), np.abs(c2)
            mag = np.maximum(np.maximum(np.abs(c0), abs1), abs2)
            # mag <= 1e-12: the determinant vanishes identically (collinear
            # base feet); coefficients below 1e-10 * mag are trimmed
            live = mag > 1e-12
            quad = live & (abs2 > 1e-10 * mag)
            lin = live & ~quad & (abs1 > 1e-10 * mag)
            disc = c1 * c1 - 4.0 * c2 * c0
            root = np.sqrt(np.abs(disc))
            q = -0.5 * (c1 + np.copysign(root, c1))
            r_a = q / c2
            r_b = np.where(q != 0.0, c0 / q, r_a)
            vertex = -c1 / (2.0 * c2)
            # a complex pair within 1e-8 (1 + |re|) of the axis is a real
            # double root
            double = quad & (disc < 0) & (root / (2.0 * abs2) <= 1e-8 * (1.0 + np.abs(vertex)))
            real = quad & (disc >= 0)
            lo = np.where(double, vertex, np.where(lin, -c0 / c1, np.nan))
            return np.stack([np.where(real, np.minimum(r_a, r_b), lo), np.where(
                real, np.maximum(r_a, r_b), np.where(double, vertex, np.nan))], axis=1)

    def _validated(self, t: np.ndarray, f: np.ndarray, feet: np.ndarray, residual: np.ndarray):
        """Roots t (N, 2) with their f, six feet and five-foot fit residuals
        as ``sphericity_batch`` returns them: NaN unless validated, and
        without duplicates, by ascending t."""
        valid = (residual <= self.tol.eps_rel) & ~np.isnan(f)
        # a second root within 1e-9 of a validated first one is the same root
        valid[:, 1] &= ~(valid[:, 0] & (np.abs(t[:, 1] - t[:, 0])
                                         <= 1e-9 * (1.0 + np.abs(t[:, 1]))))
        t, f = np.where(valid, t, np.nan), np.where(valid, f, np.nan)
        feet = np.where(valid[..., None, None], feet, np.nan)
        # ascending t, NaN last
        swap = (t[:, 1] < t[:, 0]) | (np.isnan(t[:, 0]) & ~np.isnan(t[:, 1]))
        t[swap], f[swap], feet[swap] = t[swap, ::-1], f[swap, ::-1], feet[swap, ::-1]
        return t, f, feet

    def divisor(self, b4_local: np.ndarray) -> np.ndarray:
        """L23 * N12 * N13 at (N, 3) local face points: the product of the
        signed distances to the three ``divisor_lines``."""
        anchor, normal = self.divisor_lines
        return ((b4_local[:, None] - anchor) * normal).sum(axis=-1).prod(axis=-1)

    def nonic(self, b4_local: np.ndarray):
        """The curve's nonic F9 at (N, 3) local face points, with the
        common root t of the two co-sphericity determinants Q (feet 12, 13,
        23, 14, 24) and P (foot 34 in place of 24) and the ``divisor`` F is
        divided by, as three (N,) arrays. Both determinants are exactly
        quadratic in t, so their resultant (a2 b0 - a0 b2)^2 - (a2 b1 -
        a1 b2)(a1 b0 - a0 b1) is closed form; it is L23 * N12 * N13 * F9,
        and F is the quotient. F is 0/0, so unreliable, on and near the
        three lines. t is in normalized units; F and t are NaN without
        source 2."""
        p = np.asarray(b4_local, dtype=float).reshape(-1, 3)
        x, y, z = self._resultant_terms(self._cosphericity_samples(p)[2])
        divisor = self.divisor(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (x * x + y * z) / divisor, x / y, divisor

    @classmethod
    def _resultant_terms(cls, samples: np.ndarray):
        """x, y and z of the resultant x^2 + y z of the quadratics Q and P
        sampled at t = -1, 0, 1 (``_cosphericity_samples``' determinants);
        their common root is x / y."""
        (a0, a1, a2), (b0, b1, b2) = map(cls._quadratics, samples)
        return a2 * b0 - a0 * b2, a1 * b2 - a2 * b1, a1 * b0 - a0 * b1

    def curve_chain(self, b4_local: np.ndarray, divisor_cut: float):
        """At (N, 3) local points of the curve, from one co-sphericity pass
        and one sphere fit: the chain parameter t in normalized units, the
        signed residual f of foot 34 against the carrier through the other
        five and the least distance between two of the six feet, as (N,)
        arrays. t is the common root of ``nonic``, but where |``divisor``| <
        ``divisor_cut`` (F and the common root are 0/0 there) the validated
        root of Q whose six feet stay more than FEET_TOL apart and whose
        sixth foot fits best, all three NaN where none does. Without source
        2, t and f are NaN."""
        return self._curve_feet(b4_local, divisor_cut)[:3]

    def _curve_feet(self, b4_local: np.ndarray, divisor_cut: float):
        """``curve_chain``'s t, f and gap, then the six feet (N, 6, 3) of the
        picked root in the kernel's line order, meaningful where t is not
        NaN, and f (N, 2) of both candidates: on rows near the divisor lines,
        Q's validated roots' as ``sphericity_batch`` returns them."""
        p = np.asarray(b4_local, dtype=float).reshape(-1, 3)
        base, at0, samples = self._cosphericity_samples(p)
        x, y, _ = self._resultant_terms(samples)
        near = np.abs(self.divisor(p)) < divisor_cut
        # candidates: the common root, or Q's two roots on the near rows
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.stack([x / y, np.full(len(p), np.nan)], axis=1)
        t[near] = self._q_roots(samples[..., near])
        feet, fit, f = self._sixth_foot(base, at0, t)
        t[near], f[near], feet[near] = self._validated(t[near], f[near], feet[near],
                                                       fit["residual"][near])
        gap = np.linalg.norm(feet[..., _I6, :] - feet[..., _J6, :], axis=-1).min(axis=-1)
        score = np.where(gap > FEET_TOL, np.abs(f), np.inf)
        score[~near] = 0.0, np.inf   # the common root, whatever its feet
        rows, best = np.arange(len(p)), score.argmin(axis=1)
        found = np.isfinite(score[rows, best])
        return (*(np.where(found, v[rows, best], np.nan) for v in (t, f, gap)), feet[rows, best],
                f)

    def _chains(self, p: np.ndarray, t: np.ndarray, feet: np.ndarray) -> List[PedalChain]:
        """World pedal chains of (N, 3) local face points, their t (N,) and
        their ``_feet`` (N, 6, 3): source 3 is foot 12 + t u, source 2 (1) the
        meet of the in-plane perpendiculars at feet 13 and 14 (23 and 24),
        and the closure spread |foot of source 1 on edge line 34 - foot 34|.
        Raises DegenerateError without source 1 or 2."""
        if np.isnan([self.w134, self.w234]).any():
            raise DegenerateError("parallel in-plane perpendiculars")
        v12, v13, v23, v14, v24, v34 = np.moveaxis(feet, 1, 0)
        b1 = v23 + ((v24 - v23) @ self.w234)[:, None] * self.p23
        b2 = v13 + ((v14 - v13) @ self.w134)[:, None] * self.p13
        closing = _feet_on(self.anchor[5], self.direction[5], b1)
        sources = np.stack((b1, b2, v12 + t[:, None] * self.u, p), axis=1)
        world = np.concatenate((feet[:, _PAIRING_ROWS], sources), axis=1) * self.scale + self.shift
        spread = np.linalg.norm(closing - v34, axis=-1) * self.scale
        return [PedalChain(host=self.host, feet=w[:6], sources=w[6:], closure_spread=float(d))
                for w, d in zip(world, spread)]


# ---------------------------------------------------------------------------
# public chain operations
# ---------------------------------------------------------------------------


def _face_source(kernel: ChainKernel, b4) -> np.ndarray:
    """Local position of ``b4`` projected onto face (1, 2, 3); raises
    SimsonDegenerateError on the face circumcircle, where the base pedal
    feet are collinear."""
    p = kernel.to_local(b4)
    b4_local = p - (np.dot(kernel.n123, p) - kernel.off123) * kernel.n123
    simson = abs(float(np.linalg.norm(b4_local - kernel.circumcenter)) - kernel.circumradius)
    if simson <= SIMSON_TOL:
        raise SimsonDegenerateError("source on the face circumcircle: base pedal feet collinear")
    return b4_local


def complete_chain(host: Tetrahedron, b4, t: float,
                   tol: Tolerance | None = None) -> PedalChain:
    """Complete a pedal chain from one pedal triangle and one parameter.

    The source on face (1,2,3) is ``b4`` (projected onto the face plane);
    the source on face (1,2,4) is displaced from the shared foot by ``t``
    (world units) along the in-plane perpendicular to edge 1-2, oriented
    toward vertex 4. The remaining feet, as the curve trace's kernel pass
    builds them, and sources are then determined; ``closure_spread``
    reports the final consistency distance, which is zero (to round-off)
    for every valid input. Raises DegenerateError without source 1 or 2.
    """
    kernel = ChainKernel(host, tol)
    p, t = _face_source(kernel, b4)[None], np.array([float(t) / kernel.scale])
    base, at0, _ = kernel._cosphericity_samples(p)
    return kernel._chains(p, t, kernel._feet(base, at0, t[:, None])[:, 0])[0]


def chain_sphere_residual(host: Tetrahedron, b4,
                          tol: Tolerance | None = None) -> List[float]:
    """Signed scale-normalized distance of the sixth foot from the sphere
    (or plane) through the other five, one value per validated parameter.

    Zero characterizes points of the isogonally self-conjugate curve on the
    face plane.
    """
    kernel = ChainKernel(host, tol)
    t, f, _ = (v[0] for v in kernel.sphericity_batch(_face_source(kernel, b4)))
    return f[~np.isnan(t)].tolist()


def chain_from_pair(a: Tetrahedron, b: Tetrahedron,
                    tol: Tolerance | None = None) -> PedalChain:
    """Extract the pedal chain of an orthosecting pair: feet are the edge
    intersection points (closest-approach midpoints), sources the
    projections of the partner's vertices onto the host's face planes."""
    tol = tol or pair_tolerance(a, b)
    feet = pair_measures(a, b, tol)[2]
    normals, offsets = a.faces[:, :3], a.faces[:, 3]
    sources = b.array - (dot_rows(normals, b.array) - offsets)[:, None] * normals
    # each source's feet on the three edge lines of its face, against the
    # intersection points on those edges
    anchor, d = _edge_line_rows(a.array, _I[_FACE_EDGES], _J[_FACE_EDGES])
    to_source = sources.repeat(3, axis=0) - anchor
    miss = anchor + dot_rows(to_source, d)[:, None] * d - feet[_FACE_EDGES]
    return PedalChain(host=a, feet=feet, sources=sources,
                      closure_spread=float(np.sqrt(dot_rows(miss, miss)).max()))


def spherical_chain(chain: PedalChain, tol: Tolerance | None = None) -> SphericalChain:
    """Wrap a chain whose feet are co-spherical (or co-planar) within
    eps_rel scene scales; raises DegenerateError otherwise."""
    tol = tol or Tolerance.for_points(chain.host.array)
    max_residual = tol.eps_rel * tol.scene_scale
    carrier, residual = carrier_through(chain.feet, tol)
    if residual > max_residual:
        raise DegenerateError(
            f"chain feet deviate from a common sphere/plane by {residual:.3e} "
            f"(> {max_residual:.3e})")
    return SphericalChain(chain=chain, carrier=carrier, max_residual=residual)


def reconstruct_tetrahedron(sc: SphericalChain, tol: Tolerance | None = None) -> Tetrahedron:
    """Unique tetrahedron orthosecting the host with the chain's feet as
    edge intersections, rebuilt from the feet alone by
    ``partner_from_points``, for either kind of carrier: a flat chain's
    feet planes are its carrier plane. The orthosection postcondition
    (every gap and orthogonality residual below POSTCONDITION_TOL) holds or
    a ReconstructionError is raised, the symptom of feet that are not
    co-spherical.
    """
    tol = tol or Tolerance.for_points(sc.chain.host.array)
    partner = Tetrahedron.of(partner_from_points(sc.chain.host, sc.chain.feet))
    _require_orthosection(pair_measures(sc.chain.host, partner, tol))
    return partner


def partner_from_points(host: Tetrahedron, points) -> np.ndarray:
    """The vertices (..., 4, 3) of the tetrahedron whose edges meet the
    host's orthogonally at ``points`` (..., 6, 3), EDGE_PAIRINGS order, with
    no postcondition. Vertex m is S_m + s_m n_m: S_m, its source, is the
    least-squares meet in host face plane m of the perpendiculars to the
    face's edges at their points, n_m the face's normal, and s_m fits the
    three feet planes through it (of the points around host vertices
    k != m), each weighted by its feet triangle's area. Raises
    DegenerateError where s_m has no fit: that normal line parallel to
    those planes, within 1e-9 of the four planes' size."""
    points = np.asarray(points, dtype=float)
    # per face, its edges' unit directions d (4, 3, 3) and a normal n: the
    # source's part along the face plane solves d . S = d . point on each
    # edge and n . S = 0 in least squares, and the fit below finds the rest
    u = _FACE_EDGE_VECTORS @ host.array
    d = (u / np.sqrt(dot_rows(u, u))[:, None]).reshape(4, 3, 3)
    n = cross_rows(d[:, 0], d[:, 1])
    dt = d.transpose(0, 2, 1)
    along = (points[..., _FACE_EDGES, :].reshape(*points.shape[:-2], 4, 3, 3) * d).sum(axis=-1)
    sources = np.linalg.solve(np.matmul(dt, d) + n[:, :, None] * n[:, None, :],
                              np.matmul(dt, along[..., None]))[..., 0]
    # the feet plane around host vertex k, c_k . x = c_k . q_k: q_k its first
    # point and c_k the cross product of its triangle's sides from q_k
    q = np.matmul(_FEET_TRIANGLES, points)
    c = cross_rows(q[..., 4:8, :], q[..., 8:, :])
    # row m, column k != m: c_k . n_m s_m = c_k . (q_k - S_m)
    ct = np.swapaxes(c, -1, -2)
    tilt = np.matmul(n, ct) * _OTHER
    miss = (c * q[..., :4, :]).sum(axis=-1)[..., None, :] - np.matmul(sources, ct)
    den = (tilt * tilt).sum(axis=-1)
    crossing = den > 1e-18 * (c * c).sum(axis=(-1, -2))[..., None]
    if not crossing.all():
        m = int(np.argmin(crossing.reshape(-1, 4).all(axis=0))) + 1
        raise DegenerateError(f"feet planes parallel to the normal line of face {m}: "
                              f"partner vertex {m} at infinity")
    return sources + ((tilt * miss).sum(axis=-1) / den)[..., None] * n


def _require_orthosection(measures):
    """The reconstruction postcondition on a (host, partner) pair's
    ``pair_measures``, which it returns: raises ReconstructionError when
    some orthogonality residual or gap exceeds POSTCONDITION_TOL."""
    ortho, gaps, _ = measures
    if ortho.max() > POSTCONDITION_TOL or gaps.max() > POSTCONDITION_TOL:
        raise ReconstructionError(
            f"reconstructed tetrahedron fails orthosection: orthogonality "
            f"{ortho.max():.3e}, gap {gaps.max():.3e} (tol {POSTCONDITION_TOL:.1e})",
            orthogonality=by_pairing(ortho), gaps=by_pairing(gaps))
    return measures
