"""Verification-level operations: the common sphere of intersection points,
conjugate partners, the isogonally self-conjugate curve on a face plane,
and repeated-conjugation sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DegenerateError, GeometryError
from .geom_core import (SphereOrPlane, Tolerance, as_array, carrier_through, cross_rows, dot_rows,
                        unit)
from .orthology import (
    FACE_VERTICES,
    OrthologyReport,
    Pairing,
    Tetrahedron,
    _I,
    _J,
    centers_from_residuals,
    pair_measures,
    pair_tolerance,
    require_orthosecting,
)
from .pedal import FEET_TOL, VERTEX_TOL, ChainKernel, _require_orthosection, partner_from_points

# trace_curve fits F9 as a Chebyshev series of total degree NONIC on a
# FIT_NODES x FIT_NODES Chebyshev point set, leaving out the samples where
# |L23 N12 N13| is below FIT_CUT of its largest value (F is 0/0 there)
NONIC = 9
FIT_NODES = 20
FIT_CUT = 1e-6
# it reads lattice and bisection signs against ZERO_TOL times the largest
# |lattice value|, above the series' error, so that a node where F vanishes
# (a face vertex, say) has one sign; it bisects crossings on the series to
# REFINE_TOL scene scales and polishes each with NEWTON_STEPS Newton steps
ZERO_TOL = 1e-12
REFINE_TOL = 1e-9
NEWTON_STEPS = 2
_FIT_NODES = np.cos(np.pi * (np.arange(FIT_NODES) + 0.5) / FIT_NODES)
_TERMS = np.add.outer(np.arange(NONIC + 1), np.arange(NONIC + 1)) <= NONIC
# default_window inflates the face's bounding box about its centre by this
WINDOW_INFLATE = 3.0
# iterate_sequence merges orthology centers within this many scene scales
CLUSTER_RADIUS_FACTOR = 1e-6
# the coarsest lattice trace_curve accepts, nodes per side
MIN_GRID = 16


@dataclass(frozen=True, eq=False)
class SphereReport:
    """Common quadric of the edge intersection points (3,), one per checked
    pairing, with per-point signed residuals (normalized) and the gap
    between the carrier center and the midpoint of the two orthology
    centers (None when a center is unavailable, e.g. for flat partners)."""

    carrier: SphereOrPlane
    residuals: Dict[Pairing, float]
    midpoint_gap: Optional[float]
    points: Dict[Pairing, np.ndarray]

    @property
    def max_abs_residual(self) -> float:
        return max(abs(r) for r in self.residuals.values())


def verify_sphere(a: Tetrahedron, b: Tetrahedron,
                  five_point: bool = False,
                  tol: Tolerance | None = None) -> SphereReport:
    """Check that the edge intersection points of an orthosecting pair lie
    on one sphere (or plane) centered at the orthology-center midpoint: the
    carrier is the least-squares sphere (or plane) through the points.

    With ``five_point`` the pairing with the worst gap is dropped and only
    the five remaining intersection points are checked (five intersecting
    edge pairs suffice for co-sphericity).
    """
    tol = tol or pair_tolerance(a, b)
    measures = pair_measures(a, b, tol)
    try:
        centers = centers_from_residuals(a, b, measures[0], tol)
    except DegenerateError:   # a flat partner's centers are at infinity
        centers = None
    return sphere_from_measures(measures, centers, five_point, tol)


def sphere_from_measures(measures, centers: Optional[OrthologyReport], five_point: bool,
                         tol: Tolerance) -> SphereReport:
    """``verify_sphere`` on the pair's ``pair_measures`` at ``tol`` and its
    orthology ``centers``, which give the midpoint gap (None without
    them)."""
    pairings, feet = require_orthosecting(measures, tol, drop_worst_gap=five_point)
    carrier, _ = carrier_through(feet, tol)
    pts = dict(zip(pairings, feet))
    residuals = {p: carrier.signed_distance(q) / tol.scene_scale
                 for p, q in pts.items()}
    midpoint_gap = None
    if centers is not None:
        mid = 0.5 * (centers.center_a + centers.center_b)
        if carrier.kind == "sphere":
            midpoint_gap = float(np.linalg.norm(carrier.center - mid)) / tol.scene_scale
        else:
            midpoint_gap = abs(carrier.carrier.signed_distance(mid)) / tol.scene_scale
    return SphereReport(carrier=carrier, residuals=residuals,
                        midpoint_gap=midpoint_gap, points=pts)


def conjugate(a: Tetrahedron, b: Tetrahedron,
              tol: Tolerance | None = None) -> Tetrahedron:
    """The conjugate orthosecting partner of ``b`` with respect to ``a``.

    Isogonal conjugates share their pedal circle, which on each face of
    ``a`` is the section of the carrier sphere through the pair's six
    intersection points. So the conjugate meets each host edge line at the
    sphere's second point on it, and is rebuilt from those six points by
    ``pedal.partner_from_points``, each vertex on the normal line through
    its source. Applying the construction twice returns ``b``. A flat ``b``
    (plane carrier) has its conjugate at infinity and raises
    DegenerateError.
    """
    tol = tol or pair_tolerance(a, b)
    _, points = require_orthosecting(pair_measures(a, b, tol), tol)
    return conjugate_from_points(a, points, tol)[0]


def conjugate_from_points(a: Tetrahedron, points: np.ndarray, tol: Tolerance):
    """``conjugate`` from the pair's guarded intersection points (6, 3), as
    ``require_orthosecting`` returns them: the conjugate, the carrier of the
    points, and the ``pair_measures`` of (``a``, conjugate) that the
    reconstruction postcondition checked."""
    carrier, residual = carrier_through(points, tol)
    if residual > tol.eps_rel * tol.scene_scale:
        raise DegenerateError(f"intersection points deviate from a common sphere/plane "
                              f"by {residual:.3e} (> {tol.eps_rel * tol.scene_scale:.3e})")
    if carrier.kind == "plane":
        raise DegenerateError("flat partner: coplanar intersection points put the "
                              "conjugate at infinity")
    # the second point is the point reflected in the centre's foot on its
    # edge line; stepping along the edge from the point keeps its accuracy
    u = a.array[_I] - a.array[_J]
    d = u / np.sqrt(dot_rows(u, u))[:, None]
    c = Tetrahedron.of(partner_from_points(
        a, points - 2.0 * dot_rows(points - carrier.center, d)[:, None] * d))
    return c, carrier, _require_orthosection(pair_measures(a, c, tol))


@dataclass(frozen=True, eq=False)
class Polyline:
    """One connected arc of the traced curve. Vertices are 2-D face-frame
    coordinates; residuals are the |sixth-foot| values at the vertices and
    ts the common roots t of their chains (world units). ``branch`` is 0:
    the curve is traced as one field, and the field is kept so that saved
    reports keep their schema."""

    branch: int
    points: np.ndarray       # (n, 2)
    residuals: np.ndarray    # (n,)
    ts: np.ndarray           # (n,)

    @property
    def closed(self) -> bool:
        """A cycle, whose last vertex repeats its first."""
        return len(self.points) > 2 and bool(np.array_equal(self.points[0], self.points[-1]))

    @property
    def vertex_count(self) -> int:
        """Distinct vertices: a cycle's repeated first vertex counts once."""
        return len(self.points) - self.closed


@dataclass(frozen=True)
class TraceCounts:
    """Work done and discarded by one ``trace_curve`` call."""

    lattice_nodes: int        # grid * grid
    nan_nodes: int            # lattice values that are NaN: 0, unless the host has
                              # no F9 (parallel in-plane perpendiculars), then all
    bisection_rounds: int     # lockstep bisection rounds on the fitted series
    refine_evals: int         # bisection midpoints plus saddle-cell centres, all
                              # on the series
    crossings: int            # vertices kept
    rejected_crossings: int   # vertices dropped: two of their six feet within
                              # FEET_TOL, or |f| > VERTEX_TOL


@dataclass(frozen=True, eq=False)
class CurveTrace:
    """Marching-squares trace of the self-conjugate curve on a face plane.
    ``counts`` is set by ``trace_curve`` and absent on traces read back from
    a report."""

    face: int
    origin: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    polylines: Tuple[Polyline, ...]
    grid: int
    window: Tuple[float, float, float, float]
    residual_bound: float
    counts: Optional[TraceCounts] = None

    @property
    def vertex_count(self) -> int:
        return sum(p.vertex_count for p in self.polylines)


def face_frame(host: Tetrahedron, face: int):
    """The 2-D frame on the plane of the face opposite vertex ``face``:
    origin (the face centroid), axis u along the face's first edge and axis
    v in the plane, perpendicular to u, as three (3,) arrays."""
    if face not in (1, 2, 3, 4):
        raise ValueError("face index must be in 1..4")
    verts = host.array[FACE_VERTICES[face - 1]]
    axis_u = unit(verts[1] - verts[0])
    axis_v = cross_rows(host.faces[face - 1:face, :3], axis_u[None])[0]
    return np.mean(verts, axis=0), axis_u, axis_v


def frame_uv(frame, p) -> Tuple[float, float]:
    """Coordinates of the point ``p`` projected into a ``face_frame``."""
    origin, axis_u, axis_v = frame
    d = as_array(p) - origin
    return float(np.dot(d, axis_u)), float(np.dot(d, axis_v))


class _FaceFrame:
    """Permutes the host so the requested face is spanned by vertices 1,2,3
    and holds its ``face_frame`` and chain kernel."""

    def __init__(self, host: Tetrahedron, face: int, tol: Tolerance | None):
        self.origin, self.axis_u, self.axis_v = face_frame(host, face)
        self.tol = tol or Tolerance.for_points(host.array)
        others = [m for m in (1, 2, 3, 4) if m != face]
        self.kernel = ChainKernel(host.relabeled((*others, face)), self.tol)
        # frame coordinates to the kernel's local ones: origin and axes
        self._local = (self.kernel.to_local(self.origin), self.axis_u / self.kernel.scale,
                       self.axis_v / self.kernel.scale)

    def to_local(self, uv: np.ndarray) -> np.ndarray:
        """Kernel-local coordinates of (M, 2) frame points."""
        origin, axis_u, axis_v = self._local
        return origin + uv[:, :1] * axis_u + uv[:, 1:] * axis_v


def _chebyshev(x: np.ndarray, slopes: bool = False) -> np.ndarray:
    """T_0 .. T_NONIC at the points x (..., N), as (..., NONIC + 1, N); with
    ``slopes``, their derivatives k U_(k-1) from the same recurrence too,
    stacked on a new first axis after them. Every (NONIC + 1, N) block is
    contiguous, as matmul reads it."""
    t = np.empty(((2,) if slopes else ()) + x.shape[:-1] + (NONIC + 1, x.shape[-1]))
    t[..., 0, :], t[..., 1, :] = 1.0, x
    if slopes:   # U_(-1) = 0 and U_0 = 1 start the slopes' recurrence
        t[1, ..., 0, :], t[1, ..., 1, :] = 0.0, 1.0
    x2 = 2.0 * x
    for k in range(2, NONIC + 1):
        t[..., k, :] = x2 * t[..., k - 1, :] - t[..., k - 2, :]
    if slopes:
        t[1] *= np.arange(NONIC + 1)[:, None]
    return t


# the fit's point set (FIT_NODES ** 2, 2) and basis (terms, points): T_i(u) T_j(v)
# for i + j <= NONIC, multiplied in place (a full product table raises peak RSS)
_FIT_POINTS = np.stack(np.meshgrid(_FIT_NODES, _FIT_NODES, indexing="ij"), axis=-1).reshape(-1, 2)
_FIT_BASIS = _chebyshev(_FIT_POINTS.T)[0, np.nonzero(_TERMS)[0]]
_FIT_BASIS *= _chebyshev(_FIT_POINTS.T)[1, np.nonzero(_TERMS)[1]]


class _Chebyshev:
    """F9 over a window as a total-degree-NONIC Chebyshev series in the
    window's coordinates scaled to [-1, 1], coefficients ``coef[i, j]`` of
    T_i(u) T_j(v): least squares on a FIT_NODES x FIT_NODES Chebyshev point
    set from one kernel call, leaving out the samples where F is 0/0
    (|L23 N12 N13| below FIT_CUT of its largest value). All NaN where the
    kernel has no F."""

    def __init__(self, frame: _FaceFrame, window: Tuple[float, float, float, float]):
        self.frame = frame
        lo, hi = np.array(window[:2]), np.array(window[2:])
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        local = frame.to_local(self.mid + _FIT_POINTS * self.half)
        f, _, divisor = frame.kernel.nonic(local)
        divisor = np.abs(divisor)
        self.divisor_cut = FIT_CUT * divisor.max()
        keep = divisor >= self.divisor_cut
        f = f[keep]
        self.coef = np.full((NONIC + 1, NONIC + 1), np.nan)
        if np.isfinite(f).all():
            # the basis is nearly orthogonal on these points (condition number
            # 2 on the full set), so the normal equations lose nothing
            # the kept columns in C order: an F-ordered copy ([:, keep]) would
            # take the Gram product down another BLAS path, to other bits
            vander = _FIT_BASIS.compress(keep, axis=1).T
            self.coef[:] = 0.0
            self.coef[_TERMS] = np.linalg.solve(vander.T @ vander, vander.T @ f)

    def __call__(self, uv: np.ndarray) -> np.ndarray:
        t_u, t_v = _chebyshev(((uv - self.mid) / self.half).T)
        return ((self.coef @ t_v) * t_u).sum(axis=0)

    def value_and_gradient(self, uv: np.ndarray):
        """At (M, 2) frame points: F, or the series where F is 0/0 (the
        divisor below the fit's cut), and the series' gradient (M, 2)."""
        f, _, divisor = self.frame.kernel.nonic(self.frame.to_local(uv))
        near = np.abs(divisor) < self.divisor_cut
        (t_u, t_v), (d_u, d_v) = _chebyshev(((uv - self.mid) / self.half).T, slopes=True)
        rows = self.coef @ t_v
        grad = np.column_stack([(rows * d_u).sum(axis=0),
                                ((self.coef.T @ t_u) * d_v).sum(axis=0)]) / self.half
        return np.where(near, (rows * t_u).sum(axis=0), f), grad


def default_window(host: Tetrahedron, face: int) -> Tuple[float, float, float, float]:
    """Bounding box of the face triangle in frame coordinates, inflated
    WINDOW_INFLATE times about its center."""
    frame = face_frame(host, face)
    uv = np.array([frame_uv(frame, v) for v in host.array[FACE_VERTICES[face - 1]]])
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * WINDOW_INFLATE
    return (float(mid[0] - half[0]), float(mid[1] - half[1]),
            float(mid[0] + half[0]), float(mid[1] + half[1]))


# corner k of cell (iu, iv) is node (iu, iv) + _CORNERS[k]; edge k joins
# corners k and k + 1 (mod 4): edges 0 and 2 run along u, 1 and 3 along v
_CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


def _crossing_table(flips: np.ndarray, joins_0_3: np.ndarray):
    """Marching squares on the cell edges that change sign, ``flips``
    (grid - 1, grid - 1, 4): a cell joins its two in ascending order, a
    saddle (all four) 0-3 and 1-2 where ``joins_0_3`` holds (one per saddle,
    row-major), else 0-1 and 2-3. Returns the lattice edges by first use,
    rows iu1, iv1, iu2, iv2 (E, 4) oriented as first used, and the segments
    (M, 2) joining them, both in row-major cell order."""
    cells = np.argwhere(flips.any(axis=-1))
    flip = flips[cells[:, 0], cells[:, 1]]
    order = np.tile(np.arange(4), (len(cells), 1))   # each cell's edges, as it joins them
    order[np.flatnonzero(flip.all(axis=1))[joins_0_3]] = (0, 3, 1, 2)
    use, slot = np.nonzero(flip)
    k = order[use, slot]
    ends = (cells[use, None] + _CORNERS[np.column_stack([k, (k + 1) % 4])]).reshape(-1, 4)
    # an edge's key: its lower node and its direction
    key = np.minimum(ends[:, :2], ends[:, 2:]) @ (2 * len(flips) + 2, 2) + k % 2
    _, first, edge = np.unique(key, return_index=True, return_inverse=True)
    return ends[np.sort(first)], np.argsort(np.argsort(first))[edge].reshape(-1, 2)


def _link_segments(segments: List[List[int]]) -> List[List[int]]:
    """Chain segment index pairs into polylines. A crossing lies on one
    lattice edge, which at most two cells share, and a cell pairs each of
    its crossing edges once, so every index has one or two neighbours and
    the segments form disjoint paths and cycles. Open paths are walked from
    their end points in ascending order, then cycles from their smallest
    index toward its first-listed neighbour, each ending on its start."""
    nbrs: Dict[int, List[int]] = {}
    for s, t in segments:
        nbrs.setdefault(s, []).append(t)
        nbrs.setdefault(t, []).append(s)
    paths: List[List[int]] = []
    linked = set()
    for start in sorted(p for p, nb in nbrs.items() if len(nb) == 1) + sorted(nbrs):
        if start in linked:
            continue
        path = [start, nbrs[start][0]]
        while len(nbrs[path[-1]]) == 2 and path[-1] != start:
            a, b = nbrs[path[-1]]
            path.append(b if a == path[-2] else a)
        linked.update(path)
        paths.append(path)
    return paths


def trace_curve(host: Tetrahedron, face: int,
                window: Tuple[float, float, float, float] | None = None,
                grid: int = 64,
                tol: Tolerance | None = None) -> CurveTrace:
    """Trace the isogonally self-conjugate curve on a face plane: the zero
    set of the nonic F9 (``ChainKernel.nonic``), one continuous field.

    Fits F9 over the window as a Chebyshev series from one batched kernel
    call (``_Chebyshev``), evaluates the series on a ``grid`` x ``grid``
    lattice, extracts the sign-change cells, bisects all their crossings on
    the series in lockstep to REFINE_TOL times the scene scale, polishes
    each with NEWTON_STEPS Newton steps along the series' gradient on the
    true F (on the series next to the lines L23, N12, N13, where F is 0/0),
    and links the crossings into polylines. Each vertex carries the common
    root t of its chain (next to those lines, the validated root of Q whose
    sixth foot fits best) and the |residual| of its sixth foot against the
    carrier of the other five, both from one kernel pass at the polished
    crossings (``ChainKernel.curve_chain``); a vertex whose residual
    exceeds VERTEX_TOL, or two of whose six feet lie within FEET_TOL scene
    scales, is dropped and ends the polyline there. The window must have
    positive width and height (ValueError otherwise); an empty window
    yields an empty trace, not an error.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    if window is None:
        window = default_window(host, face)
    x0, y0, x1, y1 = (float(w) for w in window)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"window needs x1 > x0 and y1 > y0, got {(x0, y0, x1, y1)}")
    frame = _FaceFrame(host, face, tol)
    tol = frame.tol
    field = _Chebyshev(frame, (x0, y0, x1, y1))
    us, vs = np.linspace(x0, x1, grid), np.linspace(y0, y1, grid)
    nodes = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    f = field(nodes).reshape(grid, grid)
    level = ZERO_TOL * np.abs(f).max()

    # the cells' corner signs in _CORNERS order, the edges that flip, and
    # the sign at each saddle cell's centre, which picks the edges it joins
    corner = np.stack([f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]], axis=-1) > level
    flips = corner != np.roll(corner, -1, axis=-1)
    su, sv = np.nonzero(flips.all(axis=-1))
    centre = field(np.column_stack([0.5 * (us[su] + us[su + 1]),
                                    0.5 * (vs[sv] + vs[sv + 1])])) > level
    ends, segments = _crossing_table(flips, centre == corner[su, sv, 0])
    points, rounds, evals = _refine_crossings(field, us, vs, f, ends, level,
                                              REFINE_TOL * tol.scene_scale)
    points, residuals, ts, accepted = _polish(field, points)

    paths = _link_segments(segments[accepted[segments].all(axis=1)].tolist())
    polylines = tuple(Polyline(branch=0, points=points[p], residuals=residuals[p], ts=ts[p])
                      for p in paths)
    counts = TraceCounts(lattice_nodes=grid * grid,
                         nan_nodes=int(np.isnan(f).sum()),
                         bisection_rounds=rounds,
                         refine_evals=evals + len(su),
                         crossings=int(accepted.sum()),
                         rejected_crossings=int((~accepted).sum()))
    return CurveTrace(face=face, origin=frame.origin, axis_u=frame.axis_u,
                      axis_v=frame.axis_v, polylines=polylines,
                      grid=grid, window=(x0, y0, x1, y1),
                      residual_bound=max((float(p.residuals.max()) for p in polylines),
                                         default=0.0), counts=counts)


def _polish(field: _Chebyshev, points: np.ndarray):
    """The bisected crossings (E, 2) after NEWTON_STEPS Newton steps, with
    their |sixth-foot residuals|, their ts in world units and which of them
    are kept (see ``trace_curve``). A step makes one F9 call and one
    Chebyshev recurrence (``value_and_gradient``); the polished crossings
    take one co-sphericity pass and one sphere fit (``curve_chain``)."""
    kernel = field.frame.kernel
    if not len(points):
        return points, np.empty(0), np.empty(0), np.zeros(0, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            value, grad = field.value_and_gradient(points)
            points = points - (value / (grad * grad).sum(axis=1))[:, None] * grad
    t, sixth, gap = kernel.curve_chain(field.frame.to_local(points), field.divisor_cut)
    residuals = np.abs(sixth)
    return points, residuals, t * kernel.scale, (residuals <= VERTEX_TOL) & (gap > FEET_TOL)


def _refine_crossings(field: _Chebyshev, us, vs, f, ends: np.ndarray, level: float,
                      position_tol: float):
    """Bisect the lattice edges ``ends`` (rows iu1, iv1, iu2, iv2) across
    ``level`` on the series ``field`` in lockstep until every bracket is
    within ``position_tol``. Each edge runs along u or along v, where the series
    is a Chebyshev series in the one moving coordinate. Returns the end of
    each final bracket with the smaller |field| (E, 2), then the rounds and
    the midpoint evaluations made."""
    iu, iv = ends[:, 0::2], ends[:, 1::2]
    rows = np.arange(len(ends))
    along = (iv[:, 0] != iv[:, 1]).astype(int)   # the moving coordinate: 0 is u, 1 is v
    scaled = (np.stack([us[iu], vs[iv]], axis=-1) - field.mid) / field.half
    basis = _chebyshev(scaled[rows, 0, 1 - along])
    series = np.where(along == 0, field.coef @ basis, field.coef.T @ basis)
    # per bracket, the moving coordinate and f at its ends a and b
    x, fx = scaled[rows, :, along], f[iu, iv]
    rounds = 0
    while len(x) and (field.half[along] * np.abs(x[:, 1] - x[:, 0])).max() > position_tol:
        mid = 0.5 * (x[:, 0] + x[:, 1])
        f_mid = (series * _chebyshev(mid)).sum(axis=0)
        # the midpoint replaces the end whose f has its sign
        end = ((f_mid > level) != (fx[:, 0] > level)).astype(int)
        x[rows, end], fx[rows, end] = mid, f_mid
        rounds += 1
    # the end with the smaller |f|, end a on a tie
    scaled[rows, 0, along] = x[rows, (np.abs(fx[:, 0]) > np.abs(fx[:, 1])).astype(int)]
    return field.mid + scaled[:, 0] * field.half, rounds, rounds * len(ends)


@dataclass(frozen=True, eq=False)
class SequenceRun:
    """Repeated conjugation run: the tetrahedra, the first pair's carrier
    with the worst residual of every pair's intersection points against
    it, the orthology centers of every pair (k, 3) and those centers
    clustered (m, 3)."""

    tetrahedra: Tuple[Tetrahedron, ...]
    carrier: SphereOrPlane
    shared_max_residual: float
    centers: np.ndarray
    distinct_centers: np.ndarray
    truncated_at: Optional[int]
    truncation_reason: Optional[str]


def _cluster_points(points: np.ndarray, radius: float) -> np.ndarray:
    """The means (m, 3) of the rows of ``points`` grouped greedily: a row
    joins the first group whose running mean lies within ``radius``."""
    clusters: List[List[np.ndarray]] = []
    for p in points:
        for cl in clusters:
            if np.linalg.norm(np.mean(cl, axis=0) - p) <= radius:
                cl.append(p)
                break
        else:
            clusters.append([p])
    return np.array([np.mean(cl, axis=0) for cl in clusters])


def iterate_sequence(b0: Tetrahedron, b1: Tetrahedron, n: int,
                     tol: Tolerance | None = None) -> SequenceRun:
    """Iterate the conjugate construction: each new member is the conjugate
    of the previous-but-one with respect to the previous.

    Checks that every consecutive pair orthosects, and records the worst
    residual of all their intersection points against the first pair's
    carrier and the orthology centers of all pairs clustered at
    CLUSTER_RADIUS_FACTOR scene scales. Each pair is measured, guarded and
    centred once, as its second member is built: the first pair raises, and
    a GeometryError on a later pair truncates the run before that member."""
    tol = tol or pair_tolerance(b0, b1)
    seq: List[Tetrahedron] = [b0]
    feet: List[np.ndarray] = []
    centers: List[np.ndarray] = []
    truncated_at = reason = None
    for m in range(n):
        try:
            if m:
                # (seq[m], seq[m - 1]) measures as the pair before it with
                # every array reversed: its points are that pair's, reversed
                member, _, measures = conjugate_from_points(seq[m], feet[-1][::-1], tol)
            else:
                member, measures = b1, pair_measures(b0, b1, tol)
            points = require_orthosecting(measures, tol)[1]
            oc = centers_from_residuals(seq[m], member, measures[0], tol)
        except GeometryError as exc:
            if not m:
                raise
            truncated_at, reason = m + 1, str(exc)
            break
        seq.append(member)
        feet.append(points)
        centers.extend([oc.center_a, oc.center_b])
    carrier, _ = carrier_through(feet[0], tol)
    shared = max(abs(carrier.signed_distance(p)) / tol.scene_scale
                 for p in np.concatenate(feet))
    rows = np.array(centers)
    distinct = _cluster_points(rows, CLUSTER_RADIUS_FACTOR * tol.scene_scale)
    return SequenceRun(tetrahedra=tuple(seq), carrier=carrier, shared_max_residual=shared,
                       centers=rows, distinct_centers=distinct,
                       truncated_at=truncated_at, truncation_reason=reason)
