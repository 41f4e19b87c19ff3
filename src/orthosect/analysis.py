"""Verification-level operations: the common sphere of intersection points,
conjugate partners, the isogonally self-conjugate curve on a face plane,
and repeated-conjugation sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DegenerateError, GeometryError, NotOrthologicError
from .geom_core import Point, SphereOrPlane, Tolerance, unit
from .orthology import (
    Pairing,
    Tetrahedron,
    orthology_centers,
    pair_tolerance,
    require_orthosecting,
)
from .pedal import (
    ChainKernel,
    PedalChain,
    carrier_through,
    isogonal_conjugate,
    pedal_triangle,
    reconstruct_tetrahedron,
    spherical_chain,
)


@dataclass(frozen=True, eq=False)
class SphereReport:
    """Common quadric of the edge intersection points with per-point signed
    residuals (normalized) and the gap between the carrier center and the
    midpoint of the two orthology centers (None when a center is
    unavailable, e.g. for flat partners)."""

    carrier: SphereOrPlane
    residuals: Dict[Pairing, float]
    midpoint_gap: Optional[float]
    points: Dict[Pairing, Point]

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
    pairings, feet = require_orthosecting(a, b, tol, drop_worst_gap=five_point)
    carrier, _ = carrier_through(feet, tol)
    pts = {p: Point.of(q) for p, q in zip(pairings, feet)}
    residuals = {p: carrier.signed_distance(q) / tol.scene_scale
                 for p, q in pts.items()}
    midpoint_gap = None
    try:
        rep = orthology_centers(a, b, tol)
        mid = 0.5 * (rep.center_a.array + rep.center_b.array)
        if carrier.kind == "sphere":
            midpoint_gap = float(np.linalg.norm(carrier.center.array - mid)) / tol.scene_scale
        else:
            midpoint_gap = abs(carrier.carrier.signed_distance(mid)) / tol.scene_scale
    except (DegenerateError, NotOrthologicError):
        pass
    return SphereReport(carrier=carrier, residuals=residuals,
                        midpoint_gap=midpoint_gap, points=pts)


def conjugate(a: Tetrahedron, b: Tetrahedron,
              tol: Tolerance | None = None) -> Tetrahedron:
    """The conjugate orthosecting partner of ``b`` with respect to ``a``.

    Projects each vertex of ``b`` onto the corresponding face plane of
    ``a``, reflects it in its pedal-circle center (the isogonal conjugate),
    and rebuilds the partner determined by the resulting spherical chain.
    Applying the construction twice returns ``b``; both partners share the
    carrier sphere of their intersection points.
    """
    tol = tol or pair_tolerance(a, b)
    require_orthosecting(a, b, tol)
    faces = {i: tuple(a.vertex(m) for m in (1, 2, 3, 4) if m != i) for i in (1, 2, 3, 4)}
    face_indices = {i: [m for m in (1, 2, 3, 4) if m != i] for i in (1, 2, 3, 4)}
    sources = []
    for i in (1, 2, 3, 4):
        plane = a.face_plane(i)
        proj = b.vertex(i).array - plane.signed_distance(b.vertex(i)) * plane.normal
        conj = isogonal_conjugate(Point.of(proj), faces[i], tol)
        sources.append(conj)
    candidates: Dict[frozenset, List[Point]] = {}
    for i in (1, 2, 3, 4):
        tri = pedal_triangle(sources[i - 1], faces[i], tol)
        idx = face_indices[i]
        for (p, q), foot in zip(((0, 1), (0, 2), (1, 2)), tri.feet):
            candidates.setdefault(frozenset((idx[p], idx[q])), []).append(foot)
    feet: Dict[frozenset, Point] = {}
    spread = 0.0
    for key, cands in candidates.items():
        d = cands[0].distance_to(cands[1])
        spread = max(spread, d)
        if d > tol.eps_rel * tol.scene_scale:
            raise DegenerateError(
                f"conjugate chain feet disagree on edge {sorted(key)} by {d:.3e}")
        feet[key] = Point.of(0.5 * (cands[0].array + cands[1].array))
    chain = PedalChain(host=a, feet=feet, sources=tuple(sources),
                       closure_spread=spread)
    sc = spherical_chain(chain, tol)
    return reconstruct_tetrahedron(sc, tol)


@dataclass(frozen=True, eq=False)
class Polyline:
    """One connected arc of the traced curve for one sphericity branch.
    Vertices are 2-D face-frame coordinates; residuals are the |sixth-foot|
    values at the refined vertices and ts the sphericity parameters."""

    branch: int
    points: np.ndarray       # (n, 2)
    residuals: np.ndarray    # (n,)
    ts: np.ndarray           # (n,)


@dataclass(frozen=True)
class TraceCounts:
    """Work done and discarded by one ``trace_curve`` call."""

    lattice_nodes: int        # grid * grid
    nan_nodes: int            # (node, branch) lattice values without a root
    bisection_rounds: int     # lockstep refinement rounds, one kernel call each
    refine_evals: int         # bisection midpoints plus saddle-cell centres
    crossings: int            # refined crossings kept (|f| <= vertex_tol)
    rejected_crossings: int   # refined crossings dropped (|f| > vertex_tol): f jumps
                              # sign (sphere/plane switch, opposite plane normals,
                              # t jump) or a midpoint had no root


@dataclass(frozen=True, eq=False)
class CurveTrace:
    """Marching-squares trace of the self-conjugate curve on a face plane.
    ``counts`` is set by ``trace_curve`` and absent on traces read back from
    a report."""

    face: int
    origin: Point
    axis_u: np.ndarray
    axis_v: np.ndarray
    polylines: Tuple[Polyline, ...]
    grid: int
    window: Tuple[float, float, float, float]
    residual_bound: float
    counts: Optional[TraceCounts] = None

    def to_world(self, uv) -> Point:
        u, v = float(uv[0]), float(uv[1])
        return Point.of(self.origin.array + u * self.axis_u + v * self.axis_v)

    @property
    def vertex_count(self) -> int:
        return sum(len(p.points) for p in self.polylines)

    def iter_vertices(self):
        for poly in self.polylines:
            for idx in range(len(poly.points)):
                yield poly.branch, poly.points[idx], poly.residuals[idx], poly.ts[idx]


class _FaceFrame:
    """Permutes the host so the requested face is spanned by vertices 1,2,3
    and provides the 2-D in-plane coordinate frame."""

    def __init__(self, host: Tetrahedron, face: int, tol: Tolerance | None):
        if face not in (1, 2, 3, 4):
            raise ValueError("face index must be in 1..4")
        self.face = face
        others = [m for m in (1, 2, 3, 4) if m != face]
        self.permuted = host.relabeled((*others, face))
        self.tol = tol or Tolerance.for_points(host.vertices)
        verts = [host.vertex(m).array for m in others]
        self.origin = Point.of(np.mean(verts, axis=0))
        n = unit(np.cross(verts[1] - verts[0], verts[2] - verts[0]))
        self.axis_u = unit(verts[1] - verts[0])
        self.axis_v = np.cross(n, self.axis_u)
        self.kernel = ChainKernel(self.permuted, self.tol)

    def face_uv(self):
        """Face-vertex positions in frame coordinates."""
        out = []
        for m in range(3):
            d = self.permuted.vertex(m + 1).array - self.origin.array
            out.append((float(np.dot(d, self.axis_u)), float(np.dot(d, self.axis_v))))
        return out

    def branches(self, uv: np.ndarray):
        """Both sphericity branches at (M, 2) frame points as ``(t, f)``,
        each (M, 2): t in world units, f the scale-normalized sixth-foot
        residual, NaN where a point has no such root."""
        world = self.origin.array + uv[:, :1] * self.axis_u + uv[:, 1:] * self.axis_v
        t, f = self.kernel.sphericity_batch(self.kernel.to_local(world))
        return t * self.kernel.scale, f


def default_window(host: Tetrahedron, face: int,
                   inflate: float = 3.0) -> Tuple[float, float, float, float]:
    """Bounding box of the face triangle in frame coordinates, inflated
    about its center."""
    frame = _FaceFrame(host, face, None)
    uv = np.array(frame.face_uv())
    lo = uv.min(axis=0)
    hi = uv.max(axis=0)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * inflate
    return (float(mid[0] - half[0]), float(mid[1] - half[1]),
            float(mid[0] + half[0]), float(mid[1] + half[1]))


def _link_segments(segments: List[Tuple[int, int]]) -> List[List[int]]:
    """Chain segment index pairs into maximal paths (open ones first, then
    leftover cycles)."""
    adj: Dict[int, List[int]] = {}
    for s, t in segments:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, []).append(s)
    unused = {tuple(sorted(seg)) for seg in segments}
    paths = []

    def walk(start: int):
        path = [start]
        current = start
        while True:
            nxt = None
            for nb in adj.get(current, ()):
                key = tuple(sorted((current, nb)))
                if key in unused:
                    unused.discard(key)
                    nxt = nb
                    break
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path

    endpoints = sorted(p for p, nbs in adj.items() if len(nbs) == 1)
    for p in endpoints:
        if any(tuple(sorted((p, nb))) in unused for nb in adj[p]):
            paths.append(walk(p))
    remaining = sorted({p for seg in unused for p in seg})
    for p in remaining:
        if any(tuple(sorted((p, nb))) in unused for nb in adj[p]):
            paths.append(walk(p))
    return [p for p in paths if len(p) >= 2]


def trace_curve(host: Tetrahedron, face: int,
                window: Tuple[float, float, float, float] | None = None,
                grid: int = 64,
                tol: Tolerance | None = None,
                refine_tol: float = 1e-9,
                vertex_tol: float = 1e-6) -> CurveTrace:
    """Trace the isogonally self-conjugate curve on a face plane.

    Evaluates the sixth-foot sphericity residual on a ``grid`` x ``grid``
    lattice for both sphericity branches in one batched kernel call,
    extracts sign-change cells per branch, refines all crossings by
    bisection in lockstep (one batched call per round) to ``refine_tol``
    times the scene scale, and links the crossings into polylines. Lattice
    nodes where no real sphericity parameter exists are outside the real
    locus and skipped. Sign flips whose refined residual stays above
    ``vertex_tol`` are not curve points and terminate the polyline there:
    the sign of f jumps without passing through zero where the carrier
    switches between sphere and plane at the radius cut, between two plane
    fits with opposite normals, or where the branch's t jumps, and some
    brackets stop at a midpoint with no root. An empty window yields an
    empty trace, not an error.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    frame = _FaceFrame(host, face, tol)
    tol = frame.tol
    if window is None:
        window = default_window(host, face)
    x0, y0, x1, y1 = (float(w) for w in window)
    us = np.linspace(x0, x1, grid)
    vs = np.linspace(y0, y1, grid)
    nodes = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    tvals, fvals = (a.T.reshape(2, grid, grid) for a in frame.branches(nodes))

    # lattice edges with a sign change, numbered in order of first use; each
    # is refined from the end its first cell lists first
    edge_ids: Dict[Tuple, int] = {}
    ends: List[Tuple] = []

    def edge(branch, n1, n2) -> int:
        key = (branch, min(n1, n2), max(n1, n2))
        if key not in edge_ids:
            edge_ids[key] = len(ends)
            ends.append((branch, *n1, *n2))
        return edge_ids[key]

    # per branch, in cell order, the edge pairs marching squares joins
    segments: Tuple[List, List] = ([], [])
    centre_evals = 0
    for branch in range(2):
        f = fvals[branch]
        corner = np.stack([f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]], axis=-1)
        pos = corner > 0
        flips = pos != np.roll(pos, -1, axis=-1)   # edge e joins corners e, e+1
        marched = flips.any(axis=-1) & ~np.isnan(corner).any(axis=-1)
        centre_f = np.full(marched.shape, math.nan)
        su, sv = np.nonzero(marched & flips.all(axis=-1))
        if len(su):
            centres = np.column_stack([0.5 * (us[su] + us[su + 1]), 0.5 * (vs[sv] + vs[sv + 1])])
            centre_f[su, sv] = frame.branches(centres)[1][:, branch]
            centre_evals += len(su)
        for iu, iv in np.argwhere(marched).tolist():
            corners = [(iu, iv), (iu + 1, iv), (iu + 1, iv + 1), (iu, iv + 1)]
            e = [(corners[k], corners[(k + 1) % 4]) for k in np.flatnonzero(flips[iu, iv])]
            if len(e) == 2:
                pairs = [e]
            elif math.isnan(centre_f[iu, iv]):
                continue
            # saddle: connect crossings around corners matching the center
            elif (centre_f[iu, iv] > 0) == pos[iu, iv, 0]:
                pairs = [(e[0], e[3]), (e[1], e[2])]
            else:
                pairs = [(e[0], e[1]), (e[2], e[3])]
            segments[branch].extend((edge(branch, *ea), edge(branch, *eb))
                                    for ea, eb in pairs)
    points, residuals, ts, rounds, evals = _refine_crossings(
        frame, us, vs, fvals, tvals, np.array(ends, dtype=int).reshape(-1, 5),
        refine_tol * tol.scene_scale)
    accepted = residuals <= vertex_tol

    polylines: List[Polyline] = []
    bound = 0.0
    for branch in range(2):
        kept = [(a, b) for a, b in segments[branch] if accepted[a] and accepted[b]]
        for path in _link_segments(kept):
            polylines.append(Polyline(branch=branch, points=points[path],
                                      residuals=residuals[path], ts=ts[path]))
            bound = max(bound, float(residuals[path].max()))

    counts = TraceCounts(lattice_nodes=grid * grid,
                         nan_nodes=int(np.isnan(fvals).sum()),
                         bisection_rounds=rounds,
                         refine_evals=evals + centre_evals,
                         crossings=int(accepted.sum()),
                         rejected_crossings=int((~accepted).sum()))
    return CurveTrace(face=face, origin=frame.origin, axis_u=frame.axis_u,
                      axis_v=frame.axis_v, polylines=tuple(polylines),
                      grid=grid, window=(x0, y0, x1, y1), residual_bound=bound,
                      counts=counts)


def _refine_crossings(frame: _FaceFrame, us, vs, fvals, tvals, ends: np.ndarray,
                      position_tol: float):
    """Bisect the lattice edges ``ends`` (rows branch, iu1, iv1, iu2, iv2)
    in lockstep, each until its bracket is within ``position_tol`` or a
    midpoint has no root on its branch. Returns the end of each final
    bracket with the smaller |f| as (points (E, 2), |f| (E,), t (E,)),
    then the rounds and the midpoint evaluations made."""
    br, i1, j1, i2, j2 = ends.T
    pa = np.column_stack([us[i1], vs[j1]])
    pb = np.column_stack([us[i2], vs[j2]])
    fa, ta = fvals[br, i1, j1], tvals[br, i1, j1]
    fb, tb = fvals[br, i2, j2], tvals[br, i2, j2]
    active = np.linalg.norm(pb - pa, axis=1) > position_tol
    rounds = evals = 0
    while active.any():
        idx = np.flatnonzero(active)
        pm = 0.5 * (pa[idx] + pb[idx])
        tm, fm = (a[np.arange(len(idx)), br[idx]] for a in frame.branches(pm))
        rounds += 1
        evals += len(idx)
        hit = ~np.isnan(fm)
        active[idx[~hit]] = False
        idx, pm, fm, tm = idx[hit], pm[hit], fm[hit], tm[hit]
        left = (fm > 0) == (fa[idx] > 0)
        for side, (p, fv, tv) in ((left, (pa, fa, ta)), (~left, (pb, fb, tb))):
            p[idx[side]], fv[idx[side]], tv[idx[side]] = pm[side], fm[side], tm[side]
        active[idx] = np.linalg.norm(pb[idx] - pa[idx], axis=1) > position_tol
    take_a = np.abs(fa) <= np.abs(fb)
    return (np.where(take_a[:, None], pa, pb), np.where(take_a, np.abs(fa), np.abs(fb)),
            np.where(take_a, ta, tb), rounds, evals)


@dataclass(frozen=True, eq=False)
class DegreeEstimate:
    """Distribution of line-curve intersection counts over random probe
    lines; exploratory evidence for the curve's algebraic degree (real
    crossings only lower-bound it)."""

    counts: Dict[int, int]
    max_count: int
    lines: int
    tangency_flagged: int


def estimate_degree(trace: CurveTrace, trials: int = 200,
                    rng_seed: int = 0) -> DegreeEstimate:
    """Intersect random lines through the trace window with the traced
    polylines and histogram the crossing counts."""
    if not trace.polylines:
        raise ValueError("empty trace")
    rng = np.random.default_rng(rng_seed)
    x0, y0, x1, y1 = trace.window
    center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    half_diag = 0.5 * math.hypot(x1 - x0, y1 - y0)
    runs = [poly.points for poly in trace.polylines if len(poly.points)]
    points = np.concatenate(runs) if runs else np.empty((0, 2))
    # segment k joins points k and k + 1 unless a polyline ends at k
    joined = np.ones(max(len(points) - 1, 0), dtype=bool)
    joined[np.cumsum([len(run) for run in runs], dtype=int)[:-1] - 1] = False
    seg_len = np.linalg.norm(np.diff(points, axis=0), axis=1)[joined]
    tang_tol = float(np.median(seg_len)) * 0.05 if len(seg_len) else 1e-9
    # per line (theta, offset), drawn in that order line after line
    draws = rng.uniform((0.0, -1.4), (math.pi, 1.4), size=(trials, 2))
    normals = np.array([(math.cos(theta), math.sin(theta)) for theta in draws[:, 0]])
    offsets = normals[:, 0] * center[0] + normals[:, 1] * center[1] + draws[:, 1] * half_diag
    s = points[:, :1] * normals[:, 0] + points[:, 1:] * normals[:, 1] - offsets  # (points, lines)
    flagged = int((np.abs(s).min(axis=0, initial=math.inf) <= tang_tol).sum())
    crossings = ((s[:-1] > 0) != (s[1:] > 0)) & joined[:, None]
    counts = dict(Counter(crossings.sum(axis=0).tolist()))
    return DegreeEstimate(counts=counts, max_count=max(counts), lines=trials,
                          tangency_flagged=flagged)


@dataclass(frozen=True, eq=False)
class SequenceRun:
    """Repeated conjugation run: the tetrahedra, per-pair sphere reports,
    the first pair's carrier with the worst residual of every pair's
    intersection points against it, and the clustered orthology centers."""

    tetrahedra: Tuple[Tetrahedron, ...]
    reports: Tuple[SphereReport, ...]
    carrier: SphereOrPlane
    shared_max_residual: float
    centers: Tuple[Point, ...]
    distinct_centers: Tuple[Point, ...]
    truncated_at: Optional[int]
    truncation_reason: Optional[str]


def _cluster_points(points: List[Point], radius: float) -> List[Point]:
    clusters: List[List[np.ndarray]] = []
    for p in points:
        placed = False
        for cl in clusters:
            if np.linalg.norm(np.mean(cl, axis=0) - p.array) <= radius:
                cl.append(p.array)
                placed = True
                break
        if not placed:
            clusters.append([p.array])
    return [Point.of(np.mean(cl, axis=0)) for cl in clusters]


def iterate_sequence(b0: Tetrahedron, b1: Tetrahedron, n: int,
                     tol: Tolerance | None = None,
                     cluster_radius_factor: float = 1e-6) -> SequenceRun:
    """Iterate the conjugate construction: each new member is the conjugate
    of the previous-but-one with respect to the previous.

    Records a sphere report for every consecutive pair, the worst residual
    of all intersection points against the first pair's carrier, and the
    orthology centers of all pairs clustered at the given radius. A
    degeneracy mid-run truncates the sequence and reports the step."""
    tol = tol or pair_tolerance(b0, b1)
    require_orthosecting(b0, b1, tol)
    seq: List[Tetrahedron] = [b0, b1]
    truncated_at = None
    reason = None
    for m in range(1, n):
        try:
            seq.append(conjugate(seq[m], seq[m - 1], tol))
        except GeometryError as exc:
            truncated_at = m + 1
            reason = str(exc)
            break
    reports: List[SphereReport] = []
    centers: List[Point] = []
    for m in range(len(seq) - 1):
        rep = verify_sphere(seq[m], seq[m + 1], tol=tol)
        reports.append(rep)
        oc = orthology_centers(seq[m], seq[m + 1], tol)
        centers.extend([oc.center_a, oc.center_b])
    carrier = reports[0].carrier
    shared = 0.0
    for rep in reports:
        for p in rep.points.values():
            shared = max(shared, abs(carrier.signed_distance(p)) / tol.scene_scale)
    distinct = _cluster_points(centers, cluster_radius_factor * tol.scene_scale)
    return SequenceRun(tetrahedra=tuple(seq), reports=tuple(reports),
                       carrier=carrier, shared_max_residual=shared,
                       centers=tuple(centers), distinct_centers=tuple(distinct),
                       truncated_at=truncated_at, truncation_reason=reason)
