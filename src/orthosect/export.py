"""Figure export: layered SVG for face-plane content (pedal diagrams and
curve traces) and OBJ for 3D scenes (tetrahedron wireframes, labeled edge
intersection points, tessellated carrier spheres); the CLI writes JSON
exports with ``dumps_canonical``.

All output is deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import CurveTrace, Polyline, face_frame, frame_uv
from .errors import DegenerateError, GeometryError, SceneError
from .geom_core import as_array, carrier_through, circle_through
from .orthology import EDGE_PAIRINGS, FACE_VERTICES, pair_measures, require_orthosecting
from .scene import Scene


# the SVG view box extends past the drawing by this share of its span
SVG_PAD_FACTOR = 0.05


def _f(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# curve trace <-> dict (report payload)
# ---------------------------------------------------------------------------


def trace_to_dict(trace: CurveTrace) -> dict:
    return {
        "face": trace.face,
        "grid": trace.grid,
        "window": list(trace.window),
        "frame": {
            "origin": trace.origin.tolist(),
            "axis_u": trace.axis_u.tolist(),
            "axis_v": trace.axis_v.tolist(),
        },
        "residual_bound": trace.residual_bound,
        "vertex_count": trace.vertex_count,
        "polylines": [
            {
                "branch": poly.branch,
                "points": poly.points.tolist(),
                "residuals": poly.residuals.tolist(),
                "ts": poly.ts.tolist(),
            }
            for poly in trace.polylines
        ],
    }


def trace_from_dict(doc: dict) -> CurveTrace:
    try:
        frame = doc["frame"]
        polylines = tuple(
            Polyline(branch=int(p["branch"]),
                     points=np.array(p["points"], dtype=float).reshape(-1, 2),
                     residuals=np.array(p["residuals"], dtype=float),
                     ts=np.array(p["ts"], dtype=float))
            for p in doc["polylines"])
        return CurveTrace(face=int(doc["face"]),
                          origin=as_array(frame["origin"]),
                          axis_u=as_array(frame["axis_u"]),
                          axis_v=as_array(frame["axis_v"]),
                          polylines=polylines,
                          grid=int(doc["grid"]),
                          window=tuple(float(w) for w in doc["window"]),
                          residual_bound=float(doc["residual_bound"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"not a curve trace document: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


class _SvgCanvas:
    """Collects layered elements in math coordinates (y up) and renders a
    fixed-layer SVG document."""

    LAYERS = ("triangle", "feet", "sources", "circles", "curve")

    def __init__(self):
        self.layers: Dict[str, List[str]] = {name: [] for name in self.LAYERS}
        self.xs: List[float] = []
        self.ys: List[float] = []

    def _track(self, u, v):
        self.xs.append(float(u))
        self.ys.append(float(v))

    def path(self, layer: str, points: Sequence[Tuple[float, float]], closed: bool = False):
        cmds = []
        for idx, (u, v) in enumerate(points):
            self._track(u, v)
            cmds.append(f"{'M' if idx == 0 else 'L'} {_f(u)} {_f(-v)}")
        if closed:
            cmds.append("Z")
        self.layers[layer].append(f'<path d="{" ".join(cmds)}"/>')

    def curve(self, trace: CurveTrace):
        for poly in trace.polylines:
            self.path("curve", poly.points.tolist())

    def circle(self, center: Tuple[float, float], radius: float, cls: str):
        u, v = center
        self._track(u - radius, v - radius)
        self._track(u + radius, v + radius)
        self.layers["circles"].append(
            f'<circle class="{cls}" cx="{_f(u)}" cy="{_f(-v)}" r="{_f(radius)}"/>')

    def dot(self, layer: str, center: Tuple[float, float]):
        """A point marker; the layer's style sets its radius."""
        u, v = center
        self._track(u, v)
        self.layers[layer].append(f'<circle cx="{_f(u)}" cy="{_f(-v)}" r="0.0"/>')

    def render(self) -> str:
        if not self.xs:
            self.xs, self.ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(self.xs), max(self.xs)
        y0, y1 = min(self.ys), max(self.ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = span * SVG_PAD_FACTOR
        vb = (x0 - pad, -(y1 + pad), (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
        stroke = span / 400.0
        dot = span / 150.0
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(vb[0])} {_f(vb[1])} '
            f'{_f(vb[2])} {_f(vb[3])}" width="800" height="800">',
            "<style>",
            f"path {{ fill: none; stroke-width: {_f(stroke)}; }}",
            f"circle {{ fill: none; stroke-width: {_f(stroke)}; }}",
            "#triangle path { stroke: #202020; }",
            f"#feet circle {{ fill: #c03020; stroke: none; r: {_f(dot)}; }}",
            f"#sources circle {{ fill: #2050c0; stroke: none; r: {_f(dot)}; }}",
            "#circles circle { stroke: #208040; }",
            "#curve path { stroke: #8020a0; }",
            "</style>",
        ]
        for name in self.LAYERS:
            out.append(f'<g id="{name}">')
            out.extend(self.layers[name])
            out.append("</g>")
        out.append("</svg>")
        return "\n".join(out) + "\n"


def trace_to_svg(trace: CurveTrace) -> str:
    """SVG of a curve trace; each polyline becomes one path through all
    its points (a cycle's path ends on its first vertex again)."""
    canvas = _SvgCanvas()
    x0, y0, x1, y1 = trace.window
    canvas.path("triangle", [(x0, y0), (x1, y0), (x1, y1), (x0, y1)], closed=True)
    canvas.curve(trace)
    return canvas.render()


def _orthosecting_pairs(scene: Scene):
    """Each orthosecting pair of the scene, by sorted names: its names, its
    ``pair_measures``, the guarded pairings and intersection points, and
    its tolerance. Lazy, so a caller that stops early measures no more."""
    names = sorted(scene.tetrahedra)
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a, b = scene.tetrahedra[a_name], scene.tetrahedra[b_name]
            tol = scene.tolerance(np.vstack((a.array, b.array)))
            try:
                measures = pair_measures(a, b, tol)
                guarded = require_orthosecting(measures, tol)
            except GeometryError:
                continue
            yield (a_name, b_name), measures, guarded, tol


def scene_to_svg(scene: Scene, face: int,
                 pair: Optional[Tuple[str, str]] = None,
                 trace: Optional[CurveTrace] = None) -> str:
    """Pedal diagram of a scene on one face plane: host face triangle, the
    pair's intersection points on the face's edges (the pedal feet), the
    source (the partner's vertex opposite the face projected onto its
    plane), circumcircle and pedal circle, plus an optional curve-trace
    overlay. The feet come from the pair's one ``pair_measures``; a flat
    partner's feet on a face can be collinear, and then the pedal circle
    alone is left out."""
    if face not in (1, 2, 3, 4):
        raise SceneError("SVG export of a 3D scene needs a face index in 1..4")
    if not scene.tetrahedra:
        raise SceneError("scene has no tetrahedra to draw")
    measures = None
    if pair is None:
        pair, measures, _, _ = next(_orthosecting_pairs(scene), (None,) * 4)
    host_name = pair[0] if pair else min(scene.tetrahedra)
    host = scene.tetrahedron(host_name)
    guest = scene.tetrahedron(pair[1]) if pair else None
    verts = host.array[FACE_VERTICES[face - 1]]
    frame = face_frame(host, face)
    if trace is not None:
        # the overlay's frame coordinates mean something only in this frame
        if trace.face != face:
            raise SceneError(f"the curve trace is of face {trace.face}, not face {face}")
        tol = scene.tolerance(host.array)
        gap = np.abs(np.concatenate(((trace.origin - frame[0]) / tol.scene_scale,
                                     trace.axis_u - frame[1], trace.axis_v - frame[2]))).max()
        if not gap <= tol.eps_rel:
            raise SceneError(f"the curve trace's frame is not that of face {face} of {host_name}")
    canvas = _SvgCanvas()
    canvas.path("triangle", [frame_uv(frame, v) for v in verts], closed=True)
    circum = circle_through(*verts)
    canvas.circle(frame_uv(frame, circum.center), circum.radius, "circumcircle")
    if guest is not None:
        if measures is None:
            measures = pair_measures(host, guest,
                                     scene.tolerance(np.vstack((host.array, guest.array))))
        # the host edges not through vertex ``face``: the face's three edges
        feet = measures[2][[r for r, (ij, _) in enumerate(EDGE_PAIRINGS) if face not in ij]]
        for foot in feet:
            canvas.dot("feet", frame_uv(frame, foot))
        normal, offset = host.faces[face - 1, :3], host.faces[face - 1, 3]
        source = guest.array[face - 1]
        source = source - (np.dot(normal, source) - offset) * normal
        canvas.dot("sources", frame_uv(frame, source))
        try:
            pedal = circle_through(*feet)
        except DegenerateError:
            pass
        else:
            canvas.circle(frame_uv(frame, pedal.center), pedal.radius, "pedal")
    if trace is not None:
        canvas.curve(trace)
    return canvas.render()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

def _vertex_lines(rows) -> List[str]:
    return ["v %r %r %r" % tuple(row) for row in rows]


@functools.lru_cache(maxsize=8)
def _unit_sphere(res: int):
    """The sphere mesh of resolution ``res`` about the origin: its unit
    directions (V, 3) and faces (F, 3) numbered from 0, read-only, and the
    %-formats of its vertex block and its face block."""
    n = 2 * res
    # the north pole, res - 1 rings of n at polar angle phi, the south pole;
    # the trig stays in math, whose rounding the mesh keeps
    rings = [(math.sin(phi) * math.cos(math.pi * j / res),
              math.sin(phi) * math.sin(math.pi * j / res), math.cos(phi))
             for phi in (math.pi * i / res for i in range(1, res)) for j in range(n)]
    units = np.array([(0.0, 0.0, 1.0)] + rings + [(0.0, 0.0, -1.0)])
    bottom = len(units) - 1
    # ring k's vertex j is ring[k] + j; the seam wraps j + 1 to 0
    ring = 1 + n * np.arange(res - 1)[:, None]
    j, j1 = np.arange(n), (np.arange(n) + 1) % n
    a, b, c, d = ring[:-1] + j, ring[:-1] + j1, ring[1:] + j1, ring[1:] + j
    faces = np.concatenate((np.stack((np.zeros(n, int), ring[0] + j, ring[0] + j1), axis=1),
                            np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3),
                            np.stack((np.full(n, bottom), ring[-1] + j1, ring[-1] + j), axis=1)))
    units.setflags(write=False)
    faces.setflags(write=False)
    return (units, faces, "\n".join(["v %r %r %r"] * len(units)),
            "\n".join(["f %d %d %d"] * len(faces)))


def _sphere_mesh(lines: List[str], top: int, center: np.ndarray, radius: float,
                 res: int) -> int:
    """Append a sphere mesh to ``lines`` as two blocks of lines, its
    vertices numbered from ``top``; returns the number of its last
    vertex."""
    units, faces, vertex_format, face_format = _unit_sphere(max(4, int(res)))
    lines.append(vertex_format % tuple((center + radius * units).ravel().tolist()))
    lines.append(face_format % tuple((faces + top).ravel().tolist()))
    return top + len(units) - 1


def scene_to_obj(scene: Scene, sphere_res: int = 16) -> str:
    """OBJ rendering: every tetrahedron as a wireframe of line elements;
    for every orthosecting pair, six labeled intersection points and the
    tessellated carrier sphere."""
    if not scene.tetrahedra:
        raise SceneError("scene has no tetrahedra to export")
    lines = ["# orthosect scene export"]
    count = 0   # vertices written so far; OBJ numbers them from 1
    for name in sorted(scene.tetrahedra):
        lines.append(f"o tet_{name}")
        lines.extend(_vertex_lines(scene.tetrahedra[name].array.tolist()))
        lines.extend(f"l {count + i} {count + j}" for (i, j), _ in EDGE_PAIRINGS)
        count += 4
    for (a_name, b_name), _, (pairings, points), tol in _orthosecting_pairs(scene):
        carrier, _ = carrier_through(points, tol)
        lines.append(f"o vpoints_{a_name}_{b_name}")
        for ((p, q), _), point in sorted(zip(pairings, points.tolist())):
            count += 1
            lines += [f"# vpoint V{p}{q} {a_name} {b_name}", *_vertex_lines([point]),
                      f"p {count}"]
        if carrier.kind == "sphere":
            lines.append(f"o sphere_{a_name}_{b_name}")
            count = _sphere_mesh(lines, count + 1, carrier.center, carrier.radius, sphere_res)
    return "\n".join(lines) + "\n"
