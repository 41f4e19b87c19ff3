"""Figure export: layered SVG for face-plane content (pedal diagrams and
curve traces), OBJ for 3D scenes (tetrahedron wireframes, labeled edge
intersection points, tessellated carrier spheres), and canonical JSON.

All output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import CurveTrace, Polyline, face_frame, frame_uv
from .errors import GeometryError, SceneError
from .geom_core import Point, as_array, carrier_through, circle_through
from .orthology import EDGE_PAIRINGS, FACE_VERTICES, pair_measures, require_orthosecting
from .scene import Scene, dumps_canonical, scene_to_dict


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
            "origin": [trace.origin.x, trace.origin.y, trace.origin.z],
            "axis_u": [float(c) for c in trace.axis_u],
            "axis_v": [float(c) for c in trace.axis_v],
        },
        "residual_bound": trace.residual_bound,
        "vertex_count": trace.vertex_count,
        "polylines": [
            {
                "branch": poly.branch,
                "points": [[float(u), float(v)] for u, v in poly.points],
                "residuals": [float(r) for r in poly.residuals],
                "ts": [float(t) for t in poly.ts],
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
                          origin=Point.of(frame["origin"]),
                          axis_u=np.asarray(frame["axis_u"], dtype=float),
                          axis_v=np.asarray(frame["axis_v"], dtype=float),
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

    def path(self, layer: str, points: Sequence[Tuple[float, float]],
             closed: bool = False, cls: str = ""):
        cmds = []
        for idx, (u, v) in enumerate(points):
            self._track(u, v)
            cmds.append(f"{'M' if idx == 0 else 'L'} {_f(u)} {_f(-v)}")
        if closed:
            cmds.append("Z")
        attr = f' class="{cls}"' if cls else ""
        self.layers[layer].append(f'<path{attr} d="{" ".join(cmds)}"/>')

    def circle(self, layer: str, center: Tuple[float, float], radius: float,
               cls: str = "", track: bool = True):
        u, v = center
        if track:
            self._track(u - radius, v - radius)
            self._track(u + radius, v + radius)
        attr = f' class="{cls}"' if cls else ""
        self.layers[layer].append(
            f'<circle{attr} cx="{_f(u)}" cy="{_f(-v)}" r="{_f(radius)}"/>')

    def dot(self, layer: str, center: Tuple[float, float], radius: float, cls: str = ""):
        self.circle(layer, center, radius, cls=cls, track=False)
        self._track(*center)

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
    for poly in trace.polylines:
        canvas.path("curve", [(float(u), float(v)) for u, v in poly.points])
    return canvas.render()


def _auto_pair(scene: Scene):
    """The first orthosecting pair of the scene, by sorted names, and its
    ``pair_measures``; (None, None) when no pair orthosects."""
    names = sorted(scene.tetrahedra)
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a, b = scene.tetrahedra[a_name], scene.tetrahedra[b_name]
            try:
                tol = scene.tolerance(np.vstack((a.array, b.array)))
                measures = pair_measures(a, b, tol)
                require_orthosecting(measures, tol)
                return (a_name, b_name), measures
            except GeometryError:
                continue
    return None, None


def scene_to_svg(scene: Scene, face: int,
                 pair: Optional[Tuple[str, str]] = None,
                 trace: Optional[CurveTrace] = None) -> str:
    """Pedal diagram of a scene on one face plane: host face triangle, the
    pair's intersection points on the face's edges (the pedal feet), the
    source (the partner's vertex opposite the face projected onto its
    plane), circumcircle and pedal circle, plus an optional curve-trace
    overlay. The feet come from the pair's one ``pair_measures``."""
    if face not in (1, 2, 3, 4):
        raise SceneError("SVG export of a 3D scene needs a face index in 1..4")
    if not scene.tetrahedra:
        raise SceneError("scene has no tetrahedra to draw")
    measures = None
    if pair is None:
        pair, measures = _auto_pair(scene)
    canvas = _SvgCanvas()
    if pair is not None:
        host = scene.tetrahedron(pair[0])
        guest = scene.tetrahedron(pair[1])
    else:
        host = scene.tetrahedra[sorted(scene.tetrahedra)[0]]
        guest = None
    verts = host.array[FACE_VERTICES[face - 1]]
    frame = face_frame(host, face)
    canvas.path("triangle", [frame_uv(frame, v) for v in verts], closed=True)
    circum = circle_through(*verts)
    canvas.circle("circles", frame_uv(frame, circum.center), circum.radius,
                  cls="circumcircle")
    if guest is not None:
        if measures is None:
            measures = pair_measures(host, guest,
                                     scene.tolerance(np.vstack((host.array, guest.array))))
        # the host edges not through vertex ``face``: the face's three edges
        feet = measures[2][[r for r, (ij, _) in enumerate(EDGE_PAIRINGS) if face not in ij]]
        for foot in feet:
            canvas.dot("feet", frame_uv(frame, foot), 0.0)
        normal, offset = host.faces[face - 1, :3], host.faces[face - 1, 3]
        source = guest.array[face - 1]
        source = source - (np.dot(normal, source) - offset) * normal
        canvas.dot("sources", frame_uv(frame, source), 0.0)
        pedal = circle_through(*feet)
        canvas.circle("circles", frame_uv(frame, pedal.center), pedal.radius, cls="pedal")
    if trace is not None:
        for poly in trace.polylines:
            canvas.path("curve", [(float(u), float(v)) for u, v in poly.points])
    return canvas.render()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

class _ObjWriter:
    def __init__(self):
        self.lines: List[str] = ["# orthosect scene export"]
        self.vertex_count = 0

    def comment(self, text: str):
        self.lines.append(f"# {text}")

    def obj(self, name: str):
        self.lines.append(f"o {name}")

    def vertices(self, rows: np.ndarray) -> int:
        """Write the rows of an (n, 3) array; returns the first one's index."""
        self.lines.extend(f"v {x!r} {y!r} {z!r}" for x, y, z in rows.tolist())
        self.vertex_count += len(rows)
        return self.vertex_count - len(rows) + 1

    def vertex(self, p) -> int:
        return self.vertices(as_array(p)[None])

    def line(self, *idx: int):
        self.lines.append("l " + " ".join(str(i) for i in idx))

    def point(self, idx: int):
        self.lines.append(f"p {idx}")

    def faces(self, idx: np.ndarray):
        self.lines.extend("f %d %d %d" % tuple(f) for f in idx.tolist())

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sphere_mesh(writer: _ObjWriter, center: np.ndarray, radius: float, res: int):
    res = max(4, int(res))
    n = 2 * res
    # unit directions: the north pole, res - 1 rings of n at polar angle phi,
    # the south pole; the trig stays in math, whose rounding the mesh keeps
    rings = [(math.sin(phi) * math.cos(math.pi * j / res),
              math.sin(phi) * math.sin(math.pi * j / res), math.cos(phi))
             for phi in (math.pi * i / res for i in range(1, res)) for j in range(n)]
    units = np.array([(0.0, 0.0, 1.0)] + rings + [(0.0, 0.0, -1.0)])
    top = writer.vertices(center + radius * units)
    bottom = top + 1 + (res - 1) * n
    # ring k's vertex j is ring[k] + j; the seam wraps j + 1 to 0
    ring = top + 1 + n * np.arange(res - 1)[:, None]
    j, j1 = np.arange(n), (np.arange(n) + 1) % n
    writer.faces(np.stack((np.full(n, top), ring[0] + j, ring[0] + j1), axis=1))
    a, b, c, d = ring[:-1] + j, ring[:-1] + j1, ring[1:] + j1, ring[1:] + j
    writer.faces(np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3))
    writer.faces(np.stack((np.full(n, bottom), ring[-1] + j1, ring[-1] + j), axis=1))


def scene_to_obj(scene: Scene, sphere_res: int = 16) -> str:
    """OBJ rendering: every tetrahedron as a wireframe of line elements;
    for every orthosecting pair, six labeled intersection points and the
    tessellated carrier sphere."""
    if not scene.tetrahedra:
        raise SceneError("scene has no tetrahedra to export")
    writer = _ObjWriter()
    for name in sorted(scene.tetrahedra):
        tet = scene.tetrahedra[name]
        writer.obj(f"tet_{name}")
        first = writer.vertices(tet.array)
        for (i, j), _ in EDGE_PAIRINGS:
            writer.line(first + i - 1, first + j - 1)
    names = sorted(scene.tetrahedra)
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a = scene.tetrahedra[a_name]
            b = scene.tetrahedra[b_name]
            tol = scene.tolerance(np.vstack((a.array, b.array)))
            try:
                pairings, points = require_orthosecting(pair_measures(a, b, tol), tol)
                carrier, _ = carrier_through(points, tol)
            except GeometryError:
                continue
            writer.obj(f"vpoints_{a_name}_{b_name}")
            for ((p, q), _), point in sorted(zip(pairings, points.tolist())):
                writer.comment(f"vpoint V{p}{q} {a_name} {b_name}")
                writer.point(writer.vertex(point))
            if carrier.kind == "sphere":
                writer.obj(f"sphere_{a_name}_{b_name}")
                _sphere_mesh(writer, carrier.center.array, carrier.radius, sphere_res)
    return writer.render()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def export_text(obj, fmt: str, face: Optional[int] = None,
                pair: Optional[Tuple[str, str]] = None,
                trace: Optional[CurveTrace] = None,
                sphere_res: int = 16) -> str:
    """Render a Scene, CurveTrace or report dict to svg/obj/json text."""
    if fmt == "json":
        if isinstance(obj, Scene):
            return dumps_canonical(scene_to_dict(obj))
        if isinstance(obj, CurveTrace):
            return dumps_canonical(trace_to_dict(obj))
        if isinstance(obj, dict):
            return dumps_canonical(obj)
        raise SceneError(f"cannot export {type(obj).__name__} as json")
    if fmt == "svg":
        if isinstance(obj, CurveTrace):
            return trace_to_svg(obj)
        if isinstance(obj, Scene):
            if face is None:
                raise SceneError(
                    "SVG export of a 3D scene requires a declared face (--face)")
            return scene_to_svg(obj, face, pair=pair, trace=trace)
        raise SceneError(f"cannot export {type(obj).__name__} as svg")
    if fmt == "obj":
        if isinstance(obj, Scene):
            return scene_to_obj(obj, sphere_res=sphere_res)
        raise SceneError(f"cannot export {type(obj).__name__} as obj")
    raise SceneError(f"unknown export format {fmt!r}")
