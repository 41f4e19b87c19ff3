"""Figure export: layered SVG for face-plane content (pedal diagrams and
curve traces), OBJ for 3D scenes (tetrahedron wireframes, labeled edge
intersection points, tessellated carrier spheres), and canonical JSON.

All output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import CurveTrace, Polyline, verify_sphere
from .errors import GeometryError, SceneError
from .geom_core import Point, circle_through, unit
from .orthology import require_orthosecting
from .pedal import chain_from_pair
from .scene import Scene, dumps_canonical, scene_to_dict


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

    def render(self, pad_factor: float = 0.05) -> str:
        if not self.xs:
            self.xs, self.ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(self.xs), max(self.xs)
        y0, y1 = min(self.ys), max(self.ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = span * pad_factor
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


def _frame_uv(origin: Point, axis_u, axis_v, p) -> Tuple[float, float]:
    d = (p.array if isinstance(p, Point) else np.asarray(p, float)) - origin.array
    return float(np.dot(d, axis_u)), float(np.dot(d, axis_v))


def trace_to_svg(trace: CurveTrace) -> str:
    """SVG of a curve trace; each polyline becomes one path whose vertex
    count equals the polyline's vertex count."""
    canvas = _SvgCanvas()
    x0, y0, x1, y1 = trace.window
    canvas.path("triangle", [(x0, y0), (x1, y0), (x1, y1), (x0, y1)], closed=True)
    for poly in trace.polylines:
        canvas.path("curve", [(float(u), float(v)) for u, v in poly.points])
    return canvas.render()


def _auto_pair(scene: Scene) -> Optional[Tuple[str, str]]:
    names = sorted(scene.tetrahedra)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            try:
                require_orthosecting(scene.tetrahedra[a], scene.tetrahedra[b])
                return a, b
            except GeometryError:
                continue
    return None


def scene_to_svg(scene: Scene, face: int,
                 pair: Optional[Tuple[str, str]] = None,
                 trace: Optional[CurveTrace] = None) -> str:
    """Pedal diagram of a scene on one face plane: host face triangle, the
    chain feet on that face, the source point, circumcircle and pedal
    circle, plus an optional curve-trace overlay."""
    if face not in (1, 2, 3, 4):
        raise SceneError("SVG export of a 3D scene needs a face index in 1..4")
    if not scene.tetrahedra:
        raise SceneError("scene has no tetrahedra to draw")
    if pair is None:
        pair = _auto_pair(scene)
    canvas = _SvgCanvas()
    if pair is not None:
        host = scene.tetrahedron(pair[0])
        guest = scene.tetrahedron(pair[1])
    else:
        host = scene.tetrahedra[sorted(scene.tetrahedra)[0]]
        guest = None
    face_indices = [m for m in (1, 2, 3, 4) if m != face]
    verts = [host.vertex(m) for m in face_indices]
    origin = Point.of(np.mean([v.array for v in verts], axis=0))
    normal = unit(np.cross(verts[1].array - verts[0].array,
                           verts[2].array - verts[0].array))
    axis_u = unit(verts[1].array - verts[0].array)
    axis_v = np.cross(normal, axis_u)
    uv = [_frame_uv(origin, axis_u, axis_v, v) for v in verts]
    canvas.path("triangle", uv, closed=True)
    circum = circle_through(*verts)
    canvas.circle("circles", _frame_uv(origin, axis_u, axis_v, circum.center),
                  circum.radius, cls="circumcircle")
    if guest is not None:
        chain = chain_from_pair(host, guest)
        feet = [chain.foot(face_indices[i], face_indices[j])
                for i, j in ((0, 1), (0, 2), (1, 2))]
        for foot in feet:
            canvas.dot("feet", _frame_uv(origin, axis_u, axis_v, foot), 0.0)
        source = chain.source(face)
        canvas.dot("sources", _frame_uv(origin, axis_u, axis_v, source), 0.0)
        pedal = circle_through(*feet)
        canvas.circle("circles", _frame_uv(origin, axis_u, axis_v, pedal.center),
                      pedal.radius, cls="pedal")
    if trace is not None:
        for poly in trace.polylines:
            canvas.path("curve", [(float(u), float(v)) for u, v in poly.points])
    return canvas.render()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

_TET_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class _ObjWriter:
    def __init__(self):
        self.lines: List[str] = ["# orthosect scene export"]
        self.vertex_count = 0

    def comment(self, text: str):
        self.lines.append(f"# {text}")

    def obj(self, name: str):
        self.lines.append(f"o {name}")

    def vertex(self, p) -> int:
        a = p.array if isinstance(p, Point) else np.asarray(p, float)
        self.lines.append(f"v {_f(a[0])} {_f(a[1])} {_f(a[2])}")
        self.vertex_count += 1
        return self.vertex_count

    def line(self, *idx: int):
        self.lines.append("l " + " ".join(str(i) for i in idx))

    def point(self, idx: int):
        self.lines.append(f"p {idx}")

    def face(self, *idx: int):
        self.lines.append("f " + " ".join(str(i) for i in idx))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sphere_mesh(writer: _ObjWriter, center: np.ndarray, radius: float, res: int):
    res = max(4, int(res))
    top = writer.vertex(center + np.array([0.0, 0.0, radius]))
    rows: List[List[int]] = []
    for i in range(1, res):
        phi = math.pi * i / res
        row = []
        for j in range(2 * res):
            theta = math.pi * j / res
            p = center + radius * np.array([
                math.sin(phi) * math.cos(theta),
                math.sin(phi) * math.sin(theta),
                math.cos(phi)])
            row.append(writer.vertex(p))
        rows.append(row)
    bottom = writer.vertex(center + np.array([0.0, 0.0, -radius]))
    n = 2 * res
    for j in range(n):
        writer.face(top, rows[0][j], rows[0][(j + 1) % n])
    for i in range(len(rows) - 1):
        for j in range(n):
            a, b = rows[i][j], rows[i][(j + 1) % n]
            c, d = rows[i + 1][(j + 1) % n], rows[i + 1][j]
            writer.face(a, b, c)
            writer.face(a, c, d)
    for j in range(n):
        writer.face(bottom, rows[-1][(j + 1) % n], rows[-1][j])


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
        idx = [writer.vertex(tet.vertex(m)) for m in (1, 2, 3, 4)]
        for i, j in _TET_EDGES:
            writer.line(idx[i - 1], idx[j - 1])
    names = sorted(scene.tetrahedra)
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a = scene.tetrahedra[a_name]
            b = scene.tetrahedra[b_name]
            try:
                report = verify_sphere(a, b)
            except GeometryError:
                continue
            writer.obj(f"vpoints_{a_name}_{b_name}")
            for ((p, q), _), point in sorted(report.points.items()):
                writer.comment(f"vpoint V{p}{q} {a_name} {b_name}")
                writer.point(writer.vertex(point))
            if report.carrier.kind == "sphere":
                writer.obj(f"sphere_{a_name}_{b_name}")
                _sphere_mesh(writer, report.carrier.center.array,
                             report.carrier.radius, sphere_res)
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
