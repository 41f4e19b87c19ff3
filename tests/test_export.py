"""SVG/OBJ/JSON export: structure, determinism, golden file."""

import json
from pathlib import Path

import numpy as np
import pytest

from orthosect.analysis import trace_curve
from orthosect.cli import main
from orthosect.errors import SceneError
from orthosect.export import (
    _sphere_mesh,
    _unit_sphere,
    scene_to_obj,
    scene_to_svg,
    trace_from_dict,
    trace_to_dict,
    trace_to_svg,
)
from orthosect.geom_core import Tolerance
from orthosect.orthology import Tetrahedron
from orthosect.scene import Scene, dumps_canonical, load_scene, save_scene, scene_to_dict

GOLDEN = Path(__file__).parent / "golden" / "demo_face4.svg"
GOLDEN_OBJ = Path(__file__).parent / "golden" / "demo_scene.obj"
DEMO_SCENE = Path(__file__).parent.parent / "scenes" / "demo.json"


@pytest.fixture(scope="module")
def demo_scene():
    return load_scene(DEMO_SCENE)


@pytest.fixture(scope="module")
def small_trace(demo_pair):
    a, b, tol = demo_pair
    return trace_curve(a, 4, grid=32, tol=tol)


def test_golden_svg_byte_identical(tmp_path):
    out = tmp_path / "demo.svg"
    code = main(["export", "--scene", str(DEMO_SCENE), "--format", "svg",
                 "--face", "4", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_obj_byte_identical(tmp_path):
    out = tmp_path / "demo.obj"
    code = main(["export", "--scene", str(DEMO_SCENE), "--format", "obj", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN_OBJ.read_bytes()


def test_svg_layers_present(demo_scene):
    text = scene_to_svg(demo_scene, face=4)
    for layer in ("triangle", "feet", "sources", "circles", "curve"):
        assert f'<g id="{layer}">' in text
    assert text.count("<circle") >= 6  # 3 feet + source + two circles


def test_trace_svg_vertex_count(small_trace):
    text = trace_to_svg(small_trace)
    coords = text.count("M ") + text.count("L ")
    window_rect = 4  # the window outline is one closed 4-point path
    assert coords - window_rect == sum(len(p.points) for p in small_trace.polylines)
    # the vertex count skips the repeated first vertex of each cycle
    closed = sum(p.closed for p in small_trace.polylines)
    assert closed and coords - window_rect == small_trace.vertex_count + closed


def test_trace_dict_roundtrip(small_trace):
    doc = trace_to_dict(small_trace)
    rebuilt = trace_from_dict(doc)
    assert rebuilt.vertex_count == small_trace.vertex_count
    assert rebuilt.window == small_trace.window
    assert len(rebuilt.polylines) == len(small_trace.polylines)
    svg1 = trace_to_svg(small_trace)
    svg2 = trace_to_svg(rebuilt)
    assert svg1 == svg2


@pytest.mark.parametrize("key,origin", [("origin", [0.0, 1.0]), ("origin", [0.0, 1.0, 2.0, 3.0]),
                                        ("axis_u", [1.0, 0.0])], ids=["two", "four", "axis-two"])
def test_saved_trace_with_wrong_length_origin_is_scene_error(tmp_path, capsys, small_trace,
                                                             key, origin):
    """A saved curve report whose frame origin or axis is not three numbers
    is rejected as a bad input (exit 2), not read as a vector."""
    doc = {"results": trace_to_dict(small_trace)}
    doc["results"]["frame"][key] = origin
    with pytest.raises(SceneError, match="not a curve trace"):
        trace_from_dict(doc["results"])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["export", "--scene", str(path), "--format", "svg",
                 "--out", str(tmp_path / "curve.svg")]) == 2
    assert "not a curve trace" in capsys.readouterr().err


def test_obj_needs_no_orthology_centers(demo_scene, orthology_center_calls):
    """The OBJ writes intersection points and carriers only."""
    assert "o sphere_A_B" in scene_to_obj(demo_scene)
    assert orthology_center_calls == []


def test_obj_structure(demo_scene):
    text = scene_to_obj(demo_scene, sphere_res=8)
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("o tet_")) == 2
    assert sum(1 for l in lines if l.startswith("l ")) == 12  # 6 edges x 2 tets
    vpoints = [l for l in lines if l.startswith("# vpoint ")]
    assert len(vpoints) == 6
    labels = {l.split()[2] for l in vpoints}
    assert labels == {"V12", "V13", "V14", "V23", "V24", "V34"}
    assert sum(1 for l in lines if l.startswith("p ")) == 6
    assert any(l.startswith("o sphere_") for l in lines)
    assert sum(1 for l in lines if l.startswith("f ")) > 50


def test_sphere_mesh_writes_every_coordinate_as_its_repr():
    """The vertex block is a per-vertex loop's "v %r %r %r" lines, with
    0.0 and -0.0 kept apart (a negative radius puts -0.0 beside 0.0), and
    the face block numbers the vertices from ``top``."""
    center = np.array([-0.0, 0.0, 1.5])
    lines = []
    assert _sphere_mesh(lines, 7, center, -1.0, 6) == 7 + len(_unit_sphere(6)[0]) - 1
    rows = (center - _unit_sphere(6)[0]).tolist()
    assert lines[0] == "\n".join("v %r %r %r" % tuple(row) for row in rows)
    assert lines[0].startswith("v -0.0 0.0 0.5\n")
    faces = _unit_sphere(6)[1] + 7
    assert lines[1] == "\n".join("f %d %d %d" % tuple(face) for face in faces.tolist())


def test_obj_sphere_resolution(demo_scene):
    coarse = scene_to_obj(demo_scene, sphere_res=6)
    fine = scene_to_obj(demo_scene, sphere_res=12)
    def faces(txt):
        return sum(1 for l in txt.splitlines() if l.startswith("f "))
    assert faces(fine) > 2 * faces(coarse)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Saved documents to export: the demo scene, curve reports of A's faces
    4 and 2 and of B's face 4, a verify report, and a JSON list."""
    work = tmp_path_factory.mktemp("saved")
    paths = {"scene": str(DEMO_SCENE), "list": str(work / "list.json")}
    Path(paths["list"]).write_text("[1, 2]")
    for key, argv in (("curve", ["curve", "--tet", "A", "--face", "4", "--grid", "16"]),
                      ("curve-face2", ["curve", "--tet", "A", "--face", "2", "--grid", "16"]),
                      ("curve-B", ["curve", "--tet", "B", "--face", "4", "--grid", "16"]),
                      ("report", ["verify", "--pair", "A,B"])):
        paths[key] = str(work / f"{key}.json")
        assert main([argv[0], "--scene", str(DEMO_SCENE), *argv[1:],
                     "--out", paths[key]]) == 0
    return paths


def _rendered(saved, source, fmt):
    """What the renderers make of a saved document, called directly."""
    doc = json.loads(Path(saved[source]).read_text())
    if source == "scene":
        scene = load_scene(DEMO_SCENE)
        return {"svg": lambda: scene_to_svg(scene, 4), "obj": lambda: scene_to_obj(scene),
                "json": lambda: dumps_canonical(scene_to_dict(scene))}[fmt]()
    if source == "curve":
        trace = trace_from_dict(doc["results"])
        return trace_to_svg(trace) if fmt == "svg" else dumps_canonical(trace_to_dict(trace))
    return dumps_canonical(doc)


@pytest.mark.parametrize("source,expected", [
    ("scene", {"svg-face": 0, "svg": 2, "obj": 0, "json": 0}),
    ("curve", {"svg-face": 2, "svg": 0, "obj": 2, "json": 0}),
    ("report", {"svg-face": 2, "svg": 2, "obj": 2, "json": 0}),
    ("list", {"svg-face": 2, "svg": 2, "obj": 2, "json": 2}),
], ids=["scene", "curve", "report", "list"])
@pytest.mark.parametrize("fmt", ["svg-face", "svg", "obj", "json"])
def test_export_dispatch(tmp_path, capsys, saved, source, expected, fmt):
    """export reads its input once and renders a scene as an SVG of a
    declared face, an OBJ or JSON, a saved curve report as SVG or JSON and
    any other report as JSON; every other input and format is exit 2 and
    writes nothing. What it writes is the renderer's text, byte for byte."""
    out = tmp_path / "exported"
    face = ["--face", "4"] if fmt == "svg-face" else []
    code = main(["export", "--scene", saved[source], "--format", fmt.split("-")[0],
                 *face, "--out", str(out)])
    capsys.readouterr()
    assert code == expected[fmt]
    if code == 0:
        assert out.read_text() == _rendered(saved, source, fmt.split("-")[0])
    else:
        assert not out.exists()


@pytest.mark.parametrize("trace", ["curve-face2", "curve-B"])
def test_overlay_of_another_frame_is_rejected(tmp_path, capsys, saved, trace):
    """A saved trace is drawn only over the face it was traced on, of the
    host the SVG draws: a trace of face 2, or of B's face 4, on the demo
    scene's face 4 (host A) is rejected input."""
    out = tmp_path / "fig.svg"
    code = main(["export", "--scene", saved["scene"], "--format", "svg", "--face", "4",
                 "--curve", saved[trace], "--out", str(out)])
    assert code == 2
    assert "curve trace" in capsys.readouterr().err
    assert not out.exists()


def test_overlay_on_its_own_face(tmp_path, capsys, saved):
    out = tmp_path / "fig.svg"
    assert main(["export", "--scene", saved["scene"], "--format", "svg", "--face", "4",
                 "--curve", saved["curve"], "--out", str(out)]) == 0
    capsys.readouterr()
    trace = trace_from_dict(json.loads(Path(saved["curve"]).read_text())["results"])
    assert out.read_text() == scene_to_svg(load_scene(DEMO_SCENE), 4, trace=trace)


@pytest.mark.parametrize("source,argv,served", [
    ("scene", ["--format", "obj", "--pair", "A,Z"], "SVG"),
    ("scene", ["--format", "obj", "--face", "4"], "SVG"),
    ("scene", ["--format", "json", "--curve", "curve"], "SVG"),
    ("curve", ["--format", "svg", "--face", "4"], "SVG"),
    ("curve", ["--format", "svg", "--pair", "A,B"], "SVG"),
    ("curve", ["--format", "json", "--curve", "curve"], "SVG"),
    ("scene", ["--format", "svg", "--face", "4", "--sphere-res", "8"], "OBJ"),
    ("scene", ["--format", "json", "--sphere-res", "8"], "OBJ"),
    ("curve", ["--format", "svg", "--sphere-res", "8"], "OBJ"),
], ids=["obj-pair", "obj-face", "json-curve", "trace-face", "trace-pair", "trace-json-curve",
        "svg-sphere-res", "json-sphere-res", "trace-sphere-res"])
def test_export_rejects_flags_it_would_ignore(tmp_path, capsys, saved, source, argv, served):
    """--face, --pair and --curve serve the SVG of a scene alone, and
    --sphere-res its OBJ: given with another export of a scene or with a
    saved trace they are rejected, not ignored."""
    argv = [saved.get(a, a) for a in argv]
    out = tmp_path / "exported"
    assert main(["export", "--scene", saved[source], *argv, "--out", str(out)]) == 2
    assert f"for the {served} export of a scene only" in capsys.readouterr().err
    assert not out.exists()


def test_export_deterministic(demo_scene):
    assert scene_to_obj(demo_scene) == scene_to_obj(demo_scene)
    assert scene_to_svg(demo_scene, face=2) == scene_to_svg(demo_scene, face=2)


def test_export_honours_scene_tolerance(tmp_path, demo_scene):
    """A pair that orthosects only within the scene's own tolerance is
    exported as one: verify passes it, the OBJ holds its intersection
    points and sphere, and the auto-paired SVG draws its three feet."""
    a, b = demo_scene.tetrahedron("A"), demo_scene.tetrahedron("B")
    moved = b.array.copy()
    moved[0, 0] += 2e-6 * Tolerance.for_points(np.vstack((a.array, b.array))).scene_scale
    path = tmp_path / "loose.json"
    save_scene(Scene(tetrahedra={"A": a, "B": Tetrahedron(moved)}, eps_rel=1e-4), path)
    report = tmp_path / "verify.json"
    main(["verify", "--scene", str(path), "--pair", "A,B", "--out", str(report)])
    passed = {v["name"]: v["passed"] for v in json.loads(report.read_text())["verdicts"]}
    assert passed["orthosecting"] and passed["cospherical"]
    obj, svg = tmp_path / "loose.obj", tmp_path / "loose.svg"
    assert main(["export", "--scene", str(path), "--format", "obj", "--out", str(obj)]) == 0
    assert main(["export", "--scene", str(path), "--format", "svg", "--face", "4",
                 "--out", str(svg)]) == 0
    text = obj.read_text()
    assert "o vpoints_A_B" in text and "o sphere_A_B" in text
    feet = svg.read_text().split('<g id="feet">')[1].split("</g>")[0]
    assert feet.count("<circle") == 3


def _layer(svg: str, name: str) -> str:
    return svg.split(f'<g id="{name}">')[1].split("</g>")[0]


def test_svg_of_flat_partner_leaves_out_collinear_pedal_circle(tmp_path, flat_pair):
    """A flat partner's three feet on faces 2-4 lie on the line where its
    plane meets the face plane: the SVG draws the triangle, circumcircle,
    feet and source of every face, and leaves out only those faces' pedal
    circles."""
    a, flat = flat_pair
    path = tmp_path / "flat.json"
    save_scene(Scene(tetrahedra={"A": a, "B": flat}), path)
    out = tmp_path / "flat.svg"
    for face in (1, 2, 3, 4):
        assert main(["export", "--scene", str(path), "--format", "svg", "--face", str(face),
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert _layer(svg, "feet").count("<circle") == 3
        assert _layer(svg, "sources").count("<circle") == 1
        assert 'class="circumcircle"' in _layer(svg, "circles")
        assert ('class="pedal"' in svg) == (face == 1)
