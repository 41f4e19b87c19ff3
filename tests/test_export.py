"""SVG/OBJ/JSON export: structure, determinism, golden file."""

import json
from pathlib import Path

import numpy as np
import pytest

from orthosect.analysis import trace_curve
from orthosect.cli import main
from orthosect.errors import SceneError
from orthosect.export import (
    export_text,
    scene_to_obj,
    scene_to_svg,
    trace_from_dict,
    trace_to_dict,
    trace_to_svg,
)
from orthosect.geom_core import Tolerance
from orthosect.orthology import Tetrahedron
from orthosect.scene import Scene, load_scene, save_scene

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


@pytest.mark.parametrize("origin", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]], ids=["two", "four"])
def test_saved_trace_with_wrong_length_origin_is_scene_error(tmp_path, capsys, small_trace,
                                                             origin):
    """A saved curve report whose frame origin is not three numbers is
    rejected as a bad input (exit 2), not read as a point."""
    doc = {"results": trace_to_dict(small_trace)}
    doc["results"]["frame"]["origin"] = origin
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


def test_obj_sphere_resolution(demo_scene):
    coarse = scene_to_obj(demo_scene, sphere_res=6)
    fine = scene_to_obj(demo_scene, sphere_res=12)
    def faces(txt):
        return sum(1 for l in txt.splitlines() if l.startswith("f "))
    assert faces(fine) > 2 * faces(coarse)


def test_svg_requires_face(demo_scene):
    with pytest.raises(SceneError, match="face"):
        export_text(demo_scene, "svg")


def test_json_mirror(demo_scene, small_trace):
    scene_json = export_text(demo_scene, "json")
    assert json.loads(scene_json)["tetrahedra"].keys() == {"A", "B"}
    trace_json = export_text(small_trace, "json")
    doc = json.loads(trace_json)
    assert doc["vertex_count"] == small_trace.vertex_count


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
