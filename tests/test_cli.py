"""CLI behavior: exit codes, report shape, determinism, tolerance overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthosect import analysis, cli, export, geom_core, pedal, solver
from orthosect.cli import build_parser, main
from orthosect.errors import DegenerateError
from orthosect.geom_core import Tolerance
from orthosect.orthology import Tetrahedron
from orthosect.scene import Scene, dumps_canonical, load_scene, save_scene

DEMO_SCENE = str(Path(__file__).parent.parent / "scenes" / "demo.json")


@pytest.fixture()
def pair_scene(tmp_path, demo_pair):
    a, b, tol = demo_pair
    scene = Scene(tetrahedra={"A": a, "B": b,
                              "Treg": __import__("orthosect").Tetrahedron.of(
                                  [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])})
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report


def test_verify_pass(capsys, pair_scene):
    code, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "A,B"])
    assert code == 0
    assert report["passed"] is True
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["orthologic"]["passed"]
    assert names["orthosecting"]["passed"]
    assert names["cospherical"]["passed"]
    assert names["center_at_midpoint"]["passed"]
    assert report["results"]["sphere"]["kind"] == "sphere"


def test_verify_skew_pair_exits_1(capsys, pair_scene):
    code, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "Treg,Treg"])
    assert code == 1
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["orthologic"]["passed"] is True
    assert names["orthosecting"]["passed"] is False
    # the skew gaps are recorded for diagnostics
    assert max(report["results"]["gaps"].values()) > 0.1


def test_verify_five_point_flag(capsys, pair_scene):
    code, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "A,B",
                                 "--corollary4"])
    assert code == 0
    names = {v["name"] for v in report["verdicts"]}
    assert "cospherical_5" in names


def test_verdicts_recomputable(capsys, pair_scene):
    _, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "A,B"])
    for v in report["verdicts"]:
        ops = {"<=": v["value"] <= v["tolerance"],
               ">=": v["value"] >= v["tolerance"],
               "==": v["value"] == v["tolerance"]}
        assert ops[v["op"]] == v["passed"]


def test_solve_requires_seed(pair_scene):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scene", pair_scene, "--tet", "A", "--restarts", "4"])
    assert exc.value.code == 2


def test_solve_deterministic_bytes(tmp_path, pair_scene):
    out = tmp_path / "report.json"
    argv = ["solve", "--scene", pair_scene, "--tet", "A", "--seed", "7",
            "--restarts", "6", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_solve_report_content(capsys, pair_scene):
    code, report = _run(capsys, ["solve", "--scene", pair_scene, "--tet", "A",
                                 "--seed", "3", "--restarts", "6"])
    assert code == 0
    assert len(report["results"]["solutions"]) >= 1
    assert len(report["results"]["diagnostics"]) == 6
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["solutions_found"]["passed"]
    assert names["solution_residual"]["value"] <= 1e-10


def test_trace_family_cli(capsys, pair_scene, demo_pair):
    a, b, tol = demo_pair
    h = 0.02 * tol.scene_scale
    code, report = _run(capsys, ["trace-family", "--scene", pair_scene,
                                 "--tet", "A", "--start", "B",
                                 "--steps", "10", "--step", str(h)])
    assert code == 0
    assert len(report["results"]["samples"]) == 11
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["samples_residual"]["passed"]
    assert names["nullity_one"]["passed"]


def test_conjugate_cli(capsys, pair_scene):
    code, report = _run(capsys, ["conjugate", "--scene", pair_scene, "--pair", "A,B"])
    assert code == 0
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["conjugate_orthosects"]["passed"]
    assert names["carriers_match"]["passed"]
    assert len(report["results"]["conjugate"]) == 4


def test_sequence_cli(capsys, pair_scene):
    code, report = _run(capsys, ["sequence", "--scene", pair_scene,
                                 "--pair", "A,B", "--n", "3"])
    assert code == 0
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["shared_sphere"]["passed"]
    assert names["two_centers"]["passed"]
    assert len(report["results"]["tetrahedra"]) == 4


def test_curve_cli_and_export_roundtrip(tmp_path, capsys, pair_scene):
    out = tmp_path / "curve.json"
    code = main(["curve", "--scene", pair_scene, "--tet", "A", "--face", "4",
                 "--grid", "24", "--degree-trials", "40", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["polylines"]
    assert "degree_estimate" not in report["results"]
    svg_out = tmp_path / "curve.svg"
    assert main(["export", "--scene", str(out), "--format", "svg",
                 "--out", str(svg_out)]) == 0
    capsys.readouterr()
    text = svg_out.read_text()
    total = sum(len(p["points"]) for p in report["results"]["polylines"])
    assert text.count("M ") + text.count("L ") - 4 == total


def test_curve_degree_flags_are_inert(tmp_path, capsys, pair_scene):
    """--degree-trials and --degree-seed are accepted and ignored: apart from
    the echoed command line the report is byte-identical without them."""
    base = ["curve", "--scene", pair_scene, "--tet", "A", "--face", "4", "--grid", "16"]
    texts = []
    for extra in ([], ["--degree-trials", "40", "--degree-seed", "7"]):
        out = tmp_path / "curve.json"
        assert main(base + extra + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc.pop("command") == base + extra + ["--out", str(out)]
        texts.append(dumps_canonical(doc))
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_cli_import_loads_no_optional_dependency():
    """numpy is the only runtime dependency: the test-only packages stay
    out of the CLI's import graph."""
    code = ("import sys, orthosect.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    pytest.param(["curve", "--tet", "A", "--face", "4", "--grid", "8"], id="grid-8"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--degree-trials", "-5"],
                 id="degree-trials-negative"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--window", "1,2,3"],
                 id="window-three-numbers"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--window", "a,b,c,d"],
                 id="window-not-numbers"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--window", "0,0,nan,1"],
                 id="window-nan"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--window", "1,1,1,1"],
                 id="window-empty"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--window", "2,0,1,3"],
                 id="window-reversed"),
    pytest.param(["curve", "--tet", "A", "--face", "4", "--degree-seed", "-1"],
                 id="degree-seed-negative"),
    pytest.param(["solve", "--tet", "A", "--seed", "1", "--restarts", "0"], id="restarts-0"),
    pytest.param(["solve", "--tet", "A", "--seed", "-1"], id="seed-negative"),
    pytest.param(["trace-family", "--tet", "A", "--start", "B", "--steps", "3",
                  "--step", "nan"], id="step-nan"),
    pytest.param(["trace-family", "--tet", "A", "--start", "B", "--steps", "3",
                  "--step", "inf"], id="step-inf"),
    pytest.param(["trace-family", "--tet", "A", "--start", "B", "--steps", "-1",
                  "--step", "0.03"], id="steps-negative"),
    pytest.param(["sequence", "--pair", "A,B", "--n", "0"], id="n-0"),
    pytest.param(["sequence", "--pair", "A,B", "--n", "-1"], id="n-negative"),
    pytest.param(["export", "--format", "obj", "--out", os.devnull, "--sphere-res", "3"],
                 id="sphere-res-3"),
    pytest.param(["export", "--format", "obj", "--out", os.devnull, "--sphere-res", "-5"],
                 id="sphere-res-negative"),
])
def test_out_of_range_arguments_exit_2(capsys, argv):
    """Arguments the engine cannot take are rejected by the parser: exit 2
    with an error line, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--scene", DEMO_SCENE, *argv[1:]])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err


def test_missing_scene_exits_2(capsys):
    code = main(["verify", "--scene", "/nonexistent.json", "--pair", "A,B"])
    capsys.readouterr()
    assert code == 2


def test_unknown_tet_exits_2(capsys, pair_scene):
    code = main(["solve", "--scene", pair_scene, "--tet", "Q", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_ortholog_eps_env_override(capsys, tmp_path, pair_scene, monkeypatch):
    """The scene's tolerance.eps_rel is the one way to set the relative
    tolerance: a huge eps_rel makes the skew regular tetrahedron count as
    orthosecting, and the ORTHOLOG_EPS environment variable changes no
    report byte."""
    treg = load_scene(pair_scene).tetrahedron("Treg")
    loose = tmp_path / "loose.json"
    save_scene(Scene(tetrahedra={"Treg": treg}, eps_rel=10.0), loose)
    code, report = _run(capsys, ["verify", "--scene", str(loose), "--pair", "Treg,Treg"])
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["orthosecting"]["passed"] is True
    argv = ["verify", "--scene", pair_scene, "--pair", "Treg,Treg"]
    main(argv)
    plain = capsys.readouterr().out
    for value in ("10.0", "banana"):
        monkeypatch.setenv("ORTHOLOG_EPS", value)
        assert main(argv) == 1
        assert capsys.readouterr().out == plain


def test_timing_flag(capsys, pair_scene):
    _, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "A,B"])
    assert "wall_time_s" not in report
    _, report = _run(capsys, ["verify", "--scene", pair_scene, "--pair", "A,B",
                              "--timing"])
    assert "wall_time_s" in report


def test_export_obj_cli(tmp_path, capsys, pair_scene):
    out = tmp_path / "scene.obj"
    assert main(["export", "--scene", pair_scene, "--format", "obj",
                 "--out", str(out), "--sphere-res", "6"]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("# vpoint ")) == 6


def test_partner_edge_below_collapse_cut_is_degenerate_error(tmp_path, capsys, monkeypatch):
    """The solver's collapse cut is the zero-length edge cut, eps_abs scene
    scales, so it follows a scene's eps_abs override: a partner edge below
    it is pair_measures' DegenerateError, and conjugate reports it instead
    of crashing; an edge just above it has residuals."""
    demo = load_scene(DEMO_SCENE)
    a = Tetrahedron.of(demo.tetrahedron("A").array * 1e3)
    b = Tetrahedron.of(demo.tetrahedron("B").array * 1e3)

    def with_edge_b12(length):
        coords = b.array.copy()
        coords[1] = coords[0] + np.array([length, 0.0, 0.0])
        return Tetrahedron.of(coords)

    collapsed = with_edge_b12(1e-10)
    tol = Tolerance.for_points(np.vstack((a.array, collapsed.array)), eps_abs=1e-12)
    assert 1e-10 < tol.eps_abs * tol.scene_scale < 1e-7
    with pytest.raises(DegenerateError, match="^zero-length edge B12$"):
        solver.orthosect_residuals(a, collapsed, tol)
    assert np.isfinite(solver.orthosect_residuals(a, with_edge_b12(1e-7), tol).values).all()
    # the conjugate core measures the partner it rebuilt for its
    # postcondition; here the orthosecting pair's rebuilt "conjugate" is the
    # collapsed partner
    path = tmp_path / "collapse.json"
    save_scene(Scene(tetrahedra={"A": a, "B": b}, eps_abs=1e-12), path)
    monkeypatch.setattr(analysis, "_partner_vertices", lambda host, feet, tol: collapsed)
    code, report = _run(capsys, ["conjugate", "--scene", str(path), "--pair", "A,B"])
    assert code == 1
    assert report["error"] == "DegenerateError: zero-length edge B12"


@pytest.mark.parametrize("scale", [1e-12, 1e-9])
def test_pair_commands_pass_on_shrunk_demo(tmp_path, capsys, scale):
    """The zero-length edge cut scales with the scene: the demo pair shrunk
    by 1e-12 or 1e-9 passes verify, conjugate and sequence as it does at
    unit scale."""
    demo = load_scene(DEMO_SCENE)
    path = tmp_path / "shrunk.json"
    save_scene(Scene(tetrahedra={name: Tetrahedron.of(t.array * scale)
                                 for name, t in demo.tetrahedra.items()}), path)
    for argv in (["verify"], ["conjugate"], ["sequence", "--n", "6"]):
        code, report = _run(capsys, [argv[0], "--scene", str(path), "--pair", "A,B", *argv[1:]])
        assert code == 0, report


def test_parser_built_once_and_reused(tmp_path, capsys):
    """One parser serves every in-process call: a mixed run, with an
    argparse rejection in the middle, prints what fresh parsers print."""
    assert build_parser() is build_parser()
    calls = [
        ["verify", "--scene", DEMO_SCENE, "--pair", "A,B", "--corollary4"],
        ["solve", "--scene", DEMO_SCENE, "--tet", "A", "--seed", "3", "--restarts", "2"],
        ["trace-family", "--scene", DEMO_SCENE, "--tet", "A", "--start", "B",
         "--steps", "3", "--step", "0.03", "--direction", "-1"],
        ["conjugate", "--scene", DEMO_SCENE, "--pair", "A,B"],
        ["curve", "--scene", DEMO_SCENE, "--tet", "A", "--face", "4", "--grid", "16"],
        ["sequence", "--scene", DEMO_SCENE, "--pair", "A,B", "--n", "2"],
        ["export", "--scene", DEMO_SCENE, "--format", "svg", "--face", "4",
         "--out", str(tmp_path / "demo.svg")],
        ["verify", "--scene", DEMO_SCENE, "--pair", "A,B"],
    ]
    rejected = ["curve", "--scene", DEMO_SCENE, "--tet", "A", "--face", "5"]
    calls.insert(4, rejected)

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        # stderr carries the wall time, except for argparse's rejection
        return code, out.out, out.err if code == ("exit", 2) else ""

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    parser = build_parser()
    mixed = [run(argv) for argv in calls]
    assert build_parser() is parser
    assert mixed == fresh
    assert [code for code, _, _ in mixed] == [0, 0, 0, 0, ("exit", 2), 0, 0, 0, 0]
    assert "invalid choice" in mixed[4][2]


@pytest.mark.parametrize("extra", [[], ["--corollary4"]], ids=["verify", "corollary4"])
def test_verify_computes_orthology_centers_once(capsys, orthology_center_calls, extra):
    """verify computes the centers once, from its one measurement, and
    hands them to the sphere report for the midpoint gap."""
    calls = orthology_center_calls
    code, report = _run(capsys, ["verify", "--scene", DEMO_SCENE, "--pair", "A,B", *extra])
    assert code == 0 and "orthology_centers" in report["results"]
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--corollary4"], ["conjugate"],
                                  ["sequence", "--n", "6"]],
                         ids=["verify", "corollary4", "conjugate", "sequence"])
def test_pair_commands_build_no_line_or_plane(capsys, geometry_object_calls, argv):
    """The pair commands read faces from the tetrahedra's face tables and
    edges as arrays: the demo builds no Line and calls Plane.through never."""
    code, _ = _run(capsys, [argv[0], "--scene", DEMO_SCENE, "--pair", "A,B", *argv[1:]])
    assert code == 0
    assert geometry_object_calls == {"Line": 0, "Plane.through": 0}


def test_conjugate_guards_and_fits_each_pair_once(capsys, monkeypatch, orthology_center_calls):
    """The conjugate report's two carriers come from one orthosecting guard
    and one carrier fit per pair (host and partner, host and conjugate),
    and no orthology centers, which the report never prints. Each guard
    reads the one measurement of its pair."""
    measured, guarded, fitted = [], [], []
    real_measures = cli.pair_measures

    def measuring(a, b, *args, **kwargs):
        measures = real_measures(a, b, *args, **kwargs)
        measured.append((a, b, measures))
        return measures

    def counting(real, seen):
        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)
        return counted

    for module in (analysis, cli):
        monkeypatch.setattr(module, "pair_measures", measuring)
        monkeypatch.setattr(module, "require_orthosecting",
                            counting(module.require_orthosecting, guarded))
        monkeypatch.setattr(module, "carrier_through", counting(module.carrier_through, fitted))
    code, report = _run(capsys, ["conjugate", "--scene", DEMO_SCENE, "--pair", "A,B"])
    assert code == 0
    demo = load_scene(DEMO_SCENE)
    host, partner = (demo.tetrahedron(name).array.tolist() for name in "AB")
    pair_of = {id(measures): (a.array.tolist(), b.array.tolist()) for a, b, measures in measured}
    assert [pair_of[id(measures)] for measures, _ in guarded] == [
        (host, partner), (host, report["results"]["conjugate"])]
    assert len(fitted) == 2
    assert orthology_center_calls == []


def test_conjugate_measures_each_pair_once(capsys, pair_measure_calls):
    """The conjugate command measures each pair once: (host, partner) for
    its guard, and (host, conjugate) for the reconstruction postcondition,
    the verdict and the guard together."""
    code, report = _run(capsys, ["conjugate", "--scene", DEMO_SCENE, "--pair", "A,B"])
    assert code == 0
    demo = load_scene(DEMO_SCENE)
    host, partner = (demo.tetrahedron(name).array.tolist() for name in "AB")
    assert [(a.array.tolist(), b.array.tolist()) for a, b in pair_measure_calls] == [
        (host, partner), (host, report["results"]["conjugate"])]


@pytest.mark.parametrize("argv,measured,fits,centers", [
    (["verify", "--pair", "A,B"], "pair", 1, 1),
    (["verify", "--pair", "A,B", "--corollary4"], "pair", 1, 1),
    (["conjugate", "--pair", "A,B"], "conjugate", 2, 0),
    (["sequence", "--pair", "A,B", "--n", "6"], "sequence", 6, 6),
    (["export", "--format", "obj", "--out", "demo.obj"], "pair", 1, 0),
    (["export", "--format", "svg", "--face", "4", "--out", "demo.svg"], "pair", 0, 0),
], ids=["verify", "corollary4", "conjugate", "sequence", "export-obj", "export-svg"])
def test_pair_commands_measure_each_pair_once(tmp_path, capsys, monkeypatch, pair_measure_calls,
                                              orthology_center_calls, argv, measured, fits,
                                              centers):
    """Each pair command measures every pair it checks once, with one
    ``pair_measures`` call that its guard, sphere report, conjugate,
    centers and drawing all read: verify the demo pair; conjugate the demo
    pair, then (host, conjugate) in the reconstruction postcondition;
    sequence the first pair, then per conjugate step the reversed pair it
    conjugates and the new pair, whose postcondition measurement its guard
    and centers reuse; both exports the pair they find. One carrier fit
    per carrier the command uses (sequence fits each conjugate step's and
    the first pair's), and orthology centers only where the report prints
    them."""
    fitted = []
    real = cli.carrier_through

    def counted(*args, **kwargs):
        fitted.append(args)
        return real(*args, **kwargs)

    for module in (geom_core, pedal, analysis, export, cli):
        monkeypatch.setattr(module, "carrier_through", counted)
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, [argv[0], "--scene", DEMO_SCENE, *argv[1:]])
    assert code == 0
    demo = load_scene(DEMO_SCENE)
    host, partner = (demo.tetrahedron(name).array.tolist() for name in "AB")
    if measured == "pair":
        expected = [(host, partner)]
    elif measured == "conjugate":
        expected = [(host, partner), (host, report["results"]["conjugate"])]
    else:
        tets = report["results"]["tetrahedra"]
        assert len(tets) == 7
        expected = [(tets[0], tets[1])] + [pair for m in range(1, 6)
                                           for pair in ((tets[m], tets[m - 1]),
                                                        (tets[m], tets[m + 1]))]
    assert [(a.array.tolist(), b.array.tolist()) for a, b in pair_measure_calls] == expected
    assert len(fitted) == fits
    assert len(orthology_center_calls) == centers


def test_verify_flat_partner_reports_center_error(tmp_path, capsys, orthology_center_calls,
                                                  pair_measure_calls, flat_pair):
    """verify reports a flat partner's center error after the orthologic
    verdict, from one centers computation on its one measurement."""
    a, flat = flat_pair
    path = tmp_path / "flat.json"
    save_scene(Scene(tetrahedra={"A": a, "B": flat}), path)
    calls = orthology_center_calls
    code, report = _run(capsys, ["verify", "--scene", str(path), "--pair", "A,B"])
    assert code == 1
    assert report["error"].startswith("DegenerateError: flat partner: ")
    assert [v["name"] for v in report["verdicts"]] == ["orthologic"]
    assert len(calls) == 1
    assert len(pair_measure_calls) == 1


def test_verify_gates_sphere_verdicts_at_scene_tolerance(tmp_path, capsys):
    """The sphere verdicts read the scene's tolerance, as the orthosecting
    verdict does: the demo pair with B's vertex 1 moved 2e-6 scene scales
    orthosects at eps_rel = 1e-4, and so does its center-midpoint gap of
    about 3.8e-7 scene scales."""
    demo = load_scene(DEMO_SCENE)
    a, b = demo.tetrahedron("A"), demo.tetrahedron("B")
    coords = b.array.copy()
    coords[0, 0] += 2e-6 * Tolerance.for_points(np.vstack((a.array, coords))).scene_scale
    path = tmp_path / "moved.json"
    save_scene(Scene(tetrahedra={"A": a, "B": Tetrahedron.of(coords)}, eps_rel=1e-4), path)
    code, report = _run(capsys, ["verify", "--scene", str(path), "--pair", "A,B"])
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert 1e-6 < verdicts["orthosecting"]["value"] <= 1e-4
    assert 1e-7 < verdicts["center_at_midpoint"]["value"] <= 1e-4
    assert all(v["tolerance"] == 1e-4 for v in report["verdicts"])
    assert code == 0


def _error_lines(capsys):
    return [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]


@pytest.mark.parametrize("fmt,number", [("svg", "NaN"), ("json", "-Infinity"),
                                        ("svg", "1e999"), ("svg", "1" + "0" * 400)],
                         ids=["svg-nan", "json-inf", "svg-1e999", "svg-bigint"])
def test_export_rejects_nonfinite_report(tmp_path, capsys, fmt, number):
    """A saved curve report holding NaN, Infinity or a number beyond the
    float range is rejected input: no SVG path reads "nan", and neither
    --format json nor an integer no float can hold raises a traceback."""
    saved = tmp_path / "saved.json"
    assert main(["curve", "--scene", DEMO_SCENE, "--tet", "A", "--face", "4",
                 "--grid", "16", "--out", str(saved)]) == 0
    doc = json.loads(saved.read_text())
    doc["results"]["polylines"][0]["points"][0] = [0.5, "x"]
    saved.write_text(json.dumps(doc).replace('"x"', number))
    capsys.readouterr()
    out = tmp_path / f"exported.{fmt}"
    assert main(["export", "--scene", str(saved), "--format", fmt, "--out", str(out)]) == 2
    assert len(_error_lines(capsys)) == 1
    assert not out.exists()


def test_export_rejects_duplicate_key(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"tetrahedra": {"A": [[1,1,1],[1,-1,-1],[-1,1,-1],[-1,-1,1]]}, '
                    '"tetrahedra": {"A": [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}}')
    out = tmp_path / "dup.obj"
    assert main(["export", "--scene", str(path), "--format", "obj", "--out", str(out)]) == 2
    assert _error_lines(capsys) == [f"error: duplicate key 'tetrahedra' in {path}"]


def test_solve_on_coincident_host_reports_flat(capsys, tmp_path):
    """A host whose four vertices coincide has no scene scale of its own;
    solve reports it as flat instead of failing on a zero-scale tolerance."""
    path = tmp_path / "point.json"
    save_scene(Scene(tetrahedra={"P": Tetrahedron.of([(1.0, 2.0, 3.0)] * 4)}), path)
    code, report = _run(capsys, ["solve", "--scene", str(path), "--tet", "P", "--seed", "1"])
    assert code == 1
    assert report["error"] == "DegenerateError: host tetrahedron is flat"


def test_solve_gates_flat_host_at_scene_tolerance(capsys, tmp_path):
    """solve judges the host flat at the scene's tolerance: a host with apex
    height 3e-9 is flat at the default eps_rel = 1e-7, but not at the
    declared 1e-10, where solve runs its restarts."""
    thin = Tetrahedron.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 3e-9)])
    argv = ["solve", "--tet", "T", "--seed", "1", "--restarts", "2"]
    for eps_rel, error in ((1e-7, "DegenerateError: host tetrahedron is flat"), (1e-10, None)):
        path = tmp_path / f"thin_{eps_rel}.json"
        save_scene(Scene(tetrahedra={"T": thin}, eps_rel=eps_rel), path)
        _, report = _run(capsys, [argv[0], "--scene", str(path), *argv[1:]])
        assert report.get("error") == error
    assert len(report["results"]["diagnostics"]) == 2
