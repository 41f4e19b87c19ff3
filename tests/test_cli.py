"""CLI behavior: exit codes, report shape, determinism, tolerance overrides."""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_similarity
from orthosect import analysis, cli, export, geom_core, pedal, solver
from orthosect.cli import build_parser, main
from orthosect.errors import DegenerateError
from orthosect.geom_core import Tolerance
from orthosect.orthology import Tetrahedron, pair_measures
from orthosect.scene import Scene, dumps_canonical, load_scene, save_scene

DEMO_SCENE = str(Path(__file__).parent.parent / "scenes" / "demo.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    # the verdict is the worst residual of the accepted restarts
    assert names["solution_residual"]["value"] == max(
        d["max_residual"] for d in report["results"]["diagnostics"] if d["reason"] == "solution")


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


@pytest.mark.parametrize("step", ["1e-16", "1e-17", "1e-300"])
def test_trace_family_step_below_resolution(capsys, step):
    """A step too small to move the demo's coordinates leaves the start
    where it was: the trace stops at the first step with its own reason
    and reports only the start, as JSON, rather than repeating the start as
    samples of a family it never followed."""
    code = main(["trace-family", "--scene", DEMO_SCENE, "--tet", "A", "--start", "B",
                 "--steps", "3", "--step", step])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert code == 0, report
    assert report["results"]["stop_reason"] == "step below resolution"
    assert report["results"]["samples"] == [load_scene(DEMO_SCENE).tetrahedron("B").array.tolist()]


def _collapsed_scene(tmp_path, name):
    """The demo scene with vertex 2 of tetrahedron ``name`` moved onto its
    vertex 1, or the demo scene itself when ``name`` is None."""
    if name is None:
        return DEMO_SCENE
    demo = load_scene(DEMO_SCENE)
    coords = demo.tetrahedron(name).array.copy()
    coords[1] = coords[0]
    path = tmp_path / f"zero_{name}.json"
    save_scene(Scene(tetrahedra={**demo.tetrahedra, name: Tetrahedron.of(coords)}), path)
    return str(path)


@pytest.mark.parametrize("collapsed,start,error", [
    ("A", "B", "DegenerateError: zero-length edge A12"),
    ("B", "B", "DegenerateError: zero-length edge B12"),
    (None, "A", "NotOrthologicError: "),
], ids=["host-edge", "start-edge", "off-family"])
def test_trace_family_reports_bad_start(tmp_path, capsys, collapsed, start, error):
    """A start that does not orthosect the host fails the pair guard every
    pair command uses, and trace-family reports it as JSON with exit 1: a
    zero-length host or start edge, or the host itself as its start."""
    scene = _collapsed_scene(tmp_path, collapsed)
    code = main(["trace-family", "--scene", scene, "--tet", "A", "--start", start,
                 "--steps", "3", "--step", "0.05"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert report["error"].startswith(error)


def test_conjugate_cli(capsys, pair_scene):
    code, report = _run(capsys, ["conjugate", "--scene", pair_scene, "--pair", "A,B"])
    assert code == 0
    names = {v["name"]: v for v in report["verdicts"]}
    assert names["conjugate_orthosects"]["passed"]
    assert names["carriers_match"]["passed"]
    assert len(report["results"]["conjugate"]) == 4
    # the verdict is the worst orthogonality residual or gap of the
    # (host, conjugate) pair measurement at the scene tolerance
    scene = load_scene(pair_scene)
    a, b = scene.tetrahedron("A"), scene.tetrahedron("B")
    ortho, gaps, _ = pair_measures(a, Tetrahedron.of(report["results"]["conjugate"]),
                                   scene.tolerance(np.vstack((a.array, b.array))))
    assert names["conjugate_orthosects"]["value"] == max(ortho.max(), gaps.max())


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
    pytest.param(["trace-family", "--tet", "A", "--start", "B", "--steps", "5",
                  "--step", "0"], id="step-zero"),
    pytest.param(["trace-family", "--tet", "A", "--start", "B", "--steps", "5",
                  "--step", "-0.03"], id="step-negative"),
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


def test_curve_window_with_negative_x0(capsys):
    """A window whose first coordinate is negative parses given apart from
    --window as it does attached, to the same report bytes."""
    texts = []
    for window in (["--window", "-1,-1,1,1"], ["--window=-1,-1,1,1"]):
        assert main(["curve", "--scene", DEMO_SCENE, "--tet", "A", "--face", "4",
                     "--grid", "16", *window]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    results = json.loads(texts[0])["results"]
    assert results["window"] == [-1.0, -1.0, 1.0, 1.0] and results["polylines"]


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
    of crashing; the solver's system returns NaN residuals there and raises
    nothing, and an edge just above it has finite residuals."""
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
        pair_measures(a, collapsed, tol)
    system = solver.OrthosectSystem(a, tol)
    assert np.isnan(system.residuals(collapsed.array.reshape(12))).all()
    assert np.isfinite(system.residuals(with_edge_b12(1e-7).array.reshape(12))).all()
    # the conjugate core measures the partner it rebuilt for its
    # postcondition; here the orthosecting pair's rebuilt "conjugate" is the
    # collapsed partner
    path = tmp_path / "collapse.json"
    save_scene(Scene(tetrahedra={"A": a, "B": b}, eps_abs=1e-12), path)
    monkeypatch.setattr(analysis, "partner_from_points", lambda host, points: collapsed.array)
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


@pytest.mark.parametrize("scale,code", [(1e50, 0), (1e-50, 0), (1e80, 2), (1e-85, 2)])
def test_scene_scale_band(tmp_path, capsys, scale, code):
    """The demo pair scaled by 1e50 or 1e-50 verifies; scaled by 1e80 or
    1e-85, out of the scale band, where fourth powers of its lengths leave
    the float range, its scene is rejected, naming the first tetrahedron."""
    demo = load_scene(DEMO_SCENE)
    path = tmp_path / "scaled.json"
    save_scene(Scene(tetrahedra={name: Tetrahedron.of(t.array * scale)
                                 for name, t in demo.tetrahedra.items()}), path)
    assert main(["verify", "--scene", str(path), "--pair", "A,B"]) == code
    err = capsys.readouterr().err
    assert ("error: tetrahedra.A: " in err and "scale band" in err) == (code == 2)


@pytest.mark.parametrize("corner,code", [(1e59, 0), (1e75, 2)])
def test_curve_window_scale_band(capsys, corner, code):
    """A --window corner more than MAX_COORDINATE scene scales from the face
    centroid is rejected as the scene scale band rejects a coordinate, with
    exit 2 and no report; one inside the band traces (here, nothing)."""
    argv = ["curve", "--scene", DEMO_SCENE, "--tet", "A", "--face", "4", "--grid", "16",
            "--window", f"{-corner!r},{-corner!r},{corner!r},{corner!r}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert ("error: --window: a corner lies more than 1e+60 scene scales" in err) == (code == 2)
    assert (out == "") == (code == 2)


# the pair commands the equivariance test runs, and the results holding
# their tetrahedra
_PAIR_COMMANDS = ((["verify"], None), (["verify", "--corollary4"], None),
                  (["conjugate"], "conjugate"), (["sequence", "--n", "6"], "tetrahedra"))


def _pair_reports(scene: str, out: Path):
    """Exit code and report of each of _PAIR_COMMANDS on the pair A, B."""
    runs = []
    for argv, _ in _PAIR_COMMANDS:
        code = main([argv[0], "--scene", scene, "--pair", "A,B", *argv[1:], "--out", str(out)])
        runs.append((code, json.loads(out.read_text())))
    return runs


@pytest.fixture(scope="module")
def demo_pair_reports(tmp_path_factory):
    return _pair_reports(DEMO_SCENE, tmp_path_factory.mktemp("demo") / "report.json")


# the demo's trace-family step (README), in scene units, and the bound in
# scene scales within which a trace of the moved or relabeled demo pair maps
# onto the demo's: at most 5.9e-15 over 460 similarities (scales 1e-12..1e12)
# and the 24 relabelings
_TRACE_STEP = 0.03
_TRACE_MAP_TOL = 1e-12


def _trace_report(scene: str, out: Path, step: float, direction: int = 1):
    """Exit code and report of a 20-step trace-family from B on host A,
    which walks a skeleton of 4 steps and fills it in batches."""
    code = main(["trace-family", "--scene", scene, "--tet", "A", "--start", "B", "--steps", "20",
                 "--step", repr(step), "--direction", str(direction), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def demo_trace_reports(tmp_path_factory):
    """The demo pair's 20-step traces, direction 1 then -1."""
    out = tmp_path_factory.mktemp("demo_trace") / "report.json"
    return [_trace_report(DEMO_SCENE, out, _TRACE_STEP, d) for d in (1, -1)]


def _assert_trace_maps(run, demo_runs, forward, scale):
    """The trace ``run`` is one of the demo's two directions mapped by
    ``forward``: the same exit code, stop reason, sample count and verdicts
    (names, pass flags, values within 1e-9), and its samples within
    _TRACE_MAP_TOL scene scales of that direction's, mapped. Which way
    --direction 1 goes depends on the frame (see ``bench/inputs.py``), so
    either direction may match."""
    code, got = run
    samples = np.array(got["results"]["samples"])
    matches = [(want_code, want) for want_code, want in demo_runs
               if len(want["results"]["samples"]) == len(samples)
               and np.abs(samples - forward(np.array(want["results"]["samples"]))).max()
               <= _TRACE_MAP_TOL * scale]
    assert matches
    want_code, want = matches[0]
    assert code == want_code
    assert got["results"]["stop_reason"] == want["results"]["stop_reason"]
    assert ([(v["name"], v["passed"]) for v in got["verdicts"]]
            == [(v["name"], v["passed"]) for v in want["verdicts"]])
    for v, w in zip(got["verdicts"], want["verdicts"]):
        assert abs(v["value"] - w["value"]) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0))
@settings(max_examples=15, deadline=None)
def test_pair_commands_equivariant_under_similarity(tmp_path_factory, demo_pair_reports,
                                                    demo_trace_reports, seed, log_scale):
    """verify, verify --corollary4, conjugate and sequence --n 6 on the
    demo pair moved by a similarity (scale 1e-12..1e12, a random rotation
    and a translation) exit as on the unmoved pair, with the same verdict
    names and pass flags and every verdict value within 1e-9 of the
    unmoved one; the conjugate and sequence tetrahedra are the unmoved ones
    moved, within 1e-9 scene scales. trace-family --steps 20, at the demo
    step scaled alike, traces the unmoved pair's family moved
    (``_assert_trace_maps``)."""
    demo = load_scene(DEMO_SCENE)
    move = random_similarity(np.random.default_rng(seed), log_scale)
    moved = {name: move(t.array) for name, t in demo.tetrahedra.items()}
    scale = geom_core.diameter(np.vstack(list(moved.values())))
    work = tmp_path_factory.mktemp("moved")
    save_scene(Scene(tetrahedra={n: Tetrahedron.of(x) for n, x in moved.items()}),
               work / "scene.json")
    runs = _pair_reports(str(work / "scene.json"), work / "report.json")
    for (_, key), (want_code, want), (code, got) in zip(_PAIR_COMMANDS, demo_pair_reports, runs):
        assert code == want_code
        assert ([(v["name"], v["passed"]) for v in got["verdicts"]]
                == [(v["name"], v["passed"]) for v in want["verdicts"]])
        for v, w in zip(got["verdicts"], want["verdicts"]):
            assert abs(v["value"] - w["value"]) <= 1e-9
        if key is not None:
            tets = np.array(got["results"][key])
            assert np.abs(tets - move(np.array(want["results"][key]))).max() <= 1e-9 * scale
    run = _trace_report(str(work / "scene.json"), work / "report.json",
                        _TRACE_STEP * 10.0 ** log_scale)
    _assert_trace_maps(run, demo_trace_reports, move, scale)


@given(perm=st.permutations((1, 2, 3, 4)))
@settings(max_examples=24, deadline=None)
def test_pair_commands_invariant_under_relabeling(tmp_path_factory, demo_pair_reports,
                                                  demo_trace_reports, perm):
    """verify, verify --corollary4, conjugate and sequence --n 6 on the
    demo pair with both tetrahedra relabeled by one permutation of 1..4
    exit as on the pair as given, with the same verdict names and pass
    flags and every verdict value within 1e-9; the conjugate and sequence
    tetrahedra, mapped back to the given labels, are the given ones within
    1e-9 scene scales. trace-family --steps 20 traces the given pair's
    family, relabeled (``_assert_trace_maps``)."""
    demo = load_scene(DEMO_SCENE)
    scale = geom_core.diameter(np.vstack([t.array for t in demo.tetrahedra.values()]))
    work = tmp_path_factory.mktemp("relabeled")
    save_scene(Scene(tetrahedra={n: t.relabeled(perm) for n, t in demo.tetrahedra.items()}),
               work / "scene.json")
    runs = _pair_reports(str(work / "scene.json"), work / "report.json")
    back = np.argsort(np.asarray(perm) - 1)
    for (_, key), (want_code, want), (code, got) in zip(_PAIR_COMMANDS, demo_pair_reports, runs):
        assert code == want_code
        assert ([(v["name"], v["passed"]) for v in got["verdicts"]]
                == [(v["name"], v["passed"]) for v in want["verdicts"]])
        for v, w in zip(got["verdicts"], want["verdicts"]):
            assert abs(v["value"] - w["value"]) <= 1e-9
        if key is not None:
            tets = np.array(got["results"][key])[..., back, :]
            assert np.abs(tets - np.array(want["results"][key])).max() <= 1e-9 * scale
    run = _trace_report(str(work / "scene.json"), work / "report.json", _TRACE_STEP)
    _assert_trace_maps(run, demo_trace_reports, lambda p: p[:, np.asarray(perm) - 1], scale)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       perm=st.permutations((1, 2, 3, 4)))
@settings(max_examples=15, deadline=None)
def test_pair_commands_invariant_under_relabeled_similarity(tmp_path_factory, demo_pair_reports,
                                                            seed, log_scale, perm):
    """verify, verify --corollary4 and conjugate on the demo pair with both
    tetrahedra relabeled by one permutation of 1..4 and then moved by a
    similarity (the draws of the similarity test above) exit as on the pair
    as given, with the same verdict names and pass flags and every verdict
    value within 1e-9; the conjugate, relabeled and moved back, is the given
    one within 1e-9 scene scales. sequence is left out: its conjugate
    residual grows 50-3e4x per step."""
    demo = load_scene(DEMO_SCENE)
    move = random_similarity(np.random.default_rng(seed), log_scale)
    moved = {name: Tetrahedron.of(move(t.relabeled(perm).array))
             for name, t in demo.tetrahedra.items()}
    scale = geom_core.diameter(np.vstack([t.array for t in moved.values()]))
    work = tmp_path_factory.mktemp("relabeled_moved")
    save_scene(Scene(tetrahedra=moved), work / "scene.json")
    back = np.argsort(np.asarray(perm) - 1)
    for (argv, key), (want_code, want) in zip(_PAIR_COMMANDS[:3], demo_pair_reports):
        out = work / "report.json"
        code = main([argv[0], "--scene", str(work / "scene.json"), "--pair", "A,B",
                     *argv[1:], "--out", str(out)])
        got = json.loads(out.read_text())
        assert code == want_code
        assert ([(v["name"], v["passed"]) for v in got["verdicts"]]
                == [(v["name"], v["passed"]) for v in want["verdicts"]])
        for v, w in zip(got["verdicts"], want["verdicts"]):
            assert abs(v["value"] - w["value"]) <= 1e-9
        if key is not None:
            tets = np.array(got["results"][key])[..., back, :]
            assert np.abs(tets - move(np.array(want["results"][key]))).max() <= 1e-9 * scale


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


def test_sequence_guards_each_pair_once(capsys, monkeypatch):
    """sequence --n 6 guards each of its six consecutive pairs once, and
    each guard reads the one measurement of its pair: the first pair's
    ``pair_measures``, then each conjugate's postcondition measurement."""
    measured, guarded = [], []
    real_measures, real_guard = analysis.pair_measures, analysis.require_orthosecting

    def measuring(a, b, *args, **kwargs):
        measures = real_measures(a, b, *args, **kwargs)
        measured.append((a, b, measures))
        return measures

    def guarding(measures, *args, **kwargs):
        guarded.append(measures)
        return real_guard(measures, *args, **kwargs)

    monkeypatch.setattr(analysis, "pair_measures", measuring)
    monkeypatch.setattr(analysis, "require_orthosecting", guarding)
    code, report = _run(capsys, ["sequence", "--scene", DEMO_SCENE, "--pair", "A,B", "--n", "6"])
    assert code == 0
    tets = report["results"]["tetrahedra"]
    pair_of = {id(measures): (a.array.tolist(), b.array.tolist()) for a, b, measures in measured}
    assert [pair_of[id(measures)] for measures in guarded] == [
        (tets[m], tets[m + 1]) for m in range(6)]


def test_sequence_truncates_where_a_conjugate_fails_the_guard(capsys, monkeypatch):
    """A conjugate that passes the reconstruction postcondition (1e-6) but
    not the orthosecting guard at the scene's eps_rel ends the run before
    it, as any later member's GeometryError does: the report names the
    member and the guard's message, and holds no error. Here the demo
    pair's second conjugate has its first vertex moved by 1e-6 (about
    2e-7 scene scales), which leaves a residual between the two."""
    real = analysis.partner_from_points
    built = []

    def nudged(host, points):
        vertices = real(host, points)
        built.append(vertices)
        if len(built) == 2:
            vertices = vertices + np.array([[1e-6, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [0.0] * 3])
        return vertices

    monkeypatch.setattr(analysis, "partner_from_points", nudged)
    code, report = _run(capsys, ["sequence", "--scene", DEMO_SCENE, "--pair", "A,B", "--n", "6"])
    assert code == 1
    assert "error" not in report
    results = report["results"]
    assert results["truncated_at"] == len(results["tetrahedra"]) == 3
    assert results["truncation_reason"].startswith("pair is not orthologic: max residual ")
    complete = next(v for v in report["verdicts"] if v["name"] == "complete")
    assert not complete["passed"]


def test_sequence_truncates_at_a_flat_partner(tmp_path, capsys, monkeypatch):
    """Slot 5 of the seed-1 bench pairs deck, a well-conditioned host at
    scale 1e6, runs three members. The third is small (7.2e-4 scene
    scales) and nearly flat (volume over diameter cubed 1.7e-4); the pair
    of it and its conjugate has a parallel perpendicular bundle, so the run
    stops before the fourth, with the orthology centers' message and no
    error."""
    monkeypatch.syspath_prepend(str(BENCH))
    inputs = importlib.import_module("inputs")
    deck = inputs.make_deck("pairs", 1, BENCH.parent, tmp_path)
    op = next(op for op in deck if op.kind == "sequence" and op.meta["slot"] == 5)
    code, report = _run(capsys, op.argv)
    assert code == 1
    assert "error" not in report
    results = report["results"]
    assert results["truncated_at"] == len(results["tetrahedra"]) == 3
    assert results["truncation_reason"] == ("flat partner: all lines parallel: concurrency "
                                            "point at infinity")


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
    sequence each forward pair once, the first directly and every later
    one in its conjugate's postcondition, whose measurement its guard and
    centers reuse, while each conjugate step reads the pair before it
    reversed; both exports the pair they find. One carrier fit
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
        expected = [(tets[m], tets[m + 1]) for m in range(6)]
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
