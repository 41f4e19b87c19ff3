"""Command-line interface.

Commands: verify, solve, trace-family, conjugate, curve, sequence, export.
Reports are canonical JSON on stdout (or --out); exit code 0 when every
verdict passes, 1 when a verdict fails, 2 for rejected input. Wall time
goes to stderr so that reports stay byte-identical across runs;
--timing embeds it in the JSON for callers who want it there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional, Tuple

from . import analysis, export, solver
from .errors import GeometryError, NotOrthologicError, NotOrthosectingError, SceneError
from .geom_core import Point, Tolerance
from .orthology import EDGE_PAIRINGS, Tetrahedron, orthology_centers, pair_measures, pairing_key
from .scene import Report, Scene, load_scene

# gate for co-sphericity and center-midpoint verdicts, times the scene scale
SPHERE_TOL = 1e-7
# gate for curve-vertex residuals and reconstructed-solution quality
CURVE_TOL = 1e-6
# gates for the conjugation command
CONJUGATE_CARRIER_TOL = 1e-8
# gates for the sequence command
SEQUENCE_SPHERE_TOL = 1e-6
# gates for family tracing
FAMILY_RESIDUAL_TOL = 1e-9
NULLITY_RATIO_TOL = 1e-8


def _scene_tolerance(scene: Scene, points) -> Tolerance:
    eps_abs = scene.eps_abs if scene.eps_abs is not None else 1e-9
    eps_rel = scene.eps_rel if scene.eps_rel is not None else 1e-7
    env = os.environ.get("ORTHOLOG_EPS")
    if env is not None:
        try:
            eps_rel = float(env)
        except ValueError as exc:
            raise SceneError(f"ORTHOLOG_EPS must be a number, got {env!r}") from exc
        if not (eps_rel > 0 and math.isfinite(eps_rel)):
            raise SceneError(f"ORTHOLOG_EPS must be positive and finite, got {env!r}")
    return Tolerance.for_points(points, eps_abs=eps_abs, eps_rel=eps_rel)


def _pair(scene: Scene, spec: str) -> Tuple[str, str, Tetrahedron, Tetrahedron]:
    names = spec.split(",")
    if len(names) != 2:
        raise SceneError(f"--pair expects NAME,NAME, got {spec!r}")
    a_name, b_name = names[0].strip(), names[1].strip()
    return a_name, b_name, scene.tetrahedron(a_name), scene.tetrahedron(b_name)


def _point_list(p: Point) -> List[float]:
    return [p.x, p.y, p.z]


def _tet_list(t: Tetrahedron) -> List[List[float]]:
    return [_point_list(v) for v in t.vertices]


def _carrier_dict(carrier) -> dict:
    if carrier.kind == "sphere":
        return {"kind": "sphere", "center": _point_list(carrier.center),
                "radius": carrier.radius}
    return {"kind": "plane",
            "normal": [float(c) for c in carrier.carrier.normal],
            "offset": carrier.carrier.offset}


def cmd_verify(args, scene: Scene, report: Report) -> None:
    a_name, b_name, a, b = _pair(scene, args.pair)
    tol = _scene_tolerance(scene, list(a.vertices) + list(b.vertices))
    report.results["pair"] = [a_name, b_name]
    report.results["scene_scale"] = tol.scene_scale
    ortho, gaps, _ = pair_measures(a, b, tol)
    keys = [pairing_key(p) for p in EDGE_PAIRINGS]
    report.results["orthogonality_residuals"] = dict(zip(keys, ortho.tolist()))
    report.results["gaps"] = dict(zip(keys, gaps.tolist()))
    max_ortho = float(ortho.max())
    orthologic = max_ortho <= tol.eps_rel
    report.add_verdict("orthologic", max_ortho, tol.eps_rel)
    if orthologic:
        rep = orthology_centers(a, b, tol)
        report.results["orthology_centers"] = {
            "center_a": _point_list(rep.center_a), "center_b": _point_list(rep.center_b),
            "spread_a": rep.spread_a, "spread_b": rep.spread_b}
    if args.corollary4:
        worst_kept = max(max_ortho, float(sorted(gaps)[-2]))  # five smallest of six
        report.add_verdict("five_intersections", worst_kept, tol.eps_rel)
        if worst_kept > tol.eps_rel:
            return
        rep = analysis.verify_sphere(a, b, five_point=True, tol=tol)
        report.results["sphere"] = _carrier_dict(rep.carrier)
        report.results["sphere_residuals"] = {pairing_key(p): v
                                              for p, v in rep.residuals.items()}
        report.add_verdict("cospherical_5", rep.max_abs_residual, SPHERE_TOL)
        return
    worst = max(max_ortho, float(gaps.max()))
    report.add_verdict("orthosecting", worst, tol.eps_rel)
    if worst > tol.eps_rel:
        return
    rep = analysis.verify_sphere(a, b, tol=tol)
    report.results["sphere"] = _carrier_dict(rep.carrier)
    report.results["sphere_residuals"] = {pairing_key(p): v for p, v in rep.residuals.items()}
    report.results["midpoint_gap"] = rep.midpoint_gap
    report.add_verdict("cospherical", rep.max_abs_residual, SPHERE_TOL)
    if rep.midpoint_gap is not None:
        report.add_verdict("center_at_midpoint", rep.midpoint_gap, SPHERE_TOL)


def cmd_solve(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    tol = _scene_tolerance(scene, a.vertices)
    cfg = solver.SolverConfig(seed=args.seed, restarts=args.restarts)
    result = solver.solve_detailed(a, cfg, tol)
    report.results["tet"] = args.tet
    report.results["seed"] = args.seed
    report.results["restarts"] = args.restarts
    report.results["solutions"] = [_tet_list(t) for t in result.solutions]
    report.results["diagnostics"] = [
        {"restart": d.restart, "converged": d.converged,
         "max_residual": d.max_residual if math.isfinite(d.max_residual) else None,
         "iterations": d.iterations, "reason": d.reason}
        for d in result.diagnostics]
    count = len(result.solutions)
    report.add_verdict("solutions_found", float(count), 1.0, op=">=")
    if count:
        worst = max(solver.orthosect_residuals(a, t, tol).max_abs for t in result.solutions)
        report.add_verdict("solution_residual", worst, 1e-10)


def cmd_trace_family(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    b0 = scene.tetrahedron(args.start)
    tol = _scene_tolerance(scene, list(a.vertices) + list(b0.vertices))
    branch = solver.trace_family(a, b0, steps=args.steps, h=args.step,
                                 direction=args.direction, tol=tol)
    report.results["tet"] = args.tet
    report.results["start"] = args.start
    report.results["samples"] = [_tet_list(t) for t in branch.samples]
    report.results["max_residuals"] = list(branch.max_residuals)
    report.results["volumes"] = [t.signed_volume for t in branch.samples]
    report.results["stop_reason"] = branch.stop_reason
    report.add_verdict("samples_residual", max(branch.max_residuals), FAMILY_RESIDUAL_TOL)
    worst_ratio = max(float(sv[-1] / max(sv[-2], 1e-300)) for sv in branch.singular_values)
    report.results["max_nullity_ratio"] = worst_ratio
    report.add_verdict("nullity_one", worst_ratio, NULLITY_RATIO_TOL)


def cmd_conjugate(args, scene: Scene, report: Report) -> None:
    a_name, b_name, a, b = _pair(scene, args.pair)
    tol = _scene_tolerance(scene, list(a.vertices) + list(b.vertices))
    report.results["pair"] = [a_name, b_name]
    c = analysis.conjugate(a, b, tol)
    report.results["conjugate"] = _tet_list(c)
    rv = solver.orthosect_residuals(a, c, tol)
    gaps = solver.intersection_gaps(a, c, tol)
    worst = max(rv.max_abs, max(gaps.values()))
    report.add_verdict("conjugate_orthosects", worst, tol.eps_rel)
    rep_b = analysis.verify_sphere(a, b, tol=tol)
    rep_c = analysis.verify_sphere(a, c, tol=tol)
    report.results["carrier_b"] = _carrier_dict(rep_b.carrier)
    report.results["carrier_c"] = _carrier_dict(rep_c.carrier)
    if rep_b.carrier.kind == "sphere" and rep_c.carrier.kind == "sphere":
        gap = (rep_b.carrier.center.distance_to(rep_c.carrier.center)
               + abs(rep_b.carrier.radius - rep_c.carrier.radius)) / tol.scene_scale
    else:
        worst_cross = 0.0
        for p in rep_c.points.values():
            worst_cross = max(worst_cross, abs(rep_b.carrier.signed_distance(p)))
        gap = worst_cross / tol.scene_scale
    report.results["carrier_gap"] = gap
    report.add_verdict("carriers_match", gap, CONJUGATE_CARRIER_TOL)


def cmd_curve(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    tol = _scene_tolerance(scene, a.vertices)
    window = None
    if args.window:
        parts = [float(x) for x in args.window.split(",")]
        if len(parts) != 4:
            raise SceneError(f"--window expects x0,y0,x1,y1, got {args.window!r}")
        window = tuple(parts)
    trace = analysis.trace_curve(a, args.face, window=window, grid=args.grid, tol=tol)
    report.results.update(export.trace_to_dict(trace))
    report.results["tet"] = args.tet
    if trace.polylines:
        report.add_verdict("vertices_on_curve", trace.residual_bound, CURVE_TOL)
    if args.degree_trials and trace.polylines:
        est = analysis.estimate_degree(trace, trials=args.degree_trials,
                                       rng_seed=args.degree_seed)
        report.results["degree_estimate"] = {
            "counts": {str(k): v for k, v in sorted(est.counts.items())},
            "max_count": est.max_count,
            "lines": est.lines,
            "tangency_flagged": est.tangency_flagged,
            "nine_observed": est.max_count == 9,
            "nine_exceeded": est.max_count > 9,
        }


def cmd_sequence(args, scene: Scene, report: Report) -> None:
    a_name, b_name, a, b = _pair(scene, args.pair)
    tol = _scene_tolerance(scene, list(a.vertices) + list(b.vertices))
    run = analysis.iterate_sequence(a, b, args.n, tol)
    report.results["pair"] = [a_name, b_name]
    report.results["tetrahedra"] = [_tet_list(t) for t in run.tetrahedra]
    report.results["carrier"] = _carrier_dict(run.carrier)
    report.results["shared_max_residual"] = run.shared_max_residual
    report.results["centers"] = [_point_list(p) for p in run.centers]
    report.results["distinct_centers"] = [_point_list(p) for p in run.distinct_centers]
    if run.truncated_at is not None:
        report.results["truncated_at"] = run.truncated_at
        report.results["truncation_reason"] = run.truncation_reason
    report.add_verdict("shared_sphere", run.shared_max_residual, SEQUENCE_SPHERE_TOL)
    report.add_verdict("two_centers", float(len(run.distinct_centers)), 2.0, op="==")
    report.add_verdict("complete", float(len(run.tetrahedra)), float(args.n + 1),
                       op="==")


def cmd_export(args, scene_doc, report: Report) -> None:
    pair = None
    if args.pair:
        names = args.pair.split(",")
        if len(names) != 2:
            raise SceneError(f"--pair expects NAME,NAME, got {args.pair!r}")
        pair = (names[0].strip(), names[1].strip())
    trace = None
    if args.curve:
        doc = _load_any(args.curve)
        if not isinstance(doc, dict):
            raise SceneError(f"--curve file {args.curve} is not a report JSON")
        trace = export.trace_from_dict(doc.get("results", doc))
    if isinstance(scene_doc, Scene):
        obj = scene_doc
    elif isinstance(scene_doc, dict):
        payload = scene_doc.get("results", scene_doc)
        if "polylines" in payload:
            obj = export.trace_from_dict(payload)
        else:
            obj = scene_doc
    else:
        raise SceneError("unsupported export input")
    text = export.export_text(obj, args.format, face=args.face, pair=pair,
                              trace=trace, sphere_res=args.sphere_res)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    report.results["written"] = args.out
    report.results["format"] = args.format
    report.results["bytes"] = len(text.encode("utf-8"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosect",
        description="Construct, solve and verify orthosecting tetrahedra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--out", help="write the report JSON here instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="embed wall time in the report JSON")

    p = sub.add_parser("verify", help="check a pair and its intersection sphere")
    common(p)
    p.add_argument("--pair", required=True, metavar="NAME,NAME")
    p.add_argument("--corollary4", action="store_true",
                   help="only require five intersecting edge pairs")

    p = sub.add_parser("solve", help="find orthosecting partners")
    common(p)
    p.add_argument("--tet", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--restarts", type=int, default=64)

    p = sub.add_parser("trace-family", help="continuation along the solution family")
    common(p)
    p.add_argument("--tet", required=True)
    p.add_argument("--start", required=True, help="solved partner to start from")
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--step", required=True, type=float, help="step size (scene units)")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("conjugate", help="construct the conjugate partner")
    common(p)
    p.add_argument("--pair", required=True, metavar="NAME,NAME")

    p = sub.add_parser("curve", help="trace the self-conjugate curve on a face")
    common(p)
    p.add_argument("--tet", required=True)
    p.add_argument("--face", required=True, type=int, choices=(1, 2, 3, 4))
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--window", metavar="x0,y0,x1,y1")
    p.add_argument("--degree-trials", type=int, default=0,
                   help="also estimate the curve degree with this many probe lines")
    p.add_argument("--degree-seed", type=int, default=0)

    p = sub.add_parser("sequence", help="iterate the conjugate construction")
    common(p)
    p.add_argument("--pair", required=True, metavar="NAME,NAME")
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("export", help="render a scene or saved trace")
    p.add_argument("--scene", required=True, help="scene or saved report JSON")
    p.add_argument("--format", required=True, choices=("svg", "obj", "json"))
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--face", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--pair", metavar="NAME,NAME")
    p.add_argument("--curve", help="saved curve report to overlay on the SVG")
    p.add_argument("--sphere-res", type=int, default=16)
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "trace-family": cmd_trace_family,
    "conjugate": cmd_conjugate,
    "curve": cmd_curve,
    "sequence": cmd_sequence,
}


def _load_any(path):
    """Scene file, or a previously written report (for export)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if isinstance(doc, dict) and "tetrahedra" in doc:
        return load_scene(path)
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(command=argv)
    started = time.monotonic()
    try:
        if args.command == "export":
            doc = _load_any(args.scene)
            cmd_export(args, doc, report)
        else:
            scene = load_scene(args.scene)
            _HANDLERS[args.command](args, scene, report)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotOrthologicError, NotOrthosectingError, GeometryError) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_time_s = time.monotonic() - started
    text = report.to_json(include_timing=args.timing)
    if args.out and args.command != "export":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
