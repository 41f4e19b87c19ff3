"""Command-line interface.

Commands: verify, solve, trace-family, conjugate, curve, sequence, export.
Reports are canonical JSON on stdout (or --out); exit code 0 when every
verdict passes, 1 when a verdict fails, 2 for rejected input. Wall time
goes to stderr so that reports stay byte-identical across runs;
--timing embeds it in the JSON for callers who want it there.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from . import analysis, export, solver
from .errors import GeometryError, SceneError
from .geom_core import carrier_through
from .orthology import (EDGE_PAIRINGS, centers_from_residuals, pair_measures, pairing_key,
                        require_orthosecting)
from .pedal import VERTEX_TOL
from .scene import (MAX_COORDINATE, Report, Scene, _read_json, dumps_canonical, load_scene,
                    scene_from_dict, scene_to_dict)

# gates for the conjugation command
CONJUGATE_CARRIER_TOL = 1e-8
# gates for the sequence command
SEQUENCE_SPHERE_TOL = 1e-6
# gates for family tracing
FAMILY_RESIDUAL_TOL = 1e-9
NULLITY_RATIO_TOL = 1e-8


def _number(text: str) -> float:
    """A finite float, as an argparse ``type``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """A positive finite float, as an argparse ``type``."""
    value = _number(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _window(text: str) -> Tuple[float, ...]:
    """The --window box x0,y0,x1,y1 with x1 > x0 and y1 > y0, as an
    argparse ``type``."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected x0,y0,x1,y1, got {text!r}")
    x0, y0, x1, y1 = (_number(p) for p in parts)
    if not (x1 > x0 and y1 > y0):
        raise argparse.ArgumentTypeError(f"expected x1 > x0 and y1 > y0, got {text!r}")
    return x0, y0, x1, y1


def _pair_names(spec: str) -> Tuple[str, str]:
    names = spec.split(",")
    if len(names) != 2:
        raise SceneError(f"--pair expects NAME,NAME, got {spec!r}")
    return names[0].strip(), names[1].strip()


def _pair(scene: Scene, spec: str, report: Report):
    """The tetrahedra of the pair ``spec`` names, which the report records,
    and their tolerance."""
    names = _pair_names(spec)
    a, b = (scene.tetrahedron(name) for name in names)
    report.results["pair"] = list(names)
    return a, b, scene.tolerance(np.vstack((a.array, b.array)))


def _carrier_dict(carrier) -> dict:
    if carrier.kind == "sphere":
        return {"kind": "sphere", "center": carrier.center.tolist(),
                "radius": carrier.radius}
    return {"kind": "plane",
            "normal": carrier.carrier.normal.tolist(),
            "offset": carrier.carrier.offset}


def cmd_verify(args, scene: Scene, report: Report) -> None:
    a, b, tol = _pair(scene, args.pair, report)
    report.results["scene_scale"] = tol.scene_scale
    measures = pair_measures(a, b, tol)
    ortho, gaps, _ = measures
    keys = [pairing_key(p) for p in EDGE_PAIRINGS]
    report.results["orthogonality_residuals"] = dict(zip(keys, ortho.tolist()))
    report.results["gaps"] = dict(zip(keys, gaps.tolist()))
    max_ortho = float(ortho.max())
    report.add_verdict("orthologic", max_ortho, tol.eps_rel)
    # with --corollary4 the worst gap is exempt: five intersections suffice
    worst = max(max_ortho, float(sorted(gaps)[-2] if args.corollary4 else gaps.max()))
    if max_ortho <= tol.eps_rel:
        oc = centers_from_residuals(a, b, ortho, tol)
        report.results["orthology_centers"] = {
            "center_a": oc.center_a.tolist(), "center_b": oc.center_b.tolist(),
            "spread_a": oc.spread_a, "spread_b": oc.spread_b}
    report.add_verdict("five_intersections" if args.corollary4 else "orthosecting",
                       worst, tol.eps_rel)
    if not worst <= tol.eps_rel:   # past here the pair is orthologic and oc is set
        return
    rep = analysis.sphere_from_measures(measures, oc, args.corollary4, tol)
    report.results["sphere"] = _carrier_dict(rep.carrier)
    report.results["sphere_residuals"] = {pairing_key(p): v for p, v in rep.residuals.items()}
    if args.corollary4:
        report.add_verdict("cospherical_5", rep.max_abs_residual, tol.eps_rel)
        return
    report.results["midpoint_gap"] = rep.midpoint_gap
    report.add_verdict("cospherical", rep.max_abs_residual, tol.eps_rel)
    if rep.midpoint_gap is not None:
        report.add_verdict("center_at_midpoint", rep.midpoint_gap, tol.eps_rel)


def cmd_solve(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    tol = scene.tolerance(a.array)
    cfg = solver.SolverConfig(seed=args.seed, restarts=args.restarts)
    result = solver.solve_detailed(a, cfg, tol)
    report.results["tet"] = args.tet
    report.results["seed"] = args.seed
    report.results["restarts"] = args.restarts
    report.results["solutions"] = [t.array.tolist() for t in result.solutions]
    report.results["diagnostics"] = [
        {"restart": d.restart, "converged": d.converged,
         "max_residual": d.max_residual if math.isfinite(d.max_residual) else None,
         "iterations": d.iterations, "reason": d.reason}
        for d in result.diagnostics]
    count = len(result.solutions)
    report.add_verdict("solutions_found", float(count), 1.0, op=">=")
    if count:
        worst = max(d.max_residual for d in result.diagnostics if d.reason == "solution")
        report.add_verdict("solution_residual", worst, 1e-10)


def cmd_trace_family(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    b0 = scene.tetrahedron(args.start)
    tol = scene.tolerance(np.vstack((a.array, b0.array)))
    branch = solver.trace_family(a, b0, steps=args.steps, h=args.step,
                                 direction=args.direction, tol=tol)
    report.results["tet"] = args.tet
    report.results["start"] = args.start
    coords = branch.coords
    report.results["samples"] = coords
    report.results["max_residuals"] = list(branch.max_residuals)
    # Tetrahedron.signed_volume of every sample, from one stacked det
    report.results["volumes"] = (np.linalg.det(coords[:, 1:] - coords[:, :1]) / 6.0).tolist()
    report.results["stop_reason"] = branch.stop_reason
    report.add_verdict("samples_residual", max(branch.max_residuals), FAMILY_RESIDUAL_TOL)
    sv = branch.singular_values
    worst_ratio = float((sv[:, -1] / np.maximum(sv[:, -2], 1e-300)).max())
    report.results["max_nullity_ratio"] = worst_ratio
    report.add_verdict("nullity_one", worst_ratio, NULLITY_RATIO_TOL)


def cmd_conjugate(args, scene: Scene, report: Report) -> None:
    a, b, tol = _pair(scene, args.pair, report)
    _, points_b = require_orthosecting(pair_measures(a, b, tol), tol)
    c, carrier_b, measures = analysis.conjugate_from_points(a, points_b, tol)
    report.results["conjugate"] = c.array.tolist()
    report.add_verdict("conjugate_orthosects", max(float(m.max()) for m in measures[:2]),
                       tol.eps_rel)
    _, points_c = require_orthosecting(measures, tol)
    carrier_c, _ = carrier_through(points_c, tol)
    report.results["carrier_b"] = _carrier_dict(carrier_b)
    report.results["carrier_c"] = _carrier_dict(carrier_c)
    if carrier_b.kind == "sphere" and carrier_c.kind == "sphere":
        gap = (float(np.linalg.norm(carrier_b.center - carrier_c.center))
               + abs(carrier_b.radius - carrier_c.radius)) / tol.scene_scale
    else:
        gap = max(abs(carrier_b.signed_distance(p)) for p in points_c) / tol.scene_scale
    report.results["carrier_gap"] = gap
    report.add_verdict("carriers_match", gap, CONJUGATE_CARRIER_TOL)


def cmd_curve(args, scene: Scene, report: Report) -> None:
    a = scene.tetrahedron(args.tet)
    tol = scene.tolerance(a.array)
    if args.window is not None:
        x0, y0, x1, y1 = args.window
        if math.hypot(max(-x0, x1), max(-y0, y1)) > MAX_COORDINATE * tol.scene_scale:
            raise SceneError(f"--window: a corner lies more than {MAX_COORDINATE:g} scene scales "
                             f"from the face centroid")
    trace = analysis.trace_curve(a, args.face, window=args.window, grid=args.grid, tol=tol)
    report.results.update(export.trace_to_dict(trace))
    report.results["tet"] = args.tet
    if trace.polylines:
        report.add_verdict("vertices_on_curve", trace.residual_bound, VERTEX_TOL)


def cmd_sequence(args, scene: Scene, report: Report) -> None:
    a, b, tol = _pair(scene, args.pair, report)
    run = analysis.iterate_sequence(a, b, args.n, tol)
    report.results["tetrahedra"] = [t.array.tolist() for t in run.tetrahedra]
    report.results["carrier"] = _carrier_dict(run.carrier)
    report.results["shared_max_residual"] = run.shared_max_residual
    report.results["centers"] = run.centers.tolist()
    report.results["distinct_centers"] = run.distinct_centers.tolist()
    if run.truncated_at is not None:
        report.results["truncated_at"] = run.truncated_at
        report.results["truncation_reason"] = run.truncation_reason
    report.add_verdict("shared_sphere", run.shared_max_residual, SEQUENCE_SPHERE_TOL)
    report.add_verdict("two_centers", float(len(run.distinct_centers)), 2.0, op="==")
    report.add_verdict("complete", float(len(run.tetrahedra)), float(args.n + 1),
                       op="==")


def cmd_export(args, report: Report) -> None:
    """Render the --scene document, read once: a scene as an SVG pedal
    diagram of --face, an OBJ or JSON; a saved curve report as SVG or JSON;
    any other report as JSON. --face, --pair, --curve (SVG) and --sphere-res
    (OBJ) serve one export of a scene and are rejected with any other."""
    doc = _read_json(args.scene)
    if not isinstance(doc, dict):
        raise SceneError("unsupported export input")
    results = doc.get("results", doc)
    kind = ("scene" if "tetrahedra" in doc else
            "curve report" if isinstance(results, dict) and "polylines" in results else "report")
    for fmt, flags in (("svg", ("face", "pair", "curve")), ("obj", ("sphere_res",))):
        given = ["--" + f.replace("_", "-") for f in flags if getattr(args, f) is not None]
        if given and (kind, args.format) != ("scene", fmt):
            raise SceneError(f"{', '.join(given)}: for the {fmt.upper()} export of a scene only")
    if kind == "scene":
        scene = scene_from_dict(doc)
        if args.format == "svg":
            if args.face is None:
                raise SceneError("SVG export of a 3D scene requires a declared face (--face)")
            trace = None
            if args.curve is not None:
                saved = _read_json(args.curve)
                if not isinstance(saved, dict):
                    raise SceneError(f"--curve file {args.curve} is not a report JSON")
                trace = export.trace_from_dict(saved.get("results", saved))
            pair = None if args.pair is None else _pair_names(args.pair)
            text = export.scene_to_svg(scene, args.face, pair, trace)
        elif args.format == "obj":
            text = (export.scene_to_obj(scene) if args.sphere_res is None
                    else export.scene_to_obj(scene, args.sphere_res))
        else:
            text = dumps_canonical(scene_to_dict(scene))
    elif kind == "curve report" and args.format != "obj":
        trace = export.trace_from_dict(results)
        text = (export.trace_to_svg(trace) if args.format == "svg"
                else dumps_canonical(export.trace_to_dict(trace)))
    elif kind == "report" and args.format == "json":
        text = dumps_canonical(doc)
    else:
        raise SceneError(f"cannot export a saved {kind} as {args.format}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    report.results["written"] = args.out
    report.results["format"] = args.format
    report.results["bytes"] = len(text.encode("utf-8"))


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
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
    p.add_argument("--seed", required=True, type=_at_least(0))
    p.add_argument("--restarts", type=_at_least(1), default=64)

    p = sub.add_parser("trace-family", help="continuation along the solution family")
    common(p)
    p.add_argument("--tet", required=True)
    p.add_argument("--start", required=True, help="solved partner to start from")
    p.add_argument("--steps", required=True, type=_at_least(0))
    p.add_argument("--step", required=True, type=_positive,
                   help="distance between samples along the family (scene units): a "
                        "skeleton at 5 steps filled in by one batched correction, the rest "
                        "walked at this step, no step longer than 1.5 of these")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("conjugate", help="construct the conjugate partner")
    common(p)
    p.add_argument("--pair", required=True, metavar="NAME,NAME")

    p = sub.add_parser("curve", help="trace the self-conjugate curve on a face")
    common(p)
    p.add_argument("--tet", required=True)
    p.add_argument("--face", required=True, type=int, choices=(1, 2, 3, 4))
    p.add_argument("--grid", type=_at_least(analysis.MIN_GRID), default=64)
    p.add_argument("--window", type=_window, metavar="x0,y0,x1,y1")
    # accepted so that existing command lines keep working
    p.add_argument("--degree-trials", type=_at_least(0), default=0,
                   help="ignored: the curve is an exact nonic, so no degree is estimated")
    p.add_argument("--degree-seed", type=_at_least(0), default=0,
                   help="ignored, like --degree-trials")

    p = sub.add_parser("sequence", help="iterate the conjugate construction")
    common(p)
    p.add_argument("--pair", required=True, metavar="NAME,NAME")
    p.add_argument("--n", required=True, type=_at_least(1))

    p = sub.add_parser("export", help="render a scene or saved trace")
    p.add_argument("--scene", required=True, help="scene or saved report JSON")
    p.add_argument("--format", required=True, choices=("svg", "obj", "json"))
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--face", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--pair", metavar="NAME,NAME")
    p.add_argument("--curve", help="saved curve report to overlay on the SVG")
    p.add_argument("--sphere-res", type=_at_least(4))
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "trace-family": cmd_trace_family,
    "conjugate": cmd_conjugate,
    "curve": cmd_curve,
    "sequence": cmd_sequence,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):   # as --window=X, a negative x0 is no option
        if argv[i] == "--window":
            argv[i:i + 2] = [f"--window={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    report = Report(command=argv)
    started = time.monotonic()
    try:
        if args.command == "export":
            cmd_export(args, report)
        else:
            _HANDLERS[args.command](args, load_scene(args.scene), report)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
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
