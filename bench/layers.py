"""Per-call microbenchmarks of each module's public functions.

Every layer runs on fixed demo inputs (the demo pair A, B of
``scenes/demo.json`` at its own scale), is warmed before timing, and
reports the median of its per-call times. One ``solve --restarts 64`` of
the demo host gives the restarted-LM counts, which repeat exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

BUDGET_S = 0.3     # timing budget per layer after warm-up
MIN_CALLS = 5
SOLVE_SEED = 7     # the demo-host solve whose report gives the LM counts
SOLVE_RESTARTS = 64


def _median_call(fn: Callable[[], object], budget: float = BUDGET_S) -> float:
    """Median seconds per call of ``fn`` after two warm-up calls."""
    fn()
    fn()
    times: List[float] = []
    clock = time.perf_counter
    deadline = clock() + budget
    while len(times) < MIN_CALLS or clock() < deadline:
        start = clock()
        fn()
        times.append(clock() - start)
    return statistics.median(times)


def _median_per_unit(fn: Callable[[], int], reps: int) -> float:
    """Median over ``reps`` runs of seconds per unit, where ``fn`` returns
    how many units (restarts, samples) one run did."""
    fn()
    per_unit = []
    for _ in range(reps):
        start = time.perf_counter()
        units = fn()
        per_unit.append((time.perf_counter() - start) / max(units, 1))
    return statistics.median(per_unit)


def measure(root: Path) -> Dict[str, Tuple[float, str]]:
    """{metric name: (value, unit)} for every layer metric."""
    from orthosect import (
        Report, SolverConfig, analysis, chain_from_pair, chain_sphere_residual,
        circle_through, closest_points, edge_orthogonality_residuals, export,
        isogonal_conjugate, load_scene, orthology_centers, pair_tolerance,
        reconstruct_tetrahedron, solve_detailed, sphere_through, spherical_chain,
        trace_family,
    )
    from orthosect.scene import Verdict
    from orthosect.solver import OrthosectSystem

    from ops import call_cli

    demo_path = root / "scenes" / "demo.json"
    scene = load_scene(demo_path)
    a, b = scene.tetrahedron("A"), scene.tetrahedron("B")
    tol = pair_tolerance(a, b)
    face = (a.vertex(1), a.vertex(2), a.vertex(3))
    chain = chain_from_pair(a, b, tol)
    source = chain.sources[3]
    sc = spherical_chain(chain, tol)
    system = OrthosectSystem(a, tol)
    x = b.array.reshape(12).copy()
    _, text, _ = call_cli(["sequence", "--scene", str(demo_path), "--pair", "A,B", "--n", "6"])
    doc = json.loads(text)      # a typical report: the demo pair's sequence
    report = Report(command=doc["command"], results=doc["results"],
                    verdicts=[Verdict(**v) for v in doc["verdicts"]])
    restarts = 16

    us, ms = 1e6, 1e3
    out: Dict[str, Tuple[float, str]] = {}

    def per_call(name: str, fn, factor: float, unit: str) -> None:
        out[name] = (_median_call(fn) * factor, unit)

    per_call("geom_core.closest_points_us",
             lambda: closest_points(a.edge_line(1, 2), b.edge_line(3, 4), tol), us, "us")
    per_call("geom_core.sphere_through_us", lambda: sphere_through(*a.vertices, tol=tol), us, "us")
    per_call("geom_core.circle_through_us", lambda: circle_through(*face, tol=tol), us, "us")
    per_call("orthology.edge_orthogonality_residuals_us",
             lambda: edge_orthogonality_residuals(a, b, tol), us, "us")
    per_call("orthology.orthology_centers_us", lambda: orthology_centers(a, b, tol), us, "us")
    per_call("pedal.chain_sphere_residual_us",
             lambda: chain_sphere_residual(a, source, tol), us, "us")
    per_call("pedal.isogonal_conjugate_us",
             lambda: isogonal_conjugate(source, face, tol), us, "us")
    per_call("pedal.chain_from_pair_us", lambda: chain_from_pair(a, b, tol), us, "us")
    per_call("pedal.reconstruct_tetrahedron_us",
             lambda: reconstruct_tetrahedron(sc, tol), us, "us")
    per_call("solver.residuals_us", lambda: system.residuals(x), us, "us")
    per_call("solver.jacobian_us", lambda: system.jacobian(x), us, "us")
    out["solver.restart_ms"] = (_median_per_unit(
        lambda: len(solve_detailed(a, SolverConfig(seed=SOLVE_SEED, restarts=restarts),
                                  tol).diagnostics),
        reps=3) * ms, "ms")
    out["solver.family_step_ms"] = (_median_per_unit(
        lambda: len(trace_family(a, b, steps=50, h=0.03, tol=tol).samples), reps=3) * ms, "ms")
    per_call("analysis.verify_sphere_us", lambda: analysis.verify_sphere(a, b, tol=tol), us, "us")
    per_call("analysis.conjugate_us", lambda: analysis.conjugate(a, b, tol), us, "us")
    per_call("analysis.iterate_sequence_ms",
             lambda: analysis.iterate_sequence(a, b, 6, tol), ms, "ms")
    per_call("scene.load_scene_us", lambda: load_scene(demo_path), us, "us")
    per_call("scene.report_to_json_us", report.to_json, us, "us")
    per_call("export.scene_to_svg_ms", lambda: export.scene_to_svg(scene, 4), ms, "ms")
    per_call("export.scene_to_obj_ms", lambda: export.scene_to_obj(scene), ms, "ms")
    # restarted LM, read from one demo-host solve report as the CLI prints it
    _, text, _ = call_cli(["solve", "--scene", str(demo_path), "--tet", "A",
                           "--seed", str(SOLVE_SEED), "--restarts", str(SOLVE_RESTARTS)])
    solved = json.loads(text)["results"]
    diags = solved["diagnostics"]
    out["solver.lm_iterations"] = (float(sum(d["iterations"] for d in diags)), "count")
    out["solver.converged_share"] = (sum(d["converged"] for d in diags) / len(diags), "ratio")
    out["partners_found"] = (float(len(solved["solutions"])), "count")
    # one call: at the seed this takes seconds, the rest above warmed the modules
    start = time.perf_counter()
    analysis.trace_curve(a, 4, grid=64)
    out["analysis.trace_curve_s"] = (time.perf_counter() - start, "s")
    return out

