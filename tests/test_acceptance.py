"""Acceptance criteria at their stated tolerances.

Each test prints one pass/fail line (also echoed in the terminal summary)
and asserts the criterion, including its runtime budget. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from conftest import (ACCEPTANCE_LINES, find_partner, five_point_partner, max_residual,
                      random_tetrahedron, trace_vertices)
from oracles import circular_net, construct_orthologic, pedal_circle, project_to_plane
from orthosect.analysis import (
    conjugate,
    iterate_sequence,
    trace_curve,
    verify_sphere,
)
from orthosect.cli import main
from orthosect.errors import GeometryError, SimsonDegenerateError
from orthosect.geom_core import Tolerance
from orthosect.orthology import (
    EDGE_PAIRINGS,
    Tetrahedron,
    edge_orthogonality_residuals,
    orthology_centers,
    pair_measures,
    pair_tolerance,
)
from orthosect.pedal import (
    chain_from_pair,
    chain_sphere_residual,
    complete_chain,
    isogonal_conjugate,
    reconstruct_tetrahedron,
    spherical_chain,
)
from orthosect.scene import Scene, save_scene
from orthosect.solver import (
    OrthosectSystem,
    SolverConfig,
    solve_detailed,
    solve_from_curve_point,
    trace_family,
)

_PAIRS = []


def _record(name, ok, detail, elapsed, budget):
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"({elapsed:.1f} s, budget {budget:.0f} s)")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok and elapsed < budget, line


def _get_pairs(count=20):
    rng = np.random.default_rng(2025)
    attempt = 0
    while len(_PAIRS) < count:
        host = random_tetrahedron(rng)
        attempt += 1
        try:
            partner = find_partner(host, base_seed=attempt)
        except RuntimeError:
            continue
        _PAIRS.append((host, partner, pair_tolerance(host, partner)))
    return _PAIRS[:count]


def test_prop1_equivalence_via_construction():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst_res = 0.0
    worst_spread = 0.0
    done = 0
    while done < 200:
        a = random_tetrahedron(rng)
        tol = Tolerance.for_points(a.vertices)
        center = a.array.mean(axis=0) + rng.normal(size=3) * 0.5 * tol.scene_scale
        offsets = rng.normal(size=4) * tol.scene_scale
        try:
            b = construct_orthologic(a, center, offsets, tol)
            residuals = edge_orthogonality_residuals(a, b)
            rep = orthology_centers(a, b)
        except GeometryError:
            continue
        worst_res = max(worst_res, max(residuals.values()))
        worst_spread = max(worst_spread, rep.spread_a, rep.spread_b)
        done += 1
    elapsed = time.monotonic() - started
    ok = worst_res <= 1e-10 and worst_spread <= 1e-9
    _record("Orthology equivalence (200 constructions)", ok,
            f"max residual {worst_res:.2e} <= 1e-10, max spread {worst_spread:.2e} <= 1e-9",
            elapsed, 5.0)


def test_five_orthogonality_conditions_imply_sixth():
    started = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    done = 0
    while done < 200:
        a = random_tetrahedron(rng)
        rows = []
        for (i, j), (k, l) in EDGE_PAIRINGS[:5]:
            u = a.vertex(i) - a.vertex(j)
            row = np.zeros(12)
            row[3 * (k - 1):3 * k] = u
            row[3 * (l - 1):3 * l] = -u
            rows.append(row)
        null = np.linalg.svd(np.array(rows))[2][5:]
        b = None
        for _ in range(10):
            x = null.T @ rng.normal(size=null.shape[0])
            cand = Tetrahedron.of(x.reshape(4, 3))
            edges = [np.linalg.norm(cand.array[m] - cand.array[n])
                     for m in range(4) for n in range(m + 1, 4)]
            if min(edges) > 0.05 * max(edges):
                b = cand
                break
        if b is None:
            continue
        res = edge_orthogonality_residuals(a, b)
        worst = max(worst, res[EDGE_PAIRINGS[5]])
        done += 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10
    _record("Sixth orthogonality condition (200 linear solves)", ok,
            f"max sixth residual {worst:.2e} <= 1e-10", elapsed, 5.0)


def test_six_intersection_points_cospherical():
    started = time.monotonic()
    pairs = _get_pairs(20)
    worst_res = 0.0
    worst_mid = 0.0
    for a, b, tol in pairs:
        rep = verify_sphere(a, b, tol=tol)
        worst_res = max(worst_res, rep.max_abs_residual)
        assert rep.midpoint_gap is not None
        worst_mid = max(worst_mid, rep.midpoint_gap)
    elapsed = time.monotonic() - started
    ok = worst_res <= 1e-7 and worst_mid <= 1e-7
    _record("Common sphere of 6 intersection points (20 solved pairs)", ok,
            f"max sphere residual {worst_res:.2e} <= 1e-7, "
            f"max center-midpoint gap {worst_mid:.2e} <= 1e-7", elapsed, 120.0)


def test_five_intersections_cospherical():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    least_dropped = math.inf
    done = 0
    trial = 0
    while done < 5 and trial < 20:
        trial += 1
        a = random_tetrahedron(rng)
        result = solve_detailed(a, SolverConfig(seed=300 + trial, restarts=10))
        if not result.solutions:
            continue
        b = five_point_partner(a, result.solutions[0], trial % 6, rng)
        skip = EDGE_PAIRINGS[trial % 6]
        gaps = pair_measures(a, b)[1]
        if np.delete(gaps, trial % 6).max() > 1e-9:
            continue
        rep = verify_sphere(a, b, five_point=True)
        assert skip not in rep.residuals and len(rep.residuals) == 5
        worst = max(worst, rep.max_abs_residual)
        least_dropped = min(least_dropped, gaps[trial % 6])
        done += 1
    elapsed = time.monotonic() - started
    ok = done == 5 and worst <= 1e-7 and least_dropped > 1e-6
    _record("Five-intersection relaxation (5 configurations)", ok,
            f"{done}/5 configurations, max residual {worst:.2e} <= 1e-7, "
            f"min dropped-pair gap {least_dropped:.2e} > 1e-6",
            elapsed, 60.0)


def test_chain_completion_closure():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    done = 0
    host = None
    while done < 1000:
        if done % 50 == 0:
            host = random_tetrahedron(rng)
            tol = Tolerance.for_points(host.vertices)
            plane = host.face_plane(4)
        w = rng.dirichlet((1.0, 1.0, 1.0))
        p = sum(wi * host.vertex(m) for wi, m in zip(w, (1, 2, 3)))
        b4 = project_to_plane(p + rng.normal(size=3) * 0.8, plane)
        t = float(rng.uniform(-1, 1)) * tol.scene_scale
        try:
            chain = complete_chain(host, b4, t, tol)
        except GeometryError:
            continue
        worst = max(worst, chain.closure_spread / tol.scene_scale)
        done += 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9
    _record("Chain completion closure (1000 random chains)", ok,
            f"max closure spread {worst:.2e} <= 1e-9 scene scales", elapsed, 10.0)


def test_reconstruction_roundtrip_and_circular_nets():
    started = time.monotonic()
    pairs = _get_pairs(20)
    worst_vertex = 0.0
    worst_net = 0.0
    for a, b, tol in pairs:
        chain = chain_from_pair(a, b, tol)
        sc = spherical_chain(chain, tol)
        rebuilt = reconstruct_tetrahedron(sc, tol)
        worst_vertex = max(worst_vertex,
                           float(np.abs(rebuilt.array - b.array).max()) / tol.scene_scale)
        for edge in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            net = circular_net(chain, edge)
            worst_net = max(worst_net, net.max_residual / tol.scene_scale)
    elapsed = time.monotonic() - started
    ok = worst_vertex <= 1e-8 and worst_net <= 1e-9
    _record("Chain reconstruction + circular nets (20 pairs)", ok,
            f"max vertex error {worst_vertex:.2e} <= 1e-8, "
            f"max net residual {worst_net:.2e} <= 1e-9", elapsed, 30.0)


def test_isogonal_conjugate_pedal_circles():
    started = time.monotonic()
    rng = np.random.default_rng(5)
    worst_circle = 0.0
    worst_involution = 0.0
    done = 0
    while done < 500:
        pts = rng.normal(size=(3, 3)) * 2
        area2 = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        longest = max(np.linalg.norm(pts[1] - pts[0]),
                      np.linalg.norm(pts[2] - pts[0]),
                      np.linalg.norm(pts[2] - pts[1]))
        if area2 / longest < 0.2:
            continue
        face = list(pts)
        tol = Tolerance.for_points(face)
        w = rng.dirichlet((1.5, 1.5, 1.5))
        src = sum(wi * f for wi, f in zip(w, face))
        try:
            c_p = pedal_circle(src, face, tol)
            q = isogonal_conjugate(src, face, tol)
            c_q = pedal_circle(q, face, tol)
            back = isogonal_conjugate(q, face, tol)
        except SimsonDegenerateError:
            continue
        worst_circle = max(worst_circle,
                           (np.linalg.norm(c_p.center - c_q.center)
                            + abs(c_p.radius - c_q.radius)) / tol.scene_scale)
        worst_involution = max(worst_involution,
                               np.linalg.norm(back - src) / tol.scene_scale)
        done += 1
    elapsed = time.monotonic() - started
    ok = worst_circle <= 1e-10 and worst_involution <= 1e-10
    _record("Shared pedal circles + involution (500 samples)", ok,
            f"max circle mismatch {worst_circle:.2e} <= 1e-10, "
            f"max involution error {worst_involution:.2e} <= 1e-10", elapsed, 5.0)


def test_conjugate_pairs_share_carrier():
    started = time.monotonic()
    pairs = _get_pairs(20)[:10]
    worst_inv = 0.0
    worst_carrier = 0.0
    for a, b, tol in pairs:
        c = conjugate(a, b, tol)
        back = conjugate(a, c, tol)
        worst_inv = max(worst_inv,
                        float(np.abs(back.array - b.array).max()) / tol.scene_scale)
        rep_b = verify_sphere(a, b, tol=tol)
        rep_c = verify_sphere(a, c, tol=tol)
        assert rep_b.carrier.kind == rep_c.carrier.kind == "sphere"
        gap = (np.linalg.norm(rep_b.carrier.center - rep_c.carrier.center)
               + abs(rep_b.carrier.radius - rep_c.carrier.radius)) / tol.scene_scale
        worst_carrier = max(worst_carrier, gap)
    elapsed = time.monotonic() - started
    ok = worst_inv <= 1e-7 and worst_carrier <= 1e-8
    _record("Conjugate pairs (10 solved pairs)", ok,
            f"max involution error {worst_inv:.2e} <= 1e-7, "
            f"max carrier gap {worst_carrier:.2e} <= 1e-8", elapsed, 60.0)


def test_self_conjugate_curve():
    started = time.monotonic()
    a, b, tol = _get_pairs(1)[0]
    trace = trace_curve(a, 4, grid=128, tol=tol)
    face = (a.vertex(1), a.vertex(2), a.vertex(3))
    worst_conj = 0.0
    worst_solve = 0.0
    checked = 0
    for p in trace_vertices(trace):
        if checked >= 100:
            break
        try:
            q = isogonal_conjugate(p, face, tol)
            fs_q = chain_sphere_residual(a, q, tol)
            fs_p = chain_sphere_residual(a, p, tol)
        except GeometryError:
            continue
        if not fs_q or not fs_p:
            continue
        rebuilt = solve_from_curve_point(a, p, tol)
        worst_conj = max(worst_conj, min(abs(f) for f in fs_q))
        worst_solve = max(worst_solve,
                          max_residual(a, rebuilt, tol),
                          pair_measures(a, rebuilt, tol)[1].max())
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 100 and worst_conj <= 1e-5 and worst_solve <= 1e-6
    _record("Self-conjugate curve (100 traced vertices, grid 128)", ok,
            f"{checked}/100 vertices, max conjugate residual {worst_conj:.2e} <= 1e-5, "
            f"max reconstructed residual {worst_solve:.2e} <= 1e-6", elapsed, 120.0)


def test_family_continuation():
    started = time.monotonic()
    a, b, tol = _get_pairs(1)[0]
    branch = trace_family(a, b, steps=50, h=0.01 * tol.scene_scale, tol=tol)
    sys_ = OrthosectSystem(a, tol)
    worst_null = 0.0
    for sample in branch.samples:
        sv = np.linalg.svd(sys_.jacobian(sample.array.reshape(12)), compute_uv=False)
        worst_null = max(worst_null, float(sv[-1] / sv[-2]))
    elapsed = time.monotonic() - started
    ok = (len(branch.samples) == 51
          and max(branch.max_residuals) <= 1e-9
          and worst_null <= 1e-8)
    _record("Family continuation (50 steps)", ok,
            f"{len(branch.samples) - 1} steps, max residual "
            f"{max(branch.max_residuals):.2e} <= 1e-9, "
            f"max nullity ratio {worst_null:.2e} <= 1e-8", elapsed, 60.0)


def test_conjugate_sequence_hypotheses():
    started = time.monotonic()
    a, b, tol = _get_pairs(1)[0]
    run = iterate_sequence(a, b, 5, tol)
    elapsed = time.monotonic() - started
    ok = (run.truncated_at is None
          and len(run.tetrahedra) == 6
          and run.shared_max_residual <= 1e-6
          and len(run.distinct_centers) == 2)
    _record("Conjugate sequence hypotheses (6 terms)", ok,
            f"shared-sphere residual {run.shared_max_residual:.2e} <= 1e-6, "
            f"{len(run.distinct_centers)} distinct orthology centers (expect 2)",
            elapsed, 120.0)


def test_curve_degree_exact():
    pytest.importorskip("sympy")
    from test_curve_exact import HOSTS, exact_curve

    started = time.monotonic()
    found = [[(name, mult) for name, _, mult in exact_curve(i).factors]
             for i in range(len(HOSTS))]
    elapsed = time.monotonic() - started
    expected = [("F9", 1), ("L23", 1), ("N12", 1), ("N13", 1)]
    matches = sum(factors == expected for factors in found)
    _record("Curve degree (exact)", matches == len(HOSTS),
            f"Res_t(P, Q) factors over Q as L23 * N12 * N13 * F9, F9 irreducible of "
            f"degree 9, on {matches}/{len(HOSTS)} rational hosts", elapsed, 60.0)


def test_seeded_reports_byte_identical(tmp_path):
    started = time.monotonic()
    a, b, tol = _get_pairs(1)[0]
    scene_path = tmp_path / "scene.json"
    save_scene(Scene(tetrahedra={"A": a, "B": b}), scene_path)
    out = tmp_path / "report.json"
    runs = []
    for argv in (
        ["solve", "--scene", str(scene_path), "--tet", "A", "--seed", "9",
         "--restarts", "4", "--out", str(out)],
        ["verify", "--scene", str(scene_path), "--pair", "A,B", "--out", str(out)],
    ):
        main(argv)
        first = out.read_bytes()
        main(argv)
        runs.append(first == out.read_bytes())
    elapsed = time.monotonic() - started
    ok = all(runs)
    _record("Seeded command determinism", ok,
            f"solve and verify reports byte-identical across reruns: {runs}",
            elapsed, 60.0)
