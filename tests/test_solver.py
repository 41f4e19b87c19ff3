"""Orthosecting system residuals, the restarted solver, continuation and
the constructive curve-point solver."""

import importlib.util
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from conftest import max_residual, random_tetrahedron, trace_vertices
from oracles import project_to_plane
from orthosect.analysis import trace_curve
from orthosect.errors import CurvePointError, DegenerateError
from orthosect.geom_core import Tolerance
from orthosect.orthology import EDGE_PAIRINGS, Tetrahedron, pair_measures, pair_tolerance
from orthosect.pedal import ChainKernel, chain_sphere_residual
from orthosect.scene import load_scene
from orthosect.solver import (
    FILL_CHORD_TOL,
    FILL_SPAN,
    HERMITE_MIN_COS,
    JUMP_FACTOR,
    MAX_COORD_FACTOR,
    MIN_EDGE_FACTOR,
    OrthosectSystem,
    _Walk,
    _lm_minimize,
    SolverConfig,
    solve,
    solve_detailed,
    solve_from_curve_point,
    trace_family,
)

T_REG = Tetrahedron.of([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def test_residuals_on_solution(demo_pair):
    a, b, tol = demo_pair
    values = OrthosectSystem(a, tol).residuals(b.array.reshape(12))
    assert np.abs(values).max() < 1e-10
    assert len(values) == 12


def test_treg_orthologic_but_skew():
    values = OrthosectSystem(T_REG).residuals(T_REG.array.reshape(12))
    assert np.abs(values[:6]).max() == 0.0
    assert np.abs(values[6:]).max() > 0.1
    assert pair_measures(T_REG, T_REG)[1].max() > 0.1


def test_residuals_rigid_motion_invariant():
    rng = np.random.default_rng(0)
    a = random_tetrahedron(rng)
    b = random_tetrahedron(rng)
    values = OrthosectSystem(a, pair_tolerance(a, b)).residuals(b.array.reshape(12))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(size=3) * 5
    a2 = Tetrahedron.of(a.array @ q.T + shift)
    b2 = Tetrahedron.of(b.array @ q.T + shift)
    moved = OrthosectSystem(a2, pair_tolerance(a2, b2)).residuals(b2.array.reshape(12))
    assert np.allclose(np.abs(values), np.abs(moved), atol=1e-12)


def test_residuals_zero_edge_error():
    """The pair kernel, which measures every pair a command checks, rejects
    a zero-length edge."""
    bad = Tetrahedron.of([(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DegenerateError):
        pair_measures(bad, T_REG)


@pytest.mark.parametrize("coords, edge", [
    ([(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)], "A12"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0)], "A34"),
])
def test_system_zero_edge_error(coords, edge):
    """The solver's system rejects a host with a zero-length edge, with the
    pair kernel's message, where it would divide by the edge length."""
    bad = Tetrahedron.of(coords)
    message = f"^zero-length edge {edge}$"
    with pytest.raises(DegenerateError, match=message):
        pair_measures(bad, T_REG)
    with pytest.raises(DegenerateError, match=message):
        OrthosectSystem(bad)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(1)
    a = random_tetrahedron(rng)
    sys = OrthosectSystem(a)
    x = rng.normal(size=12)
    jac = sys.jacobian(x)
    fd = np.zeros_like(jac)
    h = 1e-6
    for c in range(12):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        fd[:, c] = (sys.residuals(xp) - sys.residuals(xm)) / (2 * h)
    denom = max(np.abs(jac).max(), 1e-12)
    assert np.abs(jac - fd).max() / denom < 1e-6


class _LoopCollapse(Exception):
    """The loop reference's collapse, naming the first collapsed partner
    edge in pairing order."""


class _LoopSystem:
    """Reference: the orthosecting system evaluated one pairing at a time
    with np.dot, np.cross and np.linalg.norm on 3-vectors; a collapsed
    partner edge raises _LoopCollapse."""

    def __init__(self, host, scale):
        self.scale = scale
        self.rows = []
        for (i, j), (k, l) in EDGE_PAIRINGS:
            u = host[i - 1] - host[j - 1]
            self.rows.append(((k, l), u, float(np.linalg.norm(u)), host[i - 1]))

    def _edges(self, x):
        b = x.reshape(4, 3)
        out = []
        for (k, l), u, nu, ai in self.rows:
            w = b[k - 1] - b[l - 1]
            nw = float(np.linalg.norm(w))
            if nw <= 1e-9 * self.scale:
                raise _LoopCollapse(f"edge B{k}{l} collapsed")
            out.append((k, l, u, nu, ai, b[k - 1], w, nw))
        return out

    def residuals(self, x):
        vals = np.empty(12)
        edges = self._edges(x)
        for idx, (_, _, u, nu, _, _, w, nw) in enumerate(edges):
            vals[idx] = float(np.dot(u, w)) / (nu * nw)
        for idx, (k, l, u, nu, ai, bk, w, nw) in enumerate(edges):
            vals[6 + idx] = float(np.dot(np.cross(u, w), bk - ai)) / (nu * nw * self.scale)
        return vals

    def jacobian(self, x):
        jac = np.zeros((12, 12))
        edges = self._edges(x)
        for idx, (k, l, u, nu, _, _, w, nw) in enumerate(edges):
            g = float(np.dot(u, w)) / (nu * nw)
            dw = u / (nu * nw) - g * w / (nw * nw)
            jac[idx, 3 * (k - 1):3 * k] = dw
            jac[idx, 3 * (l - 1):3 * l] = -dw
        for idx, (k, l, u, nu, ai, bk, w, nw) in enumerate(edges):
            m = bk - ai
            denom = nu * nw * self.scale
            h = float(np.dot(np.cross(u, w), m)) / denom
            dw = np.cross(m, u) / denom - h * w / (nw * nw)
            dm = np.cross(u, w) / denom
            jac[6 + idx, 3 * (k - 1):3 * k] = dw + dm
            jac[6 + idx, 3 * (l - 1):3 * l] = -dw
        return jac


def _min_edge(x):
    """The shortest edge of the partner with coordinates ``x``."""
    b = x.reshape(4, 3)
    return min(float(np.linalg.norm(b[i] - b[j])) for i in range(4) for j in range(i + 1, 4))


def _evaluate(fn, x):
    try:
        return fn(x), None
    except _LoopCollapse as exc:
        return None, str(exc)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 12.0),
       merged=st.sampled_from(((), (0, 1), (1, 3), (2, 3), (0, 2, 3), (3, 2, 1))))
@settings(max_examples=120, deadline=None)
def test_system_matches_loop_reference_bit_for_bit(seed, log_scale, merged):
    """The array kernel reproduces the per-pairing loop exactly: the same
    residuals and Jacobian bits, from ``residuals``, ``jacobian`` and the
    fused ``evaluate`` alike, and the same shortest partner edge from
    ``evaluate``'s edge lengths. Merging partner vertices collapses edges:
    where the loop names the first collapsed edge in pairing order, the
    kernel returns NaN residuals and NaN in the 72 Jacobian entries they
    depend on, from all three alike, and LM from that start names the same
    edge."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(size=3) * scale
    host = random_tetrahedron(rng).array * scale @ q.T + shift
    partner = random_tetrahedron(rng).array * scale @ q.T + shift
    for j in merged[1:]:
        partner[j] = partner[merged[0]]
    x = partner.reshape(12)
    tol = Tolerance.for_points(host)
    system = OrthosectSystem(Tetrahedron.of(host), tol)
    ref = _LoopSystem(host, tol.scene_scale)
    fused = system.evaluate(x)
    for idx, name in enumerate(("residuals", "jacobian")):
        got = getattr(system, name)(x)
        want, want_msg = _evaluate(getattr(ref, name), x)
        assert (want_msg is None) == (not merged)
        assert np.array_equal(got, fused[idx], equal_nan=True)
        if merged:
            assert np.isnan(got).sum() == (12, 72)[idx]
        else:
            assert np.array_equal(got, want)
    assert fused[2].min() == _min_edge(x)
    if merged:
        assert _lm_minimize(system, x)[1:] == (math.inf, 0, want_msg, None)


@given(host=st.sampled_from(("demo", "random")), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-12.0, 12.0), rows=st.sampled_from((1, 2, 40)),
       collapsed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_evaluate_matches_one_partner_calls(demo_pair, host, seed, log_scale, rows,
                                                    collapsed):
    """evaluate over (R, 12) rows, drawn within 0.05 scene scales of a
    solved pair at scales 1e-12..1e12, returns (R, 12) residuals, (R, 12, 12)
    Jacobians and (R, 6) edge lengths, each row bit for bit the one-partner
    call on it. A row with a collapsed edge is flagged by NaN residuals and
    NaN in the 72 Jacobian entries they depend on, keeps its edge lengths
    and leaves the other rows as they are; the one-partner call on it,
    which LM and the corrector make, returns the same NaN row."""
    a, b = _drawn_pair(demo_pair, host, seed, log_scale)
    tol = pair_tolerance(a, b)
    system = OrthosectSystem(a, tol)
    rng = np.random.default_rng(seed)
    x = b.array.reshape(12) + 0.05 * tol.scene_scale * rng.normal(size=(rows, 12))
    bad = int(rng.integers(rows)) if collapsed else -1
    if collapsed:
        x[bad, 3:6] = x[bad, 0:3]
    r, jac, edges = system.evaluate(x)
    assert (r.shape, jac.shape, edges.shape) == ((rows, 12), (rows, 12, 12), (rows, 6))
    for k in range(rows):
        one = system.evaluate(x[k])
        for stacked, single in zip((r, jac, edges), one):
            assert np.array_equal(stacked[k], single, equal_nan=k == bad)
        if k == bad:
            assert np.isnan(r[k]).all() and np.isnan(jac[k]).sum() == 72
            assert edges[k].min() == 0.0 and edges[k].min() == _min_edge(x[k])


def test_empty_stack_and_a_fill_that_loses_every_row_raise_nothing(demo_pair):
    """evaluate over (0, 12) rows returns empty (0, 12), (0, 12, 12) and
    (0, 6) results. The fill evaluates such a stack when every row still
    correcting leaves h / 2 of its prediction in one iterate: here two nodes
    3 h off the family, across its tangent, so that the first Newton step
    of every sample moves it about 3 h. The fill keeps no segment and
    raises nothing."""
    a, b, tol = demo_pair
    system = OrthosectSystem(a, tol)
    r, jac, edges = system.evaluate(np.empty((0, 12)))
    assert (r.shape, jac.shape, edges.shape) == ((0, 12), (0, 12, 12), (0, 6))
    x = b.array.reshape(12)
    u, _, vt = np.linalg.svd(system.jacobian(x))
    h = 1e-3 * tol.scene_scale
    start = x + 3.0 * h * vt[0]
    nodes = np.array([start, start + FILL_SPAN * h * vt[-1]])
    evaluated = []
    real_evaluate = OrthosectSystem.evaluate

    def evaluate(sys_, y):
        evaluated.append(len(y))
        return real_evaluate(sys_, y)
    with mock.patch.object(OrthosectSystem, "evaluate", evaluate):
        kept = _Walk(system, u[:, -1], a.array.mean(axis=0)).fill(
            nodes, np.array([vt[-1], vt[-1]]), h)[3]
    assert kept == 0
    assert evaluated[:2] == [FILL_SPAN - 1, 0]


@given(host=st.sampled_from(("demo", "random")), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-12.0, 12.0), gap=st.sampled_from((0.0, 0.5)))
@settings(max_examples=60, deadline=None)
def test_collapsed_partner_is_a_nan_row_and_never_raises(demo_pair, host, seed, log_scale, gap):
    """A solved partner at scales 1e-12..1e12 with vertex B2 moved onto B1,
    or half the zero-length edge cut from it in a seeded direction:
    ``evaluate``, ``residuals`` and ``jacobian`` raise nothing, not even a
    floating-point error, and return NaN residuals and NaN in the 72
    Jacobian entries they depend on, with the six edge lengths as they are.
    LM from that start stops at once and names edge B12, the only collapsed
    one."""
    a, b = _drawn_pair(demo_pair, host, seed, log_scale)
    system = OrthosectSystem(a, pair_tolerance(a, b))
    direction = np.random.default_rng(seed).normal(size=3)
    x = b.array.copy()
    x[1] = x[0] + gap * system._zero_edge * direction / np.linalg.norm(direction)
    x = x.reshape(12)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        r, jac, edges = system.evaluate(x)
        assert np.array_equal(system.residuals(x), r, equal_nan=True)
        assert np.array_equal(system.jacobian(x), jac, equal_nan=True)
        assert _lm_minimize(system, x)[1:] == (math.inf, 0, "edge B12 collapsed", None)
    assert np.isnan(r).all() and np.isnan(jac).sum() == 72
    assert edges.min() == edges[5] == _min_edge(x) <= system._zero_edge


def _bordered_step(jac, r, tau, phi, weight, offset):
    """trace_family's corrector step: the Jacobian bordered by the left
    null vector ``phi`` and the weighted tangent row, solved by LU; the
    border unknown is dropped."""
    border = np.vstack([np.column_stack([jac, phi]), np.append(weight * tau, 0.0)])
    return np.linalg.solve(border, -np.append(r, weight * offset))[:12]


def _lstsq_step(jac, r, tau, phi, weight, offset):
    """The corrector step trace_family took before it was bordered: least
    squares on the Jacobian over the weighted tangent row (13x12)."""
    aug = np.vstack([jac, weight * tau])
    return np.linalg.lstsq(aug, -np.append(r, weight * offset), rcond=1e-13)[0]


def _hermite_start(x_prev, tau_prev, x, tau, step, x_pred):
    """trace_family's corrector start: the cubic Hermite extrapolation of
    the last two samples at step past x, in the chord's arclength, moved
    along tau onto the pseudo-arclength plane through ``x_pred``. Of its
    offset from x_pred only the tau_prev and chord terms are formed, since
    the move drops the tau term."""
    chord = x - x_prev
    sigma = step / np.linalg.norm(chord)
    v = (step * sigma * (1.0 + sigma)) * tau_prev - (sigma * sigma * (3.0 + 2.0 * sigma)) * chord
    return x_pred + (v - float(np.dot(tau, v)) * tau)


def _svd_tangent(jac, tau, phi, weight):
    """The tangent trace_family took before it was bordered: the last right
    singular vector of the Jacobian, signed along ``tau``, with the last
    left one as the next ``phi``."""
    u, _, vt = np.linalg.svd(jac)
    return (-vt[-1] if float(np.dot(vt[-1], tau)) < 0 else vt[-1]), u[:, -1]


def _bordered_tangent(jac, tau, phi, weight):
    """trace_family's tangent: the bordered corrector matrix solved for
    e_13 and normalized; ``phi`` stays the start's."""
    border = np.vstack([np.column_stack([jac, phi]), np.append(weight * tau, 0.0)])
    t = np.linalg.solve(border, np.eye(13)[12])[:12]
    return t / np.linalg.norm(t), phi


def _reference_trace(a, b0, steps, h, direction, tol, corrector=_bordered_step, system=None,
                     hermite=True, tangent=_svd_tangent, jump=JUMP_FACTOR):
    """Reference: the continuation loop with residuals and Jacobian
    evaluated separately on ``system`` (by default the per-pairing loop
    system), and both evaluated again at each accepted point for its
    residual and ``tangent``; each corrector iterate takes ``corrector``'s
    step. The start's tangent and phi come from its SVD, every sample's
    singular values from an SVD without vectors, and the branch-point test
    is made before each step. The corrector starts at the Euler point
    x_pred, or with ``hermite`` where trace_family's guard allows at
    ``_hermite_start``; a converged point more than ``jump`` h from x
    fails its attempt, which halves the step, as trace_family's walk at
    step h does; a step whose chord has no length stops the trace. Returns
    (samples, max residuals, singular values, stop reason, step halvings,
    corrections); the corrections are |point - prediction| / step of every
    accepted corrector point."""
    system = system or _LoopSystem(a.array, tol.scene_scale)
    scale = tol.scene_scale
    x = b0.array.reshape(12).copy()
    samples, residuals = [x], [float(np.abs(system.residuals(x)).max())]
    jac = system.jacobian(x)
    u, _, vt = np.linalg.svd(jac)
    tau, phi = vt[-1], u[:, -1]
    idx = int(np.argmax(np.abs(tau)))
    tau = float(direction) * (tau if tau[idx] >= 0 else -tau)
    s = np.linalg.svd(jac, compute_uv=False)
    singular_values = [s]
    stop, halvings, corrections = "steps exhausted", 0, []
    center = a.array.mean(axis=0)
    weight = 1.0 / scale
    x_prev = tau_prev = None
    for _ in range(steps):
        if s[-2] <= 1e-8 * max(s[-3], 1e-300):
            stop = "branch point (nullity >= 2)"
            break
        step = h
        accepted = None
        smooth = (hermite and tau_prev is not None
                  and float(np.dot(tau_prev, tau)) > HERMITE_MIN_COS)
        for _ in range(7):
            x_pred = x + step * tau
            y = (_hermite_start(x_prev, tau_prev, x, tau, step, x_pred) if smooth
                 else x_pred.copy())
            ok = False
            try:
                for _ in range(25):
                    ry = system.residuals(y)
                    if np.abs(ry).max() <= 1e-12:
                        ok = True
                        break
                    delta = corrector(system.jacobian(y), ry, tau, phi, weight,
                                      float(np.dot(tau, y - x_pred)))
                    if not np.isfinite(delta).all():
                        break
                    y = y + delta
            except (_LoopCollapse, np.linalg.LinAlgError):
                ok = False
            if ok and np.linalg.norm(y - x) <= jump * h:
                accepted = y
                break
            step *= 0.5
            halvings += 1
        if accepted is None:
            stop = "corrector divergence"
            break
        if np.linalg.norm(accepted - x) == 0.0:
            stop = "step below resolution"
            break
        x_prev, x = x, accepted
        corrections.append(float(np.linalg.norm(x - x_pred)) / step)
        if _min_edge(x) < MIN_EDGE_FACTOR * scale:
            stop = "degenerate: min edge filter"
            break
        if np.abs(x.reshape(4, 3) - center).max() > MAX_COORD_FACTOR * scale:
            stop = "degenerate: out of range"
            break
        samples.append(x)
        residuals.append(float(np.abs(system.residuals(x)).max()))
        jac = system.jacobian(x)
        tau_new, phi = tangent(jac, tau, phi, weight)
        tau_prev, tau = tau, tau_new
        s = np.linalg.svd(jac, compute_uv=False)
        singular_values.append(s)
    return samples, residuals, singular_values, stop, halvings, corrections


_ROOT = Path(__file__).resolve().parent.parent
_DEMO_SCENE = load_scene(_ROOT / "scenes" / "demo.json")


def _moved_pair(a, b, seed, log_scale):
    """The pair under a seeded rotation, the scale 10**log_scale and a
    shift at that scale."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(size=3) * scale
    return (Tetrahedron.of(a.array * scale @ q.T + shift),
            Tetrahedron.of(b.array * scale @ q.T + shift))


def _drawn_pair(demo_pair, host, seed, log_scale):
    """The demo scene's pair or the solved random pair, moved."""
    if host == "demo":
        return _moved_pair(_DEMO_SCENE.tetrahedron("A"), _DEMO_SCENE.tetrahedron("B"),
                           seed, log_scale)
    return _moved_pair(*demo_pair[:2], seed, log_scale)


# traces of a solved pair under a similarity transform, both directions,
# steps from a thousandth of the scene scale to about thirty times it, fewer
# than FILL_SPAN of them: such a trace takes no skeleton step and walks at
# step h throughout
_TRACE_DRAWS = dict(host=st.sampled_from(("demo", "random")), seed=st.integers(0, 2**32 - 1),
                    log_scale=st.floats(-12.0, 12.0), direction=st.sampled_from((1, -1)),
                    log_step=st.floats(-3.0, 1.5), steps=st.integers(1, FILL_SPAN - 1))


@given(**_TRACE_DRAWS)
# the demo pair: a trace that halves its step three times, its first step
# twice as the half step's corrected point lies more than JUMP_FACTOR h
# away, and one that halves it twice and leaves the coordinate range after
# three steps; and the random pair where the walk with no jump bound leaps
# out of the coordinate range at its last step, after 4 samples, while the
# bounded walk halves that step and takes all 4
@example(host="demo", seed=1, log_scale=0.0, direction=-1, log_step=-0.4, steps=4)
@example(host="demo", seed=1, log_scale=0.0, direction=-1, log_step=1.4, steps=4)
@example(host="random", seed=4292546943, log_scale=5.695330206894251, direction=1,
         log_step=-0.33861323084339867, steps=4)
@settings(max_examples=60, deadline=None)
def test_trace_family_matches_loop_reference_bit_for_bit(demo_pair, host, seed, log_scale,
                                                        direction, log_step, steps):
    """One fused evaluation per corrector iterate, reused at the accepted
    point for its residual and tangent, traces the same bits as the
    separate evaluations: samples, max residuals, singular values and
    stop reason, for solved pairs under similarity transforms, both
    directions, and steps from a thousandth of the scene scale to about
    thirty times it (halved steps, steps halved for leaping past JUMP_FACTOR
    h, early stops)."""
    a, b = _drawn_pair(demo_pair, host, seed, log_scale)
    tol = pair_tolerance(a, b)
    h = 10.0 ** log_step * tol.scene_scale
    branch = trace_family(a, b, steps=steps, h=h, direction=direction, tol=tol)
    samples, residuals, singular_values, stop, halvings, _ = _reference_trace(
        a, b, steps, h, direction, tol, tangent=_bordered_tangent)
    event(f"stop: {stop}")
    event(f"halved: {halvings > 0}")
    assert branch.stop_reason == stop
    assert len(branch.samples) == len(samples)
    for got, want in zip(branch.samples, samples):
        assert np.array_equal(got.array, want.reshape(4, 3))
    assert np.array_equal(branch.max_residuals, residuals)
    assert len(branch.singular_values) == len(singular_values)
    for got, want in zip(branch.singular_values, singular_values):
        assert np.array_equal(got, want)


# how far, in scene scales, the bordered corrector's samples may lie from the
# least-squares corrector's where the latter converged near its predictions;
# the worst of 9,897 such draws (in 4,263 of them each parameter sat at an
# end of its range with probability 0.3) was 1.4e-11
ORACLE_SAMPLE_TOL = 1e-9


def _assert_traces_agree(branch, oracle, scale):
    samples, _, _, stop, _, _ = oracle
    assert branch.stop_reason == stop
    assert len(branch) == len(samples)
    diff = np.abs(branch.coords - np.reshape(samples, (-1, 4, 3))).max()
    assert diff <= ORACLE_SAMPLE_TOL * scale


@given(**_TRACE_DRAWS)
# a long-step trace whose tangent turns by more than acos(0.999) but less
# than acos(0.99) over a step: a Hermite start there settles on a sample
# 1.5 scene scales from the least-squares trace's
@example(host="random", seed=0, log_scale=0.0, direction=-1, log_step=1.0703125, steps=4)
@settings(max_examples=60, deadline=None)
def test_trace_family_matches_least_squares_corrector(demo_pair, host, seed, log_scale,
                                                      direction, log_step, steps):
    """The bordered corrector, started where trace_family starts it, traces
    what the least-squares corrector it replaced traced from the Euler
    point: the same stop reason and sample count, and samples within
    ORACLE_SAMPLE_TOL scene scales, wherever the least-squares trace
    converged near its predictions (each accepted point within one step of
    its prediction, no step halved). Beyond that, the pseudo-arclength
    hyperplane of a long step can meet the family again far away, and the
    two Newton iterations may settle on different meets or halve
    differently: of 14,000 draws, 4 outside this range stopped differently
    or took samples 3-22 scene scales apart, either corrector taking the
    far meet."""
    a, b = _drawn_pair(demo_pair, host, seed, log_scale)
    tol = pair_tolerance(a, b)
    h = 10.0 ** log_step * tol.scene_scale
    oracle = _reference_trace(a, b, steps, h, direction, tol, _lstsq_step,
                              OrthosectSystem(a, tol), hermite=False)
    halvings, corrections = oracle[4:]
    assume(halvings == 0 and max(corrections, default=0.0) <= 1.0)
    event(f"stop: {oracle[3]}")
    branch = trace_family(a, b, steps=steps, h=h, direction=direction, tol=tol)
    _assert_traces_agree(branch, oracle, tol.scene_scale)


def _load_bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", _ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


_BENCH_INPUTS = _load_bench_inputs()


@pytest.fixture(scope="module")
def bench_family_ops(tmp_path_factory):
    """The trace-family ops of the benchmark's pairs deck, by (seed, slot,
    direction); a seed's deck is built on first use."""
    decks = {}

    def op(seed, slot, direction):
        if seed not in decks:
            deck = _BENCH_INPUTS.pairs_deck(seed, *_BENCH_INPUTS.load_demo(_ROOT),
                                            tmp_path_factory.mktemp(f"pairs{seed}"))
            decks[seed] = {(o.meta["slot"], o.meta["direction"]): o.argv
                           for o in deck if o.kind == "trace_family"}
        return decks[seed][slot, direction]
    return op


def _whole_steps(trace, step):
    """How many leading steps of a per-step trace (``_reference_trace``'s
    result) were whole: not halved, and a chord no longer than (1 +
    FILL_CHORD_TOL) step, as trace_family's skeleton takes them. A sample
    lies on the pseudo-arclength plane of its step, so the length the step
    took along the tangent is its chord over sqrt(1 + correction^2): the
    step, or at most half of it where it was halved (a halved step's chord
    can still be as long as the step)."""
    samples, corrections = trace[0], trace[5]
    chords = np.linalg.norm(np.diff(np.reshape(samples, (-1, 12)), axis=0), axis=1)
    taken = chords / np.sqrt(1.0 + np.square(corrections[:len(chords)]))
    whole = (taken >= 0.75 * step) & (chords <= (1.0 + FILL_CHORD_TOL) * step)
    return len(whole) if whole.all() else int(whole.argmin())


def _least_squares_fill(system, nodes, count):
    """A reference for the samples trace_family fills in between its first
    ``count`` + 1 skeleton ``nodes``: each predicted on the cubic Hermite
    curve through two neighbouring nodes with their SVD tangents, signed
    along the chord, in the chord's length, at chord fraction j /
    FILL_SPAN, and corrected by least-squares Newton steps on [J; n^T /
    scale], n the curve's unit tangent there, holding n . (y - prediction)
    = 0. Returns the samples and their predictions (count, FILL_SPAN - 1,
    12) and the samples' max |residual| (count, FILL_SPAN - 1)."""
    scale = system.scale
    nodes = np.reshape(nodes, (-1, 12))[:count + 1]
    fills, preds = np.empty((2, count, FILL_SPAN - 1, 12))
    worst = np.empty((count, FILL_SPAN - 1))
    for i in range(count):
        x0, x1 = nodes[i], nodes[i + 1]
        chord = x1 - x0
        length = np.linalg.norm(chord)
        t0, t1 = (np.linalg.svd(system.jacobian(x))[2][-1] for x in (x0, x1))
        t0, t1 = (t if np.dot(t, chord) > 0 else -t for t in (t0, t1))
        for j in range(1, FILL_SPAN):
            u = j / FILL_SPAN
            # the Hermite basis h00, h10, h01, h11 and its derivative at u
            basis = (2 * u**3 - 3 * u**2 + 1, u**3 - 2 * u**2 + u, -2 * u**3 + 3 * u**2,
                     u**3 - u**2)
            slope = (6 * u**2 - 6 * u, 3 * u**2 - 4 * u + 1, -6 * u**2 + 6 * u, 3 * u**2 - 2 * u)
            p = basis[0] * x0 + basis[1] * length * t0 + basis[2] * x1 + basis[3] * length * t1
            n = slope[0] * x0 + slope[1] * length * t0 + slope[2] * x1 + slope[3] * length * t1
            n = n / np.linalg.norm(n)
            y = p.copy()
            for _ in range(25):
                r = system.residuals(y)
                if np.abs(r).max() <= 1e-12:
                    break
                y = y + _lstsq_step(system.jacobian(y), r, n, None, 1.0 / scale,
                                    float(np.dot(n, y - p)))
            fills[i, j - 1], preds[i, j - 1] = y, p
            worst[i, j - 1] = np.abs(system.residuals(y)).max()
    return fills, preds, worst


def _fill_guard_fails(system, nodes, h, center):
    """Whether trace_family's fill guard fails on the segment between the
    two ``nodes``, judged on the least-squares fill: a prediction or
    sample spaced with a chord outside FILL_CHORD_TOL h of h, a sample not
    converged, more than h / 2 from its prediction, or past a degeneracy
    filter."""
    fills, preds, worst = (v[0] for v in _least_squares_fill(system, nodes, 1))

    def banded(y):
        chords = np.linalg.norm(np.diff(np.vstack((nodes[0], y, nodes[1])), axis=0), axis=1)
        return (np.abs(chords - h) <= FILL_CHORD_TOL * h).all()
    return (not banded(preds) or not banded(fills) or not (worst <= 1e-12).all()
            or (np.linalg.norm(fills - preds, axis=1) > 0.5 * h).any()
            or min(_min_edge(y) for y in fills) < MIN_EDGE_FACTOR * system.scale
            or np.abs(fills.reshape(-1, 4, 3) - center).max() > MAX_COORD_FACTOR * system.scale)


# the bench ops on which the least-squares corrector, from the Euler point,
# leaps 295 steps along the family after sample 37, past a partner edge
# that shrinks toward the min-edge filter by 1.1e-3 scene scales a step
_ORACLE_JUMPS = {(seed, 6, 1) for seed in (1, 2, 3, 4)}
_JUMP_SAMPLES = 38


@pytest.mark.parametrize("seed, slot, direction", [
    (seed, slot, direction) for seed in (1, 2, 3, 4)
    for slot in range(sum(_BENCH_INPUTS.PAIR_HOSTS.values())) for direction in (1, -1)])
def test_trace_family_matches_least_squares_corrector_on_bench_ops(bench_family_ops, seed,
                                                                   slot, direction):
    """The benchmark's 64 trace-family ops (pairs decks of seeds 1-4) keep
    the stop reason and sample count of the least-squares corrector's trace
    at step h with no jump bound, and no step of theirs is longer than 1.5 steps; where the
    least-squares trace jumps (``_ORACLE_JUMPS``), trace_family stops before
    the jump at the min-edge filter. Each op either batches throughout or
    not at all: where the least-squares trace at step FILL_SPAN h takes
    whole steps (``_whole_steps``) to the end, its samples are
    trace_family's skeleton nodes, every FILL_SPAN-th sample, within
    ORACLE_SAMPLE_TOL scene scales, each sample in between lies within
    ORACLE_SAMPLE_TOL of ``_least_squares_fill``'s, and every chord lies
    within FILL_CHORD_TOL h of h; where its first step is not whole (the
    slot-6 ops, whose first chords at step FILL_SPAN h are 3.3% and 4.6%
    longer than the step), trace_family walks at step h from the start,
    and its samples are the least-squares trace's within
    ORACLE_SAMPLE_TOL."""
    argv = bench_family_ops(seed, slot, direction)
    scene = load_scene(argv[argv.index("--scene") + 1])
    a, b = scene.tetrahedron("A"), scene.tetrahedron("B")
    steps, h = int(argv[argv.index("--steps") + 1]), float(argv[argv.index("--step") + 1])
    tol = pair_tolerance(a, b)
    system = OrthosectSystem(a, tol)
    oracle = _reference_trace(a, b, steps, h, direction, tol, _lstsq_step, system, hermite=False,
                              jump=math.inf)
    branch = trace_family(a, b, steps=steps, h=h, direction=direction, tol=tol)
    lengths = np.linalg.norm(np.diff(branch.coords.reshape(-1, 12), axis=0), axis=1)
    assert (lengths <= 1.5 * h).all()
    samples = np.reshape(oracle[0], (-1, 4, 3))
    if (seed, slot, direction) in _ORACLE_JUMPS:
        assert np.linalg.norm(samples[_JUMP_SAMPLES] - samples[_JUMP_SAMPLES - 1]) > 100.0 * h
        assert branch.stop_reason == "degenerate: min edge filter"
        assert len(branch) == _JUMP_SAMPLES
    else:
        assert (branch.stop_reason, len(branch)) == (oracle[3], len(samples))
    walk = _reference_trace(a, b, steps // FILL_SPAN, FILL_SPAN * h, direction, tol,
                            _lstsq_step, system, hermite=False)
    skeleton, whole = walk[0], _whole_steps(walk, FILL_SPAN * h)
    if whole == 0:
        diff = np.abs(branch.coords - samples[:len(branch)]).max()
        assert diff <= ORACLE_SAMPLE_TOL * tol.scene_scale
        return
    assert whole == steps // FILL_SPAN == len(skeleton) - 1 and len(branch) == steps + 1
    nodes = branch.coords[::FILL_SPAN]
    diff = np.abs(nodes - np.reshape(skeleton, (-1, 4, 3))).max()
    assert diff <= ORACLE_SAMPLE_TOL * tol.scene_scale
    fills = np.delete(branch.coords.reshape(-1, 12), np.s_[::FILL_SPAN], axis=0)
    want = _least_squares_fill(system, nodes, whole)[0].reshape(-1, 12)
    assert np.abs(fills - want).max() <= ORACLE_SAMPLE_TOL * tol.scene_scale
    assert (np.abs(lengths - h) <= FILL_CHORD_TOL * h).all()


@given(**{**_TRACE_DRAWS, "steps": st.integers(1, 60)})
# the demo scene's pair, batched throughout; and the random pair at a step
# whose skeleton turns too fast after one node: its one segment's
# predictions are spaced outside the chord band, and it walks at step h
# from the start
@example(host="demo", seed=1, log_scale=0.0, direction=-1, log_step=-2.5, steps=50)
@example(host="random", seed=0, log_scale=0.0, direction=1, log_step=math.log10(0.03), steps=20)
# a skeleton whose first step is halved, yet its chord is 1.0036 times the
# step; and a trace whose walk at step h, 0.0355 h ahead of the per-step
# trace's after its one batched segment, would leap 130 h where that trace
# halves its step
@example(host="demo", seed=2231299161, log_scale=10.822516693964396, direction=-1,
         log_step=0.6271761626794894, steps=22)
@example(host="random", seed=2369019378, log_scale=10.912562942832022, direction=1,
         log_step=-1.6066000778640535, steps=45)
# a 7-step trace whose walk at step h with no jump bound takes a chord of
# 1.92 h and leaves the coordinate range after 6 samples; with the bound it
# takes all 7 steps
@example(host="demo", seed=1215283013, log_scale=10.456477340179838, direction=1,
         log_step=0.9232670290774831, steps=7)
# the 8-step draws of the short-trace oracle tests: a skeleton step that is
# halved three times and a walk at step h whose first chord is 0.27 h; one
# that leaves the coordinate range after three steps; and the long step
# whose tangent turns by more than acos(0.999); none has a whole skeleton
# step
@example(host="demo", seed=1, log_scale=0.0, direction=-1, log_step=-0.4, steps=8)
@example(host="demo", seed=1, log_scale=0.0, direction=-1, log_step=1.4, steps=8)
@example(host="random", seed=0, log_scale=0.0, direction=-1, log_step=1.0703125, steps=8)
@settings(max_examples=40, deadline=None)
def test_batched_trace_keeps_the_skeleton_and_takes_no_long_chord(
        demo_pair, host, seed, log_scale, direction, log_step, steps):
    """A trace of 1-60 steps walks its skeleton as the per-step walk at step
    FILL_SPAN h does, bit for bit: the nodes it hands ``_Walk.fill`` are
    that walk's samples (``_reference_trace``, today's loop) up to its first
    step that is not whole (``_whole_steps``), and every FILL_SPAN-th sample
    of the batched prefix, the segments the fill kept, is one of those
    nodes. The fill keeps every segment unless its guard fails on the first
    one it drops, as the least-squares fill confirms
    (``_fill_guard_fails``), and the prefix's chords lie within
    FILL_CHORD_TOL h of h. No chord is longer than JUMP_FACTOR h = 1.5 h;
    the per-step trace at step h with no such bound takes one in 822 of
    3,000 uniform draws of these parameters at 10-60 steps, and in 93 of
    400 at 1-9 steps."""
    a, b = _drawn_pair(demo_pair, host, seed, log_scale)
    tol = pair_tolerance(a, b)
    h = 10.0 ** log_step * tol.scene_scale
    system = OrthosectSystem(a, tol)
    fills = []
    real_fill = _Walk.fill

    def fill(walk, nodes, tangents, step):
        out = real_fill(walk, nodes, tangents, step)
        fills.append((nodes, out[3]))
        return out
    with mock.patch.object(_Walk, "fill", fill):
        branch = trace_family(a, b, steps=steps, h=h, direction=direction, tol=tol)
    walk = _reference_trace(a, b, steps // FILL_SPAN, FILL_SPAN * h, direction, tol,
                            system=system, tangent=_bordered_tangent)
    skeleton, whole = np.reshape(walk[0], (-1, 12)), _whole_steps(walk, FILL_SPAN * h)
    # a skeleton of no whole step has no segment to fill
    assert len(fills) == (whole > 0)
    nodes, kept = fills[0] if fills else (skeleton[:1], 0)
    assert np.array_equal(nodes, skeleton[:whole + 1])
    flat = branch.coords.reshape(-1, 12)
    assert np.array_equal(flat[:FILL_SPAN * kept + 1:FILL_SPAN], nodes[:kept + 1])
    if kept < whole:
        assert _fill_guard_fails(system, nodes[kept:kept + 2], h, a.array.mean(axis=0))
    event("no whole skeleton step" if whole == 0 else
          f"batched: {'every whole node' if kept == whole else 'fewer nodes'}")
    lengths = np.linalg.norm(np.diff(flat, axis=0), axis=1)
    assert (np.abs(lengths[:FILL_SPAN * kept] - h) <= FILL_CHORD_TOL * h).all()
    assert (lengths <= JUMP_FACTOR * h).all()
    unbounded = _reference_trace(a, b, steps, h, direction, tol, system=system,
                                 tangent=_bordered_tangent, jump=math.inf)
    event(f"stop: {'as unbounded' if branch.stop_reason == unbounded[3] else 'differs'}")
    jumps = np.linalg.norm(np.diff(np.reshape(unbounded[0], (-1, 12)), axis=0), axis=1) > 1.5 * h
    event(f"the unbounded trace {'jumps' if jumps.any() else 'takes no chord over 1.5 h'}")


def _count_calls(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` in ``calls[name]`` while the test
    runs."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_trace_family_evaluates_once_per_corrector_iterate(demo_pair, monkeypatch):
    """Every corrector iterate is one evaluate: of one partner on a walk
    (the skeleton, or the walk at step h), of every fill-in still
    correcting in the batch. On a walk an attempt that converges makes one
    more evaluate than Newton (square LU) solves, and the batch makes one
    stacked solve per iterate but its last; no least-squares solve is made,
    and the residual-only and Jacobian-only views are never called. Every
    walk step but a walk's first adds one LU solve for the tangent at the
    sample it starts from, and a skeleton that takes all its steps one
    more for its last node, which its fill reads. A trace makes two SVDs:
    the start's, for its tangent and left null vector, and one stacked over
    every sample for the singular values.

    - The demo scene's 50-step trace: a skeleton of 10 steps of 0.15 (24
      Newton iterations, 10 tangents), then its 40 fill-ins in 2 stacked
      evaluates and 1 stacked solve: 35 evaluates and 34 solves of one
      partner, where the walk at step h made 102 and 100.
    - The random demo pair's 20-step trace at 0.03 scene scales: its second
      skeleton step is longer than (1 + FILL_CHORD_TOL) 5 h, the predictions
      of its one whole segment are spaced outside the chord band, so none is
      corrected, and it walks its 20 steps at step h from the start: 78
      evaluates and 75 solves of one partner, where the walk alone made 69
      and 67."""
    calls = dict.fromkeys(("evaluate", "stacked evaluate", "solve", "stacked solve",
                           "residuals", "jacobian", "lstsq", "svd"), 0)

    def counted(owner, name, stacked):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls["stacked " + name if stacked(*args) else name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    counted(OrthosectSystem, "evaluate", lambda system, x: x.ndim == 2)
    counted(np.linalg, "solve", lambda m, rhs: m.ndim == 3)
    for name in ("residuals", "jacobian"):
        _count_calls(monkeypatch, calls, OrthosectSystem, name)
    for name in ("lstsq", "svd"):
        _count_calls(monkeypatch, calls, np.linalg, name)
    a, b, tol = demo_pair
    demo_a, demo_b = _DEMO_SCENE.tetrahedron("A"), _DEMO_SCENE.tetrahedron("B")
    for a, b, tol, steps, h, want in (
            (a, b, tol, 20, 0.03 * tol.scene_scale, (78, 0, 75, 0)),
            (demo_a, demo_b, _DEMO_SCENE.tolerance(np.vstack((demo_a.array, demo_b.array))),
             50, 0.03, (35, 2, 34, 1))):
        calls.update(dict.fromkeys(calls, 0))
        branch = trace_family(a, b, steps=steps, h=h, tol=tol)
        assert branch.stop_reason == "steps exhausted" and len(branch) == steps + 1
        assert (calls["evaluate"], calls["stacked evaluate"], calls["solve"],
                calls["stacked solve"]) == want
        assert calls["svd"] == 2
        assert calls["lstsq"] == calls["residuals"] == calls["jacobian"] == 0


def _in_loop_branch_cut(singular_values, steps):
    """The branch-point rule as a loop makes it before each step: the
    sample count and stop reason of a trace of len(singular_values)
    samples that ran out of steps."""
    for k, s in enumerate(singular_values[:steps]):
        if s[-2] <= 1e-8 * max(s[-3], 1e-300):
            return k + 1, "branch point (nullity >= 2)"
    return len(singular_values), "steps exhausted"


# per case, the samples whose (s[-3], s[-2]) are set, and to what
@pytest.mark.parametrize("crafted", [
    {}, {0: (1.0, 1e-9)}, {5: (1.0, 1e-8)}, {6: (1.0, 1e-12)}, {5: (1.0, 1.01e-8)},
    {2: (1.0, 1e-9), 4: (1.0, 1e-12)}, {3: (0.0, 0.0)}, {1: (0.0, 1e-309)},
    {1: (0.0, 1e-307), 3: (2.0, 1e-8)},
], ids=["none", "start", "last-step", "end-sample", "near-miss", "first-of-two",
        "zeros", "floor-hit", "floor-miss"])
def test_trace_family_branch_cut_matches_in_loop_rule(demo_pair, monkeypatch, crafted):
    """The branch-point test trace_family makes on its stacked singular
    values after the loop cuts the trace where the same test made before
    each step would have stopped it, on crafted stacks: a hit at the start,
    at sample steps - 1 (the last a step is taken from) and none at sample
    steps, the first of two hits, ratios at and just past 1e-8, and the
    1e-300 floor on s[-3]."""
    a, b, tol = demo_pair
    steps = 6
    stack = np.tile(np.linspace(10.0, 1.0, 12), (steps + 1, 1))
    stack[:, -1] = 1e-15
    for k, (s3, s2) in crafted.items():
        stack[k, -3:-1] = s3, s2
    real = np.linalg.svd

    def svd(m, *args, compute_uv=True, **kwargs):
        if compute_uv:
            return real(m, *args, **kwargs)
        return stack[:len(m)].copy()
    monkeypatch.setattr(np.linalg, "svd", svd)
    branch = trace_family(a, b, steps=steps, h=0.03 * tol.scene_scale, tol=tol)
    count, stop = _in_loop_branch_cut(stack, steps)
    assert (len(branch), branch.stop_reason) == (count, stop)
    assert len(branch.max_residuals) == len(branch.singular_values) == count
    assert np.array_equal(np.array(branch.singular_values), stack[:count])


@pytest.mark.parametrize("failure", ["LinAlgError", "non-finite step"])
def test_trace_family_halves_the_step_after_a_failed_solve(demo_pair, monkeypatch, failure):
    """A corrector solve of the walk at step h that raises LinAlgError, or
    returns a non-finite step, fails its attempt as a collapse does: the
    step is halved, with no warning, and the trace goes on at the full step.
    A trace of fewer than FILL_SPAN steps takes no skeleton step, so its
    first solve is the walk's."""
    a, b, tol = demo_pair
    h = 0.03 * tol.scene_scale
    steps = FILL_SPAN - 1
    half = trace_family(a, b, steps=1, h=0.5 * h, tol=tol)
    real = np.linalg.solve
    failed = []

    def solve_failing_once(*args, **kwargs):
        if failed:
            return real(*args, **kwargs)
        failed.append(failure)
        if failure == "LinAlgError":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(13, np.inf)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
    branch = trace_family(a, b, steps=steps, h=h, tol=tol)
    assert failed and branch.stop_reason == "steps exhausted" and len(branch) == steps + 1
    # the first sample is the half step's, bit for bit
    assert np.array_equal(branch.coords[1], half.coords[1])
    lengths = np.linalg.norm(np.diff(branch.coords.reshape(-1, 12), axis=0), axis=1)
    assert lengths[0] < 0.75 * h and (lengths[1:] > 0.75 * h).all()


def test_solve_evaluates_residuals_and_jacobian_together(demo_pair, monkeypatch):
    """The damped iteration and its polish take residuals and Jacobian from
    one evaluate per point; the residual-only and Jacobian-only views are
    never called."""
    a, _, tol = demo_pair
    calls = {"evaluate": 0, "residuals": 0, "jacobian": 0}
    for name in calls:
        _count_calls(monkeypatch, calls, OrthosectSystem, name)
    result = solve_detailed(a, SolverConfig(seed=7, restarts=8), tol)
    assert result.solutions
    assert calls["evaluate"] >= sum(d.iterations for d in result.diagnostics)
    assert calls["residuals"] == calls["jacobian"] == 0


def test_solve_finds_verified_solutions():
    rng = np.random.default_rng(2)
    a = random_tetrahedron(rng)
    solutions = solve(a, SolverConfig(seed=3, restarts=16))
    assert solutions
    for b in solutions[:3]:
        assert max_residual(a, b) <= 1e-10
        assert pair_measures(a, b)[1].max() <= 1e-10


def test_solve_deterministic():
    rng = np.random.default_rng(3)
    a = random_tetrahedron(rng)
    cfg = SolverConfig(seed=17, restarts=8)
    first = solve(a, cfg)
    second = solve(a, cfg)
    assert len(first) == len(second)
    for s1, s2 in zip(first, second):
        assert (s1.array == s2.array).all()  # bitwise


def test_solve_rejects_flat_host():
    flat = Tetrahedron.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateError):
        solve(flat, SolverConfig(seed=0, restarts=1))


def test_solve_diagnostics_shape():
    rng = np.random.default_rng(4)
    a = random_tetrahedron(rng)
    result = solve_detailed(a, SolverConfig(seed=5, restarts=6))
    assert len(result.diagnostics) == 6
    assert all(d.reason for d in result.diagnostics)


def test_orthogonality_rows_rank_five(demo_pair):
    a, b, tol = demo_pair
    sys = OrthosectSystem(a, tol)
    jac = sys.jacobian(b.array.reshape(12))
    sv = np.linalg.svd(jac[:6], compute_uv=False)
    assert sv[5] <= 1e-8 * sv[4]
    # the constant unnormalized matrix likewise has rank five
    sv_m = np.linalg.svd(sys.orthogonality_matrix(), compute_uv=False)
    assert sv_m[5] <= 1e-10 * sv_m[0]


def test_full_jacobian_nullity_one(demo_pair):
    a, b, tol = demo_pair
    sys = OrthosectSystem(a, tol)
    sv = np.linalg.svd(sys.jacobian(b.array.reshape(12)), compute_uv=False)
    assert sv[-1] <= 1e-8 * sv[-2]
    assert sv[-2] > 1e-6 * sv[0]


def test_trace_family_residuals(demo_pair):
    a, b, tol = demo_pair
    branch = trace_family(a, b, steps=50, h=0.01 * tol.scene_scale, tol=tol)
    assert len(branch.samples) == 51
    assert max(branch.max_residuals) <= 1e-9
    # consecutive samples stay within twice the step size
    for s0, s1 in zip(branch.samples, branch.samples[1:]):
        dist = np.linalg.norm((s1.array - s0.array).reshape(12))
        assert dist <= 2.0 * branch.step_size + 1e-12


def test_trace_family_direction_reversal(demo_pair):
    a, b, tol = demo_pair
    h = 0.02 * tol.scene_scale
    fwd = trace_family(a, b, steps=5, h=h, direction=1, tol=tol)
    rev = trace_family(a, b, steps=5, h=h, direction=-1, tol=tol)
    assert (fwd.samples[0].array == rev.samples[0].array).all()
    d_fwd = (fwd.samples[1].array - b.array).reshape(12)
    d_rev = (rev.samples[1].array - b.array).reshape(12)
    # opposite arcs: the first steps point against each other
    cos = np.dot(d_fwd, d_rev) / (np.linalg.norm(d_fwd) * np.linalg.norm(d_rev))
    assert cos < -0.9


def test_trace_family_rejects_bad_start(demo_pair):
    a, b, tol = demo_pair
    off = Tetrahedron.of(b.array + 0.1 * tol.scene_scale)
    with pytest.raises(ValueError):
        trace_family(a, off, steps=5, h=0.01 * tol.scene_scale, tol=tol)


def test_family_lies_over_curve(demo_pair):
    a, b, tol = demo_pair
    branch = trace_family(a, b, steps=12, h=0.02 * tol.scene_scale, tol=tol)
    for sample in branch.samples[::3]:
        b4 = project_to_plane(sample.vertex(4), a.face_plane(4))
        fs = chain_sphere_residual(a, b4, tol)
        assert fs and min(abs(f) for f in fs) <= 1e-6


def test_solve_from_curve_point_roundtrip(demo_pair):
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    rebuilt = solve_from_curve_point(a, b4, tol)
    assert np.abs(rebuilt.array - b.array).max() <= 1e-7 * tol.scene_scale
    assert max_residual(a, rebuilt, tol) <= 1e-8


def test_solve_from_curve_point_builds_one_chain(demo_pair, monkeypatch):
    """Every call makes one co-sphericity pass, builds the six feet once, in
    that pass, and makes no sphericity call. A successful call builds its
    chain from those feet, with no second completion. Each CurvePointError
    reads the validated roots of the same pass: coincident feet at the
    projection of the demo host's vertex 4 onto its face, no root far out
    on a face, and off the curve 0.05 of the demo host's edge 12 from that
    projection."""
    a, b, tol = demo_pair
    demo = _DEMO_SCENE.tetrahedron("A")
    foot = project_to_plane(demo.vertex(4), demo.face_plane(4))
    cases = {"on the curve": (a, project_to_plane(b.vertex(4), a.face_plane(4)), tol),
             "coincident feet": (demo, foot, None),
             "no sphericity root": (a, _rootless_point(a, tol), tol),
             "off the curve": (demo, foot + 0.05 * (demo.vertex(2) - demo.vertex(1)), None)}
    calls = dict.fromkeys(("_cosphericity_samples", "_feet", "_chains", "sphericity_batch"), 0)
    for name in calls:
        _count_calls(monkeypatch, calls, ChainKernel, name)
    for case, (host, point, tol) in cases.items():
        calls.update(dict.fromkeys(calls, 0))
        if case == "on the curve":
            solve_from_curve_point(host, point, tol)
        else:
            with pytest.raises(CurvePointError, match=case):
                solve_from_curve_point(host, point, tol)
        assert calls == {"_cosphericity_samples": 1, "_feet": 1,
                         "_chains": int(case == "on the curve"), "sphericity_batch": 0}, case


def test_solve_from_curve_point_rejects_off_curve(demo_pair):
    a, b, tol = demo_pair
    b4 = project_to_plane(b.vertex(4), a.face_plane(4))
    e1 = a.vertex(2) - a.vertex(1)
    e1 = e1 / np.linalg.norm(e1)
    for ang_step in range(8):
        shifted = b4 + 0.05 * tol.scene_scale * e1
        fs = chain_sphere_residual(a, shifted, tol)
        if fs:
            with pytest.raises(CurvePointError):
                solve_from_curve_point(a, shifted, tol)
            return
        e1 = np.cross(a.face_plane(4).normal, e1)
    pytest.skip("no real roots near the shifted point for this seed")


def _rootless_point(a, tol):
    """A point of face 123, 3, 6 or 12 scene scales from its centroid,
    where Q has no validated root."""
    face = a.array[:3]
    e1 = (face[1] - face[0]) / np.linalg.norm(face[1] - face[0])
    e2 = np.cross(a.face_plane(4).normal, e1)
    for radius in (3.0, 6.0, 12.0):
        for ang in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
            p = face.mean(axis=0) + radius * tol.scene_scale * (np.cos(ang) * e1
                                                                + np.sin(ang) * e2)
            if not chain_sphere_residual(a, p, tol):
                return p
    pytest.fail("no face point without a sphericity root in a wide scan")


def test_solve_from_curve_point_without_root_raises(demo_pair):
    """A face point where Q has no validated root is not a curve point."""
    a, _, tol = demo_pair
    with pytest.raises(CurvePointError, match="no sphericity root"):
        solve_from_curve_point(a, _rootless_point(a, tol), tol)


def test_solve_from_curve_point_polished_near_face_vertex(demo_pair):
    """At the grid-128 trace vertices within 1e-2 scene scales of a face
    vertex, where the curve has a triple point and the rebuilt chain is
    least accurate, the polished partner orthosects to round-off."""
    a, _, tol = demo_pair
    trace = trace_curve(a, 4, grid=128, tol=tol)
    checked = 0
    for p in trace_vertices(trace):
        if np.linalg.norm(a.array[:3] - p, axis=1).min() > 1e-2 * tol.scene_scale:
            continue
        rebuilt = solve_from_curve_point(a, p, tol)
        assert max_residual(a, rebuilt, tol) <= 1e-12
        assert pair_measures(a, rebuilt, tol)[1].max() <= 1e-12
        checked += 1
    assert checked >= 10
