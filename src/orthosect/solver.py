"""Numerical solution of the orthosecting constraint system.

The twelve unknown partner-vertex coordinates satisfy six linear
orthogonality conditions (only five independent) and six quadratic
intersection conditions, so solutions form a one-parameter family.
``solve`` finds members by restarted damped least squares seeded inside
the orthogonality null space; ``trace_family`` follows the family with a
predictor-corrector continuation along the Jacobian's null direction: a
skeleton at FILL_SPAN steps, the samples between its nodes corrected in
one stacked batch (``OrthosectSystem.evaluate`` over (R, 12) rows, one
stacked LU solve per iterate), and a walk at one step for the steps left,
no chord longer than JUMP_FACTOR steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .errors import CurvePointError, DegenerateError
from .geom_core import _CROSS_U, _CROSS_V, Tolerance, as_array, dot_rows
from .orthology import (Tetrahedron, _I, _J, _K, _L, pair_measures, pair_tolerance,
                        require_orthosecting)
from .pedal import (FEET_TOL, VERTEX_TOL, ChainKernel, _face_source, _require_orthosection,
                    partner_from_points)


# degeneracy filters shared by solve and trace_family, in scene scales: a
# partner edge shorter than MIN_EDGE_FACTOR, or a partner vertex farther
# than MAX_COORD_FACTOR from the host's centroid, is rejected
MIN_EDGE_FACTOR = 1e-3
MAX_COORD_FACTOR = 50.0
# damped least squares: iteration cap, initial damping and the factors that
# raise it after a rejected step and lower it after an accepted one
LM_MAX_ITERATIONS = 150
LM_LAMBDA0 = 1e-3
LM_LAMBDA_UP = 4.0
LM_LAMBDA_DOWN = 3.0
# continuation: the corrector starts from the cubic Hermite extrapolation of
# the last two samples when the tangent turned by less than acos() of this
# over the last step, and from the Euler point otherwise
HERMITE_MIN_COS = 0.999
# a trace walks a skeleton at FILL_SPAN steps, none when it has fewer, and
# corrects the samples between its nodes in one stacked batch; a skeleton
# step, and each chord of a batched sample, stays within FILL_CHORD_TOL of
# its step's length
FILL_SPAN = 5
FILL_CHORD_TOL = 0.01
# the walk at step h after the batched prefix halves a step whose
# corrected point lies more than JUMP_FACTOR h from the last sample: the
# corrector jumped along the family
JUMP_FACTOR = 1.5
# max residual that stops the damped iteration and the continuation's
# correctors, and the one a solution needs
TARGET_RESIDUAL = 1e-12
ACCEPT_RESIDUAL = 1e-11
# solutions whose vertices all lie within this many scene scales are one
DEDUPE_FACTOR = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    seed: int
    restarts: int = 64

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class SolutionBranch:
    """Samples of a traced family, their vertices as one read-only
    (n, 4, 3) array, with per sample the max residual and, as one read-only
    (n, 12) array, the singular values of the Jacobian (descending)."""

    coords: np.ndarray
    step_size: float
    max_residuals: Tuple[float, ...]
    stop_reason: str
    singular_values: np.ndarray

    @cached_property
    def samples(self) -> Tuple[Tetrahedron, ...]:
        return tuple(Tetrahedron.of(c) for c in self.coords)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class RestartDiagnostic:
    restart: int
    converged: bool
    max_residual: float
    iterations: int
    reason: str


@dataclass(frozen=True, eq=False)
class SolveResult:
    solutions: Tuple[Tetrahedron, ...]
    diagnostics: Tuple[RestartDiagnostic, ...]


# Gather indices of ``OrthosectSystem.evaluate``. Its input buffer holds
# the host's vertices A_1..A_4 then the partner's B_1..B_4 (rows 4-7), and
# its (30, 3) work array holds, six rows each per pairing: W = B_k - B_l,
# M = B_k - A_i, U (constant), M x U and U x W.
_WM = tuple(3 * np.stack((np.concatenate((_K, _K)) + 4, np.concatenate((_L + 4, _I))))[:, :, None]
            + np.arange(3))
_W, _M, _U, _UW = (np.arange(6) + 6 * q for q in (0, 1, 2, 4))
# both cross products in np.cross's order (see geom_core.cross_rows): the
# rows [M, U] times [U, W], component c as u[c+1] v[c+2] - u[c+2] v[c+1]
_CROSS = (3 * np.concatenate((_M, _U))[:, None] + _CROSS_U,
          3 * np.concatenate((_U, _W))[:, None] + _CROSS_V)
# W.W, U.W and (U x W).M as one row-wise matmul (see geom_core.dot_rows)
_DOTS = ((3 * np.concatenate((_W, _U, _UW))[:, None] + np.arange(3))[:, None, :],
         (3 * np.concatenate((_W, _W, _M))[:, None] + np.arange(3))[:, :, None])


class OrthosectSystem:
    """Residuals and analytic Jacobian of the orthosecting conditions for a
    fixed host, as functions of the twelve partner coordinates. All twelve
    residuals vanish exactly when the partner orthosects the host under the
    given labeling.

    Row p uses host edge vector U[p] = A_i - A_j, partner edge vector
    W[p] = B_k - B_l and M[p] = B_k - A_i; the six pairings are stacked so
    that each quantity is one array operation, gathered from per-system
    work buffers. A host edge no longer than the zero-length edge cut of
    ``pair_measures`` raises DegenerateError.
    """

    def __init__(self, host: Tetrahedron, tol: Tolerance | None = None):
        self.host = host
        self.tol = tol or Tolerance.for_points(host.array)
        self.scale = self.tol.scene_scale
        self.a = host.array
        self.u = self.a[_I] - self.a[_J]
        self.nu = np.sqrt(dot_rows(self.u, self.u))
        self._zero_edge = self.tol.eps_abs * self.scale
        short = self.nu <= self._zero_edge
        if short.any():
            p = int(np.argmax(short))
            raise DegenerateError(f"zero-length edge A{_I[p] + 1}{_J[p] + 1}")
        # flat Jacobian index of the B_k then the B_l columns of the (g, h)
        # rows, g in rows 0-5 and h in rows 6-11
        cols = 3 * np.stack((_K, _L))[:, None, :, None] + np.arange(3)
        self._jac_at = (12 * np.arange(12).reshape(2, 6, 1) + cols).reshape(-1)
        self._den_factors = np.array([[1.0], [self.scale], [self.scale]])
        self._views = self._buffers(())

    def _buffers(self, lead: Tuple[int, ...]):
        """evaluate's intermediates for one partner, lead (), or for R of
        them, lead (R,); the views it reads and writes them through; and the
        flat Jacobian index of the blocks, offset to each row. The
        one-partner set is made once per system: a view costs about what a
        small ufunc does. The denominators keep their three kinds first, so
        that (R, 6) edge lengths broadcast against the (3, 1, 1) factors."""
        points = np.empty(lead + (24,))
        points[..., :12] = self.a.reshape(12)
        work = np.zeros(lead + (30, 3))
        work[..., _U, :] = self.u
        prod, dots, quot, scaled, blocks, nw2 = (
            np.empty(lead + shape) for shape in ((12, 6), (18,), (3, 6, 3), (2, 6, 3), (4, 6, 3),
                                                 (1, 6, 1)))
        dens = np.empty((3,) + lead + (6,))
        by_row = np.moveaxis(dens, 0, -2)
        jac_at = (self._jac_at + 144 * np.arange(lead[0] if lead else 1)[:, None]).reshape(-1)
        factors = self._den_factors.reshape((3,) + (1,) * len(lead) + (1,))
        return (lead, points, points[..., 12:], work.reshape(lead + (90,)), work[..., :12, :],
                work[..., None, :6, :], work[..., 18:, :],
                work[..., 12:, :].reshape(lead + (3, 6, 3)), prod, prod[..., :3], prod[..., 3:],
                dots.reshape(lead + (18, 1, 1)), dots[..., :6],
                dots[..., 6:].reshape(lead + (2, 6, 1)), dens, factors, by_row[..., :2, :, None],
                by_row[..., None], quot, quot[..., :2, :, :], quot[..., 2, :, :], scaled, nw2,
                nw2[..., 0, :, 0], blocks.reshape(-1), blocks[..., :2, :, :], blocks[..., 1, :, :],
                blocks[..., 2:, :, :], jac_at)

    def orthogonality_matrix(self) -> np.ndarray:
        """Constant 6x12 matrix of the (unnormalized) linear orthogonality
        conditions; its rank is five for a generic host."""
        m = np.zeros((6, 12))
        rows = np.arange(6)[:, None]
        m[rows, 3 * _K[:, None] + np.arange(3)] = self.u
        m[rows, 3 * _L[:, None] + np.arange(3)] = -self.u
        return m

    def evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The residuals, the orthogonality rows g = U.W / (|U||W|) then the
        intersection rows h = (U x W).M / (|U||W| scale), all six of each;
        their Jacobian (12, 12); and the six partner edge lengths, from one
        pass, of one partner x (12,) or of each of R partners x (R, 12),
        with a leading R axis on each result. Every row is the same
        arithmetic, so row r is bit for bit the one-partner call on x[r].
        A partner with a collapsed edge is flagged, one partner as a row of
        R: its residuals, and the Jacobian entries they depend on, are NaN,
        and its edge lengths are returned as they are."""
        (lead, points, partner, flat, wm, w, cross, vecs, prod, prod_a, prod_b, dots, ww,
         gh_dots, dens, factors, gh_dens, vec_dens, quot, dg_dh, dm, scaled, nw2, nw2_rows,
         jac_blocks, bk, bk_h, bl, jac_at) = (
            self._views if x.ndim == 1 else self._buffers(x.shape[:1]))
        partner[...] = x
        np.subtract(points.take(_WM[0], -1), points.take(_WM[1], -1), out=wm)
        np.multiply(flat.take(_CROSS[0], -1), flat.take(_CROSS[1], -1), out=prod)
        np.subtract(prod_a, prod_b, out=cross)
        np.matmul(flat.take(_DOTS[0], -1), flat.take(_DOTS[1], -1), out=dots)
        edges = nw = np.sqrt(ww)
        # fmin skips NaN: a partner is collapsed iff its least edge is
        nw = np.where(np.fmin.reduce(nw, axis=-1, keepdims=True) <= self._zero_edge, np.nan, nw)
        # |U||W| over |U||W| scale, twice
        np.multiply(self.nu * nw, factors, out=dens)
        gh = gh_dots / gh_dens
        # U, M x U and U x W over their denominators: d(g)/dW over d(h)/dW,
        # then d(h)/dM
        np.divide(vecs, vec_dens, out=quot)
        # the B_k blocks d(g)/dW and d(h)/dW + d(h)/dM, then the B_l blocks
        # -d(g)/dW and -d(h)/dW
        np.multiply(gh, w, out=scaled)
        np.multiply(nw, nw, out=nw2_rows)
        np.divide(scaled, nw2, out=scaled)
        np.subtract(dg_dh, scaled, out=bk)
        np.negative(bk, out=bl)
        np.add(bk_h, dm, out=bk_h)
        jac = np.zeros(2 * jac_at.size)
        jac[jac_at] = jac_blocks
        return gh.reshape(x.shape), jac.reshape(lead + (12, 12)), edges

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[1]


def _lm_minimize(sys: OrthosectSystem, x0: np.ndarray):
    """Damped least squares followed by a Gauss-Newton polish; every point
    is evaluated once, residuals and Jacobian together, and an accepted
    trial point keeps its Jacobian for the next step; a trial point with a
    collapsed edge is rejected without the damping cap's check. Returns the
    point, its max |residual|, the iterations, the reason and the six
    partner edge lengths at the point (None when the start collapsed, and
    the reason names its first collapsed edge in pairing order)."""
    x = x0.copy()
    r, jac, edges = sys.evaluate(x)
    short = edges <= sys._zero_edge
    if short.any():
        p = int(np.argmax(short))
        return x, math.inf, 0, f"edge B{_K[p] + 1}{_L[p] + 1} collapsed", None
    cost = float(r @ r)
    lam = LM_LAMBDA0
    iterations = 0
    for it in range(LM_MAX_ITERATIONS):
        iterations = it + 1
        if np.abs(r).max() <= TARGET_RESIDUAL:
            break
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = float(np.trace(jtj)) / 12.0 or 1.0
        improved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * diag * np.eye(12), -g)
            except np.linalg.LinAlgError:
                lam *= LM_LAMBDA_UP
                continue
            x_new = x + delta
            r_new, jac_new, edges_new = sys.evaluate(x_new)
            if (edges_new <= sys._zero_edge).any():
                lam *= LM_LAMBDA_UP
                continue
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, jac, edges, cost = x_new, r_new, jac_new, edges_new, cost_new
                lam = max(lam / LM_LAMBDA_DOWN, 1e-14)
                improved = True
                break
            lam *= LM_LAMBDA_UP
            if lam > 1e12:
                break
        if not improved:
            break
    # Gauss-Newton polish; the min-norm step handles the rank-deficient
    # Jacobian at points of the solution family.
    for _ in range(3):
        if np.abs(r).max() <= 1e-15:
            break
        try:
            x_new = x + np.linalg.lstsq(jac, -r, rcond=1e-12)[0]
        except np.linalg.LinAlgError:
            break
        r_new, jac_new, edges_new = sys.evaluate(x_new)
        if float(r_new @ r_new) <= cost:
            x, r, jac, edges, cost = x_new, r_new, jac_new, edges_new, float(r_new @ r_new)
        else:
            break
    return x, float(np.abs(r).max()), iterations, "ok", edges


def _seed_start(null_basis: np.ndarray, rng: np.random.Generator,
                center: np.ndarray, scale: float) -> np.ndarray:
    for _ in range(20):
        coeffs = rng.normal(size=null_basis.shape[1])
        b = (null_basis @ coeffs).reshape(4, 3)
        diam = max(np.linalg.norm(b[i] - b[j])
                   for i in range(4) for j in range(i + 1, 4))
        if diam < 1e-9:
            continue
        target = scale * rng.uniform(0.6, 1.6)
        b = b * (target / diam)
        b = b - b.mean(axis=0) + center + rng.uniform(-0.5, 0.5, size=3) * scale
        return b.reshape(12)
    raise DegenerateError("could not draw a nondegenerate start")


def solve_detailed(a: Tetrahedron, cfg: SolverConfig,
                   tol: Tolerance | None = None) -> SolveResult:
    """Restarted damped least squares on the orthosecting system.

    Starts are drawn inside the orthogonality null space (so the linear
    conditions hold exactly from the outset), recentered near the host and
    rescaled to comparable size. Accepted solutions have max residual
    below ACCEPT_RESIDUAL, pass the degeneracy filters, and are
    deduplicated; the result is deterministic for a fixed seed.
    """
    tol = tol or Tolerance.for_points(a.array)
    if a.is_flat(tol):
        raise DegenerateError("host tetrahedron is flat")
    sys = OrthosectSystem(a, tol)
    scale = sys.scale
    # five independent orthogonality conditions: the right singular vectors
    # from index 5 on span the solution space of the linear subsystem
    null_basis = np.linalg.svd(sys.orthogonality_matrix())[2][5:].T
    rng = np.random.default_rng(cfg.seed)
    center = a.array.mean(axis=0)
    solutions: List[np.ndarray] = []
    diags: List[RestartDiagnostic] = []
    for restart in range(cfg.restarts):
        x0 = _seed_start(null_basis, rng, center, scale)
        x, max_res, iters, reason, edges = _lm_minimize(sys, x0)
        if max_res > ACCEPT_RESIDUAL:
            reason = reason if reason != "ok" else "no convergence"
        elif float(edges.min()) < MIN_EDGE_FACTOR * scale:
            reason = "min edge filter"
        elif np.abs(x.reshape(4, 3) - center).max() > MAX_COORD_FACTOR * scale:
            reason = "out of range"
        elif any(np.linalg.norm((x - known).reshape(4, 3), axis=1).max() < DEDUPE_FACTOR * scale
                 for known in solutions):
            reason = "duplicate"
        else:
            reason = "solution"
            solutions.append(x)
        diags.append(RestartDiagnostic(restart, reason in ("duplicate", "solution"), max_res,
                                       iters, reason))
    tets = tuple(Tetrahedron.of(x.reshape(4, 3)) for x in solutions)
    return SolveResult(solutions=tets, diagnostics=tuple(diags))


def solve(a: Tetrahedron, cfg: SolverConfig, tol: Tolerance | None = None) -> List[Tetrahedron]:
    """Orthosecting partners of ``a`` found from ``cfg.restarts`` seeded
    starts; empty when none converged (see solve_detailed for diagnostics)."""
    return list(solve_detailed(a, cfg, tol).solutions)


class _Walk:
    """The continuation of one trace: its system, the start's left null
    vector phi, and the bordered corrector matrix [[J, phi], [tau^T /
    scale, 0]] with the views its steps fill."""

    def __init__(self, sys: OrthosectSystem, phi: np.ndarray, center: np.ndarray):
        self.sys = sys
        self.phi = phi
        self.weight = 1.0 / sys.scale
        # the host's centroid once per partner vertex, as x holds them
        self.center = np.tile(center, 4)
        # the bordered system: Jacobian and left null vector over weighted
        # tangent and zero; the corrector's negated rhs, and the tangent's e_13
        self.aug = np.zeros((13, 13))
        self.aug[:12, 12] = phi
        self.rhs = np.empty(13)
        self.e13 = np.eye(13)[12]

    def tangent(self, jac: np.ndarray) -> np.ndarray:
        """The unit tangent at the sample of Jacobian ``jac``: the bordered
        system there, its tau row the last step's, solved for e_13, which
        signs it along that step. Raises LinAlgError where it has none."""
        self.aug[:12, :12] = jac
        t = np.linalg.solve(self.aug, self.e13)[:12]
        squared = float(t.dot(t))
        if not math.isfinite(squared):
            raise np.linalg.LinAlgError("tangent is not finite")
        return t / math.sqrt(squared)

    def walk(self, samples: list, tau: np.ndarray, count: int, h: float, reach: float,
             whole: bool = False):
        """Up to ``count`` steps of h from the last of ``samples``, each
        sample an (x, max |residual|, Jacobian) triple, with tangent ``tau``
        there, appending every accepted sample. The corrector starts at the
        Euler point on the first step and after the tangent turned by
        acos(HERMITE_MIN_COS) or more, and otherwise at the cubic Hermite
        extrapolation of the last two samples and their tangents, moved
        onto the same pseudo-arclength plane. An attempt fails where 25
        corrector iterates do not bring max |residual| to TARGET_RESIDUAL, a
        step is not finite (as at a collapsed partner's NaN row) or the point
        is farther than ``reach`` from x. A failed attempt halves the step,
        up to six times; with ``whole`` it ends the walk instead, as a halved
        step would not be kept. Returns the reason it ended (None after
        ``count`` steps) and the tangents at the samples it stepped from."""
        x, _, jac = samples[-1]
        scale, weight, center, sys = self.sys.scale, self.weight, self.center, self.sys
        aug, rhs = self.aug, self.rhs
        aug_jac, aug_tau, rhs_r = aug[:12, :12], aug[12, :12], rhs[:12]
        tangents = [tau]
        tau_prev = None
        for _ in range(count):
            if tau_prev is not None:
                # the tangent at the last sample, from the bordered system
                # there, which the corrector solves too: it failing ends the walk
                try:
                    tau = self.tangent(jac)
                except np.linalg.LinAlgError:
                    return "corrector divergence", tangents
                tangents.append(tau)
            np.multiply(weight, tau, out=aug_tau)
            hermite = tau_prev is not None and float(tau_prev.dot(tau)) > HERMITE_MIN_COS
            step = h
            for _ in range(7):
                # every corrected point is a new array, so y may start as x_pred
                y = x_pred = x + step * tau
                if hermite:
                    # the cubic through the last two samples (their chord)
                    # with end slopes tau_prev and tau in the chord's arclength,
                    # taken step past x: its offset from x_pred less the
                    # offset's tau part, which puts the start on x_pred's
                    # pseudo-arclength plane (tau is a unit vector); the
                    # offset's tau term is left out, as it drops
                    sigma = step / chord_length
                    v = ((step * sigma * (1.0 + sigma)) * tau_prev
                         - (sigma * sigma * (3.0 + 2.0 * sigma)) * chord)
                    y = x_pred + (v - float(tau.dot(v)) * tau)
                try:
                    for _ in range(25):
                        r, jac, edges = sys.evaluate(y)
                        worst = float(np.abs(r).max())
                        if worst <= TARGET_RESIDUAL:
                            break
                        aug_jac[...] = jac
                        np.negative(r, out=rhs_r)
                        rhs[12] = -(weight * float(tau.dot(y - x_pred)))
                        delta = np.linalg.solve(aug, rhs)[:12]
                        # |delta|^2, non-finite when delta is; its root is np.linalg.norm's
                        squared = float(delta.dot(delta))
                        if not math.isfinite(squared):
                            raise np.linalg.LinAlgError("corrector step is not finite")
                        y = y + delta
                    move = y - x
                    move_length = math.sqrt(float(move.dot(move)))
                    # accepted when the last evaluation, the one at y, is on
                    # the family, and y is within reach of x
                    if worst <= TARGET_RESIDUAL and move_length <= reach:
                        break
                except np.linalg.LinAlgError:
                    pass
                if whole:
                    return "step not whole", tangents
                step *= 0.5
            else:
                return "corrector divergence", tangents
            chord, chord_length = move, move_length
            if chord_length == 0.0:
                return "step below resolution", tangents
            tau_prev, x = tau, y
            if float(edges.min()) < MIN_EDGE_FACTOR * scale:
                return "degenerate: min edge filter", tangents
            if float(np.abs(x - center).max()) > MAX_COORD_FACTOR * scale:
                return "degenerate: out of range", tangents
            samples.append((x, worst, jac))
        return None, tangents

    def fill(self, nodes: np.ndarray, tangents: np.ndarray, h: float):
        """The FILL_SPAN - 1 samples between each two neighbouring ``nodes``
        (K + 1, 12) with unit ``tangents``: predicted on the cubic Hermite
        interpolant of the two in their chord's length at chord fractions
        j / FILL_SPAN, and corrected on the interpolant's normal plane there
        by bordered Newton steps, every row at once, a row leaving the stack
        as it converges. Only the leading segments whose predictions space
        their chords within FILL_CHORD_TOL h of h are corrected: the
        correction moves a sample about its normal plane, so it keeps them
        about as spaced. Returns the samples (K', FILL_SPAN - 1, 12) of those
        K' segments, their max |residual| and Jacobians, and how many leading
        segments pass the guard: every sample converged, within h / 2 of its
        prediction and inside the degeneracy filters, and every chord of the
        segment within FILL_CHORD_TOL h of h."""
        sys, scale, weight = self.sys, self.sys.scale, self.weight
        x0, x1, t0, t1 = (v[:, None] for v in (nodes[:-1], nodes[1:], tangents[:-1], tangents[1:]))
        chord = x1 - x0
        length = np.sqrt(dot_rows(chord[:, 0], chord[:, 0]))[:, None, None]
        s = (np.arange(1, FILL_SPAN) / FILL_SPAN)[:, None]
        pred = (x0 + (s * s * (3.0 - 2.0 * s)) * chord
                + length * ((s * (1.0 - s) ** 2) * t0 - (s * s * (1.0 - s)) * t1))
        ready = _leading(_in_band(x0, pred, x1, h))
        if not ready:
            return None, None, None, 0
        x0, x1, t0, t1, chord, length = (v[:ready] for v in (x0, x1, t0, t1, chord, length))
        pred = pred[:ready].reshape(-1, 12)
        slope = ((6.0 * s * (1.0 - s)) * chord
                 + length * (((1.0 - s) * (1.0 - 3.0 * s)) * t0 + (s * (3.0 * s - 2.0)) * t1))
        normal = (slope / np.sqrt((slope * slope).sum(axis=-1))[..., None]).reshape(-1, 12)
        rows = len(pred)
        y, worst = pred.copy(), np.full(rows, np.inf)
        jacs, edges = np.empty((rows, 12, 12)), np.empty((rows, 6))
        active = np.arange(rows)
        for _ in range(25):
            r, jac, edge = sys.evaluate(y[active])
            worst[active], jacs[active], edges[active] = np.abs(r).max(axis=1), jac, edge
            # NaN, a collapsed row's, is neither: such a row fails
            going = worst[active] > TARGET_RESIDUAL
            active = active[going]
            if not active.size:
                break
            # the bordered system of each row: its Jacobian and phi over its
            # weighted normal and zero
            system = np.zeros((len(active), 13, 13))
            system[:, :12, :12] = jac[going]
            system[:, :12, 12] = self.phi
            system[:, 12, :12] = weight * normal[active]
            offset = y[active] - pred[active]
            rhs = np.concatenate((-r[going], -weight * dot_rows(normal[active], offset)[:, None]),
                                 axis=1)
            try:
                moved = y[active] + np.linalg.solve(system, rhs[..., None])[:, :12, 0]
            except np.linalg.LinAlgError:
                break
            # a row more than h / 2 from its prediction, or not finite, fails
            offset = moved - pred[active]
            near = np.sqrt(dot_rows(offset, offset)) <= 0.5 * h
            worst[active[~near]] = np.inf
            y[active[near]] = moved[near]
            active = active[near]
        passed = ((worst <= TARGET_RESIDUAL) & (edges.min(axis=1) >= MIN_EDGE_FACTOR * scale)
                  & (np.abs(y - self.center).max(axis=1) <= MAX_COORD_FACTOR * scale))
        y = y.reshape(-1, FILL_SPAN - 1, 12)
        kept = _leading(passed.reshape(-1, FILL_SPAN - 1).all(axis=1) & _in_band(x0, y, x1, h))
        return (y, worst.reshape(-1, FILL_SPAN - 1), jacs.reshape(-1, FILL_SPAN - 1, 12, 12),
                kept)


def _in_band(x0, y, x1, h):
    """Per segment, whether every chord from x0 (K, 1, 12) through its
    samples y (K, FILL_SPAN - 1, 12) to x1 (K, 1, 12) lies within
    FILL_CHORD_TOL h of h."""
    steps = np.diff(np.concatenate((x0, y, x1), axis=1), axis=1)
    return (np.abs(np.sqrt((steps * steps).sum(axis=-1)) - h) <= FILL_CHORD_TOL * h).all(axis=1)


def _leading(good):
    """How many leading entries of the boolean array ``good`` are true."""
    return len(good) if good.all() else int(good.argmin())


def trace_family(a: Tetrahedron, b0: Tetrahedron, steps: int, h: float,
                 direction: int = 1, tol: Tolerance | None = None) -> SolutionBranch:
    """Predictor-corrector continuation along the one-parameter family of
    orthosecting partners, starting from a solved member: ``steps`` steps
    of about h.

    The predictor steps along the tangent, the Jacobian's null direction.
    The corrector re-converges with Newton steps on the square bordered
    system [[J, phi], [tau^T / scale, 0]] (Allgower & Georg, ch. 2): the
    Jacobian closed by phi, the left null vector of the start's Jacobian,
    and by the pseudo-arclength row, solved by LU; the border unknown is
    discarded. The start's tangent (its largest entry made positive, then
    flipped by ``direction``) and phi come from one SVD there; every later
    tangent is the solution t of the same bordered system at its sample
    with right-hand side e_13, normalized: the tau row signs it along the
    step just taken, and phi needs only a component along the sample's
    left null vector (see ``_Walk.walk`` for the corrector's start and
    step halving).

    Every trace first walks a skeleton of steps // FILL_SPAN steps of
    FILL_SPAN h (none below FILL_SPAN steps), and then corrects the
    FILL_SPAN - 1 samples between each two neighbouring nodes in one
    stacked batch (``_Walk.fill``): numpy's per-call cost is paid once per
    batch, not once per sample. Where a skeleton step fails, stops or is
    more than FILL_CHORD_TOL longer than FILL_SPAN h, or a segment's fill
    fails its guard, the trace keeps the batched prefix up to the last good
    node. It walks the steps left at step h, halving a step whose corrected
    point lies more than JUMP_FACTOR h away, so that no chord is longer.

    Stops early on corrector failure after step halving, on a step whose
    chord has no length (below the coordinates' resolution, it left the
    sample where it was), on degeneracy filters, and at the first of
    samples 0 .. steps - 1 that is a branch point (numerical nullity of two
    or more), and reports the reason. The singular values of every
    sample's Jacobian come from one stacked SVD after the walk, which the
    branch-point test reads. Raises ``require_orthosecting``'s errors when
    the start does not orthosect the host at ``tol``: DegenerateError on a
    zero-length edge, NotOrthologicError or NotOrthosectingError off the
    family.
    """
    tol = tol or pair_tolerance(a, b0)
    require_orthosecting(pair_measures(a, b0, tol), tol)
    sys = OrthosectSystem(a, tol)
    x = b0.array.reshape(12).copy()
    r, jac, _ = sys.evaluate(x)
    samples = [(x, float(np.abs(r).max()), jac)]
    # the start's tangent is the last right singular vector of the Jacobian,
    # its largest entry made positive before ``direction`` applies
    u, _, vt = np.linalg.svd(jac)
    tau = float(direction) * (vt[-1] if vt[-1][np.argmax(np.abs(vt[-1]))] >= 0 else -vt[-1])
    walk = _Walk(sys, u[:, -1], a.array.mean(axis=0))
    stop, tangents = walk.walk(samples, tau, steps // FILL_SPAN, FILL_SPAN * h,
                               (1.0 + FILL_CHORD_TOL) * FILL_SPAN * h, whole=True)
    if stop is None and len(samples) > 1:
        # the skeleton took all its steps, one at least: the tangent at its
        # last node, which that node's segment's fill reads
        try:
            tangents.append(walk.tangent(samples[-1][2]))
        except np.linalg.LinAlgError:
            pass
    nodes = samples[:len(tangents)]
    del samples[1:]
    kept = 0
    if len(nodes) > 1:
        fills, worst, jacs, kept = walk.fill(np.array([n[0] for n in nodes]),
                                             np.array(tangents), h)
        for k in range(kept):
            samples.extend(zip(fills[k], worst[k], jacs[k]))
            samples.append(nodes[k + 1])
    stop = walk.walk(samples, tangents[kept], steps - FILL_SPAN * kept, h, JUMP_FACTOR * h)[0]
    points, residuals, jacobians = zip(*samples)
    singular_values = np.linalg.svd(np.array(jacobians), compute_uv=False)
    # the branch-point test of each sample a step was taken from: all but the last if steps ran out
    tested = singular_values[:len(points) - (stop is None)]
    branch = tested[:, -2] <= 1e-8 * np.maximum(tested[:, -3], 1e-300)
    count = len(points)
    if branch.any():
        stop = "branch point (nullity >= 2)"
        count = int(branch.argmax()) + 1
        singular_values = singular_values[:count]
    coords = np.array(points[:count]).reshape(-1, 4, 3)
    coords.setflags(write=False)
    singular_values.setflags(write=False)
    return SolutionBranch(coords=coords, step_size=h,
                          max_residuals=tuple(float(v) for v in residuals[:count]),
                          stop_reason=stop or "steps exhausted", singular_values=singular_values)


def solve_from_curve_point(a: Tetrahedron, b4,
                           tol: Tolerance | None = None) -> Tetrahedron:
    """Orthosecting partner from a point of the self-conjugate curve on the
    face of host vertices 1, 2, 3: the chain of the root that the kernel's
    one ``curve_chain`` pass picks, built from the feet that pass fitted,
    rebuilt from those feet by ``partner_from_points`` (the kernel's
    sixth-foot residual is the only gate on them; no carrier is fitted),
    polished by damped least squares on ``OrthosectSystem`` and then held
    to the reconstruction postcondition (ReconstructionError). At a
    crunode of the curve, which has two partners (see ``pedal``), this
    returns the one ``curve_chain`` picks.

    Raises CurvePointError when the point is on the curve but every root
    that fits it has two feet within FEET_TOL (a degenerate chain), when
    no validated root keeps the six feet apart, or when the point's
    sixth-foot residual exceeds VERTEX_TOL, i.e. the point is not on the
    curve; and SimsonDegenerateError when it lies on the face
    circumcircle.
    """
    tol = tol or Tolerance.for_points(np.vstack((a.array, as_array(b4))))
    kernel = ChainKernel(a, tol)
    p = _face_source(kernel, b4)[None]
    t, f, _, feet, validated = kernel._curve_feet(p, math.inf)
    f = float(f[0])
    if not abs(f) <= VERTEX_TOL:
        # curve_chain passes over roots whose feet coincide, so a validated
        # root that fits here is such a root
        if (np.abs(validated) <= VERTEX_TOL).any():
            raise CurvePointError("point is on the curve, but every root that fits it has "
                                  f"coincident feet (within {FEET_TOL:.0e} scene scales)")
        if math.isnan(t[0]):
            raise CurvePointError("no sphericity root with six distinct feet at this point")
        raise CurvePointError(f"point is off the curve: |residual| {abs(f):.3e} > {VERTEX_TOL:.1e}",
                              residual=f)
    start = partner_from_points(a, kernel._chains(p, t, feet)[0].feet)
    x = _lm_minimize(OrthosectSystem(a, tol), start.reshape(12))[0]
    partner = Tetrahedron.of(x.reshape(4, 3))
    _require_orthosection(pair_measures(a, partner, tol))
    return partner
