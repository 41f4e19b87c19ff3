"""Numerical solution of the orthosecting constraint system.

The twelve unknown partner-vertex coordinates satisfy six linear
orthogonality conditions (only five independent) and six quadratic
intersection conditions, so solutions form a one-parameter family.
``solve`` finds members by restarted damped least squares seeded inside
the orthogonality null space; ``trace_family`` follows the family with a
predictor-corrector continuation along the Jacobian's null direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .errors import CurvePointError, DegenerateError
from .geom_core import Tolerance, as_array, cross_rows, dot_rows
from .orthology import (
    Pairing,
    Tetrahedron,
    _I,
    _J,
    _K,
    _L,
    by_pairing,
    pair_measures,
    pair_tolerance,
)
from .pedal import (VERTEX_TOL, ChainKernel, _chain_partner, _face_source,
                    _require_orthosection, spherical_chain)


@dataclass(frozen=True, eq=False)
class ResidualVector:
    """Six signed edge-orthogonality residuals (normalized dot products)
    and six signed intersection residuals (normalized triple products),
    ordered as EDGE_PAIRINGS."""

    orthogonality: Dict[Pairing, float]
    intersection: Dict[Pairing, float]
    values: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


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
# max residual that stops the damped iteration, and the one a solution needs
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
    (n, 4, 3) array, with per sample the max residual and the singular
    values of the Jacobian (descending)."""

    coords: np.ndarray
    step_size: float
    max_residuals: Tuple[float, ...]
    stop_reason: str
    singular_values: Tuple[np.ndarray, ...]

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


class _Collapse(Exception):
    """Partner collapsed onto a degenerate configuration mid-iteration."""


# flat indices into x of B_k (rows 0-5) and of B_l (rows 6-11), per pairing
_KL = 3 * np.concatenate((_K, _L))[:, None] + np.arange(3)


class OrthosectSystem:
    """Residuals and analytic Jacobian of the orthosecting conditions for a
    fixed host, as functions of the twelve partner coordinates.

    Row p uses host edge vector U[p] = A_i - A_j, partner edge vector
    W[p] = B_k - B_l and M[p] = B_k - A_i; the six pairings are stacked so
    that each quantity is one array operation.
    """

    def __init__(self, host: Tetrahedron, tol: Tolerance | None = None):
        self.host = host
        self.tol = tol or Tolerance.for_points(host.array)
        self.scale = self.tol.scene_scale
        self.a = host.array
        self.ai = self.a[_I]
        self.u = self.ai - self.a[_J]
        self.nu = np.sqrt(dot_rows(self.u, self.u))
        # flat Jacobian index of the B_k then the B_l columns of the (g, h)
        # rows, g in rows 0-5 and h in rows 6-11
        cols = 3 * np.stack((_K, _L))[:, None, :, None] + np.arange(3)
        self._jac_at = (12 * np.arange(12).reshape(2, 6, 1) + cols).reshape(-1)
        self._den_factors = np.array([[1.0], [self.scale], [self.scale]])

    def orthogonality_matrix(self) -> np.ndarray:
        """Constant 6x12 matrix of the (unnormalized) linear orthogonality
        conditions; its rank is five for a generic host."""
        m = np.zeros((6, 12))
        rows = np.arange(6)[:, None]
        m[rows, 3 * _K[:, None] + np.arange(3)] = self.u
        m[rows, 3 * _L[:, None] + np.arange(3)] = -self.u
        return m

    def _rows(self, x: np.ndarray):
        """The orthogonality rows g = U.W / (|U||W|) over the intersection
        rows h = (U x W).M / (|U||W| scale), all six of each, as (2, 6),
        with the intermediates the Jacobian reuses. Raises _Collapse on the
        first collapsed partner edge in pairing order."""
        kl = x.take(_KL)
        bk = kl[:6]
        w = bk - kl[6:]
        m = bk - self.ai
        # U over M x U over U x W
        cross = cross_rows(np.concatenate((m, self.u)), np.concatenate((self.u, w)))
        vecs = np.concatenate((self.u, cross)).reshape(3, 6, 3)
        # W.W, U.W and (U x W).M as one row-wise dot (see dot_rows)
        dots = np.matmul(np.concatenate((w, self.u, vecs[2]))[:, None, :],
                         np.concatenate((w, w, m))[:, :, None])[:, 0, 0]
        nw = np.sqrt(dots[:6])
        collapsed = nw <= self.tol.eps_abs * self.scale
        if collapsed.any():
            p = int(np.argmax(collapsed))
            raise _Collapse(f"edge B{_K[p] + 1}{_L[p] + 1} collapsed")
        # |U||W| over |U||W| scale, twice
        dens = (self.nu * nw) * self._den_factors
        return dots[6:].reshape(2, 6) / dens[:2], (w, nw, vecs, dens)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self._rows(x)[0].reshape(12)

    def evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``residuals(x)``, ``jacobian(x)`` and the six partner edge lengths,
        from one pass."""
        gh, (w, nw, vecs, dens) = self._rows(x)
        # d(g)/dW over d(h)/dW, then d(h)/dM
        quot = vecs / dens[:, :, None]
        dw = quot[:2] - gh[:, :, None] * w / (nw * nw)[:, None]
        dk = dw.copy()
        dk[1] += quot[2]
        jac = np.zeros(144)
        jac[self._jac_at] = np.concatenate((dk, -dw)).reshape(-1)
        return gh.reshape(12), jac.reshape(12, 12), nw

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[1]


def orthosect_residuals(a: Tetrahedron, b: Tetrahedron,
                        tol: Tolerance | None = None) -> ResidualVector:
    """Signed residual vector of the orthosecting conditions for a pair.

    All twelve vanish (within tolerance) iff the pair orthosects under the
    given labeling: orthogonal non-corresponding edges that also intersect.
    """
    tol = tol or pair_tolerance(a, b)
    pair_measures(a, b, tol)    # raises DegenerateError on a zero-length edge
    vals = OrthosectSystem(a, tol).residuals(b.array.reshape(12))
    return ResidualVector(orthogonality=by_pairing(vals[:6]),
                          intersection=by_pairing(vals[6:]), values=vals)


def _lm_minimize(sys: OrthosectSystem, x0: np.ndarray):
    """Damped least squares followed by a Gauss-Newton polish; every point
    is evaluated once, residuals and Jacobian together, and an accepted
    trial point keeps its Jacobian for the next step. Returns the point, its
    max |residual|, the iterations, the reason and the six partner edge
    lengths at the point (None when the start collapsed)."""
    x = x0.copy()
    try:
        r, jac, edges = sys.evaluate(x)
    except _Collapse as exc:
        return x, math.inf, 0, str(exc), None
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
            try:
                r_new, jac_new, edges_new = sys.evaluate(x_new)
            except _Collapse:
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
            r_new, jac_new, edges_new = sys.evaluate(x_new)
        except (_Collapse, np.linalg.LinAlgError):
            break
        if float(r_new @ r_new) <= cost:
            x, r, jac, edges, cost = x_new, r_new, jac_new, edges_new, float(r_new @ r_new)
        else:
            break
    return x, float(np.abs(r).max()), iterations, "ok", edges


def _orthogonality_null_basis(sys: OrthosectSystem) -> np.ndarray:
    m = sys.orthogonality_matrix()
    _, s, vt = np.linalg.svd(m)
    # five independent conditions; everything from index 5 on spans the
    # solution space of the linear subsystem
    return vt[5:].T


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
    null_basis = _orthogonality_null_basis(sys)
    rng = np.random.default_rng(cfg.seed)
    center = a.array.mean(axis=0)
    solutions: List[np.ndarray] = []
    diags: List[RestartDiagnostic] = []
    for restart in range(cfg.restarts):
        x0 = _seed_start(null_basis, rng, center, scale)
        x, max_res, iters, reason, edges = _lm_minimize(sys, x0)
        if max_res > ACCEPT_RESIDUAL:
            diags.append(RestartDiagnostic(restart, False, max_res, iters,
                                           reason if reason != "ok" else "no convergence"))
            continue
        if float(edges.min()) < MIN_EDGE_FACTOR * scale:
            diags.append(RestartDiagnostic(restart, False, max_res, iters, "min edge filter"))
            continue
        if np.abs(x.reshape(4, 3) - center).max() > MAX_COORD_FACTOR * scale:
            diags.append(RestartDiagnostic(restart, False, max_res, iters, "out of range"))
            continue
        duplicate = any(
            np.linalg.norm((x - known).reshape(4, 3), axis=1).max() < DEDUPE_FACTOR * scale
            for known in solutions)
        if duplicate:
            diags.append(RestartDiagnostic(restart, True, max_res, iters, "duplicate"))
            continue
        solutions.append(x)
        diags.append(RestartDiagnostic(restart, True, max_res, iters, "solution"))
    tets = tuple(Tetrahedron.of(x.reshape(4, 3)) for x in solutions)
    return SolveResult(solutions=tets, diagnostics=tuple(diags))


def solve(a: Tetrahedron, cfg: SolverConfig, tol: Tolerance | None = None) -> List[Tetrahedron]:
    """Orthosecting partners of ``a`` found from ``cfg.restarts`` seeded
    starts; empty when none converged (see solve_detailed for diagnostics)."""
    return list(solve_detailed(a, cfg, tol).solutions)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    return v if v[idx] >= 0 else -v


def trace_family(a: Tetrahedron, b0: Tetrahedron, steps: int, h: float,
                 direction: int = 1, tol: Tolerance | None = None) -> SolutionBranch:
    """Predictor-corrector continuation along the one-parameter family of
    orthosecting partners, starting from a solved member.

    The predictor steps along the Jacobian's smallest singular direction
    (sign-aligned with the previous tangent; ``direction`` flips the first
    step). The corrector re-converges with Newton steps on the square
    bordered system [[J, phi], [tau^T / scale, 0]] (Allgower & Georg,
    ch. 2): the Jacobian closed by the left null vector phi of the last
    sample's Jacobian and by the pseudo-arclength row, solved by LU; the
    border unknown is discarded. Stops early on branch points (numerical
    nullity of two or more), corrector failure after step halving, or
    degeneracy filters, and reports the reason. The Jacobian's singular
    values at each sample, its tangent and its left null vector all come
    from one SVD there.
    """
    tol = tol or pair_tolerance(a, b0)
    sys = OrthosectSystem(a, tol)
    scale = sys.scale
    x = b0.array.reshape(12).copy()
    r, jac, _ = sys.evaluate(x)
    if np.abs(r).max() > 1e-9:
        raise ValueError(f"start is not on the family: max residual {np.abs(r).max():.3e}")
    points = [x]
    residuals = [float(np.abs(r).max())]
    # the tangent is the last right singular vector of the Jacobian
    u, s, vt = np.linalg.svd(jac)
    tau = float(direction) * _canonical_sign(vt[-1])
    singular_values = [s]
    stop = "steps exhausted"
    center = a.array.mean(axis=0)
    weight = 1.0 / scale
    # the corrector's system: Jacobian and left null vector over weighted
    # tangent and zero, negated rhs
    aug = np.zeros((13, 13))
    rhs = np.empty(13)
    for _ in range(steps):
        if s[-2] <= 1e-8 * max(s[-3], 1e-300):
            stop = "branch point (nullity >= 2)"
            break
        aug[:12, 12] = u[:, -1]
        np.multiply(weight, tau, out=aug[12, :12])
        step = h
        for _ in range(7):
            x_pred = x + step * tau
            y = x_pred.copy()
            try:
                for _ in range(25):
                    r, jac, edges = sys.evaluate(y)
                    if np.abs(r).max() <= 1e-12:
                        break
                    aug[:12, :12] = jac
                    np.negative(r, out=rhs[:12])
                    rhs[12] = -(weight * float(np.dot(tau, y - x_pred)))
                    delta = np.linalg.solve(aug, rhs)[:12]
                    if not np.isfinite(delta).all():
                        raise np.linalg.LinAlgError("corrector step is not finite")
                    y += delta
                    if np.linalg.norm(delta) < 1e-16 * scale:
                        r, jac, edges = sys.evaluate(y)
                        break
                # accepted when the last evaluation, the one at y, is on the family
                if np.abs(r).max() <= 1e-12:
                    break
            except (_Collapse, np.linalg.LinAlgError):
                pass
            step *= 0.5
        else:
            stop = "corrector divergence"
            break
        x = y
        if float(edges.min()) < MIN_EDGE_FACTOR * scale:
            stop = "degenerate: min edge filter"
            break
        if np.abs(x.reshape(4, 3) - center).max() > MAX_COORD_FACTOR * scale:
            stop = "degenerate: out of range"
            break
        points.append(x)
        residuals.append(float(np.abs(r).max()))
        # tangent at the new sample, sign-aligned with the step just taken
        u, s, vt = np.linalg.svd(jac)
        tau = -vt[-1] if float(np.dot(vt[-1], tau)) < 0 else vt[-1]
        singular_values.append(s)
    coords = np.array(points).reshape(-1, 4, 3)
    coords.setflags(write=False)
    return SolutionBranch(coords=coords, step_size=h, max_residuals=tuple(residuals),
                          stop_reason=stop, singular_values=tuple(singular_values))


def solve_from_curve_point(a: Tetrahedron, b4,
                           tol: Tolerance | None = None) -> Tetrahedron:
    """Orthosecting partner from a point of the self-conjugate curve on the
    face of host vertices 1, 2, 3: the chain completed at the kernel's
    ``curve_root``, rebuilt as ``reconstruct_tetrahedron`` does, polished
    by damped least squares on ``OrthosectSystem`` and then held to the
    reconstruction postcondition (ReconstructionError).

    Raises CurvePointError when no validated root keeps the six feet apart
    or the point's sixth-foot residual exceeds VERTEX_TOL, i.e. the
    point is not on the curve, and SimsonDegenerateError when it lies on
    the face circumcircle.
    """
    tol = tol or Tolerance.for_points(np.vstack((a.array, as_array(b4))))
    kernel = ChainKernel(a, tol)
    b4_local = _face_source(kernel, b4)
    t, f = (float(v[0]) for v in kernel.curve_root(b4_local[None]))
    if math.isnan(t):
        raise CurvePointError("no sphericity root with six distinct feet at this point")
    if abs(f) > VERTEX_TOL:
        raise CurvePointError(
            f"point is off the curve: |residual| {abs(f):.3e} > {VERTEX_TOL:.1e}",
            residual=f)
    chain = kernel.chain(b4_local, t)
    allowed = max(2.0 * abs(f), tol.eps_rel) * kernel.scale
    b = _chain_partner(spherical_chain(chain, tol, max_residual=allowed), tol)
    x = _lm_minimize(OrthosectSystem(a, tol), b.array.reshape(12))[0]
    return _require_orthosection(a, Tetrahedron.of(x.reshape(4, 3)), tol)
