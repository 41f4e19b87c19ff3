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
from typing import Dict, List, Tuple

import numpy as np

from .errors import CurvePointError, DegenerateError
from .geom_core import Tolerance, as_array, dot_rows
from .orthology import (
    EDGE_PAIRINGS,
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
from .pedal import (
    ChainKernel,
    _chain_from_local,
    _face_source,
    reconstruct_tetrahedron,
    spherical_chain,
)


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


@dataclass(frozen=True)
class SolverConfig:
    seed: int
    restarts: int = 64
    max_iterations: int = 150
    lambda0: float = 1e-3
    lambda_up: float = 4.0
    lambda_down: float = 3.0
    target_residual: float = 1e-12
    accept_residual: float = 1e-11
    min_edge_factor: float = MIN_EDGE_FACTOR
    max_coord_factor: float = MAX_COORD_FACTOR
    dedupe_factor: float = 1e-3

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class SolutionBranch:
    """Samples of a traced family with, per sample, the max residual and
    the singular values of the Jacobian (descending)."""

    samples: Tuple[Tetrahedron, ...]
    step_size: float
    max_residuals: Tuple[float, ...]
    stop_reason: str
    singular_values: Tuple[np.ndarray, ...]

    def __len__(self):
        return len(self.samples)


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


# Jacobian columns of the coordinates of B_k and of B_l, per pairing
_COLS_K = 3 * _K[:, None] + np.arange(3)
_COLS_L = 3 * _L[:, None] + np.arange(3)


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) arrays, in np.cross's
    operation order: component c is a[c+1] * b[c+2] - a[c+2] * b[c+1]."""
    return a.take(_NEXT, 1) * b.take(_PREV, 1) - a.take(_PREV, 1) * b.take(_NEXT, 1)


class OrthosectSystem:
    """Residuals and analytic Jacobian of the orthosecting conditions for a
    fixed host, as functions of the twelve partner coordinates.

    Each is a few array operations over the six pairings: row p uses host
    edge vector U[p] = A_i - A_j and partner edge vector W[p] = B_k - B_l.
    """

    def __init__(self, host: Tetrahedron, tol: Tolerance | None = None,
                 skip_intersection: Pairing | None = None):
        self.host = host
        self.tol = tol or Tolerance.for_points(host.vertices)
        self.scale = self.tol.scene_scale
        self.a = host.array
        self.ai = self.a[_I]
        self.u = self.ai - self.a[_J]
        self.nu = np.sqrt(dot_rows(self.u, self.u))
        self.skip_intersection = skip_intersection
        # pairings that keep their intersection row; the pairing of each
        # residual row fixes the Jacobian columns the row writes
        self.keep_inter = np.array([p != skip_intersection for p in EDGE_PAIRINGS])
        row_pairing = np.concatenate((np.arange(6), np.flatnonzero(self.keep_inter)))
        self.n_rows = len(row_pairing)
        self._rows = np.arange(self.n_rows)[:, None]
        self._cols_k, self._cols_l = _COLS_K[row_pairing], _COLS_L[row_pairing]

    def orthogonality_matrix(self) -> np.ndarray:
        """Constant 6x12 matrix of the (unnormalized) linear orthogonality
        conditions; its rank is five for a generic host."""
        m = np.zeros((6, 12))
        rows = np.arange(6)[:, None]
        m[rows, _COLS_K] = self.u
        m[rows, _COLS_L] = -self.u
        return m

    def _partner_edges(self, x: np.ndarray):
        """Vertices B_k, edge vectors W and their norms; raises _Collapse
        on the first collapsed edge in pairing order."""
        b = x.reshape(4, 3)
        bk = b.take(_K, 0)
        w = bk - b.take(_L, 0)
        nw = np.sqrt(dot_rows(w, w))
        collapsed = nw <= 1e-9 * self.scale
        if collapsed.any():
            p = int(np.argmax(collapsed))
            raise _Collapse(f"edge B{_K[p] + 1}{_L[p] + 1} collapsed")
        return bk, w, nw

    def residuals(self, x: np.ndarray) -> np.ndarray:
        bk, w, nw = self._partner_edges(x)
        den = self.nu * nw
        ortho = dot_rows(self.u, w) / den
        inter = dot_rows(_cross(self.u, w), bk - self.ai) / (den * self.scale)
        return np.concatenate((ortho, inter[self.keep_inter]))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        bk, w, nw = self._partner_edges(x)
        u = self.u
        den = self.nu * nw
        nw2 = (nw * nw)[:, None]
        # orthogonality row: g = U.W / (|U||W|), a function of W only
        g = dot_rows(u, w) / den
        dg = u / den[:, None] - g[:, None] * w / nw2
        # intersection row: h = (U x W).M / (|U||W| scale), M = B_k - A_i
        m = bk - self.ai
        uxw = _cross(u, w)
        denom = den * self.scale
        h = dot_rows(uxw, m) / denom
        dh = _cross(m, u) / denom[:, None] - h[:, None] * w / nw2
        dm = uxw / denom[:, None]
        keep = self.keep_inter
        jac = np.zeros((self.n_rows, 12))
        jac[self._rows, self._cols_k] = np.concatenate((dg, dh[keep] + dm[keep]))
        jac[self._rows, self._cols_l] = -np.concatenate((dg, dh[keep]))
        return jac

    def min_edge(self, x: np.ndarray) -> float:
        b = x.reshape(4, 3)
        w = b.take(_K, 0) - b.take(_L, 0)
        return float(np.sqrt(dot_rows(w, w)).min())


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


def intersection_gaps(a: Tetrahedron, b: Tetrahedron,
                      tol: Tolerance | None = None) -> Dict[Pairing, float]:
    """Unsigned closest-approach gaps of the six non-corresponding edge
    pairs, normalized by the scene scale (verification companion to the
    signed triple products)."""
    return by_pairing(pair_measures(a, b, tol)[1])


def _lm_minimize(sys: OrthosectSystem, x0: np.ndarray, cfg: SolverConfig):
    """Damped least squares followed by a Gauss-Newton polish."""
    x = x0.copy()
    try:
        r = sys.residuals(x)
    except _Collapse as exc:
        return x, math.inf, 0, str(exc)
    cost = float(r @ r)
    lam = cfg.lambda0
    iterations = 0
    for it in range(cfg.max_iterations):
        iterations = it + 1
        if np.abs(r).max() <= cfg.target_residual:
            break
        try:
            jac = sys.jacobian(x)
        except _Collapse as exc:
            return x, math.inf, iterations, str(exc)
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = float(np.trace(jtj)) / 12.0 or 1.0
        improved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * diag * np.eye(12), -g)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_up
                continue
            x_new = x + delta
            try:
                r_new = sys.residuals(x_new)
            except _Collapse:
                lam *= cfg.lambda_up
                continue
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / cfg.lambda_down, 1e-14)
                improved = True
                break
            lam *= cfg.lambda_up
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
            jac = sys.jacobian(x)
            delta = np.linalg.lstsq(jac, -r, rcond=1e-12)[0]
            x_new = x + delta
            r_new = sys.residuals(x_new)
        except (_Collapse, np.linalg.LinAlgError):
            break
        if float(r_new @ r_new) <= cost:
            x, r, cost = x_new, r_new, float(r_new @ r_new)
        else:
            break
    return x, float(np.abs(r).max()), iterations, "ok"


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
                   tol: Tolerance | None = None,
                   skip_intersection: Pairing | None = None) -> SolveResult:
    """Restarted damped least squares on the orthosecting system.

    Starts are drawn inside the orthogonality null space (so the linear
    conditions hold exactly from the outset), recentered near the host and
    rescaled to comparable size. Accepted solutions have max residual
    below ``cfg.accept_residual``, pass the degeneracy filters, and are
    deduplicated; the result is deterministic for a fixed seed.
    """
    if a.is_flat():
        raise DegenerateError("host tetrahedron is flat")
    tol = tol or Tolerance.for_points(a.vertices)
    sys = OrthosectSystem(a, tol, skip_intersection=skip_intersection)
    scale = sys.scale
    null_basis = _orthogonality_null_basis(sys)
    rng = np.random.default_rng(cfg.seed)
    center = a.array.mean(axis=0)
    solutions: List[np.ndarray] = []
    diags: List[RestartDiagnostic] = []
    for restart in range(cfg.restarts):
        x0 = _seed_start(null_basis, rng, center, scale)
        x, max_res, iters, reason = _lm_minimize(sys, x0, cfg)
        if max_res > cfg.accept_residual:
            diags.append(RestartDiagnostic(restart, False, max_res, iters,
                                           reason if reason != "ok" else "no convergence"))
            continue
        if sys.min_edge(x) < cfg.min_edge_factor * scale:
            diags.append(RestartDiagnostic(restart, False, max_res, iters, "min edge filter"))
            continue
        if np.abs(x.reshape(4, 3) - center).max() > cfg.max_coord_factor * scale:
            diags.append(RestartDiagnostic(restart, False, max_res, iters, "out of range"))
            continue
        duplicate = any(
            np.linalg.norm((x - known).reshape(4, 3), axis=1).max() < cfg.dedupe_factor * scale
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


def _tangent(jac: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    _, s, vt = np.linalg.svd(jac)
    return vt[-1], s


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    return v if v[idx] >= 0 else -v


def trace_family(a: Tetrahedron, b0: Tetrahedron, steps: int, h: float,
                 direction: int = 1, tol: Tolerance | None = None) -> SolutionBranch:
    """Predictor-corrector continuation along the one-parameter family of
    orthosecting partners, starting from a solved member.

    The predictor steps along the Jacobian's smallest singular direction
    (sign-aligned with the previous tangent; ``direction`` flips the first
    step). The corrector re-converges with least squares augmented by a
    pseudo-arclength row. Stops early on branch points (numerical nullity
    of two or more), corrector failure after step halving, or degeneracy
    filters, and reports the reason. The Jacobian's singular values at
    each sample come from the SVD that yields the tangent there.
    """
    tol = tol or pair_tolerance(a, b0)
    sys = OrthosectSystem(a, tol)
    scale = sys.scale
    x = b0.array.reshape(12).copy()
    r = sys.residuals(x)
    if np.abs(r).max() > 1e-9:
        raise ValueError(f"start is not on the family: max residual {np.abs(r).max():.3e}")
    samples = [Tetrahedron.of(x.reshape(4, 3))]
    residuals = [float(np.abs(r).max())]
    tau, s = _tangent(sys.jacobian(x))
    tau = float(direction) * _canonical_sign(tau)
    singular_values = [s]
    stop = "steps exhausted"
    center = a.array.mean(axis=0)
    weight = 1.0 / scale
    for _ in range(steps):
        if s[-2] <= 1e-8 * max(s[-3], 1e-300):
            stop = "branch point (nullity >= 2)"
            break
        step = h
        accepted = None
        for _ in range(7):
            x_pred = x + step * tau
            y = x_pred.copy()
            ok = False
            try:
                for _ in range(25):
                    ry = sys.residuals(y)
                    if np.abs(ry).max() <= 1e-12:
                        ok = True
                        break
                    jy = sys.jacobian(y)
                    aug = np.vstack([jy, weight * tau])
                    rhs = np.concatenate([ry, [weight * float(np.dot(tau, y - x_pred))]])
                    delta = np.linalg.lstsq(aug, -rhs, rcond=1e-13)[0]
                    y = y + delta
                    if np.linalg.norm(delta) < 1e-16 * scale:
                        ok = np.abs(sys.residuals(y)).max() <= 1e-12
                        break
            except _Collapse:
                ok = False
            if ok:
                accepted = y
                break
            step *= 0.5
        if accepted is None:
            stop = "corrector divergence"
            break
        x = accepted
        r = sys.residuals(x)
        if sys.min_edge(x) < MIN_EDGE_FACTOR * scale:
            stop = "degenerate: min edge filter"
            break
        if np.abs(x.reshape(4, 3) - center).max() > MAX_COORD_FACTOR * scale:
            stop = "degenerate: out of range"
            break
        samples.append(Tetrahedron.of(x.reshape(4, 3)))
        residuals.append(float(np.abs(r).max()))
        # tangent at the new sample, sign-aligned with the step just taken
        tau_new, s = _tangent(sys.jacobian(x))
        if float(np.dot(tau_new, tau)) < 0:
            tau_new = -tau_new
        tau = tau_new
        singular_values.append(s)
    return SolutionBranch(samples=tuple(samples), step_size=h,
                          max_residuals=tuple(residuals), stop_reason=stop,
                          singular_values=tuple(singular_values))


def solve_from_curve_point(a: Tetrahedron, b4, root_index: int = 0,
                           tol: Tolerance | None = None,
                           eps: float = 1e-6,
                           postcondition_tol: float = 1e-6) -> Tetrahedron:
    """Constructive (iteration-free) orthosecting partner from a point of
    the self-conjugate curve on the face of host vertices 1, 2, 3.

    ``root_index`` selects among the sphericity parameters at ``b4``
    (sorted ascending). Raises CurvePointError when the point's sixth-foot
    residual exceeds ``eps``, i.e. the point is not on the curve, and
    SimsonDegenerateError when it lies on the face circumcircle.
    """
    tol = tol or Tolerance.for_points(list(a.vertices) + [as_array(b4)])
    kernel = ChainKernel(a, tol)
    b4_local = _face_source(kernel, b4)
    ts, fs = (v[0] for v in kernel.sphericity_batch(b4_local))
    found = int((~np.isnan(ts)).sum())
    if root_index < 0 or root_index >= found:
        raise CurvePointError(
            f"no sphericity root with index {root_index} at this point "
            f"({found} found)")
    t, f = float(ts[root_index]), float(fs[root_index])
    if abs(f) > eps:
        raise CurvePointError(
            f"point is off the curve: |residual| {abs(f):.3e} > {eps:.1e}",
            residual=f)
    data = kernel.complete_local(b4_local, t)
    chain = _chain_from_local(kernel, data)
    allowed = max(2.0 * abs(f), tol.eps_rel) * kernel.scale
    sc = spherical_chain(chain, tol, max_residual=allowed)
    return reconstruct_tetrahedron(sc, tol, postcondition_tol=postcondition_tol)
