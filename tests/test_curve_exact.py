"""An exact oracle for the curve claims, in rational arithmetic (sympy).

On a rational host with face (1, 2, 3) in the plane z = 0, put the projected
source at b4 = (u, v, 0) and build the chain as ``ChainKernel`` does, with
unnormalized feet: source 3 is foot 12 + t (n124 x d12); feet 14 and 24 are
its feet on edges 14 and 24; source 2 is the point of face plane (1, 3, 4)
on the perpendiculars to edges 13 and 14 at feet 13 and 14; foot 34 is its
foot on edge 34. Q is the co-sphericity determinant det[|p|^2, p, 1] of feet
12, 13, 23, 14, 24, and P is the same with foot 34 in place of foot 24.

Both are quadratic in t, and their resultant in t factors over Q into the
edge line L23, the perpendiculars N12 and N13 at vertex 1 to edges 12 and
13, and one irreducible nonic F9: the curve has degree 9. F9 is fixed by
isogonal conjugation in the face, and ``ChainKernel.nonic`` is F9 times a
constant.
"""

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
from sympy import Matrix, Poly, Rational  # noqa: E402

from orthosect.analysis import FIT_CUT  # noqa: E402
from orthosect.errors import CurvePointError  # noqa: E402
from orthosect.orthology import Tetrahedron  # noqa: E402
from orthosect.pedal import VERTEX_TOL, ChainKernel, chain_sphere_residual  # noqa: E402
from orthosect.scene import load_scene  # noqa: E402
from orthosect.solver import solve_from_curve_point  # noqa: E402

U, V, T = sympy.symbols("u v t")

# rational hosts, face (1, 2, 3) in z = 0
HOSTS = (
    ((0, 0, 0), (5, 0, 0), (1, 4, 0), (2, 1, 3)),
    ((1, 2, 0), (6, -1, 0), (2, 5, 0), (3, 1, 4)),
    ((0, 0, 0), (7, 1, 0), (2, 6, 0), (-1, 2, 5)),
)


@dataclass(frozen=True)
class ExactCurve:
    """P, Q (in t, u, v), their resultant R in t (in u, v) and R's
    irreducible factors over Q, each named: "L23", "N12" or "N13" for a
    factor proportional to that line, otherwise "F<total degree>"."""

    p: Poly
    q: Poly
    r: Poly
    factors: Tuple[Tuple[str, Poly, int], ...]

    def factor(self, name: str) -> Poly:
        return next(f for n, f, _ in self.factors if n == name)


def _foot(anchor: Matrix, direction: Matrix, p: Matrix) -> Matrix:
    return anchor + (p - anchor).dot(direction) / direction.dot(direction) * direction


def _twice_area(p, b, c):
    """Twice the signed area of the plane triangle (p, b, c)."""
    return (b[0] - p[0]) * (c[1] - p[1]) - (b[1] - p[1]) * (c[0] - p[0])


def _divisor_lines(host) -> Dict[str, Poly]:
    """L23, N12 and N13 of a host as linear polynomials in (u, v)."""
    a1, a2, a3 = (Matrix(h[:2]) for h in host[:3])
    p = Matrix([U, V])
    return {name: Poly(expr, U, V) for name, expr in (
        ("L23", _twice_area(p, a2, a3)),
        ("N12", (p - a1).dot(a2 - a1)),
        ("N13", (p - a1).dot(a3 - a1)))}


def _name(factor: Poly, lines: Dict[str, Poly]) -> str:
    if factor.total_degree() == 1:
        for name, line in lines.items():
            if factor.monic() == line.monic():
                return name
    return f"F{factor.total_degree()}"


@functools.lru_cache(maxsize=len(HOSTS))
def exact_curve(index: int) -> ExactCurve:
    """The exact construction on HOSTS[index], built once per session."""
    host = HOSTS[index]
    a = [Matrix(h) for h in host]
    d = {(i, j): a[j] - a[i] for i, j in ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))}
    b4 = Matrix([U, V, 0])
    f12, f13, f23 = (_foot(a[i], d[i, j], b4) for i, j in ((0, 1), (0, 2), (1, 2)))
    n124, n134 = d[0, 1].cross(d[0, 3]), d[0, 2].cross(d[0, 3])
    s3 = f12 + T * n124.cross(d[0, 1])
    f14, f24 = _foot(a[0], d[0, 3], s3), _foot(a[1], d[1, 3], s3)
    # (s - f13).d13 = 0, (s - f14).d14 = 0, (s - A1).n134 = 0
    s2 = Matrix.vstack(d[0, 2].T, d[0, 3].T, n134.T).LUsolve(
        Matrix([f13.dot(d[0, 2]), f14.dot(d[0, 3]), a[0].dot(n134)]))
    f34 = _foot(a[2], d[2, 3], s2)

    def cosphericity(feet: List[Matrix]) -> Poly:
        rows = [[f.dot(f), f[0], f[1], f[2], 1] for f in feet]
        return Poly(Matrix(rows).det(method="berkowitz"), T, U, V)

    q = cosphericity([f12, f13, f23, f14, f24])
    p = cosphericity([f12, f13, f23, f14, f34])
    r = Poly(sympy.resultant(p.as_expr(), q.as_expr(), T), U, V)
    lines = _divisor_lines(host)
    _, factors = r.factor_list()
    return ExactCurve(p=p, q=q, r=r, factors=tuple(
        sorted(((_name(f, lines), f, m) for f, m in factors), key=lambda item: item[0])))


@pytest.fixture(scope="module", params=range(len(HOSTS)), ids=lambda i: f"host{i + 1}")
def curve(request) -> ExactCurve:
    return exact_curve(request.param)


def test_determinants_are_quadratic_in_t(curve):
    assert curve.p.degree(T) == 2
    assert curve.q.degree(T) == 2
    assert curve.r.total_degree() == 12


def test_resultant_is_three_lines_times_an_irreducible_nonic(curve):
    assert [(name, mult) for name, _, mult in curve.factors] == [
        ("F9", 1), ("L23", 1), ("N12", 1), ("N13", 1)]
    assert curve.factor("F9").is_irreducible


def _rational_points(rnd: random.Random, count: int):
    return [(Rational(rnd.randint(-60, 60), rnd.randint(1, 12)),
             Rational(rnd.randint(-60, 60), rnd.randint(1, 12))) for _ in range(count)]


def test_nonic_is_isogonally_invariant():
    """For q the isogonal conjugate of p, with barycentric weights
    (a^2 beta gamma, b^2 alpha gamma, c^2 alpha beta) of sum S,
    F9(q) S^9 / (F9(p) (alpha beta gamma)^3) is one number."""
    host = HOSTS[0]
    f9 = exact_curve(0).factor("F9")
    a1, a2, a3 = (Matrix(h[:2]) for h in host[:3])
    a_sq, b_sq, c_sq = ((x - y).dot(x - y) for x, y in ((a2, a3), (a1, a3), (a1, a2)))
    ratios = set()
    for p in _rational_points(random.Random(18), 30):
        alpha, beta, gamma = (_twice_area(p, a2, a3), _twice_area(a1, p, a3),
                              _twice_area(a1, a2, p))
        w = (a_sq * beta * gamma, b_sq * alpha * gamma, c_sq * alpha * beta)
        s = sum(w)
        f_p = f9(*p)
        assert s != 0 and f_p != 0 and alpha * beta * gamma != 0
        q = (w[0] * a1 + w[1] * a2 + w[2] * a3) / s
        ratios.add(f9(*q) * s ** 9 / (f_p * (alpha * beta * gamma) ** 3))
    assert len(ratios) == 1


def test_engine_nonic_is_the_exact_nonic():
    """ChainKernel.nonic / F9 is one constant at 200 float points, away from
    the lines where the engine's F is 0/0."""
    host = HOSTS[0]
    f9 = exact_curve(0).factor("F9")
    kernel = ChainKernel(Tetrahedron.of(np.array(host, dtype=float)))
    world = np.zeros((200, 3))
    world[:, :2] = np.random.default_rng(18).uniform((-3.0, -3.0), (8.0, 7.0), size=(200, 2))
    local = kernel.to_local(world)
    engine = kernel.nonic(local)[0]
    divisor = np.abs(kernel.divisor(local))
    keep = divisor >= FIT_CUT * divisor.max()
    exact = np.array([float(f9(Rational(x), Rational(y))) for x, y in world[keep, :2]])
    ratio = engine[keep] / exact
    assert keep.sum() >= 150
    assert np.abs(ratio / np.median(ratio) - 1.0).max() <= 1e-9


_DEMO_HOST = load_scene(Path(__file__).resolve().parent.parent / "scenes" / "demo.json"
                        ).tetrahedron("A")


@pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["demo", "host1", "host2", "host3"])
def test_solve_from_curve_point_names_coincident_feet(index):
    """F9 passes through the orthogonal projection of host vertex 4 onto
    face 123, exactly on the rational hosts, and a root of Q fits there,
    but its chain has coincident feet: solve_from_curve_point says so
    rather than calling the point off the curve. A point 0.05 of edge 12
    away, where both of Q's roots validate and neither fits, is off the
    curve."""
    host = _DEMO_HOST if index is None else Tetrahedron.of(np.array(HOSTS[index], dtype=float))
    normal, offset = host.faces[3, :3], host.faces[3, 3]
    foot = host.array[3] - (np.dot(normal, host.array[3]) - offset) * normal
    if index is not None:
        assert exact_curve(index).factor("F9")(*map(Rational, HOSTS[index][3][:2])) == 0
    assert min(abs(f) for f in chain_sphere_residual(host, foot)) <= VERTEX_TOL
    with pytest.raises(CurvePointError, match="coincident feet"):
        solve_from_curve_point(host, foot)
    off = foot + 0.05 * (host.array[1] - host.array[0])
    residuals = chain_sphere_residual(host, off)
    assert len(residuals) == 2 and min(abs(f) for f in residuals) > VERTEX_TOL
    with pytest.raises(CurvePointError, match="point is off the curve"):
        solve_from_curve_point(host, off)
