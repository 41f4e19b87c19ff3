"""Seeded input generator for the benchmark workloads.

Every generated tetrahedron goes through a seeded similarity transform:
a uniform random rotation, a log-uniform scale over 1e-12 .. 1e12 and a
translation of about two host diameters at that scale. The scale
exponents of a deck are spaced evenly over that range, ends included, one
per host slot, so every run sees the whole range, including the small
scales where the program is known to fail.

Host shapes come from a fixed pool drawn with ``POOL_SEED``: the demo
host, well-conditioned and near-flat random hosts. The run seed draws the
rotations and translations, the curve host's scale, the degree-probe
seed and the op order. A fixed pool and fixed per-slot scales
keep the amount of work, and the set of ops that fail, the same from seed
to seed (both depend strongly on host shape and scale), so medians of
different seeds are comparable, while every coordinate the program reads
still changes with the seed.

The program only ever sees the scene files written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

POOL_SEED = 20091014
SCALE_EXP = (-12.0, 12.0)
WELL_QUALITY = 0.04      # volume / diameter^3 at or above: well-conditioned
FLAT_QUALITY = (0.008, 0.015)  # volume / diameter^3 band: near-flat
DEMO_STEP = 0.03         # trace-family step of the demo pair (README)

PAIR_HOSTS = {"demo": 1, "well": 5, "flat": 2}
FAMILY_STEPS = 50
SEQUENCE_N = 6
DEGREE_TRIALS = 100
DEGREE_FACE = 1
CURVE_GRID = 16


@dataclass
class Op:
    """One CLI invocation and what its correctness gate needs."""

    kind: str
    argv: List[str]
    out_path: Optional[str] = None      # file an export writes
    meta: Dict[str, object] = field(default_factory=dict)


def quality(p: np.ndarray) -> float:
    """Volume over diameter cubed (0.118 for a regular tetrahedron)."""
    vol = abs(float(np.linalg.det(p[1:] - p[0]))) / 6.0
    return vol / diameter(p) ** 3


def diameter(p: np.ndarray) -> float:
    return max(float(np.linalg.norm(p[i] - p[j]))
               for i in range(len(p)) for j in range(i))


def load_demo(root: Path) -> Tuple[np.ndarray, np.ndarray]:
    with open(root / "scenes" / "demo.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)["tetrahedra"]
    return np.array(doc["A"], dtype=float), np.array(doc["B"], dtype=float)


def _normalized(p: np.ndarray, diam: float) -> np.ndarray:
    p = p - p.mean(axis=0)
    return p * (diam / diameter(p))


def host_pool(demo_a: np.ndarray, counts: Dict[str, int]) -> List[Tuple[str, np.ndarray]]:
    """Fixed pool of host shapes, centered and scaled to the demo host's
    diameter. Independent of the run seed."""
    rng = np.random.default_rng(POOL_SEED)
    diam = diameter(demo_a)
    pool = [("demo", demo_a.copy())] * counts.get("demo", 0)
    for cls, n in (("well", counts.get("well", 0)), ("flat", counts.get("flat", 0))):
        found = 0
        while found < n:
            p = rng.normal(size=(4, 3))
            q = quality(p)
            ok = q >= WELL_QUALITY if cls == "well" else FLAT_QUALITY[0] <= q <= FLAT_QUALITY[1]
            if ok:
                pool.append((cls, _normalized(p, diam)))
                found += 1
    return pool


def random_similarity(rng: np.random.Generator, exponent: float,
                      diam: float) -> Callable[[np.ndarray], np.ndarray]:
    """A uniform random rotation, the scale 10**exponent and a shift of
    about two diameters at that scale, as a map of (n, 3) point arrays."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    scale = 10.0 ** exponent
    shift = rng.normal(size=3) * (2.0 * diam * scale)
    return lambda p: scale * (p @ q.T) + shift


def slot_exponents(n: int) -> np.ndarray:
    """One log10-scale per slot: ``n`` values spaced evenly over SCALE_EXP,
    ends included, dealt to slots in a fixed interleaved order (slot 0, the
    demo host, gets a middle one). The same in every run: seeded scales
    would move hosts across the scale at which the program starts to fail,
    so the set of failing ops, and with it the mix of timed ops, would
    change from seed to seed."""
    lo, hi = SCALE_EXP
    stride = next(s for s in (5, 7, 11, 13) if math.gcd(s, n) == 1)
    order = (np.arange(n) * stride + n // 2) % n
    return np.linspace(lo, hi, n)[order]


def probe_first(ops: List[Op], probe: int, rng: np.random.Generator) -> List[Op]:
    """``ops[probe]`` first (the op each pass repeats), the rest in seeded
    order."""
    rest = ops[:probe] + ops[probe + 1:]
    return [ops[probe]] + [rest[i] for i in rng.permutation(len(rest))]


def write_scene(path: Path, tets: Dict[str, np.ndarray], seed: int) -> str:
    doc = {"metadata": {"generator": "bench", "seed": seed},
           "tetrahedra": {name: p.tolist() for name, p in tets.items()}}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------


def curve_deck(seed: int, demo_a: np.ndarray, work: Path) -> List[Op]:
    """``curve`` on all four faces of the transformed demo host, with
    ``--degree-trials`` on face DEGREE_FACE. Face 4, the face of the README
    example, is the repeated op."""
    rng = np.random.default_rng([seed, 1])
    exp = rng.uniform(*SCALE_EXP)
    host = random_similarity(rng, exp, diameter(demo_a))(demo_a)
    scene = write_scene(work / "curve.json", {"A": host}, seed)
    ops = []
    for face in (1, 2, 3, 4):
        argv = ["curve", "--scene", scene, "--tet", "A", "--face", str(face),
                "--grid", str(CURVE_GRID)]
        if face == DEGREE_FACE:
            argv += ["--degree-trials", str(DEGREE_TRIALS),
                     "--degree-seed", str(int(rng.integers(1 << 30)))]
        ops.append(Op("curve", argv, meta={"face": face, "scale_exp": exp}))
    return probe_first(ops, 3, rng)


def find_partner(host: np.ndarray, seed: int) -> np.ndarray:
    """An orthosecting partner of ``host`` (found at unit scale, before the
    transform); the first solution of the first seeded solve that finds
    one."""
    from orthosect import SolverConfig, Tetrahedron, solve

    a = Tetrahedron.of(host)
    for attempt in range(8):
        found = solve(a, SolverConfig(seed=seed + attempt, restarts=8))
        if found:
            return found[0].array.copy()
    raise RuntimeError("no partner found for a pool host")


def pairs_deck(seed: int, demo_a: np.ndarray, demo_b: np.ndarray, work: Path) -> List[Op]:
    """The per-pair command set on the demo pair and on pool hosts with a
    partner found here."""
    rng = np.random.default_rng([seed, 3])
    pool = host_pool(demo_a, PAIR_HOSTS)
    exps = slot_exponents(len(pool))
    step_share = DEMO_STEP / diameter(np.vstack([demo_a, demo_b]))
    ops = []
    for k, (cls, base) in enumerate(pool):
        a = base
        b = demo_b if cls == "demo" else find_partner(a, POOL_SEED + k)
        sim = random_similarity(rng, exps[k], diameter(a))
        a, b = sim(a), sim(b)
        scene = write_scene(work / f"pair{k}.json", {"A": a, "B": b}, seed)
        step = step_share * diameter(np.vstack([a, b]))
        obj = str(work / f"pair{k}.obj")
        svg = str(work / f"pair{k}.svg")
        meta = {"class": cls, "slot": k, "scale_exp": float(exps[k])}
        # Both ways along the family: which way --direction 1 goes depends
        # on the rotation, and one way may stop within a few steps.
        family = [("trace_family", ["trace-family", "--scene", scene, "--tet", "A",
                                    "--start", "B", "--steps", str(FAMILY_STEPS),
                                    "--step", repr(step), "--direction", str(d)], None)
                  for d in (1, -1)]
        for kind, argv, out in (
                ("verify", ["verify", "--scene", scene, "--pair", "A,B"], None),
                ("verify_c4", ["verify", "--scene", scene, "--pair", "A,B", "--corollary4"], None),
                ("conjugate", ["conjugate", "--scene", scene, "--pair", "A,B"], None),
                ("sequence", ["sequence", "--scene", scene, "--pair", "A,B",
                              "--n", str(SEQUENCE_N)], None),
                *family,
                ("export_obj", ["export", "--scene", scene, "--format", "obj",
                                "--out", obj], obj),
                ("export_svg", ["export", "--scene", scene, "--format", "svg",
                                "--face", "4", "--out", svg], svg)):
            extra = {"direction": int(argv[-1])} if kind == "trace_family" else {}
            ops.append(Op(kind, argv, out_path=out, meta={**meta, **extra}))
    # The demo pair's conjugate is the repeated op. With it the cheap ops
    # (verify, svg) stay clearly under half of the successful ones, so the
    # median latency does not sit on the edge between them and the dearer
    # conjugate and obj ops, where it would jump from run to run.
    return probe_first(ops, 2, rng)


def make_deck(workload: str, seed: int, root: Path, work: Path) -> List[Op]:
    demo_a, demo_b = load_demo(root)
    if workload == "curve":
        return curve_deck(seed, demo_a, work)
    if workload == "pairs":
        return pairs_deck(seed, demo_a, demo_b, work)
    raise ValueError(f"unknown workload {workload!r}")
