"""Pinned demo curve: ``trace_curve(grid=16)`` on the four faces of the demo
host must keep every polyline's branch and points bit for bit, and its
residuals and ts within 1e-12.

A change that moves a crossing fails here and has to argue for the new
golden. Regenerate deliberately with
``PYTHONPATH=src python tests/test_curve_golden.py`` from the repository
root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from orthosect.analysis import trace_curve
from orthosect.scene import load_scene

DEMO_SCENE = Path(__file__).parent.parent / "scenes" / "demo.json"
GOLDEN = Path(__file__).parent / "golden" / "demo_curve_g16.json"
GRID = 16
# residuals and ts may move by round-off in the kernel's arithmetic; the
# crossings themselves (every bisection decision) may not
VALUE_TOL = 1e-12


def _polylines(face: int):
    host = load_scene(DEMO_SCENE).tetrahedron("A")
    return [{"branch": p.branch, "points": p.points.tolist(),
             "residuals": p.residuals.tolist(), "ts": p.ts.tolist()}
            for p in trace_curve(host, face, grid=GRID).polylines]


@pytest.mark.parametrize("face", [1, 2, 3, 4])
def test_demo_curve_matches_golden(face):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["faces"][str(face)]
    got = _polylines(face)
    assert [p["branch"] for p in got] == [p["branch"] for p in golden]
    for mine, ref in zip(got, golden):
        # floats survive the JSON round trip exactly, so equal bytes here
        # are equal bits
        assert (np.array(mine["points"]).tobytes()
                == np.array(ref["points"], dtype=float).tobytes())
        for key in ("residuals", "ts"):
            assert np.abs(np.subtract(mine[key], ref[key])).max() <= VALUE_TOL


if __name__ == "__main__":
    doc = {"scene": "scenes/demo.json", "tet": "A", "grid": GRID,
           "faces": {str(face): _polylines(face) for face in (1, 2, 3, 4)}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
