"""Pinned demo-scene reports: each command's stdout must match its golden
file byte for byte.

A change that moves a bit fails here and has to argue for the new golden.
Regenerate deliberately with ``PYTHONPATH=src python tests/test_golden_reports.py``
from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from orthosect.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
# the scene path is relative to the repository root, so reports echo the
# same command wherever the checkout lives
SCENE = "scenes/demo.json"
GOLDEN_REPORTS = {
    "demo_verify.json": ["verify", "--scene", SCENE, "--pair", "A,B"],
    "demo_verify_corollary4.json": ["verify", "--scene", SCENE, "--pair", "A,B",
                                    "--corollary4"],
    "demo_conjugate.json": ["conjugate", "--scene", SCENE, "--pair", "A,B"],
    "demo_sequence_n6.json": ["sequence", "--scene", SCENE, "--pair", "A,B", "--n", "6"],
    "demo_trace_family.json": ["trace-family", "--scene", SCENE, "--tet", "A", "--start", "B",
                               "--steps", "50", "--step", "0.03"],
}


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_byte_identical(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _report(GOLDEN_REPORTS[name]) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    for name, argv in GOLDEN_REPORTS.items():
        (GOLDEN_DIR / name).write_text(_report(argv), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
