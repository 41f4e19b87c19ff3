"""Run one CLI command in-process and apply the per-op correctness gate."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from inputs import Op


@dataclass
class Outcome:
    ok: bool
    seconds: float
    reason: str          # "" when ok
    items: int           # result objects the op produced (see result_items)
    report: Optional[dict]
    false_pass: bool     # the program said pass, the independent check did not


def call_cli(argv) -> tuple:
    """``orthosect.cli.main(argv)`` with stdout and stderr captured; returns
    (exit code, stdout text, seconds)."""
    from orthosect import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # a crash counts as a failed op
            code = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
    return code, out.getvalue(), seconds


def result_items(kind: str, results: dict) -> int:
    """Result objects an op produced: what a change could drop to go faster."""
    if kind == "curve":
        return sum(len(p["points"]) for p in results.get("polylines", []))
    if kind == "trace_family":
        return len(results.get("samples", []))
    if kind == "sequence":
        return len(results.get("tetrahedra", []))
    if kind in ("verify", "verify_c4"):
        return len(results.get("sphere_residuals", {}))
    return 1


def _check(op: Op, code, text: str) -> tuple:
    """(reason, report, false_pass); reason is "" when the op passes."""
    if not isinstance(code, int):
        return str(code), None, False
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"exit {code}, no report", None, False
    failing = [v["name"] for v in report.get("verdicts", []) if not v["passed"]]
    why = report.get("error") or "failing verdicts " + ",".join(failing)
    if code != 0:
        return f"exit {code}: {why}", report, False
    if "error" in report or failing or not report.get("passed", False):
        return f"exit 0 but {why}", report, True
    results = report.get("results", {})
    if op.kind == "curve":
        if "vertices_on_curve" not in {v["name"] for v in report["verdicts"]}:
            return "curve: no vertices_on_curve verdict", report, True
    elif op.out_path is not None:
        try:
            size = os.path.getsize(op.out_path)
        except OSError:
            size = -1
        if size <= 0 or size != results.get("bytes"):
            return f"export: wrote {size} bytes, report says {results.get('bytes')}", report, True
    return "", report, False


def run_op(op: Op, digests: Dict[str, str]) -> Outcome:
    """Run ``op`` once; ``digests`` maps an op's command line to the hash of
    its first report in this run, so a repeat must match byte for byte."""
    code, text, seconds = call_cli(op.argv)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    reason, report, false_pass = _check(op, code, text)
    key = "\0".join(op.argv)
    first = digests.setdefault(key, digest)
    if first != digest:
        reason = reason or "repeat differs from the first report"
        false_pass = True
    items = result_items(op.kind, report.get("results", {})) if report and not reason else 0
    return Outcome(ok=not reason, seconds=seconds, reason=reason, items=items,
                   report=report, false_pass=false_pass)
