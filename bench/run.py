"""orthosect benchmark: the CLI end to end, and each layer underneath.

    python3 bench/run.py --workload {curve,pairs} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the engine is imported from
``src/``). Each workload runs ``orthosect.cli.main(argv)`` in-process as a
closed loop: one client, one process, the next command only after the
previous one returned. Inputs are scene files generated from ``--seed``
(see ``inputs.py``). A run repeats whole passes over the workload's deck
of commands, each pass ending with the deck's first command again; every
command is checked (see ``ops.py``). The number of passes is fixed by
``--seconds`` and the workload's nominal pass time, not by the clock, so
a seed always runs, and fails, the same ops.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: per-call microbenchmarks (``layers.py``), and
a traced pass between two untraced ones over the start of the deck (one curve
op, every pairs op), from which come per module self time and call
counts, kernel and solver counts, and the tracing overhead.

The last line of standard output is the result object; the line before it
is a detail record (environment, tail percentile, failures), also written
to ``bench/out/``. Spans of a traced run go to ``bench/out/`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("curve", "pairs")
SETUP_REPS = 3
# ops of the deck (from its start) in the traced and untraced passes of --trace 1
TRACED_OPS = {"curve": 1, "pairs": None}
# about the seconds one pass over the deck takes on a shared 2-core x86-64
# host (the host's speed wandered by a factor of up to 1.7 over minutes)
PASS_SECONDS = {"curve": 11.5, "pairs": 4.2}

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def cpu_steal_ticks() -> int:
    """Machine-wide CPU steal ticks (8th field of the cpu line of /proc/stat)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, or -1 if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return -1
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def fresh_import_seconds() -> float:
    """Seconds a new interpreter spends in ``import orthosect.cli``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import orthosect.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload: str, seed: int, work: Path):
    """Generate the deck, write and load its scenes, warm the CLI. Returns
    (deck, seconds including a fresh-interpreter import)."""
    from inputs import make_deck
    from ops import call_cli
    from orthosect import load_scene

    import_s = fresh_import_seconds()
    started = time.perf_counter()
    deck = make_deck(workload, seed, ROOT, work)
    for scene in sorted({op.argv[op.argv.index("--scene") + 1] for op in deck}):
        load_scene(scene)
    call_cli(["verify", "--scene", str(ROOT / "scenes" / "demo.json"), "--pair", "A,B"])
    return deck, import_s + time.perf_counter() - started


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Outcomes of the ops of one run."""

    def __init__(self):
        self.latencies: List[float] = []            # successful ops only
        self.items = 0
        self.false_passes = 0
        self.reports: List[Tuple[str, dict]] = []   # (kind, report) when asked to keep
        self.log: List[list] = []                   # [kind, meta, seconds, failure] per op

    def add(self, op, outcome, keep_report: bool = False) -> None:
        self.log.append([op.kind, op.meta, outcome.seconds, outcome.reason])
        if outcome.ok:
            self.latencies.append(outcome.seconds)
            self.items += outcome.items
            if keep_report:
                self.reports.append((op.kind, outcome.report))
        self.false_passes += outcome.false_pass

    @property
    def attempted(self) -> int:
        return len(self.log)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)

    def failures(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _, _, reason in self.log:
            if reason:
                key = f"{kind}: {reason[:120]}"
                counts[key] = counts.get(key, 0) + 1
        return counts


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fit in ``seconds`` at the nominal pass time; at
    least one."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def run_passes(deck, passes: int, tally: Tally, digests: dict) -> None:
    """``passes`` whole passes over ``deck``, each followed by its first op
    again, a repeat whose report must match byte for byte."""
    from ops import run_op

    for _ in range(passes):
        for op in deck + deck[:1]:
            tally.add(op, run_op(op, digests))


def tail(latencies: List[float]) -> Tuple[float, int]:
    """The 95th percentile of successful-op latency, and how many ops lie
    beyond it: ten or more on pairs, fewer on curve, whose runs hold too
    few ops for any percentile to keep ten beyond it. A fixed
    percentile keeps runs of different ``--seconds`` comparable."""
    xs = sorted(latencies)
    if len(xs) < 2:
        return xs[-1], 0
    cut = statistics.quantiles(xs, n=20, method="inclusive")[-1]
    return cut, sum(1 for x in xs if x > cut)


def hd_median(xs: List[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics with Beta((n+1)/2, (n+1)/2) weights. With the few ops of
    a curve run, and the cost clusters of the pairs commands, the sample
    median jumps when one op moves across a gap; this estimate moves
    smoothly."""
    import numpy as np

    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    t = np.linspace(0.0, 1.0, 4001)
    pdf = (t * (1.0 - t)) ** ((n + 1) / 2.0 - 1.0)
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ xs)


def end_to_end(tally: Tally, setup_s: float) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    lat = tally.latencies
    n = len(lat)
    tail_s, beyond = tail(lat) if n else (0.0, 0)
    metrics = {
        "ops_per_s": (n / sum(lat) if n else 0.0, "1/s"),
        "op_p50_ms": (hd_median(lat) * 1e3 if n else 0.0, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_share": (n / tally.attempted, "ratio"),
        "results_per_op": (tally.items / n if n else 0.0, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, {"tail_percentile": 95, "ops_beyond_tail": beyond, "successful_ops": n,
                     "failed_share": tally.failed / tally.attempted}


def traced_pass(deck, tally: Tally, digests: dict, spans_path: Path):
    """A traced pass over the deck between two untraced ones, whose mean
    time is the untraced baseline of the tracing overhead; returns
    ({metric: (value, unit)}, detail)."""
    from ops import run_op
    from tracer import CURVE_SPAN, ROOTS_SPAN, Tracer

    def untraced_pass() -> float:
        started = time.perf_counter()
        for op in deck:
            tally.add(op, run_op(op, digests))
        return time.perf_counter() - started

    untraced_s = [untraced_pass()]

    tracer = Tracer()
    first_report = len(tally.reports)
    tracer.install()
    try:
        started = time.perf_counter()
        for idx, op in enumerate(deck):
            tracer.op_id = idx
            tally.add(op, run_op(op, digests), keep_report=True)
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    untraced_s.append(untraced_pass())
    tracer.dump(spans_path)

    n_ops = len(deck)
    out: Dict[str, Tuple[float, str]] = {}
    for mod, tot in tracer.module_totals().items():
        out[f"{mod}.self_ms"] = (tot["self_s"] * 1e3 / n_ops, "ms")
        out[f"{mod}.calls"] = (tot["calls"] / n_ops, "count")

    roots = tracer.count(ROOTS_SPAN)
    reports = tally.reports[first_report:]
    curve_reports = [r for kind, r in reports if kind == "curve"]
    vertices = sum(r["results"]["vertex_count"] for r in curve_reports)
    lattice = sum(r["results"]["grid"] ** 2 for r in curve_reports)
    refine = tracer.count_within(ROOTS_SPAN, CURVE_SPAN) - lattice
    out["pedal.sphericity_roots_calls"] = (roots / n_ops, "count")
    out["pedal.empty_roots_share"] = (tracer.empty_roots / roots if roots else 0.0, "ratio")
    out["analysis.refine_evals_per_vertex"] = (refine / vertices if vertices else 0.0, "count")
    out["solver.residual_calls"] = (tracer.count("solver.OrthosectSystem.residuals") / n_ops,
                                    "count")
    out["solver.jacobian_calls"] = (tracer.count("solver.OrthosectSystem.jacobian") / n_ops,
                                    "count")
    out["curve_vertices"] = (float(vertices), "count")
    out["tracing_overhead_s"] = (traced_s - statistics.fmean(untraced_s), "s")
    detail = {"traced_ops": n_ops, "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT))}
    return out, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orthosect" / "__init__.py").is_file() or \
            not (ROOT / "scenes" / "demo.json").is_file():
        print(f"error: {ROOT} has no orthosect source tree (src/orthosect, scenes/demo.json)",
              file=sys.stderr)
        return 2
    # one client, no extra threads: BLAS must not start a pool of its own
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import orthosect.cli  # noqa: F401  (paid once here, measured fresh in set_up)

    steal_before = cpu_steal_ticks()
    started = time.perf_counter()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / "work" / tag
    tally, digests = Tally(), {}
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}

    if args.trace == 0:
        setups = [set_up(args.workload, args.seed, work) for _ in range(SETUP_REPS)]
        deck = setups[0][0]
        setup_s = statistics.median(s for _, s in setups)
        detail["passes"] = pass_count(args.workload, args.seconds)
        run_passes(deck, detail["passes"], tally, digests)
        metrics, extra = end_to_end(tally, setup_s)
        detail.update(extra)
        detail["setup_reps_s"] = [s for _, s in setups]
    else:
        deck, setup_s = set_up(args.workload, args.seed, work)
        import layers

        metrics = layers.measure(ROOT)
        traced, extra = traced_pass(deck[:TRACED_OPS[args.workload]], tally, digests,
                                    OUT / f"spans-{tag}.json.gz")
        metrics.update(traced)
        detail.update(extra)

    detail.update({
        "deck": [{"kind": op.kind, **op.meta} for op in deck],
        "attempted": tally.attempted,
        "failures": tally.failures(),
        "false_passes": tally.false_passes,
        "wall_s": time.perf_counter() - started,
        "cpu_steal_ticks": [steal_before, cpu_steal_ticks()],
        "env": environment(),
    })
    result = {
        "correct": tally.false_passes == 0 and tally.attempted > tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": {**detail, "ops": tally.log}, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
