"""The benchmark harness reaches into the engine by name: the names its
scripts import from orthosect (and the attributes they read off imported
engine modules), the span names bench/run.py counts, and the calls
bench/layers.py makes. A renamed engine function, or a changed argument or
return type, breaks a bench script or leaves a count silently at zero;
these checks catch that in the test suite."""

import ast
import importlib
import inspect
import json
import math
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# spans bench/run.py counts by literal name; bench/tracer.py's ROOTS_SPAN is
# a constant, not a literal, and is not checked (it names a method the
# engine no longer has)
COUNTED_SPANS = {"solver.OrthosectSystem.residuals", "solver.OrthosectSystem.jacobian"}


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")   # a submodule


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_engine_names_resolve(script):
    tree = _tree(script)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orthosect":
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
    if script == "layers.py":
        assert {"OrthosectSystem", "trace_family", "analysis", "export"} <= set(bound)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and inspect.ismodule(bound.get(node.value.id))):
            assert hasattr(bound[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_counted_span_names_resolve():
    counted = set()
    for node in ast.walk(_tree("run.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("count", "count_within")):
            counted |= {arg.value for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    assert counted == COUNTED_SPANS
    for span in counted:
        module, cls_name, attr = span.split(".")
        cls = getattr(importlib.import_module(f"orthosect.{module}"), cls_name)
        # the tracer wraps public plain functions of the class body
        assert inspect.isfunction(vars(cls).get(attr)), span


def test_layer_calls_run(monkeypatch):
    """bench/layers.py's measure runs every layer call once (its timing
    loops cut to a single call) and reads a finite value for each per-layer
    metric BENCHMARK.json declares it under: vertex rows, chain sources and
    edge lines go through the object views as the bench hands them."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")

    def once(fn, *_args, **_kwargs):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    monkeypatch.setattr(layers, "_median_call", once)
    monkeypatch.setattr(layers, "_median_per_unit", once)
    out = layers.measure(BENCH.parent)
    declared = {m["name"]: m["unit"]
                for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert {name: unit for name, (_, unit) in out.items()}.items() <= declared.items()
    assert all(math.isfinite(value) and value >= 0 for value, _ in out.values())
