"""Span tracer installed from the benchmark's side.

Wraps the public functions and methods (and constructors) defined in the
engine's modules, including the copies other modules imported by name
(``analysis`` imports ``closest_points`` from ``geom_core``, so patching
only ``geom_core`` would miss those calls). Private helpers are not
wrapped; their time counts toward the public span that called them. Each
call records a span (op id, name, start, end, parent) in memory;
``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List, Tuple

MODULES = ("geom_core", "orthology", "pedal", "solver", "analysis", "scene",
           "export", "cli")
ROOTS_SPAN = "pedal.ChainKernel.sphericity_roots"
CURVE_SPAN = "analysis.trace_curve"


class Tracer:
    """Spans of the wrapped calls, tagged with ``op_id`` (the op running),
    and the count of sphericity-root calls that found no root."""

    def __init__(self):
        self.op_id = -1
        self.empty_roots = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # one entry per span, in call order
        self.ops, self.name_ids, self.parents = array("i"), array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ops, name_ids, parents = self.ops, self.name_ids, self.parents
        starts, ends, stack, clock = self.starts, self.ends, self._stack, time.perf_counter
        count_empty = name == ROOTS_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ops.append(self.op_id)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count_empty and not result:
                    self.empty_roots += 1
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"orthosect.{m}") for m in MODULES}
        wrapped: Dict[int, object] = {}     # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(obj, f"{short}.{attr}")
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(short, obj)
        # names imported into other modules, and tables such as cli._HANDLERS
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrapped:
                            self._undo.append((obj, key, val))
                            obj[key] = wrapped[id(val)]

    def _patch_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, property) and obj.fget is not None:
                self._set(cls, attr, property(self._wrap(obj.fget, name), obj.fset,
                                              obj.fdel, obj.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def module_totals(self) -> Dict[str, Dict[str, float]]:
        """Per module: self seconds (span minus its direct children) and
        call count over all recorded spans."""
        n = len(self)
        child = [0.0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        module_of = [name.split(".", 1)[0] for name in self.names]
        out = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
        for idx in range(n):
            mod = out[module_of[self.name_ids[idx]]]
            mod["self_s"] += self.ends[idx] - self.starts[idx] - child[idx]
            mod["calls"] += 1
        return out

    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(1 for x in self.name_ids if x == nid)

    def count_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that have an ``ancestor`` span above them."""
        nid, aid = self._name_ids.get(name), self._name_ids.get(ancestor)
        hits = 0
        for idx, x in enumerate(self.name_ids):
            if x != nid:
                continue
            p = self.parents[idx]
            while p >= 0 and self.name_ids[p] != aid:
                p = self.parents[p]
            hits += p >= 0
        return hits

    def dump(self, path) -> None:
        """Gzipped JSON: {"names": [...], "fields": [...], "spans": [[op,
        name index, start, end, parent], ...]}, times in seconds from the
        first span."""
        t0 = self.starts[0] if len(self) else 0.0
        spans = [[self.ops[i], self.name_ids[i], round(self.starts[i] - t0, 7),
                  round(self.ends[i] - t0, 7), self.parents[i]] for i in range(len(self))]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["op", "name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)
