"""Scene files and reports.

A scene is a strict JSON document holding named tetrahedra, optional
tolerance overrides and free-form metadata; any other top-level field is
rejected. Floats round-trip bit-exactly (shortest decimal serialization,
up to 17 significant digits). Reports mirror a command run: the echoed
command, structured results, and verdicts that are recomputable from the
recorded numbers and tolerances alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .errors import SceneError
from .geom_core import Tolerance
from .orthology import Tetrahedron

_TOP_LEVEL_KEYS = {"tetrahedra", "tolerance", "metadata"}
# a tetrahedron's scale band: beyond it, fourth powers of lengths leave the float range
MAX_COORDINATE = 1e60
MIN_DIAMETER = 1e-60


@dataclass(eq=False)
class Scene:
    tetrahedra: Dict[str, Tetrahedron] = field(default_factory=dict)
    eps_abs: Optional[float] = None
    eps_rel: Optional[float] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def tetrahedron(self, name: str) -> Tetrahedron:
        if name not in self.tetrahedra:
            raise SceneError(f"no tetrahedron named {name!r} in scene "
                             f"(have: {sorted(self.tetrahedra)})")
        return self.tetrahedra[name]

    def tolerance(self, points) -> Tolerance:
        """The tolerance of ``points``, with the scene's overrides."""
        overrides = {"eps_abs": self.eps_abs, "eps_rel": self.eps_rel}
        return Tolerance.for_points(points, **{k: v for k, v in overrides.items()
                                               if v is not None})


def _reject_nonfinite(value):
    raise SceneError(f"non-finite number {value!r}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):    # a literal such as 1e999 overflows to inf
        _reject_nonfinite(text)
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)             # an integer no float can hold
    return int(text)


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise SceneError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _is_number(value) -> bool:
    """A JSON number: booleans load as ints but are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_point(value, where: str) -> List[float]:
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(_is_number(c) for c in value)):
        raise SceneError(f"{where}: expected a 3-number coordinate, got {value!r}")
    if not all(math.isfinite(float(c)) for c in value):
        raise SceneError(f"{where}: non-finite coordinate {value!r}")
    return [float(c) for c in value]


def _parse_tetrahedron(name: str, value) -> Tetrahedron:
    where = f"tetrahedra.{name}"
    if not isinstance(value, list) or len(value) != 4:
        raise SceneError(f"{where}: expected 4 vertices, got "
                         f"{len(value) if isinstance(value, list) else type(value).__name__}")
    points = [_check_point(v, f"{where}[{i}]") for i, v in enumerate(value)]
    largest = max(abs(c) for p in points for c in p)
    diameter = max(math.dist(p, q) for i, p in enumerate(points) for q in points[:i])
    if largest > MAX_COORDINATE or 0.0 < diameter < MIN_DIAMETER:
        raise SceneError(f"{where}: out of the scale band (|x| <= {MAX_COORDINATE:g}, diameter 0 "
                         f"or >= {MIN_DIAMETER:g}): max |x| {largest:.3g}, diameter {diameter:.3g}")
    return Tetrahedron(points)


def scene_from_dict(doc) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene root must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SceneError(f"unknown top-level fields {sorted(unknown)}")
    tets_raw = doc.get("tetrahedra", {})
    if not isinstance(tets_raw, dict):
        raise SceneError("tetrahedra: expected an object of name -> 4x3 array")
    tetrahedra = {str(name): _parse_tetrahedron(str(name), v)
                  for name, v in tets_raw.items()}
    eps_abs = eps_rel = None
    if "tolerance" in doc:
        tol_raw = doc["tolerance"]
        if not isinstance(tol_raw, dict) or set(tol_raw) - {"eps_abs", "eps_rel"}:
            raise SceneError('tolerance: expected {"eps_abs": ..., "eps_rel": ...}')
        for label, v in tol_raw.items():
            if not _is_number(v) or not math.isfinite(float(v)) or v <= 0:
                raise SceneError(f"tolerance.{label}: must be a positive finite number, "
                                 f"got {v!r}")
        eps_abs = float(tol_raw["eps_abs"]) if "eps_abs" in tol_raw else None
        eps_rel = float(tol_raw["eps_rel"]) if "eps_rel" in tol_raw else None
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SceneError("metadata: expected an object")
    return Scene(tetrahedra=tetrahedra, eps_abs=eps_abs, eps_rel=eps_rel,
                 metadata=metadata)


def _read_json(path):
    """The JSON document in ``path``, read strictly: NaN, Infinity, numbers
    beyond the float range and duplicate keys raise SceneError, as do
    unreadable and malformed files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                             parse_constant=_reject_nonfinite,
                             object_pairs_hook=_no_duplicate_keys)
    except OSError as exc:
        raise SceneError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"malformed JSON in {path}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except SceneError as exc:
        raise SceneError(f"{exc} in {path}") from exc


def load_scene(path) -> Scene:
    return scene_from_dict(_read_json(path))


def scene_to_dict(scene: Scene) -> dict:
    doc: Dict[str, Any] = {
        "tetrahedra": {name: tet.array.tolist() for name, tet in scene.tetrahedra.items()},
    }
    tol = {k: v for k, v in (("eps_abs", scene.eps_abs), ("eps_rel", scene.eps_rel))
           if v is not None}
    if tol:
        doc["tolerance"] = tol
    if scene.metadata:
        doc["metadata"] = scene.metadata
    return doc


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as json writes it: floats, ints and the constants as the
    strings of their values."""
    if isinstance(key, float):
        key = _float_text(key)
    elif key is True or key is False or key is None:
        key = _CONSTANTS[key]
    elif isinstance(key, int):
        key = int.__repr__(key)
    elif not isinstance(key, str):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


@functools.lru_cache(maxsize=64)
def _array_template(shape: Tuple[int, ...], newline: str) -> str:
    """The JSON text of a float array of ``shape`` whose first line ends in
    ``newline``, as a %-format with one %r slot per entry in C order."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    inner = newline + "  "
    item = _array_template(shape[1:], inner)
    return f"[{inner}{(',' + inner).join([item] * shape[0])}{newline}]"


def _encode(value, newline: str, out) -> None:
    """Pass the JSON text of ``value`` to ``out`` in pieces; ``newline`` is a
    line break and the indent of the line ``value`` starts on. No builtin
    type is two of list, float, str and dict, so their order here is free;
    bool is an int, so the constants come first."""
    if isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        try:
            # a list of floats (np.float64 included) at one call; "inf" and
            # "nan" hold an n, which no finite float's repr does
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:
            text = "n"
        if "n" not in text:
            out(f"[{inner}{text}{newline}]")
            return
        lead = "[" + inner
        for item in value:
            out(lead)
            _encode(item, inner, out)
            lead = "," + inner
        out(newline + "]")
    elif isinstance(value, float):
        out(_float_text(value))
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            out(f"{lead}{_key_text(key)}: ")
            _encode(item, inner, out)
            lead = "," + inner
        out(newline + "}")
    elif value is None or value is True or value is False:
        out(_CONSTANTS[value])
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, np.ndarray) and value.dtype == np.float64:
        # as its tolist() at one format; a NaN or an infinity (whose repr
        # holds an n) goes the list way, to json's ValueError
        text = _array_template(value.shape, newline) % tuple(value.ravel().tolist())
        if "n" in text:
            _encode(value.tolist(), newline, out)
        else:
            out(text)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_canonical(doc) -> str:
    """Deterministic JSON encoding used for scenes and reports: the text of
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` and a
    line break. Like json it raises ValueError on NaN and the infinities
    and TypeError on other types and on keys it cannot sort or write; a
    document must be a tree (json's circular-reference check is not made).
    A float64 ndarray is written as its ``tolist()``. json encodes an
    indented document in pure Python, one generator step per value; this
    encoder writes a list of floats, the bulk of every report, with one
    join, and a float64 array with one format."""
    pieces: List[str] = []
    _encode(doc, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(scene_to_dict(scene)))


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    value: float
    tolerance: float
    op: str = "<="  # how value relates to tolerance when passing

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "value": self.value, "tolerance": self.tolerance, "op": self.op}


@dataclass(eq=False)
class Report:
    command: List[str]
    results: Dict[str, Any] = field(default_factory=dict)
    verdicts: List[Verdict] = field(default_factory=list)
    error: Optional[str] = None
    wall_time_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(v.passed for v in self.verdicts)

    def add_verdict(self, name: str, value: float, tolerance: float, op: str = "<=") -> None:
        passed = {"<=": value <= tolerance,
                  ">=": value >= tolerance,
                  "==": value == tolerance}[op]
        self.verdicts.append(Verdict(name=name, passed=bool(passed),
                                     value=float(value), tolerance=float(tolerance),
                                     op=op))

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "command": list(self.command),
            "results": self.results,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "passed": self.passed,
        }
        if self.error is not None:
            doc["error"] = self.error
        if include_timing and self.wall_time_s is not None:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return dumps_canonical(self.to_dict(include_timing=include_timing))
