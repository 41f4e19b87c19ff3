"""Scene file schema, strictness, and bit-exact round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from orthosect.cli import main
from orthosect.errors import SceneError
from orthosect.geom_core import Tolerance
from orthosect.scene import Scene, dumps_canonical, load_scene, save_scene, scene_from_dict

T_REG_DOC = {"tetrahedra": {"A": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]}}


def test_minimal_scene_loads(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(T_REG_DOC))
    scene = load_scene(path)
    assert set(scene.tetrahedra) == {"A"}
    assert scene.tetrahedron("A").vertex(1)[0] == 1.0


def test_roundtrip_bit_exact(tmp_path, demo_pair):
    a, b, _ = demo_pair
    scene = Scene(tetrahedra={"A": a, "B": b}, eps_abs=1e-9, eps_rel=1e-7,
                  metadata={"description": "roundtrip probe", "seed": 1})
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    save_scene(scene, p1)
    loaded = load_scene(p1)
    save_scene(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for name in ("A", "B"):
        assert (loaded.tetrahedra[name].array == scene.tetrahedra[name].array).all()


def test_three_vertex_tetrahedron_names_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tetrahedra": {"broken": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}}))
    with pytest.raises(SceneError, match="tetrahedra.broken"):
        load_scene(path)


def test_unknown_top_level_field_strict(tmp_path, capsys):
    """Any top-level field but tetrahedra, tolerance and metadata is a
    scene error (CLI exit 2); scenes hold no pedal chains."""
    for key, value in (("surprise", 1), ("chains", {})):
        doc = dict(T_REG_DOC)
        doc[key] = value
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneError, match=key):
            load_scene(path)
        assert main(["verify", "--scene", str(path), "--pair", "A,A"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown top-level fields")


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"tetrahedra": {"A": [[NaN, 0, 0], [1,0,0], [0,1,0], [0,0,1]]}}')
    with pytest.raises(SceneError, match="non-finite"):
        load_scene(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"tetrahedra": \n {"A": }')
    with pytest.raises(SceneError, match="line 2"):
        load_scene(path)


def test_missing_file():
    with pytest.raises(SceneError, match="cannot read"):
        load_scene("/nonexistent/scene.json")


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"tetrahedra": {"A": [[1,1,1],[1,-1,-1],[-1,1,-1],[-1,-1,1]], '
                    '"A": [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}}')
    with pytest.raises(SceneError, match="duplicate"):
        load_scene(path)


def test_tolerance_parsing():
    doc = dict(T_REG_DOC)
    doc["tolerance"] = {"eps_rel": 1e-5}
    scene = scene_from_dict(doc)
    assert scene.eps_rel == 1e-5 and scene.eps_abs is None
    # an eps_rel override keeps the default eps_abs
    points = scene.tetrahedron("A").array
    tol = scene.tolerance(points)
    assert tol == Tolerance.for_points(points, eps_rel=1e-5)
    assert (tol.eps_abs, tol.eps_rel) == (Tolerance().eps_abs, 1e-5)
    doc["tolerance"] = {"eps_rel": -1.0}
    with pytest.raises(SceneError, match="positive"):
        scene_from_dict(doc)
    doc["tolerance"] = {"weird": 2}
    with pytest.raises(SceneError, match="tolerance"):
        scene_from_dict(doc)


@pytest.mark.parametrize("value", ["abc", [1], True, "1e-5"])
def test_tolerance_values_must_be_numbers(tmp_path, capsys, value):
    """A tolerance that is not a JSON number is a scene error: the CLI
    exits 2 with one error line, and nothing is coerced to a float."""
    doc = json.loads(json.dumps(T_REG_DOC))
    doc["tolerance"] = {"eps_rel": value}
    with pytest.raises(SceneError, match=r"tolerance\.eps_rel: must be a positive finite number"):
        scene_from_dict(doc)
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path), "--pair", "A,A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance.eps_rel") and err.count("\n") == 1


def test_boolean_numbers_rejected(tmp_path):
    """JSON booleans load as Python ints but are not numbers: a vertex
    [true, 0, 0] is a scene error (CLI exit 2)."""
    doc = json.loads(json.dumps(T_REG_DOC))
    doc["tetrahedra"]["A"][0] = [True, 0, 0]
    with pytest.raises(SceneError, match=r"tetrahedra.A\[0\]: expected a 3-number"):
        scene_from_dict(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path), "--pair", "A,A"]) == 2


def _json_canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(encode, doc):
    """The text ``encode`` gives for ``doc``, or the type of its error."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


# keys with quotes, escapes and non-ASCII text
_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "é", " ",
                                             "\U0001f600", "a\tb"])


def _documents(floats, key_types):
    """Nested documents of the scalars reports hold, floats drawn from
    ``floats`` as float and np.float64, dict keys from ``key_types``."""
    floats = floats | floats.map(np.float64)
    scalars = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=6)

    def containers(children):
        return (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                | st.lists(floats, max_size=5)
                | st.one_of(*(st.dictionaries(keys, children, max_size=4)
                              for keys in key_types)))
    return st.recursive(scalars, containers, max_leaves=30)


# every float (st.floats draws NaN and both infinities), and keys of every
# kind json takes, mixed kinds that do not sort included
_DOCUMENTS = _documents(st.floats(), (_KEYS, st.integers() | st.floats(),
                                      st.booleans() | st.none()))
_FINITE_DOCUMENTS = _documents(st.floats(allow_nan=False, allow_infinity=False), (_KEYS,))


def _nest(doc, depth, key):
    """``doc`` at the bottom of ``depth`` alternating list and dict layers."""
    for level in range(depth):
        # key last, so a key "z" replaces the sibling and not doc
        doc = [1, doc] if level % 2 else {"z": [], key: doc}
    return doc


@given(doc=_DOCUMENTS, depth=st.integers(0, 6), key=_KEYS)
@settings(max_examples=400, deadline=None)
def test_dumps_canonical_is_json_indent_2(doc, depth, key):
    """The canonical encoder gives json.dumps's indent-2, sorted-key text,
    byte for byte, and fails where json does: ValueError on NaN and the
    infinities at any depth, TypeError on keys that do not sort."""
    doc = _nest(doc, depth, key)
    assert _outcome(dumps_canonical, doc) == _outcome(_json_canonical, doc)


# float64 arrays of 0-3 dimensions, empty dimensions included
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                  max_side=4),
                     elements=st.floats(allow_nan=False, allow_infinity=False))


def _error(encode, doc):
    """The type and text of the error ``encode`` raises on ``doc``."""
    with pytest.raises(ValueError) as info:
        encode(doc)
    return type(info.value), str(info.value)


@given(array=_ARRAYS, doc=_FINITE_DOCUMENTS, depth=st.integers(0, 6), key=_KEYS,
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.integers(0, 63))
@example(array=np.array(0.0), doc=None, depth=1, key="z", bad=math.nan, where=0)
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_writes_float_arrays_as_lists(array, doc, depth, key, bad, where):
    """A float64 ndarray beside other values in dicts and lists encodes
    byte for byte as its tolist(); with a NaN or an infinity planted
    anywhere in it, it raises the ValueError its list raises, json's."""
    planted = {"array": array, "doc": doc}
    as_list = {"array": array.tolist(), "doc": doc}
    assert dumps_canonical(_nest(planted, depth, key)) == _json_canonical(_nest(as_list, depth,
                                                                                key))
    if not array.size:
        return
    array.reshape(-1)[where % array.size] = bad
    as_list["array"] = array.tolist()
    want = _error(_json_canonical, _nest(as_list, depth, key))
    assert _error(dumps_canonical, _nest(as_list, depth, key)) == want
    assert _error(dumps_canonical, _nest(planted, depth, key)) == want


@given(doc=_FINITE_DOCUMENTS, depth=st.integers(0, 6), key=_KEYS,
       bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                            np.float64(-math.inf)]),
       where=st.sampled_from(["value", "list", "float list", "key"]))
@settings(max_examples=200, deadline=None)
def test_dumps_canonical_rejects_nonfinite_floats(doc, depth, key, bad, where):
    """A non-finite float anywhere, as a value, in a list, in a list of
    floats or as a key, raises ValueError as json does."""
    planted = {"value": {"x": bad, "y": doc}, "list": [doc, bad, "s"],
               "float list": [0.5, bad, 2.0], "key": {bad: doc}}[where]
    doc = _nest(planted, depth, key)
    with pytest.raises(ValueError):
        _json_canonical(doc)
    with pytest.raises(ValueError):
        dumps_canonical(doc)
