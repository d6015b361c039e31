"""The document layer: the JSON and CSV writers and the exact-key reader."""

import json
import math

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate.jsonio import dumps, dumps_csv, fields, format_float


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.10000000000000001"),
        (1.0, "1.0"),
        (-0.0, "-0.0"),
        (2.5, "2.5"),
        (1e22, "1e+22"),
        (1e-5, "1.0000000000000001e-05"),
        (np.float32(0.5), "0.5"),
    ],
)
def test_floats_have_17_significant_digits(value, text):
    assert format_float(value) == text
    assert float(text) == float(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_floats_are_refused(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": value})
    with pytest.raises(ValueError, match="non-finite"):
        dumps_csv(("x",), [(value,)])


def test_scalars_and_sequences():
    doc = {
        "int": np.int64(3),
        "float": np.float64(0.25),
        "bool": True,
        "none": None,
        "tuple": (1, 2.0),
        "array": np.array([1.0, -0.5]),
        "complex": 1.5 - 2j,
        "complex_array": np.array([1j]),
        "text": 'a "quoted" é',
    }
    assert dumps(doc) == (
        '{"int":3,"float":0.25,"bool":true,"none":null,"tuple":[1,2.0],"array":[1.0,-0.5],'
        '"complex":{"re":1.5,"im":-2.0},"complex_array":[{"re":0.0,"im":1.0}],'
        '"text":"a \\"quoted\\" \\u00e9"}'
    )


def test_numpy_bools_are_json_bools():
    # checks.strict_bool accepts a numpy bool, so the writer must too
    assert dumps({"t": np.bool_(True), "f": np.float64(1.0) > 2.0, "list": [np.False_]}) == (
        '{"t":true,"f":false,"list":[false]}'
    )


def test_non_string_keys_and_unknown_objects_are_refused():
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps({1: 0.0})
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps({"x": {1}})


def test_indent_layout_of_a_nested_doc():
    doc = {"a": [1, {"b": 0.5, "c": []}], "d": {}, "e": {"f": None}}
    assert dumps(doc, indent=2) == (
        "{\n"
        '  "a": [\n'
        "    1,\n"
        "    {\n"
        '      "b": 0.5,\n'
        '      "c": []\n'
        "    }\n"
        "  ],\n"
        '  "d": {},\n'
        '  "e": {\n'
        '    "f": null\n'
        "  }\n"
        "}"
    )
    assert json.loads(dumps(doc, indent=2)) == doc


def _trees(scalars):
    """JSON trees over the given leaves: lists, and dicts with text keys."""
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
        max_leaves=20,
    )


_EXACT_LEAVES = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=8)


@settings(max_examples=200, deadline=None)
@given(_trees(_EXACT_LEAVES), st.sampled_from([0, 1, 2, 4]))
def test_layout_is_the_stdlib_encoders_without_floats(doc, indent):
    assert dumps(doc) == json.dumps(doc, separators=(",", ":"))
    assert dumps(doc, indent=indent) == json.dumps(doc, indent=indent)


#: a JSON string, or a number token (group 1); skipping strings keeps digits inside text out
_NUMBER_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _float_leaves(tree):
    if isinstance(tree, list):
        return [x for v in tree for x in _float_leaves(v)]
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _float_leaves(v)]
    return [tree] if isinstance(tree, float) else []


@settings(max_examples=200, deadline=None)
@given(_trees(_EXACT_LEAVES | st.floats(allow_nan=False, allow_infinity=False)), st.sampled_from([None, 2]))
def test_floats_are_format_floats_tokens_and_read_back(doc, indent):
    text = dumps(doc, indent=indent)
    assert json.loads(text) == doc
    # every number token in document order; the floats among them are format_float's, in leaf order
    tokens = [m.group(1) for m in _NUMBER_TOKEN.finditer(text) if m.group(1) is not None]
    floats = [t for t in tokens if "." in t or "e" in t]
    assert floats == [format_float(x) for x in _float_leaves(doc)]


def test_tuples_arrays_and_complex_values_print_as_lists_and_entries():
    doc = {
        "pair": (1, (2.5, None)),
        "matrix": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "z": [1 - 0.5j, np.complex64(2j)],
        "zs": np.array([[0.25j]]),
        "empty": (np.zeros(0), ()),
    }
    as_lists = {
        "pair": [1, [2.5, None]],
        "matrix": [[1.0, 2.0], [3.0, 4.0]],
        "z": [{"re": 1.0, "im": -0.5}, {"re": 0.0, "im": 2.0}],
        "zs": [[{"re": 0.0, "im": 0.25}]],
        "empty": [[], []],
    }
    for indent in (None, 2):
        assert dumps(doc, indent=indent) == dumps(as_lists, indent=indent)
    assert dumps(as_lists, indent=2) == json.dumps(as_lists, indent=2)


def test_csv_scalar_rule_and_trailing_newline():
    rows = [("H_q2", None, 3, np.int64(-1), 0.1, np.float64(1.0)), ("x", "", 0, 0, -0.0, 2.5)]
    assert dumps_csv(("gate", "phi", "m", "k", "a", "b"), rows) == (
        "gate,phi,m,k,a,b\n"
        "H_q2,,3,-1,0.10000000000000001,1.0\n"
        "x,,0,0,-0.0,2.5\n"
    )
    assert dumps_csv(("only",), []) == "only\n"


@pytest.mark.parametrize("value", [True, 1j, [1.0]])
def test_csv_refuses_values_without_a_field_rule(value):
    with pytest.raises(TypeError, match="CSV field"):
        dumps_csv(("x",), [(value,)])


def test_fields_reads_exact_keys_in_order():
    doc = {"b": 2, "a": 1, "c": 3}
    assert fields(doc, "test", ("a", "b"), ("c", "d")) == (1, 2, 3, None)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"a": 1}, "missing key 'b'"),
        ({"a": 1, "b": 2, "e": 5}, "unknown key 'e'"),
        ([1, 2], "expected an object, got \\[1, 2\\]"),
        ("a", "expected an object"),
    ],
)
def test_fields_rejects_other_documents(doc, message):
    with pytest.raises(ValueError, match=f"^malformed test document: {message}"):
        fields(doc, "test", ("a", "b"), ("c",))
