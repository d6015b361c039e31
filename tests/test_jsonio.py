"""The document layer: the JSON and CSV writers, the complex-matrix format and the exact-key reader."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import gates, jsonio
from bellgate.jsonio import complex_matrix, dumps, dumps_csv, fields, format_float, read_complex_matrix

SRC = Path(jsonio.__file__).resolve().parent


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
        "int": 3,
        "float": np.float64(0.25),
        "bool": True,
        "none": None,
        "tuple": (1, 2.0),
        "list": [1.0, -0.5],
        "text": 'a "quoted" é',
    }
    assert dumps(doc) == (
        '{"int":3,"float":0.25,"bool":true,"none":null,"tuple":[1,2.0],"list":[1.0,-0.5],'
        '"text":"a \\"quoted\\" \\u00e9"}'
    )


@pytest.mark.parametrize(
    "value", [np.bool_(True), np.int64(3), 1.5 - 2j, np.complex128(1j), np.array([1.0, -0.5]), np.array([1j])]
)
def test_values_outside_json_are_refused(value):
    # checks.strict_bool and strict_int return a bool and an int, so a checked value
    # reaches a document as one; a complex matrix goes through complex_matrix
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__} deterministically"):
        dumps({"x": [value]})


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


def test_tuples_print_as_lists_and_complex_matrices_as_entries():
    doc = {
        "pair": (1, (2.5, None)),
        "z": complex_matrix(np.array([[1 - 0.5j, 2j], [-0.0j, 0.25j]])),
        "empty": ((), ()),
    }
    as_lists = {
        "pair": [1, [2.5, None]],
        "z": [[{"re": 1.0, "im": -0.5}, {"re": 0.0, "im": 2.0}], [{"re": -0.0, "im": -0.0}, {"re": 0.0, "im": 0.25}]],
        "empty": [[], []],
    }
    for indent in (None, 2):
        assert dumps(doc, indent=indent) == dumps(as_lists, indent=indent)
    assert dumps(as_lists, indent=2) == json.dumps(as_lists, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_complex_matrices_read_back_to_the_bit(entries):
    m = np.array(entries, dtype=np.complex128).reshape(2, 2)
    back = read_complex_matrix(json.loads(dumps(complex_matrix(m))), "test")
    assert np.array(back, dtype=np.complex128).tobytes() == m.tobytes()


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"re": 1.0}, "matrix must be a list of rows, got \\{'re': 1.0\\}"),
        ([[{"re": 1.0}]], "missing key 'im'"),
        ([[{"re": 1.0, "im": 0.0, "abs": 1.0}]], "unknown key 'abs'"),
        ([[{"re": True, "im": 0.0}]], "matrix entry must be a finite real number, got True"),
        ([[{"re": 0.0, "im": "1"}]], "matrix entry must be a finite real number, got '1'"),
    ],
)
def test_complex_matrix_reader_names_the_fault(rows, message):
    with pytest.raises(ValueError, match=f"^malformed test document: {message}$"):
        read_complex_matrix(rows, "test")


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _entry_format_uses(tree):
    """Every dict display with keys "re" and "im", and every fields(..., ("re", "im")) call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Call) and "fields" in _names(node.func):
            keys = {e.value for a in node.args if isinstance(a, (ast.Tuple, ast.List))
                    for e in a.elts if isinstance(e, ast.Constant)}
        else:
            continue
        if {"re", "im"} <= keys:
            found.append(ast.unparse(node))
    return found


def test_jsonio_names_no_numpy_and_alone_knows_complex_entries():
    tree = ast.parse((SRC / "jsonio.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "numpy" for name in imported if name)
    assert not {"np", "numpy"} & _names(tree)
    assert len(_entry_format_uses(tree)) == 2
    strays = {path.name: _entry_format_uses(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py")) if path.name != "jsonio.py"}
    assert {name: uses for name, uses in strays.items() if uses} == {}
    assert not hasattr(jsonio, "complex_entry") and not hasattr(gates, "_matrix_entry")


def test_csv_scalar_rule_and_trailing_newline():
    rows = [("H_q2", None, 3, -1, 0.1, np.float64(1.0)), ("x", "", 0, 0, -0.0, 2.5)]
    assert dumps_csv(("gate", "phi", "m", "k", "a", "b"), rows) == (
        "gate,phi,m,k,a,b\n"
        "H_q2,,3,-1,0.10000000000000001,1.0\n"
        "x,,0,0,-0.0,2.5\n"
    )
    assert dumps_csv(("only",), []) == "only\n"


@pytest.mark.parametrize("value", [True, 1j, [1.0], np.bool_(True), np.int64(1), np.complex128(1j)])
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
