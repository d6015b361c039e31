"""The tolerance table and the one integer check every entry point uses."""

import ast
import enum
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgate
from bellgate import (
    GateId,
    Perturbation,
    bell_frame,
    cnot_family,
    prescription_targets,
    sample_states,
    sensitivity_sweep,
    solve_physical,
)
from bellgate.checks import strict_bool, strict_float, strict_int

SRC = Path(bellgate.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

#: a float literal between 1e-7 and 1e-19, in code, comments or docstrings
TOLERANCE_LITERAL = re.compile(r"\d(?:\.\d*)?[eE]-0*(?:[7-9]|1\d)\b")


def test_tolerance_literals_live_only_in_checks():
    assert TOLERANCE_LITERAL.search((SRC / "checks.py").read_text())
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "checks.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if TOLERANCE_LITERAL.search(line)
    ]
    assert hits == []


def _loaded_names(path):
    """Every name the module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _exported_names(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_public_names_have_a_caller_besides_tests():
    # a public name that only its own tests call is API the package does not need;
    # the acceptance criteria count as a caller, the package's re-exports do not
    readers = [path for path in SRC.glob("*.py") if path.name != "__init__.py"] + [ACCEPTANCE]
    loaded = set().union(*(_loaded_names(path) for path in readers))
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _exported_names(path)
        if name not in loaded
    ]
    assert unused == []


def test_each_public_name_is_listed_in_one_module():
    # a name in two modules' __all__ has two homes; the package namespace reads
    # each name from the one module _HOMES names, whose __all__ lists it, and no
    # other __all__ does
    listed = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _exported_names(path):
            listed.setdefault(name, []).append(path.stem)
    assert {name: homes for name, homes in listed.items() if len(homes) > 1} == {}
    assert [name for name, home in bellgate._HOME.items() if listed.get(name) != [home]] == []


def test_every_tolerance_has_a_reader():
    # a tolerance that no module applies is a rule nobody keeps; re-exports do not count
    tolerances = [
        target.id
        for node in ast.parse((SRC / "checks.py").read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    ]
    readers = [path for path in SRC.glob("*.py") if path.name not in ("checks.py", "__init__.py")]
    loaded = set().union(*(_loaded_names(path) for path in readers))
    assert "ACCEPT_TOL" in tolerances
    assert [name for name in tolerances if name not in loaded] == []


def _called_names(path):
    """The name of every function the module calls: "json.dumps", "format_float", ..."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f"{f.value.id}.{f.attr}" if isinstance(f.value, ast.Name) else f.attr)
    return names


def test_only_jsonio_writes_text_and_only_cli_parses_it():
    # one float rule: documents become text in jsonio alone, and the command
    # line is the one place that parses a file into a document
    owners = {"json.dumps": "jsonio.py", "json.dump": "jsonio.py", "format_float": "jsonio.py",
              "json.loads": "cli.py", "json.load": "cli.py"}
    calls = {path.name: _called_names(path) for path in sorted(SRC.glob("*.py"))}
    assert "json.dumps" in calls["jsonio.py"] and "json.loads" in calls["cli.py"]
    strays = [f"{name}: {call}" for name, called in calls.items()
              for call, owner in owners.items() if call in called and name != owner]
    assert strays == []


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_strict_int_accepts_integers(value):
    out = strict_int("k", value, (1, 2, 3))
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", [True, False, 3.0, 2.5, "3", None, np.float64(3.0)])
def test_strict_int_rejects_non_integers(value):
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        strict_int("k", value)


@pytest.mark.parametrize("value", [2.5, 3, np.float64(2.5), np.float32(2.5), np.int64(3), -0.0])
def test_strict_float_accepts_real_numbers(value):
    out = strict_float("x", value)
    assert out == value and type(out) is float


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "2.5", None, 1j, np.nan, np.inf, -np.inf, np.float64(np.nan)]
)
def test_strict_float_rejects_non_reals(value):
    with pytest.raises(ValueError, match="^x must be a finite real number, got "):
        strict_float("x", value)


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["10**400", "-10**400", "2**1024"])
def test_strict_float_rejects_integers_past_the_float_range(value):
    # no float holds them: the check names the field instead of raising OverflowError
    with pytest.raises(ValueError, match="^x must be a finite real number, got "):
        strict_float("x", value)


def test_strict_float_accepts_the_largest_float_as_an_integer():
    assert strict_float("x", int(sys.float_info.max)) == sys.float_info.max


def _general_int(name, value, allowed=None):
    # strict_int without its fast path for a plain int
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
        allowed is not None and value not in allowed
    ):
        vals = [repr(a) for a in allowed or ()]
        spec = ", ".join(vals[:-1]) + " or " + vals[-1] if vals else "an integer"
        raise ValueError(f"{name} must be {spec}, got {value!r}")
    return int(value)


def _general_float(name, value):
    # strict_float without its fast path for a finite plain float
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if real and isinstance(value, int):
        real = abs(value) <= sys.float_info.max
    if not (real and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


class _Float(float):
    pass


class _Int(int):
    pass


class _Axis(enum.IntEnum):
    X = 1
    Y = 2
    Z = 3


_INTS = st.integers(-(2**1100), 2**1100)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_NUMBERS = st.one_of(
    _INTS,
    _FLOATS,
    st.booleans(),
    st.sampled_from(
        [0, 1, 2, 3, -1, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, sys.float_info.max,
         int(sys.float_info.max), 2**1024, -(2**1024), 10**400, 2.0, 3.0]
    ),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    _FLOATS.map(_Float),
    _INTS.map(_Int),
    st.sampled_from(list(_Axis)),
)


def _outcome(check, *args):
    """(type, repr) of what check returns, or the message of the ValueError it raises."""
    try:
        out = check(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(out), repr(out)


@settings(max_examples=500, deadline=None)
@given(_NUMBERS)
def test_strict_float_fast_path_agrees_with_the_general_path(value):
    assert _outcome(strict_float, "x", value) == _outcome(_general_float, "x", value)


@settings(max_examples=500, deadline=None)
@given(_NUMBERS, st.sampled_from([None, (1, 2, 3), (1, -1), {1: "a", 2: "b", 3: "c"}]))
def test_strict_int_fast_path_agrees_with_the_general_path(value, allowed):
    assert _outcome(strict_int, "k", value, allowed) == _outcome(_general_int, "k", value, allowed)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
def test_strict_bool_accepts_truth_values(value):
    out = strict_bool("flag", value)
    assert out == value and type(out) is bool


@pytest.mark.parametrize("value", [1, 0, 1.0, "false", "true", None, np.int64(1)])
def test_strict_bool_rejects_everything_else(value):
    with pytest.raises(ValueError, match="^flag must be true or false, got "):
        strict_bool("flag", value)


# numbers.Real and numbers.Integral would let Fraction through, and Decimal is a number
# too: the checks name the types they accept, so each of these stays refused
_OTHER_NUMBERS = [Fraction(1, 2), Fraction(3), Decimal("2.5"), Decimal(3), "3"]


@pytest.mark.parametrize("value", _OTHER_NUMBERS + [True, np.bool_(False)], ids=repr)
def test_strict_float_and_strict_int_refuse_other_number_types(value):
    with pytest.raises(ValueError, match="^x must be a finite real number, got "):
        strict_float("x", value)
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        strict_int("k", value)


@pytest.mark.parametrize("value", _OTHER_NUMBERS + [Fraction(1), Decimal(1), np.float64(1.0)], ids=repr)
def test_strict_bool_refuses_other_number_types(value):
    with pytest.raises(ValueError, match="^flag must be true or false, got "):
        strict_bool("flag", value)


def test_checks_load_no_numpy_and_take_its_scalars_once_it_is_loaded():
    # a numpy scalar exists only once numpy is loaded: the checks look for numpy's
    # types in a loaded numpy on each call, and import none themselves
    script = (
        "import sys\n"
        "from bellgate.checks import strict_bool, strict_float, strict_int\n"
        "plain = (strict_int('k', 3), strict_float('x', 2.5), strict_bool('flag', True))\n"
        "before = 'numpy' in sys.modules\n"
        "import numpy as np\n"
        "scalars = (strict_int('k', np.int64(3)), strict_float('x', np.float32(2.5)), strict_bool('flag', np.bool_(True)))\n"
        "print(before, plain == scalars, [type(v).__name__ for v in scalars])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=300,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False True ['int', 'float', 'bool']\n")


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_frame(True),
        lambda: bell_frame(3.0),
        lambda: prescription_targets(GateId("CNOT_12"), m=2.5),
        lambda: prescription_targets(GateId("CNOT_12"), m_prime=True),
        lambda: cnot_family(GateId("CNOT_12"), 2.5, 1.0),
        lambda: cnot_family(GateId("CNOT_12"), True, 1.0),
        lambda: sample_states(bell_frame(1), n=2.5, seed=7),
        lambda: sample_states(bell_frame(1), n=2, seed=1.5),
        lambda: sample_states(bell_frame(1), n=2, seed=True),
        lambda: sample_states(bell_frame(1), n=2, seed=[1, 2]),
    ],
    ids=[
        "bell_frame-bool",
        "bell_frame-float",
        "targets-m-float",
        "targets-m_prime-bool",
        "family-m-float",
        "family-m-bool",
        "sample_states-n-float",
        "sample_states-seed-float",
        "sample_states-seed-bool",
        "sample_states-seed-list",
    ],
)
def test_integer_entry_points_reject_non_integers(call):
    with pytest.raises(ValueError):
        call()


def _h_sweep(grid):
    card = solve_physical(prescription_targets(GateId("H_q2")))
    return sensitivity_sweep(card, sample_states(bell_frame(1), n=1, seed=7), grid)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Perturbation(dp=(True, 0.0, 0.0, 0.0, 0.0, 0.0)),
        lambda: Perturbation(dp=(0.0, "0.1", 0.0, 0.0, 0.0, 0.0)),
        lambda: Perturbation.axis(0, "0.1"),
        lambda: Perturbation.axis(0, True),
        lambda: cnot_family(GateId("CNOT_12"), 2, "3"),
        lambda: cnot_family(GateId("CNOT_12"), 2, True),
        lambda: cnot_family(GateId("CNOT_12"), 2, np.inf),
        lambda: _h_sweep(["0.01"]),
        lambda: _h_sweep([0.01, True]),
    ],
    ids=[
        "perturbation-bool",
        "perturbation-string",
        "axis-step-string",
        "axis-step-bool",
        "family-field_scale-string",
        "family-field_scale-bool",
        "family-field_scale-inf",
        "sweep-grid-string",
        "sweep-grid-bool",
    ],
)
def test_real_entry_points_reject_non_reals(call):
    with pytest.raises(ValueError, match="must be a finite real number, got "):
        call()


def test_family_field_scale_stays_positive():
    with pytest.raises(ValueError, match=r"^field_scale must be positive, got -1.0$"):
        cnot_family(GateId("CNOT_12"), 2, -1.0)
    assert cnot_family(GateId("CNOT_12"), 2, np.int64(3)).solved.t == 1.0 / 3.0


def test_bell_frame_keeps_its_message():
    with pytest.raises(ValueError, match=r"^field axis h must be 1, 2 or 3, got True$"):
        bell_frame(True)


def test_numpy_integers_pass_every_entry_point():
    assert Perturbation.axis(np.int64(4), 1e-3) == Perturbation.axis(4, 1e-3)
    assert bell_frame(np.int64(2)) is bell_frame(2)
    assert prescription_targets(GateId("CNOT_12"), m=np.int64(2)).m == 2
    assert len(sample_states(bell_frame(1), n=np.int64(3), seed=np.uint8(7))) == 3
