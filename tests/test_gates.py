"""Gate dictionaries, the translator, and circuit compilation."""

import ast
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import (
    B_TAGS,
    D_TAGS,
    Circuit,
    GateId,
    OpaqueGate,
    compile_circuit,
    d_gate,
    dist_phase_invariant,
    dist_unitary,
    matrix_of,
    translator,
)

import bellgate.gates as gates
from conftest import parsed, random_unitary

UNITARY_TOL = 1e-13
TRANSLATOR_TOL = 1e-14
COMPILE_TOL = 1e-9

SQ2 = 1.0 / np.sqrt(2.0)
PHI = 0.3

# Bell-level dictionary in canonical label order b00, b01, b10, b11: the
# phase gates act on one label bit, the Hadamards mix one label bit, and
# the controlled-nots flip one label bit off the other.
D_FROZEN = {
    "S_phi_q1": np.diag(np.exp(1j * PHI * np.array([-1, -1, 1, 1]))),
    "S_phi_q2": np.diag(np.exp(1j * PHI * np.array([-1, 1, -1, 1]))),
    "H_q1": SQ2 * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]),
    "H_q2": SQ2 * np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]),
    "CNOT_12": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CNOT_21": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
}

HADAMARD = SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)


def _gate(tag, **kwargs):
    if tag.startswith("S_phi"):
        kwargs.setdefault("phi", PHI)
    return GateId(tag, **kwargs)


@pytest.mark.parametrize("tag", sorted(D_FROZEN))
def test_d_gate_frozen_literals(tag):
    assert np.max(np.abs(d_gate(_gate(tag)) - D_FROZEN[tag])) < 1e-15


def test_d_gate_unitarity():
    for tag in D_FROZEN:
        assert dist_unitary(d_gate(_gate(tag))) < UNITARY_TOL
    assert dist_unitary(translator()) < UNITARY_TOL


@pytest.mark.parametrize("g", [GateId("B_H", qubit=1), GateId("B_CNOT12")], ids=["B_H", "B_CNOT12"])
def test_d_gate_refuses_a_computational_gate(g):
    with pytest.raises(ValueError, match=f"^{g.tag} is not a Bell-basis library gate$"):
        d_gate(g)


def _one(g, basis="computational"):
    """One gate's 4x4 matrix, as the library gives it."""
    return matrix_of(Circuit(gates=(g,), basis=basis))


def test_boykin_frozen_literals():
    def emb(tag, qubit=None):
        return _one(GateId(tag, qubit=qubit))

    s8 = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
    s4 = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    for tag, one_level in (("B_H", HADAMARD), ("B_S8", s8), ("B_S4", s4)):
        assert np.max(np.abs(emb(tag, 1) - np.kron(one_level, np.eye(2)))) < 1e-15
        assert np.max(np.abs(emb(tag, 2) - np.kron(np.eye(2), one_level))) < 1e-15
    assert np.array_equal(emb("B_CNOT12").real, D_FROZEN["CNOT_12"])
    cx21 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])[
        np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    ]
    assert np.array_equal(emb("B_CNOT21").real, cx21)


def test_translator_involution():
    t = translator()
    assert np.max(np.abs(t - t.conj().T)) < TRANSLATOR_TOL
    assert np.max(np.abs(t @ t - np.eye(4))) < TRANSLATOR_TOL
    assert np.max(np.abs(t - np.kron(HADAMARD, np.eye(2)))) < TRANSLATOR_TOL
    assert np.max(np.abs(t - d_gate(GateId("T_translator")))) < TRANSLATOR_TOL


def test_translator_column_map():
    # acting on Bell components, T turns |b_ij> into the computational
    # state |i, i^j>: b00 -> |00>, b01 -> |01>, b10 -> |11>, b11 -> |10>
    from bellgate import bell_change_of_basis

    t = translator()
    q = bell_change_of_basis()
    for i in (0, 1):
        for j in (0, 1):
            image = q @ t[:, 2 * i + j]
            want = np.zeros(4)
            want[2 * i + (i ^ j)] = 1.0
            assert np.max(np.abs(image - want)) < TRANSLATOR_TOL


def test_phase_gate_composition():
    a, b = 0.4, 1.1
    prod = d_gate(GateId("S_phi_q2", phi=a)) @ d_gate(GateId("S_phi_q2", phi=b))
    assert np.max(np.abs(prod - d_gate(GateId("S_phi_q2", phi=a + b)))) < 1e-14


def test_hadamard_and_cnot_involutions():
    for tag in ("H_q1", "H_q2", "CNOT_12", "CNOT_21"):
        m = d_gate(GateId(tag))
        assert np.max(np.abs(m @ m - np.eye(4))) < 1e-14


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tag="S_phi_q2"),
        dict(tag="S_phi_q1", phi=np.nan),
        dict(tag="H_q1", phi=0.5),
        dict(tag="B_H", qubit=3),
        dict(tag="B_CNOT12", qubit=1),
        dict(tag="H_q1", qubit=1),
        dict(tag="B_S8", phi=0.1),
        dict(tag="X_gate"),
        dict(tag="B_H", qubit=True),
        dict(tag="B_H", qubit=1.0),
    ],
)
def test_gate_id_validation(kwargs):
    with pytest.raises(ValueError):
        GateId(**kwargs)


def test_gate_id_stores_qubit_as_int():
    g = GateId("B_H", qubit=np.int64(2))
    assert type(g.qubit) is int and g == GateId("B_H", qubit=2)


@pytest.mark.parametrize(
    "gates",
    [
        (GateId("B_H"),),
        (GateId("B_S8"),),
        (GateId("B_S4", qubit=2), GateId("B_S4")),
        (GateId("B_CNOT12"), GateId("B_H")),
    ],
    ids=["B_H", "B_S8", "after-a-placed-gate", "after-a-cnot"],
)
def test_circuit_refuses_a_one_level_gate_without_qubit(gates):
    tag = gates[-1].tag
    with pytest.raises(ValueError, match=f"^one-level gate {tag} needs a qubit annotation to embed$"):
        Circuit(gates=gates, basis="computational")


@pytest.mark.parametrize("entry", ["B_H", None, np.eye(4)], ids=["tag", "None", "matrix"])
def test_circuit_refuses_an_entry_that_is_no_gate(entry):
    for basis in ("computational", "bell"):
        with pytest.raises(TypeError, match="^circuit entries must be GateId or OpaqueGate, got "):
            Circuit(gates=(entry,), basis=basis)


def test_circuit_document_refuses_a_one_level_gate_without_qubit():
    doc = {"basis": "computational", "gates": [{"gate": "B_CNOT12"}, {"gate": "B_H"}]}
    with pytest.raises(ValueError, match="^one-level gate B_H needs a qubit annotation to embed$"):
        Circuit.from_doc(doc)


@pytest.mark.parametrize("order", [1, -1], ids=["missing-qubit-first", "missing-qubit-last"])
def test_a_gate_of_the_other_basis_is_reported_before_a_missing_qubit(order):
    # every entry's basis is checked before any qubit, wherever the entries stand
    with pytest.raises(ValueError, match="^gate H_q2 does not belong to basis computational$"):
        Circuit(gates=(GateId("B_H"), GateId("H_q2"))[::order], basis="computational")
    with pytest.raises(ValueError, match="^opaque nodes only appear in bell-basis circuits$"):
        Circuit(gates=(GateId("B_H"), OpaqueGate(np.eye(4)))[::order], basis="computational")


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(gates=(GateId("B_H", qubit=1),), basis="bell")
    with pytest.raises(ValueError):
        Circuit(gates=(GateId("H_q1"),), basis="computational")
    with pytest.raises(ValueError):
        Circuit(gates=(), basis="spin")


def test_matrix_of_applies_left_to_right():
    c = Circuit(
        gates=(GateId("B_H", qubit=1), GateId("B_CNOT12")), basis="computational"
    )
    h1 = np.kron(HADAMARD, np.eye(2))
    cx = D_FROZEN["CNOT_12"]
    assert np.max(np.abs(matrix_of(c) - cx @ h1)) < 1e-15


def test_matrix_of_empty_circuit():
    for basis in ("computational", "bell"):
        assert np.max(np.abs(matrix_of(Circuit(gates=(), basis=basis)) - np.eye(4))) < 1e-15


@pytest.mark.parametrize(
    "c",
    [
        Circuit(gates=(GateId("S_phi_q2", phi=0.3), GateId("H_q1"), GateId("CNOT_21")), basis="bell"),
        # the qubit annotations travel in the document too
        Circuit(gates=(GateId("B_H", qubit=1), GateId("B_CNOT12"), GateId("B_S4", qubit=2))),
    ],
    ids=["bell", "computational"],
)
def test_circuit_json_round_trip(c):
    assert Circuit.from_doc(json.loads(json.dumps(c.to_doc()))) == c


def test_circuit_json_round_trip_with_opaque():
    rng = np.random.default_rng(2)
    u = random_unitary(rng)
    c = Circuit(gates=(GateId("H_q2"), OpaqueGate(matrix=u)), basis="bell")
    back = Circuit.from_doc(json.loads(json.dumps(c.to_doc())))
    assert back.basis == "bell"
    assert back.gates[0] == c.gates[0]
    assert np.max(np.abs(np.asarray(back.gates[1].matrix) - u)) < 1e-15


@pytest.mark.parametrize("text", ["nope", "{}", '{"basis": "bell"}', '{"basis": "x", "gates": []}'])
def test_circuit_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Circuit.from_doc(parsed(text))


@pytest.mark.parametrize(
    "gates",
    [
        [{"qubit": 1}],
        ["B_H"],
        5,
        [{"gate": "OPAQUE", "matrix": [[{"re": "x", "im": 0.0}] * 4] * 4}],
        [{"gate": "OPAQUE", "matrix": [[{"re": True, "im": 0.0}] * 4] * 4}],
        [{"gate": "B_CNOT12", "qbit": 1}],
        [{"gate": "OPAQUE", "matrix": 5}],
    ],
    ids=["no-gate-key", "string-entry", "gates-not-a-list", "non-numeric-matrix", "bool-matrix-entry",
         "unknown-entry-key", "matrix-not-a-list"],
)
def test_circuit_from_json_rejects_malformed_entries(gates):
    with pytest.raises(ValueError, match="malformed circuit document"):
        Circuit.from_doc({"basis": "bell", "gates": gates})


def test_compile_conjugates_with_translators():
    c = Circuit(gates=(GateId("B_H", qubit=2),), basis="computational")
    cc = compile_circuit(c)
    assert cc.basis == "bell"
    assert cc.gates[0] == GateId("T_translator")
    assert cc.gates[-1] == GateId("T_translator")
    assert len(cc.gates) == 3


# which computational gates compile to a named Bell-level gate, and which
# only exist there as explicit matrices
NAMED_AFTER_COMPILE = {
    ("B_S8", 2): ("S_phi_q2", np.pi / 8),
    ("B_S4", 2): ("S_phi_q2", np.pi / 4),
    ("B_H", 1): ("H_q1", None),
    ("B_H", 2): ("H_q2", None),
}
OPAQUE_AFTER_COMPILE = [("B_S8", 1), ("B_S4", 1), ("B_CNOT12", None), ("B_CNOT21", None)]


def test_compile_names_self_conjugate_gates():
    for (tag, qubit), (want_tag, want_phi) in NAMED_AFTER_COMPILE.items():
        g = GateId(tag, qubit=qubit)
        cc = compile_circuit(Circuit(gates=(g,), basis="computational"))
        inner = cc.gates[1]
        assert isinstance(inner, GateId)
        assert inner.tag == want_tag
        if want_phi is not None:
            assert inner.phi == pytest.approx(want_phi, abs=1e-15)


def test_compile_falls_back_to_opaque():
    for tag, qubit in OPAQUE_AFTER_COMPILE:
        g = GateId(tag, qubit=qubit) if qubit else GateId(tag)
        c = Circuit(gates=(g,), basis="computational")
        cc = compile_circuit(c)
        assert isinstance(cc.gates[1], OpaqueGate)
        assert dist_phase_invariant(matrix_of(cc), matrix_of(c)) < COMPILE_TOL


def test_compile_rejects_bell_circuit():
    with pytest.raises(ValueError):
        compile_circuit(Circuit(gates=(GateId("H_q1"),), basis="bell"))


def test_compile_empty_circuit_is_identity():
    cc = compile_circuit(Circuit(gates=(), basis="computational"))
    assert np.max(np.abs(matrix_of(cc) - np.eye(4))) < 1e-14


def _random_computational_circuit(rng, n_gates):
    gates = []
    for _ in range(n_gates):
        tag = B_TAGS[rng.integers(0, len(B_TAGS))]
        if tag in ("B_CNOT12", "B_CNOT21"):
            gates.append(GateId(tag))
        else:
            gates.append(GateId(tag, qubit=int(rng.integers(1, 3))))
    return Circuit(gates=tuple(gates), basis="computational")


def test_compile_equivalence_random_circuits():
    rng = np.random.default_rng(61)
    for _ in range(50):
        c = _random_computational_circuit(rng, int(rng.integers(1, 9)))
        cc = compile_circuit(c)
        assert cc.basis == "bell"
        assert dist_phase_invariant(matrix_of(cc), matrix_of(c)) < COMPILE_TOL
        # compiled circuits survive serialization with equivalence intact
        back = Circuit.from_doc(json.loads(json.dumps(cc.to_doc())))
        assert dist_phase_invariant(matrix_of(back), matrix_of(c)) < COMPILE_TOL


# Oracle for the import-time tables: the per-call construction they
# replaced.  Library matrices are krons of the 2x2 gates, each compiled
# node is T m T matched against freshly built candidates.
_I2 = np.eye(2, dtype=np.complex128)
_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_CX_FIRST = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
_CX_SECOND = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)

# every (tag, qubit) a computational circuit can hold
COMPUTATIONAL_KEYS = [
    (tag, q) for tag in ("B_S8", "B_S4", "B_H") for q in (1, 2)
] + [("B_CNOT12", None), ("B_CNOT21", None)]
FIXED_D_TAGS = ("H_q2", "H_q1", "CNOT_12", "CNOT_21", "T_translator")


def _oracle_phase2(phi):
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


def _oracle_boykin(tag):
    return {
        "B_S8": lambda: _oracle_phase2(np.pi / 8),
        "B_S4": lambda: _oracle_phase2(np.pi / 4),
        "B_H": lambda: _H2.copy(),
        "B_CNOT12": lambda: _CX_FIRST.copy(),
        "B_CNOT21": lambda: _CX_SECOND.copy(),
    }[tag]()


def _oracle_d_gate(tag, phi=None):
    if tag == "S_phi_q2":
        return np.kron(_I2, _oracle_phase2(phi))
    if tag == "S_phi_q1":
        return np.kron(_oracle_phase2(phi), _I2)
    if tag == "H_q2":
        return np.kron(_I2, _H2)
    if tag in ("H_q1", "T_translator"):
        return np.kron(_H2, _I2)
    return {"CNOT_12": _CX_FIRST, "CNOT_21": _CX_SECOND}[tag].copy()


def _oracle_embedded(tag, qubit):
    m = _oracle_boykin(tag)
    if qubit is None:
        return m
    return np.kron(m, _I2) if qubit == 1 else np.kron(_I2, m)


def _oracle_compiled(tag, qubit):
    """(name, phi) of the matching library gate, else ("OPAQUE", matrix)."""
    t = _oracle_d_gate("T_translator")
    w = t @ _oracle_embedded(tag, qubit) @ t
    if np.abs(w - np.diag(np.diag(w))).max() <= 1e-12:
        d = np.diag(w)
        for name, pick in (("S_phi_q2", 1), ("S_phi_q1", 2)):
            phi = float(np.angle(d[pick]))
            if np.abs(_oracle_d_gate(name, phi) - w).max() <= 1e-10:
                return name, phi
    for name in ("H_q2", "H_q1", "CNOT_12", "CNOT_21"):
        if np.abs(_oracle_d_gate(name) - w).max() <= 1e-10:
            return name, None
    return "OPAQUE", w


def test_library_tables_match_kron_oracle():
    for tag, qubit in COMPUTATIONAL_KEYS:
        assert np.array_equal(_one(GateId(tag, qubit=qubit)), _oracle_embedded(tag, qubit))
    for tag in FIXED_D_TAGS:
        assert np.array_equal(d_gate(GateId(tag)), _oracle_d_gate(tag))
        assert np.array_equal(_one(GateId(tag), "bell"), _oracle_d_gate(tag))
    assert np.array_equal(translator(), _oracle_d_gate("T_translator"))


@pytest.mark.parametrize("tag, qubit", COMPUTATIONAL_KEYS)
def test_compiled_table_matches_oracle(tag, qubit):
    node = compile_circuit(Circuit(gates=(GateId(tag, qubit=qubit),))).gates[1]
    name, want = _oracle_compiled(tag, qubit)
    if name == "OPAQUE":
        assert isinstance(node, OpaqueGate)
        assert np.array_equal(node.matrix, want)
    else:
        assert node == GateId(name, phi=want)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_phase_gates_equal_kron_of_phase2(phi):
    for tag in ("S_phi_q2", "S_phi_q1"):
        got = d_gate(GateId(tag, phi=phi))
        assert got.dtype == np.complex128
        assert np.array_equal(got, _oracle_d_gate(tag, phi))


def _table_arrays():
    out = [d_gate(GateId(tag)) for tag in FIXED_D_TAGS]
    out.append(translator())
    for tag, qubit in COMPUTATIONAL_KEYS:
        node = compile_circuit(Circuit(gates=(GateId(tag, qubit=qubit),))).gates[1]
        if isinstance(node, OpaqueGate):
            out.append(node.matrix)
    return out


def test_returned_tables_are_read_only():
    arrays = _table_arrays()
    assert len(arrays) == 5 + 1 + 4
    for m in arrays:
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    # the shared tables stay intact for the next caller
    assert np.array_equal(translator(), _oracle_d_gate("T_translator"))


def test_opaque_gate_owns_a_read_only_copy():
    u = random_unitary(np.random.default_rng(4))
    g = OpaqueGate(u)
    assert g.matrix is not u and g.matrix.dtype == np.complex128
    assert not g.matrix.flags.writeable
    u[0, 0] = 7.0
    assert g.matrix[0, 0] != 7.0
    real = OpaqueGate(np.eye(4, dtype=int))
    assert real.matrix.dtype == np.complex128
    assert np.array_equal(real.matrix, np.eye(4))


@pytest.mark.parametrize(
    "matrix",
    [
        np.zeros((3, 3)),
        np.eye(4)[:, :3],
        np.eye(16).reshape(4, 4, 4, 4),
        np.full((4, 4), np.nan),
        np.diag([1.0, 1.0, 1.0, np.inf]),
    ],
)
def test_opaque_gate_rejects_bad_matrices(matrix):
    with pytest.raises(ValueError):
        OpaqueGate(matrix)


def _opaque_doc(matrix):
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in matrix]
    return {"basis": "bell", "gates": [{"gate": "OPAQUE", "matrix": rows}]}


@pytest.mark.parametrize(
    "matrix", [np.eye(3), np.diag([1.0, 1.0, np.nan, 1.0]), np.diag([1.0, -np.inf, 1.0, 1.0])]
)
def test_circuit_from_json_checks_opaque_matrices(matrix):
    with pytest.raises(ValueError):
        Circuit.from_doc(_opaque_doc(matrix))


def test_circuit_from_json_opaque_matrix_is_read_only():
    back = Circuit.from_doc(_opaque_doc(np.eye(4)))
    assert not back.gates[0].matrix.flags.writeable



#: which of (e^{-i phi}, e^{i phi}) a Bell phase gate holds at b00, b01, b10, b11 (see D_FROZEN)
_PHASE_PATTERN = {"S_phi_q2": (0, 1, 0, 1), "S_phi_q1": (0, 0, 1, 1)}


def _oracle_matrix(g, basis):
    """One circuit entry's 4x4 matrix from this module's own tables, with the bits of a per-call build.

    A Bell phase gate is a diagonal written entry by entry, so its zeros
    are +0.0; everything else is the kron oracle above.
    """
    if isinstance(g, OpaqueGate):
        return g.matrix
    if basis == "computational":
        return _oracle_embedded(g.tag, g.qubit)
    if g.tag in _PHASE_PATTERN:
        e = (np.exp(-1j * g.phi), np.exp(1j * g.phi))
        return np.diag([e[k] for k in _PHASE_PATTERN[g.tag]])
    return _oracle_d_gate(g.tag)


def _matrix_of_oracle(c):
    # a fresh identity, every gate from the oracle tables, one product per gate
    out = np.eye(4, dtype=np.complex128)
    for g in c.gates:
        out = _oracle_matrix(g, c.basis) @ out
    return out


_COMPUTATIONAL_GATES = st.sampled_from(
    [GateId(tag, qubit=q) for tag in ("B_S8", "B_S4", "B_H") for q in (1, 2)]
    + [GateId("B_CNOT12"), GateId("B_CNOT21")]
)
_BELL_GATES = st.one_of(
    st.sampled_from([GateId(tag) for tag in D_TAGS if not tag.startswith("S_phi")]),
    st.builds(
        GateId,
        st.sampled_from(["S_phi_q1", "S_phi_q2"]),
        phi=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    ),
    st.builds(
        lambda seed: OpaqueGate(random_unitary(np.random.default_rng(seed))), st.integers(0, 99)
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COMPUTATIONAL_GATES, max_size=12), st.lists(_BELL_GATES, max_size=12))
def test_matrix_of_matches_its_oracle(comp, bell):
    # bit for bit, the sign of a zero included, in both bases and on compiled circuits
    c = Circuit(gates=tuple(comp), basis="computational")
    for circuit in (c, compile_circuit(c), Circuit(gates=tuple(bell), basis="bell")):
        got = matrix_of(circuit)
        assert got.tobytes() == _matrix_of_oracle(circuit).tobytes()
        assert got.flags.writeable


def test_matrix_of_reads_every_compiled_gate_from_its_table(monkeypatch):
    # every computational gate and every node compile_circuit emits for it
    # is a table read; a missing entry would go through d_gate
    calls = []
    real = gates.d_gate
    monkeypatch.setattr(gates, "d_gate", lambda *a: calls.append(a) or real(*a))
    for tag, qubit in COMPUTATIONAL_KEYS:
        c = Circuit(gates=(GateId(tag, qubit=qubit),), basis="computational")
        matrix_of(c)
        matrix_of(compile_circuit(c))
    assert calls == []


def test_matrix_of_tables_are_read_only():
    assert all(not m.flags.writeable for m in gates._MATRICES.values())


@pytest.mark.parametrize("basis", ["computational", "bell"])
def test_matrix_of_empty_circuit_is_a_fresh_identity(basis):
    c = Circuit(gates=(), basis=basis)
    first = matrix_of(c)
    assert first.tobytes() == _matrix_of_oracle(c).tobytes()
    first[0, 0] = 7.0
    second = matrix_of(c)
    assert second is not first
    assert second.tobytes() == np.eye(4, dtype=np.complex128).tobytes()


def _raises(name):
    """The source of every raise statement in the body of gates.<name>."""
    tree = ast.parse(inspect.getsource(getattr(gates, name)))
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Raise)]


def test_a_built_circuit_needs_no_error_path_to_compile_or_multiply():
    # Circuit refuses every entry the tables lack when it is built, so matrix_of
    # has no error path and compile_circuit only checks the basis it is given
    assert _raises("matrix_of") == []
    assert _raises("compile_circuit") == [
        "raise ValueError('compile_circuit expects a computational-basis circuit')"
    ]
    assert not hasattr(gates, "embedded_matrix")
