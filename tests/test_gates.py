"""Gate dictionaries, the translator, and circuit compilation."""

import numpy as np
import pytest

from bellgate import (
    B_TAGS,
    Circuit,
    GateId,
    OpaqueGate,
    boykin_gate,
    compile_circuit,
    d_gate,
    dist_phase_invariant,
    dist_unitary,
    embedded_matrix,
    matrix_of,
    translator,
)

from conftest import random_unitary

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


def test_boykin_frozen_literals():
    assert np.max(np.abs(boykin_gate(GateId("B_H")) - HADAMARD)) < 1e-15
    s8 = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
    assert np.max(np.abs(boykin_gate(GateId("B_S8")) - s8)) < 1e-15
    s4 = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    assert np.max(np.abs(boykin_gate(GateId("B_S4")) - s4)) < 1e-15
    assert np.array_equal(boykin_gate(GateId("B_CNOT12")).real, D_FROZEN["CNOT_12"])
    cx21 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])[
        np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    ]
    assert np.array_equal(boykin_gate(GateId("B_CNOT21")).real, cx21)


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


def test_embedded_matrix_qubit_placement():
    h1 = embedded_matrix(GateId("B_H", qubit=1), "computational")
    h2 = embedded_matrix(GateId("B_H", qubit=2), "computational")
    assert np.max(np.abs(h1 - np.kron(HADAMARD, np.eye(2)))) < 1e-15
    assert np.max(np.abs(h2 - np.kron(np.eye(2), HADAMARD))) < 1e-15
    with pytest.raises(ValueError):
        embedded_matrix(GateId("B_H"), "computational")
    with pytest.raises(ValueError):
        embedded_matrix(GateId("B_H", qubit=1), "spin")


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
    cx = boykin_gate(GateId("B_CNOT12"))
    assert np.max(np.abs(matrix_of(c) - cx @ h1)) < 1e-15


def test_matrix_of_empty_circuit():
    for basis in ("computational", "bell"):
        assert np.max(np.abs(matrix_of(Circuit(gates=(), basis=basis)) - np.eye(4))) < 1e-15


def test_circuit_json_round_trip():
    c = Circuit(
        gates=(GateId("S_phi_q2", phi=0.3), GateId("H_q1"), GateId("CNOT_21")),
        basis="bell",
    )
    assert Circuit.from_json(c.to_json()) == c


def test_circuit_json_round_trip_with_opaque():
    rng = np.random.default_rng(2)
    u = random_unitary(rng)
    c = Circuit(gates=(GateId("H_q2"), OpaqueGate(matrix=u)), basis="bell")
    back = Circuit.from_json(c.to_json())
    assert back.basis == "bell"
    assert back.gates[0] == c.gates[0]
    assert np.max(np.abs(np.asarray(back.gates[1].matrix) - u)) < 1e-15


@pytest.mark.parametrize("text", ["nope", "{}", '{"basis": "bell"}', '{"basis": "x", "gates": []}'])
def test_circuit_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Circuit.from_json(text)


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
        back = Circuit.from_json(cc.to_json())
        assert dist_phase_invariant(matrix_of(back), matrix_of(c)) < COMPILE_TOL
