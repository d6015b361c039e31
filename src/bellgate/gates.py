"""Gate libraries and the translator between them.

Two finite universal sets appear here.  The computational-basis set
holds the two phase gates (pi/8 and pi/4, in symmetric form
diag(e^-i phi, e^i phi)), the Hadamard and both CNOTs.  The Bell-basis
set holds product gates written by their logical action on the Bell
labels (i, j): phase gates and Hadamards acting on a single label, and
the two label-controlled NOTs.  Matrices of the second set are indexed
in canonical Bell order b00, b01, b10, b11.

The translator T is the Bell-basis matrix of (H on label i); it is
self-adjoint, involutory, and sends each Bell column to the
computational state |i, i xor j>.  compile_circuit uses it to rewrite
any computational-basis circuit as T (T g T)... T.  T commutes with
every gate on qubit 2 and with the Hadamard on qubit 1, and these four
conjugates are Bell-basis gates under their own names: S_phi_q2 with
phi pi/8 or pi/4, H_q2 and H_q1.  The other four (the phase gates on
qubit 1 and both CNOTs) are no library gate and stay opaque matrix
nodes.

Both sets are finite, so every matrix here except the parametric phase
gates is a constant.  They are built once at import as read-only
tables: the 4x4 computational matrix of each (tag, qubit), the fixed
Bell-basis gates, and the compiled node of each computational gate.
d_gate and translator return these shared arrays (copy before writing).
A Circuit is valid when it is built: each entry belongs to its basis,
and each one-level computational gate carries its qubit.  So
compile_circuit is one table read per gate, and matrix_of reads each
gate from one more table (every computational gate, every fixed
Bell-basis gate and the two phase gates compile_circuit emits); only a
Bell phase gate at another angle is built, by d_gate.  One gate's 4x4
matrix is matrix_of(Circuit((g,), basis)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import strict_float, strict_int
from .jsonio import complex_matrix, fields, read_complex_matrix
from .spinlin import _I4, _frozen

__all__ = [
    "D_TAGS",
    "B_TAGS",
    "GateId",
    "OpaqueGate",
    "Circuit",
    "d_gate",
    "translator",
    "matrix_of",
    "compile_circuit",
]

D_TAGS = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1", "CNOT_12", "CNOT_21", "T_translator")
B_TAGS = ("B_S8", "B_S4", "B_H", "B_CNOT12", "B_CNOT21")
#: which of (e^{-i phi}, e^{i phi}) each phase gate's diagonal holds at b00, b01, b10, b11
_PHASE_DIAGONAL = {"S_phi_q2": (0, 1, 0, 1), "S_phi_q1": (0, 0, 1, 1)}
_PHASE_TAGS = tuple(_PHASE_DIAGONAL)


def _phase2(phi: float) -> np.ndarray:
    return _frozen(np.diag([np.exp(-1j * phi), np.exp(1j * phi)]))


_I2 = _frozen(np.eye(2, dtype=np.complex128))
_H2 = _frozen(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0))
_CX_FIRST = _frozen(
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128)
)
_CX_SECOND = _frozen(
    np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128)
)

#: 2x2 one-level gates of the computational-basis library
_ONE_LEVEL = {"B_S8": _phase2(np.pi / 8), "B_S4": _phase2(np.pi / 4), "B_H": _H2}

#: 4x4 computational matrix of each (tag, qubit) a circuit can hold
_EMBEDDED = {
    (tag, q): _frozen(np.kron(m, _I2) if q == 1 else np.kron(_I2, m))
    for tag, m in _ONE_LEVEL.items()
    for q in (1, 2)
}
_EMBEDDED[("B_CNOT12", None)] = _CX_FIRST
_EMBEDDED[("B_CNOT21", None)] = _CX_SECOND

#: Bell-basis library members without a parameter; T is H on label i
_D_FIXED = {
    "H_q2": _frozen(np.kron(_I2, _H2)),
    "H_q1": _frozen(np.kron(_H2, _I2)),
    "CNOT_12": _CX_FIRST,
    "CNOT_21": _CX_SECOND,
}
_D_FIXED["T_translator"] = _D_FIXED["H_q1"]
_T = _D_FIXED["T_translator"]


@dataclass(frozen=True)
class GateId:
    """A named gate: tag, optional phase angle (radians), optional target qubit.

    phi is required exactly for the parametric phase gates; qubit (1 or
    2) annotates one-level computational gates so they embed into 4x4.
    """

    tag: str
    phi: float | None = None
    qubit: int | None = None

    def __post_init__(self):
        if self.tag not in D_TAGS + B_TAGS:
            raise ValueError(f"unknown gate tag {self.tag!r}")
        if self.tag in _PHASE_TAGS:
            if self.phi is None:
                raise ValueError(f"{self.tag} requires a finite phi")
            object.__setattr__(self, "phi", strict_float("phi", self.phi))
        elif self.phi is not None:
            raise ValueError(f"{self.tag} takes no phi")
        if self.qubit is not None:
            object.__setattr__(self, "qubit", strict_int("qubit", self.qubit, (1, 2)))
        if self.qubit is not None and self.tag not in _ONE_LEVEL:
            raise ValueError(f"{self.tag} takes no qubit annotation")


@dataclass(frozen=True, eq=False)
class OpaqueGate:
    """A compiled node with no name in the Bell-basis library.

    Owns a read-only complex128 copy of its 4x4 matrix, so nodes can be
    shared between circuits.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"opaque gate matrix must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("opaque gate matrix has non-finite entries")
        object.__setattr__(self, "matrix", _frozen(m))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with a basis tag; leftmost gate is applied first.

    Valid when built: each entry is of the basis, each one-level gate has its qubit.
    """

    gates: tuple
    basis: str = "computational"

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.basis not in ("computational", "bell"):
            raise ValueError(f"basis must be computational or bell, got {self.basis!r}")
        for g in self.gates:
            if isinstance(g, OpaqueGate):
                if self.basis != "bell":
                    raise ValueError("opaque nodes only appear in bell-basis circuits")
            elif isinstance(g, GateId):
                want_b = self.basis == "computational"
                if want_b != (g.tag in B_TAGS):
                    raise ValueError(f"gate {g.tag} does not belong to basis {self.basis}")
            else:
                raise TypeError(f"circuit entries must be GateId or OpaqueGate, got {g!r}")
        if self.basis == "computational":
            # after every entry's basis, so a gate of the other basis is reported first wherever it stands
            for g in self.gates:
                if g.qubit is None and g.tag in _ONE_LEVEL:
                    raise ValueError(f"one-level gate {g.tag} needs a qubit annotation to embed")

    def to_doc(self) -> dict:
        items = []
        for g in self.gates:
            if isinstance(g, OpaqueGate):
                items.append({"gate": "OPAQUE", "matrix": complex_matrix(g.matrix)})
            else:
                doc: dict = {"gate": g.tag}
                if g.phi is not None:
                    doc["phi"] = g.phi
                if g.qubit is not None:
                    doc["qubit"] = g.qubit
                items.append(doc)
        return {"basis": self.basis, "gates": items}

    @classmethod
    def from_doc(cls, doc) -> "Circuit":
        """Read a circuit document; it and each entry have exactly the keys to_doc writes."""
        basis, items = fields(doc, "circuit", ("basis", "gates"))
        if not isinstance(items, list):
            raise ValueError(
                f"malformed circuit document: gates must be a list, got {items!r}"
            )
        gates: list = []
        for item in items:
            if isinstance(item, dict) and item.get("gate") == "OPAQUE":
                _, rows = fields(item, "circuit", ("gate", "matrix"))
                gates.append(OpaqueGate(read_complex_matrix(rows, "circuit")))
            else:
                tag, phi, qubit = fields(item, "circuit", ("gate",), ("phi", "qubit"))
                gates.append(GateId(tag=tag, phi=phi, qubit=qubit))
        return cls(gates=tuple(gates), basis=basis)


def d_gate(g: GateId) -> np.ndarray:
    """Bell-basis matrix of a product-gate library member (canonical label order).

    Built from the logical action on the (i, j) labels: one-level gates
    act on a single label, the CNOTs are label-controlled NOTs.  The
    phase gates are diagonal and built per call; the others are shared
    read-only tables.
    """
    if g.tag in _PHASE_TAGS:
        e = (np.exp(-1j * g.phi), np.exp(1j * g.phi))
        return np.diag([e[i] for i in _PHASE_DIAGONAL[g.tag]])
    m = _D_FIXED.get(g.tag)
    if m is None:
        raise ValueError(f"{g.tag} is not a Bell-basis library gate")
    return m


def translator() -> np.ndarray:
    """The translator T: Bell-basis matrix of (H on label i).  T = T^dag, T^2 = 1 (read-only)."""
    return _T


def matrix_of(c: Circuit) -> np.ndarray:
    """Product matrix of a circuit, leftmost gate applied first.  Empty -> 1.

    Always a fresh, writable array, also for an empty circuit.
    """
    out = _I4
    for g in c.gates:
        m = g.matrix if isinstance(g, OpaqueGate) else _MATRICES.get((g.tag, g.phi, g.qubit))
        if m is None:
            # a Bell phase gate at another angle
            m = d_gate(g)
        out = m.dot(out)
    return out if c.gates else _I4.copy()


#: the conjugates T g T that are library gates (T g T = g for each); the test suite
#: derives this table independently by matching matrices
_NAMED = {
    ("B_S8", 2): GateId("S_phi_q2", phi=np.pi / 8),
    ("B_S4", 2): GateId("S_phi_q2", phi=np.pi / 4),
    ("B_H", 1): GateId("H_q1"),
    ("B_H", 2): GateId("H_q2"),
}
#: Bell-basis node of T g T for each computational (tag, qubit)
_COMPILED = {
    key: _NAMED[key] if key in _NAMED else OpaqueGate(_T @ m @ _T) for key, m in _EMBEDDED.items()
}
_T_ID = GateId("T_translator")

#: matrix of each (tag, phi, qubit) matrix_of reads without d_gate; the tag sets of
#: the two bases are disjoint, so one table serves both
_MATRICES = {(tag, None, q): m for (tag, q), m in _EMBEDDED.items()}
_MATRICES.update(((tag, None, None), m) for tag, m in _D_FIXED.items())
_MATRICES.update(
    ((g.tag, g.phi, None), _frozen(d_gate(g))) for g in _NAMED.values() if g.tag in _PHASE_TAGS
)


def compile_circuit(c: Circuit) -> Circuit:
    """Rewrite a computational-basis circuit over the Bell-basis library.

    Returns [T, T g_1 T, ..., T g_n T, T]; the product telescopes back
    to the original circuit because T is involutory.  Each conjugate is
    emitted under its library name where it has one, otherwise as an
    opaque matrix node; both are looked up in a table built at import.
    """
    if c.basis != "computational":
        raise ValueError("compile_circuit expects a computational-basis circuit")
    out: list = [_T_ID]
    for g in c.gates:
        out.append(_COMPILED[g.tag, g.qubit])
    out.append(_T_ID)
    return Circuit(gates=tuple(out), basis="bell")
