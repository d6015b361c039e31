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
any computational-basis circuit as T (T g T)... T, resolving each
conjugate to a named Bell-basis gate when one matches exactly and
keeping it as an opaque matrix node otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "D_TAGS",
    "B_TAGS",
    "GateId",
    "OpaqueGate",
    "Circuit",
    "boykin_gate",
    "d_gate",
    "translator",
    "embedded_matrix",
    "matrix_of",
    "compile_circuit",
]

D_TAGS = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1", "CNOT_12", "CNOT_21", "T_translator")
B_TAGS = ("B_S8", "B_S4", "B_H", "B_CNOT12", "B_CNOT21")
_PHASE_TAGS = ("S_phi_q2", "S_phi_q1")
_B_ONE_LEVEL = ("B_S8", "B_S4", "B_H")

MATCH_TOL = 1e-10

_I2 = np.eye(2, dtype=np.complex128)
_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_CX_FIRST = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
_CX_SECOND = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)


def _phase2(phi: float) -> np.ndarray:
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


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
            if self.phi is None or not math.isfinite(self.phi):
                raise ValueError(f"{self.tag} requires a finite phi")
        elif self.phi is not None:
            raise ValueError(f"{self.tag} takes no phi")
        if self.qubit is not None:
            # bool is an int subclass and 1.0 == 1, so both would pass "in"
            q = self.qubit
            if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q not in (1, 2):
                raise ValueError(f"qubit must be 1 or 2, got {q!r}")
            object.__setattr__(self, "qubit", int(q))
        if self.qubit is not None and self.tag not in _B_ONE_LEVEL:
            raise ValueError(f"{self.tag} takes no qubit annotation")


@dataclass(frozen=True, eq=False)
class OpaqueGate:
    """A compiled node with no name in the Bell-basis library."""

    matrix: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with a basis tag; leftmost gate is applied first."""

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

    def to_json(self) -> str:
        items = []
        for g in self.gates:
            if isinstance(g, OpaqueGate):
                items.append(
                    {
                        "gate": "OPAQUE",
                        "matrix": [
                            [{"re": float(z.real), "im": float(z.imag)} for z in row]
                            for row in g.matrix
                        ],
                    }
                )
            else:
                doc: dict = {"gate": g.tag}
                if g.phi is not None:
                    doc["phi"] = g.phi
                if g.qubit is not None:
                    doc["qubit"] = g.qubit
                items.append(doc)
        return json.dumps({"basis": self.basis, "gates": items})

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        doc = json.loads(text)
        try:
            basis = doc["basis"]
            raw = doc["gates"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit document: {exc}") from exc
        gates: list = []
        for item in raw:
            tag = item["gate"]
            if tag == "OPAQUE":
                m = np.array(
                    [[complex(z["re"], z["im"]) for z in row] for row in item["matrix"]],
                    dtype=np.complex128,
                )
                gates.append(OpaqueGate(m))
            else:
                gates.append(GateId(tag=tag, phi=item.get("phi"), qubit=item.get("qubit")))
        return cls(gates=tuple(gates), basis=basis)


def boykin_gate(g: GateId) -> np.ndarray:
    """Computational-basis matrix of a finite-set gate: 2x2 one-level, 4x4 CNOT."""
    if g.tag == "B_S8":
        return _phase2(np.pi / 8)
    if g.tag == "B_S4":
        return _phase2(np.pi / 4)
    if g.tag == "B_H":
        return _H2.copy()
    if g.tag == "B_CNOT12":
        return _CX_FIRST.copy()
    if g.tag == "B_CNOT21":
        return _CX_SECOND.copy()
    raise ValueError(f"{g.tag} is not a computational-basis library gate")


def d_gate(g: GateId) -> np.ndarray:
    """Bell-basis matrix of a product-gate library member (canonical label order).

    Built from the logical action on the (i, j) labels: one-level gates
    act on a single label, the CNOTs are label-controlled NOTs.
    """
    if g.tag == "S_phi_q2":
        return np.kron(_I2, _phase2(g.phi))
    if g.tag == "S_phi_q1":
        return np.kron(_phase2(g.phi), _I2)
    if g.tag == "H_q2":
        return np.kron(_I2, _H2)
    if g.tag in ("H_q1", "T_translator"):
        return np.kron(_H2, _I2)
    if g.tag == "CNOT_12":
        return _CX_FIRST.copy()
    if g.tag == "CNOT_21":
        return _CX_SECOND.copy()
    raise ValueError(f"{g.tag} is not a Bell-basis library gate")


def translator() -> np.ndarray:
    """The translator T: Bell-basis matrix of (H on label i).  T = T^dag, T^2 = 1."""
    return np.kron(_H2, _I2)


def embedded_matrix(g, basis: str) -> np.ndarray:
    """4x4 matrix of a circuit entry; one-level gates need a qubit annotation."""
    if basis not in ("computational", "bell"):
        raise ValueError(f"basis must be computational or bell, got {basis!r}")
    if isinstance(g, OpaqueGate):
        return np.asarray(g.matrix, dtype=np.complex128)
    if basis == "bell":
        return d_gate(g)
    m = boykin_gate(g)
    if m.shape == (4, 4):
        return m
    if g.qubit is None:
        raise ValueError(f"one-level gate {g.tag} needs a qubit annotation to embed")
    return np.kron(m, _I2) if g.qubit == 1 else np.kron(_I2, m)


def matrix_of(c: Circuit) -> np.ndarray:
    """Product matrix of a circuit, leftmost gate applied first.  Empty -> 1."""
    out = np.eye(4, dtype=np.complex128)
    for g in c.gates:
        out = embedded_matrix(g, c.basis) @ out
    return out


def _match_named(w: np.ndarray):
    """Return the library GateId whose matrix equals w to MATCH_TOL, or None."""
    off = w - np.diag(np.diag(w))
    if np.abs(off).max() <= 1e-12:
        d = np.diag(w)
        for tag, pick in (("S_phi_q2", 1), ("S_phi_q1", 2)):
            phi = float(np.angle(d[pick]))
            cand = GateId(tag, phi=phi)
            if np.abs(d_gate(cand) - w).max() <= MATCH_TOL:
                return cand
    for tag in ("H_q2", "H_q1", "CNOT_12", "CNOT_21"):
        cand = GateId(tag)
        if np.abs(d_gate(cand) - w).max() <= MATCH_TOL:
            return cand
    return None


def compile_circuit(c: Circuit) -> Circuit:
    """Rewrite a computational-basis circuit over the Bell-basis library.

    Returns [T, T g_1 T, ..., T g_n T, T]; the product telescopes back
    to the original circuit because T is involutory.  Each conjugate is
    emitted under its library name when it matches one exactly,
    otherwise as an opaque matrix node.
    """
    if c.basis != "computational":
        raise ValueError("compile_circuit expects a computational-basis circuit")
    t = translator()
    t_id = GateId("T_translator")
    out: list = [t_id]
    for g in c.gates:
        w = t @ embedded_matrix(g, c.basis) @ t
        named = _match_named(w)
        out.append(named if named is not None else OpaqueGate(w))
    out.append(t_id)
    return Circuit(gates=tuple(out), basis="bell")
