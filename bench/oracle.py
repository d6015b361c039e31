"""Reference computations owned by the benchmark.

Nothing here calls into bellgate: the Hamiltonian is rebuilt from an
explicit Kronecker sum of Pauli matrices and propagated with scipy's
Pade ``expm``, the Bell basis and the gate matrices are written out
from their definitions.  A later change that rewrites the package's
propagator or frame therefore cannot end up checking itself.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CX_FIRST = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
CX_SECOND = np.eye(4, dtype=complex)[[0, 3, 2, 1]]

#: Bell states b00, b01, b10, b11 as columns: (|0 j> + (-1)^i |1, 1 xor j>) / sqrt 2
BELL = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
) / np.sqrt(2.0)


def hamiltonian(J, B1: float, B2: float, h: int) -> np.ndarray:
    """H = sum_k J_k s_k (x) s_k - B1 s_h (x) 1 - B2 1 (x) s_h."""
    hm = sum(float(J[k]) * np.kron(PAULI[k], PAULI[k]) for k in range(3))
    sh = PAULI[h - 1]
    return hm - float(B1) * np.kron(sh, I2) - float(B2) * np.kron(I2, sh)


def propagator(t: float, J, B1: float, B2: float, h: int) -> np.ndarray:
    """exp(-i t H) by scaling and squaring."""
    return expm(-1j * float(t) * hamiltonian(J, B1, B2, h))


def propagator_of(p) -> np.ndarray:
    """Propagator of an object with t, J, B1, B2 and h attributes."""
    return propagator(p.t, p.J, p.B1, p.B2, p.h)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |tr(a^dag b)| / n: zero iff a and b agree up to a global phase."""
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / a.shape[0])


def is_bell_permutation(cob: np.ndarray, tol: float = 1e-14) -> bool:
    """True when the columns of cob are the four Bell states in some order."""
    overlap = np.abs(BELL.conj().T @ cob)
    return bool(np.all(np.abs(np.sort(overlap, axis=0) - [[0], [0], [0], [1]]) <= tol))


def computational_gate(tag: str, qubit: int | None) -> np.ndarray:
    """4x4 matrix of a computational-basis library gate."""
    if tag == "B_CNOT12":
        return CX_FIRST
    if tag == "B_CNOT21":
        return CX_SECOND
    one = {
        "B_S8": np.diag(np.exp([-1j * np.pi / 8, 1j * np.pi / 8])),
        "B_S4": np.diag(np.exp([-1j * np.pi / 4, 1j * np.pi / 4])),
        "B_H": HADAMARD,
    }[tag]
    return np.kron(one, I2) if qubit == 1 else np.kron(I2, one)


def circuit_matrix(gates) -> np.ndarray:
    """Product of (tag, qubit) gates, leftmost applied first."""
    out = np.eye(4, dtype=complex)
    for tag, qubit in gates:
        out = computational_gate(tag, qubit) @ out
    return out


def bell_gate(tag: str, phi: float | None) -> np.ndarray:
    """Bell-basis matrix (canonical label order) of a synthesizable generator."""
    if tag == "S_phi_q2":
        return np.kron(I2, np.diag(np.exp([-1j * phi, 1j * phi])))
    if tag == "S_phi_q1":
        return np.kron(np.diag(np.exp([-1j * phi, 1j * phi])), I2)
    return {"CNOT_12": CX_FIRST, "CNOT_21": CX_SECOND}[tag]


def fidelity(psi: np.ndarray, u: np.ndarray, u_shifted: np.ndarray) -> float:
    """|<u psi, u_shifted psi>|^2 for a computational-basis state psi."""
    return float(abs(np.vdot(u @ psi, u_shifted @ psi)) ** 2)
