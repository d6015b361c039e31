"""Small dense linear-algebra kernel for two-spin operators.

Everything works on plain complex128 ndarrays: 2x2 single-spin operators
and 4x4 two-spin operators.  Propagators are built by spectral
decomposition of the (Hermitian) generator, never by Pade approximation,
so unitarity holds to machine precision for any time argument.
"""

from __future__ import annotations

import numpy as np

from .checks import HERMITICITY_TOL, UNITARITY_TOL, strict_int
from .errors import NonHermitianError, NonUnitaryError

__all__ = [
    "pauli",
    "expm_hermitian",
    "dist_unitary",
    "dist_phase_invariant",
]

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULI = {1: _SX, 2: _SY, 3: _SZ}


def pauli(k: int) -> np.ndarray:
    """Pauli matrix sigma_k for k in {1, 2, 3} = (x, y, z).  Returns a copy."""
    return _PAULI[strict_int("pauli index", k, _PAULI)].copy()


def expm_hermitian(hm: np.ndarray, scale=1.0) -> np.ndarray:
    """exp(-i * scale * hm) for Hermitian hm, via eigendecomposition.

    hm may be one (n, n) matrix or a (..., n, n) stack, and scale a
    float or an array that broadcasts against the stack shape (...);
    each slice comes out bit for bit as its own one-matrix call.
    Raises NonHermitianError (carrying the measured asymmetry, the
    largest of any slice) if max |hm - hm^dag| exceeds HERMITICITY_TOL.
    A non-finite entry makes the asymmetry NaN or inf, so it raises too.
    """
    hm = np.asarray(hm, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        asym = float(np.abs(hm - hm.conj().swapaxes(-1, -2)).max())
    if not asym <= HERMITICITY_TOL:
        raise NonHermitianError(asym)
    w, v = np.linalg.eigh(hm)
    if not isinstance(scale, float):
        # one factor per slice, applied to that slice's eigenvalue row
        scale = np.asarray(scale)[..., None]
    return (v * np.exp(-1j * scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def dist_unitary(u: np.ndarray) -> float:
    """Deviation from unitarity: max |u^dag u - 1| entrywise."""
    u = np.asarray(u, dtype=np.complex128)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def dist_phase_invariant(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-invariant distance 1 - |tr(a^dag b)| / n between unitaries.

    Zero iff a and b agree up to a global phase.  Both inputs must be
    unitary; a NonUnitaryError carries the worse defect otherwise.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    defect = max(dist_unitary(a), dist_unitary(b))
    if defect > UNITARITY_TOL:
        raise NonUnitaryError(defect)
    n = a.shape[0]
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / n)
