"""Small dense linear-algebra kernel for two-spin operators.

Everything works on plain complex128 ndarrays: 2x2 single-spin operators
and 4x4 two-spin operators.  Propagators are built by spectral
decomposition of the (Hermitian) generator, never by Pade approximation,
so unitarity holds to machine precision for any time argument.

Products of two 2-D matrices are written a.dot(b), not a @ b: both call
the same BLAS zgemm on the same operands and round alike, bit for bit,
but dot skips the matmul ufunc dispatch, which costs more than the
product itself at 4x4.  Stacked products keep @.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .checks import HERMITICITY_TOL, UNITARITY_TOL, strict_int
from .errors import NonHermitianError, NonUnitaryError

__all__ = [
    "pauli",
    "expm_hermitian",
    "dist_unitary",
    "dist_phase_invariant",
]


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


_SX = _frozen(np.array([[0, 1], [1, 0]], dtype=np.complex128))
_SY = _frozen(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
_SZ = _frozen(np.array([[1, 0], [0, -1]], dtype=np.complex128))
_PAULI = {1: _SX, 2: _SY, 3: _SZ}
_I4 = _frozen(np.eye(4, dtype=np.complex128))


def pauli(k: int) -> np.ndarray:
    """Pauli matrix sigma_k for k in {1, 2, 3} = (x, y, z).  Returns a copy."""
    return _PAULI[strict_int("pauli index", k, _PAULI)].copy()


def expm_hermitian(hm: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * hm) for one Hermitian (n, n) matrix hm, via eigendecomposition.

    Raises ValueError for input of any other shape, and NonHermitianError
    (carrying the measured asymmetry) if max |hm - hm^dag| exceeds
    HERMITICITY_TOL.  A non-finite entry makes the asymmetry NaN or inf,
    so it raises too.  A phase scale * w that overflows for an
    eigenvalue w would leave no propagator, only NaN: it raises
    NonUnitaryError with an infinite defect.
    """
    hm = np.asarray(hm, dtype=np.complex128)
    if hm.ndim != 2 or hm.shape[0] != hm.shape[1]:
        raise ValueError(f"expm_hermitian needs one square matrix, got shape {hm.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        asym = float(np.abs(hm - hm.conj().T).max())
    if not asym <= HERMITICITY_TOL:
        raise NonHermitianError(asym)
    w, v = np.linalg.eigh(hm)
    # the eigenvalues are sorted, so the largest phase is at an end; plain
    # floats, and two tests so that a NaN at either end fails
    lo, hi = float(scale) * float(w[0]), float(scale) * float(w[-1])
    if not (abs(lo) < math.inf and abs(hi) < math.inf):
        raise NonUnitaryError(math.inf)
    return (v * np.exp(-1j * scale * w)).dot(v.conj().T)


def dist_unitary(u: np.ndarray) -> float:
    """Deviation from unitarity: max |u^dag u - 1| entrywise."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    return float(np.abs(u.conj().T.dot(u) - (_I4 if n == 4 else np.eye(n))).max())


def dist_phase_invariant(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-invariant distance ||e^{i theta} a - b||_F^2 / (2n) between unitaries.

    theta = arg tr(a^dag b) is the phase that minimises the norm, where
    the distance equals 1 - |tr(a^dag b)| / n.  Written as a sum of
    squares it is never negative and stays accurate down to the inputs'
    own rounding, where the trace form cancels to noise of either sign.
    Zero iff a and b agree up to a global phase.  Both inputs must be unitary; a
    NonUnitaryError carries the worse defect otherwise.  A non-finite entry
    makes its defect NaN or inf, so it raises too.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        da, db = dist_unitary(a), dist_unitary(b)
    if not (da <= UNITARITY_TOL and db <= UNITARITY_TOL):
        # np.maximum keeps a NaN defect, where max() would drop it in second place
        raise NonUnitaryError(float(np.maximum(da, db)))
    # the phase by atan2: cmath.phase raises OverflowError where it underflows
    z = np.vdot(a, b)
    d = cmath.rect(1.0, math.atan2(z.imag, z.real)) * a - b
    return float(np.vdot(d, d).real) / (2 * a.shape[0])
