"""Driven two-qubit Heisenberg-Ising model.

The Hamiltonian (hbar = 1) couples the two spins through all three
exchange axes and drives both with a magnetic field along a single
common axis h in {1, 2, 3}:

    H = sum_k J_k sigma_k (x) sigma_k - B1 sigma_h (x) 1 - B2 1 (x) sigma_h

H is linear in the couplings (J1, J2, J3, B1, B2).  The generator table
GENERATORS[h] holds the five constant 4x4 matrices they multiply, as one
(5, 4, 4) array: sigma_k (x) sigma_k for k = 1, 2, 3, then
-sigma_h (x) 1 and -1 (x) sigma_h.

Computational basis ordering is |q1 q2> -> index 2*q1 + q2.  The
propagator is U(t) = exp(-i H t); negative times are rejected, inverse
evolution is expressed by the adjoint.  evolve forms it as the paper's
direct sum, C blockdiag(s1, s2) C^dag over the Bell frame of h, from the
point kernel's block maps on Python floats: no Hamiltonian, no
eigendecomposition and no matrix product.  The dense path,
expm_hermitian(build_hamiltonian(p), p.t), is its independent
reference; fidelity_exact and the blocks command read it, because they
check the closed form.  The parameter record PhysicalParams is defined
in params, which loads no numpy.
"""

from __future__ import annotations

import numpy as np

from .checks import strict_int
from .params import PhysicalParams
from .pointkernel import _check_phases, _point_coefficients, _propagator
from .spinlin import pauli

__all__ = ["assemble_hamiltonian", "build_hamiltonian", "evolve"]


def _generators(h: int) -> np.ndarray:
    i2 = np.eye(2, dtype=np.complex128)
    sh = pauli(h)
    gens = [np.kron(pauli(k), pauli(k)) for k in (1, 2, 3)]
    gens = np.stack(gens + [-np.kron(sh, i2), -np.kron(i2, sh)])
    gens.flags.writeable = False
    return gens


GENERATORS = {h: _generators(h) for h in (1, 2, 3)}


def assemble_hamiltonian(J, B1, B2, h: int) -> np.ndarray:
    """Assemble the 4x4 Hamiltonian from raw components.

    Hermitian by construction and traceless.  Only the axis is checked
    (ValueError unless a non-bool integer 1, 2 or 3, as in
    PhysicalParams); callers that need the full parameter contract go
    through PhysicalParams.
    """
    gens = GENERATORS[strict_int("field axis h", h, GENERATORS)]
    # the five terms are added one after another in generator order, starting
    # from an exact zero, so an entry that every term leaves at zero comes out
    # +0.0.  A sum that overflows is left as inf or NaN, without a warning:
    # expm_hermitian rejects it as non-Hermitian.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.array((J[0], J[1], J[2], B1, B2), dtype=float)[:, None, None] * gens
        return np.add.reduce(terms, axis=0, initial=0.0)


def build_hamiltonian(p: PhysicalParams) -> np.ndarray:
    """The Hamiltonian of a validated parameter set."""
    return assemble_hamiltonian(p.J, p.B1, p.B2, p.h)


def evolve(p: PhysicalParams) -> np.ndarray:
    """Propagator U = exp(-i H t) for the given parameters, as C blockdiag(s1, s2) C^dag.

    Read from the point kernel's block maps (pointkernel._propagator).
    A point whose eigenphases t (c0 +- |c|) overflow, an overflowing
    entry of H among them, has no propagator: NonUnitaryError(inf), the
    overflow rule of reduced_params and the solver.
    """
    c, r = _point_coefficients((*p.J, p.B1, p.B2), p.h)
    _check_phases(c, r, p.t)
    return np.array(_propagator(p.t, c, r, p.h)).view(np.complex128).reshape(4, 4)
