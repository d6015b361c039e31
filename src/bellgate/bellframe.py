"""Bell-basis block structure of the driven Heisenberg-Ising propagator.

For every field axis h the Hamiltonian couples the four Bell states

    |b_ij> = (|0,j> + (-1)^i |1, 1 xor j>) / sqrt(2)

in two disjoint pairs, so the propagator splits into two independent
2x2 blocks.  The pairing depends on h alone and is a literal frame
order; bell_frame freezes it, together with the per-block sign
conventions, into a BellFrame.

Each block restriction of H is c0*1 + c . sigma, linear in the
couplings (J1, J2, J3, B1, B2); every entry of that map is 0 or +-1.
The Bell basis's sign pattern, the frame orders, the signs and the map
itself are literals of pointkernel, which loads no numpy, and this
module builds its frames from them; the tests hold the basis to its
formula and each other literal to its projection of the model's
generator table.  reduced_params reads one coupling row through the
point kernel; a block is degenerate exactly where |c| = 0.  Each block
propagator has the closed form

    s = exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma)

with a unit vector n = (q b sin(h pi/2), q b cos(h pi/2), beta j).
reduced_params extracts (dplus, dminus, b, j) from the coefficients;
closed_form_block rebuilds the block from them.  The signs alpha, beta,
q are fixed per block from the frame's row positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import UNIT_CIRCLE_TOL, strict_int
from .params import PhysicalParams
from .pointkernel import _BELL_SIGNS, _FRAME_ORDER, _SIGNS, LABELS, _axis, _point_coefficients, _reduced
from .spinlin import _frozen

__all__ = [
    "BellFrame",
    "ReducedBlockParams",
    "bell_change_of_basis",
    "bell_frame",
    "frame_permutation",
    "to_blocks",
    "reduced_params",
    "closed_form_block",
]

# column 2i + j is |b_ij> = (|0,j> + (-1)^i |1, 1 xor j>) / sqrt(2); read-only
_BELL_BASIS = _frozen(np.array(_BELL_SIGNS, dtype=np.complex128) / np.sqrt(2.0))


def bell_change_of_basis() -> np.ndarray:
    """Columns are the Bell states in canonical label order b00, b01, b10, b11; a fresh copy."""
    return _BELL_BASIS.copy()


@dataclass(frozen=True, eq=False)
class BellFrame:
    """Frozen Bell-pair bookkeeping for one field axis.

    pairing lists the two blocks as label pairs, block 1 always holding
    b00.  change_of_basis has the ordered Bell states as columns.  The
    per-block signs satisfy alpha = (-1)^(h+j+1),
    beta = (-1)^(j(h+l-k+1)) and q = beta (-1)^(h+1), with (k, l) the
    1-based row positions of the block.  adjoint is change_of_basis^dag,
    so a matrix m reads in the frame as adjoint @ m @ change_of_basis.
    All arrays are read-only.
    """

    h: int
    pairing: tuple[tuple[str, str], tuple[str, str]]
    change_of_basis: np.ndarray
    alpha: tuple[int, int]
    beta: tuple[int, int]
    q: tuple[int, int]
    adjoint: np.ndarray

    def to_doc(self) -> dict:
        return {
            "h": self.h,
            "pairing": [list(p) for p in self.pairing],
            "signs": {"alpha": list(self.alpha), "beta": list(self.beta), "q": list(self.q)},
        }


@dataclass(frozen=True)
class ReducedBlockParams:
    """Closed-form parameters (dplus, dminus, b, j) of block 1 or 2 (ValueError otherwise), b^2 + j^2 = 1."""

    block: int
    delta_plus: float
    delta_minus: float
    b: float
    j: float

    def __post_init__(self):
        object.__setattr__(self, "block", strict_int("block", self.block, (1, 2)))


def _make_frame(h: int) -> BellFrame:
    order = _FRAME_ORDER[h]
    cob = _frozen(_BELL_BASIS[:, order])
    pairing = (
        (LABELS[order[0]], LABELS[order[1]]),
        (LABELS[order[2]], LABELS[order[3]]),
    )
    alpha, beta, q = _SIGNS[h]
    return BellFrame(
        h=h,
        pairing=pairing,
        change_of_basis=cob,
        alpha=alpha,
        beta=beta,
        q=q,
        # a transposed view, not a contiguous copy: products with it must
        # round exactly as products with change_of_basis.conj().T
        adjoint=_frozen(cob.conj().T),
    )


_FRAMES = {h: _make_frame(h) for h in _FRAME_ORDER}


def bell_frame(h: int) -> BellFrame:
    """The frozen Bell frame of field axis h."""
    return _FRAMES[strict_int("field axis h", h, _FRAMES)]


def _check_frame(frame) -> None:
    """TypeError unless frame is a BellFrame: the one check of a frame argument, made before any use of it."""
    if not isinstance(frame, BellFrame):
        raise TypeError(f"expected a BellFrame, got {type(frame).__name__}")


def frame_permutation(frame: BellFrame) -> list[int]:
    """Canonical label index occupying each frame position."""
    _check_frame(frame)
    return list(_FRAME_ORDER[frame.h])


def to_blocks(u: np.ndarray, frame: BellFrame) -> tuple[np.ndarray, np.ndarray, float]:
    """Transform u into the frame and split it: (block1, block2, offblock norm).

    The off-block norm is the Frobenius norm of everything outside the
    two 2x2 diagonal blocks; for a propagator evolved with the frame's
    own axis it is zero up to rounding, for a mismatched axis it is
    macroscopic.
    """
    _check_frame(frame)
    m = frame.adjoint.dot(np.asarray(u, dtype=np.complex128)).dot(frame.change_of_basis)
    off = float(np.sqrt(np.linalg.norm(m[0:2, 2:4]) ** 2 + np.linalg.norm(m[2:4, 0:2]) ** 2))
    return m[0:2, 0:2].copy(), m[2:4, 2:4].copy(), off


def reduced_params(p: PhysicalParams, frame: BellFrame) -> tuple[ReducedBlockParams, ReducedBlockParams]:
    """Closed-form parameters of both blocks for the given physical parameters.

    The block restriction of H decomposes as c0*1 + c . sigma, read off
    the point kernel; then dplus = -c0*t (propagator sign convention),
    dminus = |c|*t >= 0, and the unit vector n = c/|c| is split into the
    longitudinal weight j (along sigma_z, sign beta) and the transversal
    weight b (along the frame's h-dependent transversal direction, sign
    q).  A degenerate |c| = 0 block reports b = 0, j = 1, dminus = 0.  A
    block whose eigenphase t (c0 +- |c|) overflows has no such parameters:
    NonUnitaryError(inf), as evolve raises for it.
    """
    _check_frame(frame)
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    rp1, rp2 = _reduced(*_point_coefficients((*p.J, p.B1, p.B2), frame.h), p.t, frame.h)
    return ReducedBlockParams(1, *rp1), ReducedBlockParams(2, *rp2)


def closed_form_block(rp: ReducedBlockParams, frame: BellFrame) -> np.ndarray:
    """Rebuild the 2x2 block propagator from its reduced parameters.

    Returns exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma) with
    n assembled from (b, j) and the frame's per-block signs.  The
    determinant is exp(2 i dplus).
    """
    _check_frame(frame)
    norm2 = rp.b * rp.b + rp.j * rp.j
    if abs(norm2 - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"(b, j) must lie on the unit circle, got b^2 + j^2 = {norm2!r}")
    nx, ny, nz = _axis(rp.b, rp.j, frame.h, rp.block)
    c, s = float(np.cos(rp.delta_minus)), float(np.sin(rp.delta_minus))
    # cos(dminus) 1 - i sin(dminus) (nx sigma_x + ny sigma_y + nz sigma_z), entry by entry
    u = np.array(
        [[complex(c, -s * nz), complex(-s * ny, -s * nx)],
         [complex(s * ny, -s * nx), complex(c, s * nz)]]
    )
    return np.exp(1j * rp.delta_plus) * u
