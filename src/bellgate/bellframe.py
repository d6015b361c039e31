"""Bell-basis block structure of the driven Heisenberg-Ising propagator.

For every field axis h the Hamiltonian couples the four Bell states

    |b_ij> = (|0,j> + (-1)^i |1, 1 xor j>) / sqrt(2)

in two disjoint pairs, so the propagator splits into two independent
2x2 blocks.  The pairing depends on h alone and is a literal frame
order; bell_frame freezes it, together with the per-block sign
conventions, into a BellFrame.

Each block restriction of H is c0*1 + c . sigma, linear in the
couplings (J1, J2, J3, B1, B2).  BLOCK_COEFFS[h] holds that map as a
2x4x5 matrix (block, (c0, cx, cy, cz), coupling), projected once from
the model's generator table; every entry is 0 or +-1.  The block
kernel _block_coefficients, shared with the fidelity sweep and the
solver, applies it and returns |c| too; a block is degenerate exactly
where |c| = 0.  Each block propagator has the closed form

    s = exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma)

with a unit vector n = (q b sin(h pi/2), q b cos(h pi/2), beta j).
reduced_params extracts (dplus, dminus, b, j) from the coefficients;
closed_form_block rebuilds the block from them.  The signs alpha, beta,
q are fixed per block from the frame's row positions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .checks import UNIT_CIRCLE_TOL, strict_int
from .errors import NonUnitaryError
from .model import GENERATORS, PhysicalParams
from .spinlin import _frozen, pauli

__all__ = [
    "LABELS",
    "BellFrame",
    "ReducedBlockParams",
    "bell_state",
    "bell_change_of_basis",
    "bell_frame",
    "frame_permutation",
    "to_blocks",
    "reduced_params",
    "block_axis",
    "closed_form_block",
]

LABELS = ("b00", "b01", "b10", "b11")

# the transversal direction (sin(h pi/2), cos(h pi/2)) of each axis is (1, 0),
# (0, -1) or (-1, 0): the index of its coefficient in (c0, cx, cy, cz), and its sign
_TRANSVERSAL = {1: 1, 2: 2, 3: 1}
_TRANSVERSAL_SIGN = {1: 1.0, 2: -1.0, 3: -1.0}

# canonical label index at each frame position; block 1 holds b00
_FRAME_ORDER = {1: (0, 1, 2, 3), 2: (0, 3, 1, 2), 3: (0, 2, 1, 3)}


def bell_state(i: int, j: int) -> np.ndarray:
    """Bell state |b_ij> as a computational-basis column vector."""
    i = strict_int("bell label i", i, (0, 1))
    j = strict_int("bell label j", j, (0, 1))
    v = np.zeros(4, dtype=np.complex128)
    v[j] = 1.0
    v[2 + (1 ^ j)] = (-1.0) ** i
    return v / np.sqrt(2.0)


def bell_change_of_basis() -> np.ndarray:
    """Columns are the Bell states in canonical label order b00, b01, b10, b11."""
    return np.column_stack([bell_state(i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))])


@dataclass(frozen=True, eq=False)
class BellFrame:
    """Frozen Bell-pair bookkeeping for one field axis.

    pairing lists the two blocks as label pairs, block 1 always holding
    b00.  change_of_basis has the ordered Bell states as columns.  The
    per-block signs satisfy alpha = (-1)^(h+j+1),
    beta = (-1)^(j(h+l-k+1)) and q = beta (-1)^(h+1), with (k, l) the
    1-based row positions of the block.  adjoint is change_of_basis^dag,
    so a matrix m reads in the frame as adjoint @ m @ change_of_basis;
    order_index is the np.ix_ index that reorders a matrix in canonical
    Bell order (b00, b01, b10, b11) into frame order.  All arrays are
    read-only.
    """

    h: int
    pairing: tuple[tuple[str, str], tuple[str, str]]
    change_of_basis: np.ndarray
    alpha: tuple[int, int]
    beta: tuple[int, int]
    q: tuple[int, int]
    adjoint: np.ndarray
    order_index: tuple[np.ndarray, np.ndarray]

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
    cob = _frozen(bell_change_of_basis()[:, order])
    pairing = (
        (LABELS[order[0]], LABELS[order[1]]),
        (LABELS[order[2]], LABELS[order[3]]),
    )
    alpha = tuple((-1) ** (h + j + 1) for j in (1, 2))
    # block j holds the adjacent rows (k, l) = (2j - 1, 2j), so l - k = 1
    beta = tuple((-1) ** (j * (h + 1 + 1)) for j in (1, 2))
    q = tuple(beta[j - 1] * (-1) ** (h + 1) for j in (1, 2))
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
        order_index=tuple(_frozen(a) for a in np.ix_(order, order)),
    )


#: (1, sigma_x, sigma_y, sigma_z); a block is its (c0, cx, cy, cz) contracted with these
BLOCK_BASIS = np.stack([np.eye(2), pauli(1), pauli(2), pauli(3)])
BLOCK_BASIS.flags.writeable = False


def _projected_coefficients(frame: BellFrame) -> np.ndarray:
    # tr(s_a g) / 2 over s_a in BLOCK_BASIS for each 2x2 diagonal block g of
    # every generator in frame coordinates; rint removes the 1/sqrt(2)
    # rounding noise and + 0.0 turns its -0.0 into +0.0
    c = frame.change_of_basis
    w = c.conj().T @ GENERATORS[frame.h] @ c
    out = np.stack([np.einsum("aij,nji->an", BLOCK_BASIS, w[:, k : k + 2, k : k + 2]) for k in (0, 2)])
    out = np.rint(out.real / 2.0) + 0.0
    out.flags.writeable = False
    return out


_FRAMES = {h: _make_frame(h) for h in _FRAME_ORDER}

# (c0, cx, cy, cz) of each block as a linear map of (J1, J2, J3, B1, B2)
BLOCK_COEFFS = {h: _projected_coefficients(fr) for h, fr in _FRAMES.items()}

# BLOCK_COEFFS[h] as one (5, 8) map from (J1, J2, J3, B1, B2) to (c0, cx, cy, cz) of both blocks
_COEFF_MAP = {h: c.reshape(8, 5).T for h, c in BLOCK_COEFFS.items()}


def _block_coefficients(x: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """(c0, cx, cy, cz) of both blocks, shape (..., 2, 4), and |c|, shape (..., 2), of coupling rows x (..., 5).

    The map is linear, so a displacement row gives the coefficients of
    its displacement.  |c| is a nested hypot, finite wherever |c| is.  An
    overflowing row comes out non-finite without a warning; the callers
    report it as the error of its point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = (x @ _COEFF_MAP[h]).reshape(x.shape[:-1] + (2, 4))
        return c, np.hypot(np.hypot(c[..., 1], c[..., 2]), c[..., 3])


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, and 1 at x = 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def _rotations(t, c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block maps exp(-i t (c0 + c . sigma)) = exp(-i phase) (q0 - i q . sigma) of coefficients c (..., 4).

    r (...) holds |c|, as the block kernel gives it with c.  Returns the
    phase t c0 and the unit quaternion q = (cos(t r), t sinc(t r) c),
    shape (..., 4); t broadcasts against r.
    """
    x = t * r
    q = np.empty_like(c)
    q[..., 0] = np.cos(x)
    q[..., 1:] = (t * _sinc(x))[..., None] * c[..., 1:]
    return t * c[..., 0], q


#: a block map exp(-i phase) (q0 - i q . sigma) in Pauli coordinates is exp(-i phase) q times these
_PAULI_SIGNS = _frozen(np.array((1.0, -1j, -1j, -1j)))


def _block_maps(t, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The block maps of _rotations in Pauli coordinates, exp(-i phase) q times _PAULI_SIGNS, shape (2, 4)."""
    phase, q = _rotations(t, c, r)
    return np.exp(-1j * phase)[:, None] * q * _PAULI_SIGNS


def bell_frame(h: int) -> BellFrame:
    """The frozen Bell frame of field axis h."""
    return _FRAMES[strict_int("field axis h", h, _FRAMES)]


def frame_permutation(frame: BellFrame) -> list[int]:
    """Canonical label index occupying each frame position."""
    return list(_FRAME_ORDER[frame.h])


def to_blocks(u: np.ndarray, frame: BellFrame) -> tuple[np.ndarray, np.ndarray, float]:
    """Transform u into the frame and split it: (block1, block2, offblock norm).

    The off-block norm is the Frobenius norm of everything outside the
    two 2x2 diagonal blocks; for a propagator evolved with the frame's
    own axis it is zero up to rounding, for a mismatched axis it is
    macroscopic.
    """
    m = frame.adjoint.dot(np.asarray(u, dtype=np.complex128)).dot(frame.change_of_basis)
    off = float(np.sqrt(np.linalg.norm(m[0:2, 2:4]) ** 2 + np.linalg.norm(m[2:4, 0:2]) ** 2))
    return m[0:2, 0:2].copy(), m[2:4, 2:4].copy(), off


def reduced_params(p: PhysicalParams, frame: BellFrame) -> tuple[ReducedBlockParams, ReducedBlockParams]:
    """Closed-form parameters of both blocks for the given physical parameters.

    The block restriction of H decomposes as c0*1 + c . sigma, read off
    the block kernel; then dplus = -c0*t (propagator sign convention),
    dminus = |c|*t >= 0, and the unit vector n = c/|c| is split into the
    longitudinal weight j (along sigma_z, sign beta) and the transversal
    weight b (along the frame's h-dependent transversal direction, sign
    q).  A degenerate |c| = 0 block reports b = 0, j = 1, dminus = 0.  A
    block whose eigenphase t (c0 +- |c|) overflows has no such parameters:
    NonUnitaryError(inf), as evolve raises for it.
    """
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    rp1, rp2 = _reduced(*_block_coefficients(np.array((*p.J, p.B1, p.B2)), frame.h), p.t, frame)
    return ReducedBlockParams(1, *rp1), ReducedBlockParams(2, *rp2)


def _reduced(
    coeffs: np.ndarray, norms: np.ndarray, t: float, frame: BellFrame
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """reduced_params at duration t of one coupling row's (c, |c|), shapes (2, 4) and (2,), from the block kernel.

    Each block comes as a plain (delta_plus, delta_minus, b, j) tuple of floats.
    A block whose eigenphase t (c0 +- |c|) overflows leaves no propagator, as
    in expm_hermitian: NonUnitaryError(inf), for the solver as for reduced_params.
    """
    tr, sign = _TRANSVERSAL[frame.h], _TRANSVERSAL_SIGN[frame.h]
    out = []
    for block, (c, r) in enumerate(zip(coeffs.tolist(), norms.tolist()), start=1):
        if not t * (abs(c[0]) + r) < math.inf:
            raise NonUnitaryError(math.inf)
        if r == 0.0:
            dminus, b, j = 0.0, 0.0, 1.0
        else:
            dminus = r * t
            nt, nz = c[tr] / r, c[3] / r
            if r < sys.float_info.min:
                # a subnormal |c| keeps too few digits to divide by; the axis has
                # no third component, so its two weights renormalize it
                s = math.hypot(nt, nz)
                nt, nz = nt / s, nz / s
            # + 0.0, here and on delta_plus, turns a vanishing term's -0.0 into +0.0
            j = frame.beta[block - 1] * nz + 0.0
            b = frame.q[block - 1] * sign * nt + 0.0
        out.append((-c[0] * t + 0.0, dminus, b, j))
    return out[0], out[1]


def block_axis(b: float, j: float, frame: BellFrame, block: int) -> tuple[float, float, float]:
    """Rotation axis n of a block from its weights: (q b sin(h pi/2), q b cos(h pi/2), beta j).

    The inverse of the (b, j) read-out in reduced_params; a unit vector
    whenever b^2 + j^2 = 1.
    """
    n = [0.0, 0.0, frame.beta[block - 1] * j]
    n[_TRANSVERSAL[frame.h] - 1] = frame.q[block - 1] * _TRANSVERSAL_SIGN[frame.h] * b
    return tuple(n)


def closed_form_block(rp: ReducedBlockParams, frame: BellFrame) -> np.ndarray:
    """Rebuild the 2x2 block propagator from its reduced parameters.

    Returns exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma) with
    n assembled from (b, j) and the frame's per-block signs.  The
    determinant is exp(2 i dplus).
    """
    norm2 = rp.b * rp.b + rp.j * rp.j
    if abs(norm2 - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"(b, j) must lie on the unit circle, got b^2 + j^2 = {norm2!r}")
    nx, ny, nz = block_axis(rp.b, rp.j, frame, rp.block)
    c, s = float(np.cos(rp.delta_minus)), float(np.sin(rp.delta_minus))
    # cos(dminus) 1 - i sin(dminus) (nx sigma_x + ny sigma_y + nz sigma_z), entry by entry
    u = np.array(
        [[complex(c, -s * nz), complex(-s * ny, -s * nx)],
         [complex(s * ny, -s * nx), complex(c, s * nz)]]
    )
    return np.exp(1j * rp.delta_plus) * u
