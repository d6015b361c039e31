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
the model's generator table; every entry is 0 or +-1.  One table has
two evaluators, selected by input shape: the block kernel
_block_coefficients applies it to a stack of coupling rows (the
fidelity sweep and its generators), and the point kernel
_point_coefficients to one row on Python floats (reduced_params and
the solver's evaluation of a candidate), as signed sums read off the
same table.  Both return |c| too, with the same bits, which a bit
oracle in the tests holds; a block is degenerate exactly where |c| = 0.
Each block propagator has the closed form

    s = exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma)

with a unit vector n = (q b sin(h pi/2), q b cos(h pi/2), beta j).
reduced_params extracts (dplus, dminus, b, j) from the coefficients;
closed_form_block rebuilds the block from them.  The signs alpha, beta,
q are fixed per block from the frame's row positions.
"""

from __future__ import annotations

import cmath
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


# column 2i + j is |b_ij> = (|0,j> + (-1)^i |1, 1 xor j>) / sqrt(2); read-only
_BELL_BASIS = _frozen(
    np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=np.complex128) / np.sqrt(2.0)
)


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
    )


#: (1, sigma_x, sigma_y, sigma_z); a block is its (c0, cx, cy, cz) contracted with these
BLOCK_BASIS = _frozen(np.stack([np.eye(2), pauli(1), pauli(2), pauli(3)]))


def _block_coordinates(m: np.ndarray) -> np.ndarray:
    """Pauli coordinates (w0, wx, wy, wz) = tr(s_a m_k) / 2 of the diagonal blocks m_k of frame-order 4x4 m, shape (2, 4, ...)."""
    # reshaped, m[..., k, :, k, :] is block k; C order keeps BLOCK_COEFFS contiguous, so _COEFF_MAP is a view
    return np.einsum("aij,...kjki->ka...", BLOCK_BASIS, m.reshape(*m.shape[:-2], 2, 2, 2, 2), order="C") / 2.0


def _projected_coefficients(frame: BellFrame) -> np.ndarray:
    # the block coordinates of every generator in frame coordinates, as
    # (block, coordinate, coupling); rint removes the 1/sqrt(2) rounding
    # noise and + 0.0 turns its -0.0 into +0.0
    c = frame.change_of_basis
    w = c.conj().T @ GENERATORS[frame.h] @ c
    return _frozen(np.rint(_block_coordinates(w).real) + 0.0)


_FRAMES = {h: _make_frame(h) for h in _FRAME_ORDER}

# (c0, cx, cy, cz) of each block as a linear map of (J1, J2, J3, B1, B2)
BLOCK_COEFFS = {h: _projected_coefficients(fr) for h, fr in _FRAMES.items()}

# BLOCK_COEFFS[h] as one (5, 8) map from (J1, J2, J3, B1, B2) to (c0, cx, cy, cz) of both blocks
_COEFF_MAP = {h: c.reshape(8, 5).T for h, c in BLOCK_COEFFS.items()}


def _block_coefficients(x: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """(c0, cx, cy, cz) of both blocks, shape (..., 2, 4), and |c|, shape (..., 2), of a stack of coupling rows x (..., 5).

    The map is linear, so a displacement row gives the coefficients of
    its displacement.  |c| is a nested hypot, finite wherever |c| is.  An
    overflowing row comes out non-finite without a warning; the callers
    report it as the error of its point.  One row goes to the point
    kernel _point_coefficients instead, which gives the same bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = (x @ _COEFF_MAP[h]).reshape(x.shape[:-1] + (2, 4))
        return c, np.hypot(np.hypot(c[..., 1], c[..., 2]), c[..., 3])


def _point_terms(coeff_map: np.ndarray) -> tuple[tuple[int, float, int, float], ...]:
    """Each of the 8 coordinates of a (5, 8) coupling map as (i, s, k, u), the coordinate being s x_i + u x_k.

    Every entry of the map is 0 or +-1, at most two of them nonzero per
    coordinate (unpacking refuses a third); a missing term reads the
    zero that the point kernel appends to the couplings as x_5.
    """
    terms = []
    for column in coeff_map.T.tolist():
        nonzero = [(i, s) for i, s in enumerate(column) if s != 0.0]
        (i, s), (k, u) = nonzero + [(5, 1.0)] * (2 - len(nonzero))
        terms.append((i, s, k, u))
    return tuple(terms)


#: _COEFF_MAP[h] as the signed terms of each block coordinate, for the point kernel
_POINT_TERMS = {h: _point_terms(m) for h, m in _COEFF_MAP.items()}


def _point_coefficients(x, h: int) -> tuple[list[list[float]], list[float]]:
    """_block_coefficients of one coupling row x = (J1, J2, J3, B1, B2), on Python floats.

    Returns ([c of block 1, c of block 2], |c|) as lists, each c as
    (c0, cx, cy, cz), with the bits of the stacked kernel's row.  A
    coordinate is a signed sum of at most two couplings, exact up to one
    rounding in any order; + 0.0 turns a -0.0 into the +0.0 that the
    matrix product's zero start leaves.  |c| is numpy's nested hypot
    (math.hypot rounds differently), over both blocks at once; an
    overflowing |c| comes out inf without a warning.
    """
    x = (*x, 0.0)
    c = [s * x[i] + u * x[k] + 0.0 for i, s, k, u in _POINT_TERMS[h]]
    with np.errstate(over="ignore"):
        r = np.hypot(np.hypot(c[1::4], c[2::4]), c[3::4]).tolist()
    return [c[:4], c[4:]], r


def _check_phases(coeffs, norms, t: float) -> None:
    """NonUnitaryError(inf) unless both blocks' eigenphases t (c0 +- |c|) are finite.

    coeffs and norms are one point's (c, |c|), as the point kernel's
    lists.  An overflowing eigenphase leaves no propagator, as in
    expm_hermitian; the one overflow rule of every closed-form reader of
    a point: _reduced, and through it reduced_params and the solver, and
    directional_derivatives.
    """
    for c, r in zip(coeffs, norms):
        if not t * (abs(c[0]) + r) < math.inf:
            raise NonUnitaryError(math.inf)


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, and 1 at x = 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def _rotations(t, c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block maps exp(-i t (c0 + c . sigma)) = exp(-i phase) (q0 - i q . sigma) of a stack of coefficients c (..., 4).

    r (...) holds |c|, as the block kernel gives it with c.  Returns the
    phase t c0 and the unit quaternion q = (cos(t r), t sinc(t r) c),
    shape (..., 4); t broadcasts against r.
    """
    x = t * r
    q = np.empty_like(c)
    q[..., 0] = np.cos(x)
    q[..., 1:] = (t * _sinc(x))[..., None] * c[..., 1:]
    return t * c[..., 0], q


def _block_maps(t: float, c, r) -> np.ndarray:
    """The block maps of _rotations at one point in Pauli coordinates, exp(-i phase) q (1, -i, -i, -i), shape (2, 4).

    c holds both blocks' (c0, cx, cy, cz) and r their |c|, as Python
    floats (the point kernel's lists).  Computed on floats, with the
    bits of exp(-1j * phase)[:, None] * q * (1.0, -1j, -1j, -1j) over
    the arrays of _rotations: each q component is made complex and both
    products are full complex products, in that order.  The eigenphases
    must be finite (math.cos raises on an infinite t |c|, and an
    infinite t c0 leaves NaN); both callers refuse such a point first,
    through _check_phases.
    """
    out = []
    for (c0, cx, cy, cz), rb in zip(c, r):
        x = t * rb
        tsinc = t * (math.sin(x) / x if x != 0.0 else 1.0)
        e = cmath.exp(-1j * (t * c0))
        # -1j is complex(-0.0, -1.0), as numpy stores the same literal
        out += (e * complex(math.cos(x)) * (1.0 + 0j), e * complex(tsinc * cx) * -1j,
                e * complex(tsinc * cy) * -1j, e * complex(tsinc * cz) * -1j)
    return np.array(out).reshape(2, 4)


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
    rp1, rp2 = _reduced(*_point_coefficients((*p.J, p.B1, p.B2), frame.h), p.t, frame)
    return ReducedBlockParams(1, *rp1), ReducedBlockParams(2, *rp2)


def _reduced(
    coeffs, norms, t: float, frame: BellFrame
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """reduced_params at duration t of one coupling row's (c, |c|), as the point kernel's lists of floats.

    Each block comes as a plain (delta_plus, delta_minus, b, j) tuple of floats.
    A block whose eigenphase t (c0 +- |c|) overflows leaves no propagator:
    _check_phases raises NonUnitaryError(inf), for the solver as for reduced_params.
    """
    _check_phases(coeffs, norms, t)
    tr, sign = _TRANSVERSAL[frame.h], _TRANSVERSAL_SIGN[frame.h]
    out = []
    for block, (c, r) in enumerate(zip(coeffs, norms), start=1):
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
    _check_frame(frame)
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
