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
the model's generator table; every entry is 0 or +-1.  Each block
propagator has the closed form

    s = exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma)

with a unit vector n = (q b sin(h pi/2), q b cos(h pi/2), beta j).
reduced_params extracts (dplus, dminus, b, j) from the coefficients;
closed_form_block rebuilds the block from them.  The signs alpha, beta,
q are fixed per block from the frame's row labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import GENERATORS, PhysicalParams
from .spinlin import pauli

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
    "closed_form_block",
]

LABELS = ("b00", "b01", "b10", "b11")

# exact sin(h pi/2), cos(h pi/2) for integer h; avoids sin(pi) != 0 noise
_SIN_H = {1: 1.0, 2: 0.0, 3: -1.0}
_COS_H = {1: 0.0, 2: -1.0, 3: 0.0}

# canonical label index at each frame position; block 1 holds b00
_FRAME_ORDER = {1: (0, 1, 2, 3), 2: (0, 3, 1, 2), 3: (0, 2, 1, 3)}


def bell_state(i: int, j: int) -> np.ndarray:
    """Bell state |b_ij> as a computational-basis column vector."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("bell labels must be binary")
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
    1-based row positions of the block.
    """

    h: int
    pairing: tuple[tuple[str, str], tuple[str, str]]
    change_of_basis: np.ndarray
    alpha: tuple[int, int]
    beta: tuple[int, int]
    q: tuple[int, int]
    row_labels: tuple[tuple[int, int], tuple[int, int]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "h": self.h,
                "pairing": [list(p) for p in self.pairing],
                "signs": {
                    "alpha": list(self.alpha),
                    "beta": list(self.beta),
                    "q": list(self.q),
                },
            }
        )


@dataclass(frozen=True)
class ReducedBlockParams:
    """Closed-form parameters (dplus, dminus, b, j) of one block, b^2 + j^2 = 1."""

    block: int
    delta_plus: float
    delta_minus: float
    b: float
    j: float


def _make_frame(h: int) -> BellFrame:
    order = _FRAME_ORDER[h]
    cob = bell_change_of_basis()[:, order]
    cob.flags.writeable = False
    pairing = (
        (LABELS[order[0]], LABELS[order[1]]),
        (LABELS[order[2]], LABELS[order[3]]),
    )
    row_labels = ((1, 2), (3, 4))
    alpha = tuple((-1) ** (h + j + 1) for j in (1, 2))
    beta = tuple((-1) ** (j * (h + row_labels[j - 1][1] - row_labels[j - 1][0] + 1)) for j in (1, 2))
    q = tuple(beta[j - 1] * (-1) ** (h + 1) for j in (1, 2))
    return BellFrame(
        h=h,
        pairing=pairing,
        change_of_basis=cob,
        alpha=alpha,
        beta=beta,
        q=q,
        row_labels=row_labels,
    )


def _block_coefficients(frame: BellFrame) -> np.ndarray:
    # tr(s_a g) / 2 over s_a = (1, sigma_x, sigma_y, sigma_z) for each 2x2
    # diagonal block g of every generator in frame coordinates; rint removes
    # the 1/sqrt(2) rounding noise and + 0.0 turns its -0.0 into +0.0
    basis = np.stack([np.eye(2), pauli(1), pauli(2), pauli(3)])
    c = frame.change_of_basis
    w = c.conj().T @ np.stack(GENERATORS[frame.h]) @ c
    out = np.stack([np.einsum("aij,nji->an", basis, w[:, k : k + 2, k : k + 2]) for k in (0, 2)])
    out = np.rint(out.real / 2.0) + 0.0
    out.flags.writeable = False
    return out


_FRAMES = {h: _make_frame(h) for h in _FRAME_ORDER}

# (c0, cx, cy, cz) of each block as a linear map of (J1, J2, J3, B1, B2)
BLOCK_COEFFS = {h: _block_coefficients(fr) for h, fr in _FRAMES.items()}


def bell_frame(h: int) -> BellFrame:
    """The frozen Bell frame of field axis h."""
    if h not in _FRAMES:
        raise ValueError(f"field axis h must be 1, 2 or 3, got {h!r}")
    return _FRAMES[h]


def frame_permutation(frame: BellFrame) -> list[int]:
    """Canonical label index occupying each frame position."""
    return [LABELS.index(lbl) for pair in frame.pairing for lbl in pair]


def to_blocks(u: np.ndarray, frame: BellFrame) -> tuple[np.ndarray, np.ndarray, float]:
    """Transform u into the frame and split it: (block1, block2, offblock norm).

    The off-block norm is the Frobenius norm of everything outside the
    two 2x2 diagonal blocks; for a propagator evolved with the frame's
    own axis it is zero up to rounding, for a mismatched axis it is
    macroscopic.
    """
    c = frame.change_of_basis
    m = c.conj().T @ np.asarray(u, dtype=np.complex128) @ c
    off = float(np.sqrt(np.linalg.norm(m[0:2, 2:4]) ** 2 + np.linalg.norm(m[2:4, 0:2]) ** 2))
    return m[0:2, 0:2].copy(), m[2:4, 2:4].copy(), off


def reduced_params(p: PhysicalParams, frame: BellFrame) -> tuple[ReducedBlockParams, ReducedBlockParams]:
    """Closed-form parameters of both blocks for the given physical parameters.

    The block restriction of H decomposes as c0*1 + c . sigma with real
    coefficients read off BLOCK_COEFFS; then dplus = -c0*t (propagator sign convention),
    dminus = |c|*t >= 0, and the unit vector n = c/|c| is split into the
    longitudinal weight j (along sigma_z, sign beta) and the transversal
    weight b (along the frame's h-dependent transversal direction, sign
    q).  A degenerate |c| = 0 block reports b = 0, j = 1, dminus = 0.
    """
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    sh, ch = _SIN_H[frame.h], _COS_H[frame.h]
    coeffs = BLOCK_COEFFS[frame.h] @ np.array((*p.J, p.B1, p.B2))
    out = []
    for block, (c0, cx, cy, cz) in enumerate(coeffs.tolist(), start=1):
        r = math.sqrt(cx * cx + cy * cy + cz * cz)
        # largest entry of the block restriction, c0 + cz sigma_z + cx sigma_x + cy sigma_y
        scale = max(1.0, abs(c0) + abs(cz), math.hypot(cx, cy))
        beta = frame.beta[block - 1]
        q = frame.q[block - 1]
        if r < 1e-13 * scale:
            dminus, b, j = 0.0, 0.0, 1.0
        else:
            n = (cx / r, cy / r, cz / r)
            dminus = r * p.t
            # + 0.0, here and on delta_plus, turns a vanishing term's -0.0 into +0.0
            j = beta * n[2] + 0.0
            b = q * (n[0] * sh + n[1] * ch) + 0.0
        out.append(
            ReducedBlockParams(
                block=block,
                delta_plus=-c0 * p.t + 0.0,
                delta_minus=dminus,
                b=float(b),
                j=float(j),
            )
        )
    return out[0], out[1]


def closed_form_block(rp: ReducedBlockParams, frame: BellFrame) -> np.ndarray:
    """Rebuild the 2x2 block propagator from its reduced parameters.

    Returns exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma) with
    n assembled from (b, j) and the frame's per-block signs.  The
    determinant is exp(2 i dplus).
    """
    norm2 = rp.b * rp.b + rp.j * rp.j
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"(b, j) must lie on the unit circle, got b^2 + j^2 = {norm2!r}")
    beta = frame.beta[rp.block - 1]
    q = frame.q[rp.block - 1]
    sh, ch = _SIN_H[frame.h], _COS_H[frame.h]
    n = (q * rp.b * sh, q * rp.b * ch, beta * rp.j)
    ns = n[0] * pauli(1) + n[1] * pauli(2) + n[2] * pauli(3)
    u = np.cos(rp.delta_minus) * np.eye(2) - 1j * np.sin(rp.delta_minus) * ns
    return np.exp(1j * rp.delta_plus) * u
