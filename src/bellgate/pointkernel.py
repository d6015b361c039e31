"""The Bell frames as literals, and the point kernel on Python floats; no numpy.

For every field axis h the frame is a literal: the canonical label at
each frame position (_FRAME_ORDER), the per-block signs alpha, beta and
q (_SIGNS), and the transversal direction of its rotation axes.  The
block restriction c0 + c . sigma of H is linear in the couplings (J1,
J2, J3, B1, B2): each of its eight coordinates, (c0, cx, cy, cz) of
block 1 and then of block 2, is a signed sum of at most two couplings,
as _POINT_TERMS lists them.  bellframe builds its BellFrame objects
from these literals and fidelity its stacked coefficient map, and the
tests hold each one to its numpy projection of the model's generators.

The point kernel reads one coupling row through those terms, and the
closed-form readers of one point build on it: _reduced gives the
reduced parameters, _block_maps the block maps, and _check_phases
refuses a point whose eigenphases overflow.  The solver reads nothing
else of the frames, so synthesis loads no numpy.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import NonUnitaryError

__all__ = ["LABELS"]

LABELS = ("b00", "b01", "b10", "b11")

#: canonical label index at each frame position; block 1 holds b00
_FRAME_ORDER = {1: (0, 1, 2, 3), 2: (0, 3, 1, 2), 3: (0, 2, 1, 3)}

#: the per-block signs (alpha, beta, q) of each axis, as BellFrame states them
_SIGNS = {
    1: ((-1, 1), (-1, 1), (-1, 1)),
    2: ((1, -1), (1, 1), (-1, -1)),
    3: ((-1, 1), (-1, 1), (-1, 1)),
}

# the transversal direction (sin(h pi/2), cos(h pi/2)) of each axis is (1, 0),
# (0, -1) or (-1, 0): the index of its coefficient in (c0, cx, cy, cz), and its sign
_TRANSVERSAL = {1: 1, 2: 2, 3: 1}
_TRANSVERSAL_SIGN = {1: 1.0, 2: -1.0, 3: -1.0}

#: each block coordinate, (c0, cx, cy, cz) of block 1 and then of block 2, as
#: (i, s, k, u): the coordinate is s x_i + u x_k of the couplings x = (J1, J2,
#: J3, B1, B2).  A missing term reads x_5, the zero the point kernel appends.
_POINT_TERMS = {
    1: (
        (0, 1.0, 5, 1.0), (3, -1.0, 4, -1.0), (5, 1.0, 5, 1.0), (1, -1.0, 2, 1.0),
        (0, -1.0, 5, 1.0), (3, 1.0, 4, -1.0), (5, 1.0, 5, 1.0), (1, 1.0, 2, 1.0),
    ),
    2: (
        (1, -1.0, 5, 1.0), (5, 1.0, 5, 1.0), (3, 1.0, 4, -1.0), (0, 1.0, 2, 1.0),
        (1, 1.0, 5, 1.0), (5, 1.0, 5, 1.0), (3, 1.0, 4, 1.0), (0, 1.0, 2, -1.0),
    ),
    3: (
        (2, 1.0, 5, 1.0), (3, -1.0, 4, -1.0), (5, 1.0, 5, 1.0), (0, 1.0, 1, -1.0),
        (2, -1.0, 5, 1.0), (3, -1.0, 4, 1.0), (5, 1.0, 5, 1.0), (0, 1.0, 1, 1.0),
    ),
}


def _norm(cx: float, cy: float, cz: float) -> float:
    """|c| as numpy's nested hypot(hypot(cx, cy), cz): complex abs calls the same C hypot.

    Where hypot overflows from finite input, complex abs raises
    OverflowError; |c| is then inf, as np.hypot gives it.
    """
    try:
        return abs(complex(abs(complex(cx, cy)), cz))
    except OverflowError:
        return math.inf


def _point_coefficients(x, h: int) -> tuple[list[list[float]], list[float]]:
    """(c0, cx, cy, cz) of both blocks and their |c| at one coupling row x = (J1, J2, J3, B1, B2).

    Returns ([c of block 1, c of block 2], |c|) as lists of Python floats,
    with the bits of the stacked kernel fidelity._block_coefficients.  A
    coordinate is a signed sum of at most two couplings, exact up to one
    rounding in any order; + 0.0 turns a -0.0 into the +0.0 that the
    matrix product's zero start leaves.  |c| is the nested hypot of
    _norm; an overflowing |c| comes out inf, without a warning or an
    OverflowError.
    """
    x = (*x, 0.0)
    c = [s * x[i] + u * x[k] + 0.0 for i, s, k, u in _POINT_TERMS[h]]
    return [c[:4], c[4:]], [_norm(c[1], c[2], c[3]), _norm(c[5], c[6], c[7])]


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


def _reduced(
    coeffs, norms, t: float, h: int
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """The reduced parameters at duration t of one coupling row's (c, |c|) on axis h, as the point kernel gives them.

    Each block comes as a plain (delta_plus, delta_minus, b, j) tuple of
    floats: delta_plus = -c0 t, delta_minus = |c| t, and the unit axis
    c / |c| split into the longitudinal weight j (along sigma_z, sign
    beta) and the transversal weight b (sign q).  A degenerate |c| = 0
    block has b = 0, j = 1, delta_minus = 0.  A block whose eigenphase
    t (c0 +- |c|) overflows leaves no propagator: _check_phases raises
    NonUnitaryError(inf), for the solver as for reduced_params.
    """
    _check_phases(coeffs, norms, t)
    _, beta, q = _SIGNS[h]
    tr, sign = _TRANSVERSAL[h], _TRANSVERSAL_SIGN[h]
    out = []
    for c, r, beta_k, q_k in zip(coeffs, norms, beta, q):
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
            j = beta_k * nz + 0.0
            b = q_k * sign * nt + 0.0
        out.append((-c[0] * t + 0.0, dminus, b, j))
    return out[0], out[1]


def _axis(b: float, j: float, h: int, block: int) -> tuple[float, float, float]:
    """Rotation axis n of a block of axis h from its weights: (q b sin(h pi/2), q b cos(h pi/2), beta j).

    The inverse of the (b, j) read-out of _reduced; a unit vector
    whenever b^2 + j^2 = 1.
    """
    _, beta, q = _SIGNS[h]
    n = [0.0, 0.0, beta[block - 1] * j]
    n[_TRANSVERSAL[h] - 1] = q[block - 1] * _TRANSVERSAL_SIGN[h] * b
    return tuple(n)


def _block_maps(t: float, c, r) -> list[list[complex]]:
    """The block maps exp(-i t (c0 + c . sigma)) of one point in Pauli coordinates, both blocks.

    c holds both blocks' (c0, cx, cy, cz) and r their |c|, as the point
    kernel gives them.  Block k's map is exp(-i phase) q (1, -i, -i, -i)
    with phase t c0 and the unit quaternion q = (cos(t r), t sinc(t r) c),
    returned as a list of its four complex coordinates.  The bits are
    those of exp(-1j * phase)[:, None] * q * (1.0, -1j, -1j, -1j) over
    the arrays of fidelity._rotations: each q component is made complex
    and both products are full complex products, in that order.  The
    eigenphases must be finite (math.cos raises on an infinite t |c|, and
    an infinite t c0 leaves NaN); every caller refuses such a point
    first, through _check_phases.
    """
    out = []
    for (c0, cx, cy, cz), rb in zip(c, r):
        x = t * rb
        tsinc = t * (math.sin(x) / x if x != 0.0 else 1.0)
        e = cmath.exp(-1j * (t * c0))
        # -1j is complex(-0.0, -1.0), as numpy stores the same literal
        out.append([e * complex(math.cos(x)) * (1.0 + 0j), e * complex(tsinc * cx) * -1j,
                    e * complex(tsinc * cy) * -1j, e * complex(tsinc * cz) * -1j])
    return out
