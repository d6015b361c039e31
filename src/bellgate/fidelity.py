"""Fidelity of perturbed gate pulses.

A state living in the frame arrangement evolves under the solved pulse
and under a parameter-perturbed copy of it.  The blocks stay unitary
along any displacement, so the squared overlap of the two outcomes has
no linear term and its quadratic term needs first derivatives only:
along a unit direction, F^2 = 1 - l^2 Var(G) + O(l^3) with the Hermitian
generator G = i s^dag Ds of the block maps s and their derivative Ds
(the Fubini-Study metric; Braunstein & Caves, PRL 72 (1994) 3439).  This
module computes that expansion, the exact overlap, and per-parameter
sensitivity sweeps built on both.

Everything is computed in Pauli coordinates of the two 2x2 blocks.  A
block W = c0 + c . sigma has coefficients linear in the couplings, read
with |c| off bellframe's block kernel, and its block map is a phase
times an SU(2) rotation:

    s = exp(-i t W) = exp(-i t c0) (cos(t r) - i t sinc(t r) c . sigma),  r = |c|.

Along a displacement (dt, dJ1, ..., dB2), with block coefficients
(dc0, dc), the generator G = g0 + g . sigma is the average of
dt W + t dW over the rotation exp(i tau t W) . exp(-i tau t W),
tau in [0, 1] (Wilcox, J. Math. Phys. 8 (1967) 962):

    g0 = dt c0 + t dc0,
    g  = dt c + t [(n . dc) n + sinc(2tr) dc_perp - ((1 - cos 2tr) / (2tr)) n x dc_perp],

with n = c / r and dc_perp = dc - (n . dc) n.  Both stay smooth for
degenerate blocks (r = 0, where g = dt c + t dc) and at t = 0, and
Ds = -i s G.  A state enters through its block Bloch 4-vectors
E_b = (|a_b|^2, <sigma_x>, <sigma_y>, <sigma_z>): <G> = E . (g0, g) and
<G^2> = E . (g0^2 + |g|^2, 2 g0 g), and the overlap <s0 a | s a> is E
dotted with the Pauli coefficients of s0^dag s, a quaternion product.

A sweep is therefore a few small products per card and no
eigendecomposition: one pass of the block kernel gives the block
coefficients of the six unit axes, the solved point and every displaced
point, and the variance and the exact overlaps of all states follow as
(states, 8) x (8, k) products.  The generator map of a point, the two
3x3 closed forms above, is a few dozen numbers and is computed on
Python floats, in the order of the matching numpy expression and with
the same bits.  The numbers stay in arrays: a
SweepResult holds them as columns and walks them as rows only when they
are read.  The variance is itself the per-parameter sensitivity, and
rank_parameters averages it over all states in closed form, from the
traces of the six unit-axis generators.
fidelity_exact keeps the 4x4 propagators as the independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bellframe import BLOCK_BASIS, BellFrame, _block_coefficients, _block_maps, _check_frame, _rotations
from .calib import PrescriptionCard
from .checks import RANK_TIE_TOL, STATE_NORM_TOL, ZERO_NORM_TOL, strict_float, strict_int
from .errors import NonFiniteDerivative
from .model import PhysicalParams, admissible, evolve
from .spinlin import _frozen

__all__ = [
    "PARAM_NAMES",
    "BlockState",
    "Perturbation",
    "FidelityReport",
    "SweepResult",
    "directional_derivatives",
    "fidelity_exact",
    "fidelity_second_order",
    "sensitivity_sweep",
    "rank_parameters",
    "sample_states",
]

PARAM_NAMES = ("t", "J1", "J2", "J3", "B1", "B2")

@dataclass(frozen=True, eq=False)
class BlockState:
    """Four complex amplitudes in the frame arrangement, unit norm.

    The first two entries ride block 1, the last two block 2.  The
    norm must already be 1 to within STATE_NORM_TOL; use normalized()
    to build a state from an arbitrary vector.
    """

    amplitudes: np.ndarray
    frame: BellFrame

    def __post_init__(self):
        _check_frame(self.frame)
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"state needs 4 amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("state amplitudes must be finite")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm is {nrm}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, vec, frame: BellFrame) -> "BlockState":
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if nrm < ZERO_NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero state vector")
        return cls(amplitudes=v / nrm, frame=frame)


@dataclass(frozen=True)
class Perturbation:
    """Parameter displacement (dt, dJ1, dJ2, dJ3, dB1, dB2)."""

    dp: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        vals = tuple(strict_float("perturbation component", v) for v in self.dp)
        if len(vals) != 6:
            raise ValueError(f"perturbation needs 6 components, got {len(vals)}")
        object.__setattr__(self, "dp", vals)

    @classmethod
    def axis(cls, index, step: float) -> "Perturbation":
        """Single-coordinate displacement; index is an int 0..5 or a PARAM_NAMES entry."""
        if isinstance(index, str) and index in PARAM_NAMES:
            index = PARAM_NAMES.index(index)
        vals = [0.0] * 6
        vals[strict_int("axis", index, range(6))] = step
        return cls(dp=tuple(vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.dp, dtype=float)

    @property
    def norm(self) -> float:
        return math.hypot(*self.dp)


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """One (state, displacement) probe of a solved card, as iterating a SweepResult gives it."""

    state_id: int
    param: str
    dp: Perturbation
    f2_exact: float
    f2_second_order: float
    per_parameter_gradient: tuple[float, ...]
    cubic_residual: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The numbers of a sensitivity sweep, one read-only array per field.

    f2_exact, f2_second_order and cubic_residual have shape
    (states, 6, len(grid)): state, PARAM_NAMES axis, grid step.
    gradient, shape (states, 6), is each state's Var(G) per axis.  grid
    is the step grid as given, repeats included.

    rows() walks the numbers in state, axis, step order; iterating the
    result gives the same rows as FidelityReport views.
    """

    card: PrescriptionCard
    grid: tuple[float, ...]
    f2_exact: np.ndarray
    f2_second_order: np.ndarray
    cubic_residual: np.ndarray
    gradient: np.ndarray

    def __len__(self) -> int:
        return self.f2_exact.size

    def __iter__(self):
        return (FidelityReport(*row) for row in self.rows())

    def rows(self):
        """One tuple per (state, axis, step), in FidelityReport's field order.

        The rows of one walk share one Perturbation per (axis, step) and
        one gradient tuple per state.
        """
        perts = [[Perturbation.axis(i, step) for step in self.grid] for i in range(6)]
        f2e, f2s, cubic = (
            a.tolist() for a in (self.f2_exact, self.f2_second_order, self.cubic_residual)
        )
        for sid, grad in enumerate(self.gradient.tolist()):
            grad = tuple(grad)
            for i, name in enumerate(PARAM_NAMES):
                for dp, e, s, c in zip(perts[i], f2e[sid][i], f2s[sid][i], cubic[sid][i]):
                    yield sid, name, dp, e, s, grad, c


def _param_vector(p: PhysicalParams) -> np.ndarray:
    return np.array([p.t, *p.J, p.B1, p.B2], dtype=float)


def _displaced(p: PhysicalParams, dp: Perturbation) -> PhysicalParams:
    x = _param_vector(p) + dp.as_array()
    return PhysicalParams(t=x[0], J=(x[1], x[2], x[3]), B1=x[4], B2=x[5], h=p.h)


_UNIT_AXES = np.eye(6)
# shift[_AXIS, :, _AXIS] is the diagonal of a (6, steps, 6) array of axis displacements
_AXIS = np.arange(6)

# row j is the matrix of e_j x . as 9 entries
_CROSS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)

# for quaternions q = (a, b) of block maps a - i b . sigma, (q0 @ _LEFT_CONJ).reshape(..., 4, 4) @ qk
# is (m0, m) with (a0 + i b0 . sigma)(ak - i bk . sigma) = m0 + i m . sigma:
# m0 = a0 ak + b0 . bk and m = ak b0 - a0 bk + b0 x bk
_LEFT_CONJ = np.zeros((4, 4, 4))
_LEFT_CONJ[0] = np.diag([1.0, -1.0, -1.0, -1.0])
for _j in range(3):
    _LEFT_CONJ[1 + _j, 0, 1 + _j] = _LEFT_CONJ[1 + _j, 1 + _j, 0] = 1.0
    _LEFT_CONJ[1 + _j, 1:, 1:] = _CROSS[_j].reshape(3, 3)
_LEFT_CONJ = _LEFT_CONJ.reshape(4, 16)
# the Pauli coordinates (m0, m) of m0 + i m . sigma
_I_PARTS = np.array((1.0, 1j, 1j, 1j))
for _table in (_UNIT_AXES, _AXIS, _CROSS, _LEFT_CONJ, _I_PARTS):
    _frozen(_table)


def _generator_map(t: float, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The matrix M of each block, shape (2, 4, 4), with G = dt (c0, c) + M (dc0, dc).

    t, c (2, 4) and r (2,) are the time, block coefficients and |c| of the point.
    M is the closed form of the module docstring: t for dc0, and for dc
    t times (n . dc) n + sinc(2y) dc_perp - ((1 - cos 2y) / (2y)) n x dc_perp,
    y = t r, written as one 3x3 matrix.  The two blocks are a few dozen
    Python floats, so the map is computed on floats, entry by entry as
    t (n n^T + turn (1 - n n^T) - y sinc^2 (n x .)); a non-finite y
    leaves the 3x3 part NaN.
    """
    out = []
    for (_, cx, cy, cz), rb in zip(c.tolist(), r.tolist()):
        # a degenerate block has no axis; n = 0 leaves the map t * 1, the r -> 0 limit
        nx, ny, nz = (cx / rb, cy / rb, cz / rb) if rb > 0.0 else (0.0, 0.0, 0.0)
        y = t * rb
        if math.isinf(y):
            # math.sin and math.cos raise on inf where numpy's give NaN
            sinc = cos = math.nan
        else:
            sinc = math.sin(y) / y if y != 0.0 else 1.0
            cos = math.cos(y)
        # sinc(2y) = sinc(y) cos(y) and (1 - cos 2y) / (2y) = y sinc(y)^2
        turn = sinc * cos
        wind = y * sinc * sinc
        xx, yy, zz, xy, xz, yz = nx * nx, ny * ny, nz * nz, nx * ny, nx * nz, ny * nz
        # n n^T + turn (1 - n n^T), a symmetric matrix
        dx, dy, dz = xx + turn * (1.0 - xx), yy + turn * (1.0 - yy), zz + turn * (1.0 - zz)
        sxy, sxz, syz = xy + turn * (0.0 - xy), xz + turn * (0.0 - xz), yz + turn * (0.0 - yz)
        # then wind times n x . off it; 0.0 + and 0.0 - keep a zero entry of
        # n x . at +0.0, as the matrix product of the same rows makes it
        out += (
            t, 0.0, 0.0, 0.0,
            0.0, t * (dx - wind * 0.0), t * (sxy - wind * (0.0 - nz)), t * (sxz - wind * (0.0 + ny)),
            0.0, t * (sxy - wind * (0.0 + nz)), t * (dy - wind * 0.0), t * (syz - wind * (0.0 - nx)),
            0.0, t * (sxz - wind * (0.0 - ny)), t * (syz - wind * (0.0 + nx)), t * (dz - wind * 0.0),
        )
    return np.array(out).reshape(2, 4, 4)


def _generator_step(t: float, d: np.ndarray, c: np.ndarray, r: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """G = i s^dag Ds of both blocks of a point along each row of d, shape (k, 2, 4), from block coefficients.

    t, c (2, 4) and r (2,) are the point's time, block coefficients and
    |c|; dc (k, 2, 4) holds the block coefficients of the displacements
    d (k, 6).  The first row whose generator overflows raises
    NonFiniteDerivative with the index of that row's largest component.
    """
    # an overflowing displacement surfaces as NonFiniteDerivative below
    with np.errstate(over="ignore", invalid="ignore"):
        g = (_generator_map(t, c, r) @ dc[..., None])[..., 0] + d[:, 0, None, None] * c
    bad = ~np.isfinite(g).all(axis=(1, 2))
    if bad.any():
        raise NonFiniteDerivative(int(np.argmax(np.abs(d[np.argmax(bad)]))))
    return g


def _generators(p: PhysicalParams, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G = i s^dag Ds of both blocks of p along each row of d, and the block coefficients of p and their |c|.

    d (k, 6) holds the displacements.  The generators come as Pauli
    coordinates (g0, gx, gy, gz), shape (k, 2, 4), p's (c0, cx, cy, cz)
    with shape (2, 4) and |c| with shape (2,).  G is linear in d; a zero
    row gives zeros.  The first row whose generator overflows raises
    NonFiniteDerivative with the index of that row's largest component.
    """
    c, r = _block_coefficients(np.concatenate([_param_vector(p)[None], d])[:, 1:], p.h)
    return _generator_step(p.t, d, c[0], r[0], c[1:]), c[0], r[0]


def directional_derivatives(
    p: PhysicalParams, dp: Perturbation, frame: BellFrame
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """First directional derivatives of both block maps, and the block maps.

    Returns ((Ds_1, Ds_2), (s_1, s_2)) as 2x2 matrices, with
    Ds = -i s (g0 + g . sigma) from the closed-form generator along dp.
    Ds is linear in dp; dp = 0 returns zero matrices.
    """
    _check_frame(frame)
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    g, c, r = _generators(p, dp.as_array()[None])
    s = np.einsum("ba,aij->bij", _block_maps(p.t, c.tolist(), r.tolist()), BLOCK_BASIS)
    ds = -1j * s @ np.einsum("ba,aij->bij", g[0], BLOCK_BASIS)
    return (ds[0], ds[1]), (s[0], s[1])


def _check_state(state: BlockState, p: PhysicalParams) -> None:
    if state.frame.h != p.h:
        raise ValueError(
            f"state frame h={state.frame.h} does not match parameter h={p.h}"
        )


def _bloch(amps: np.ndarray) -> np.ndarray:
    """Block Bloch 4-vectors (|a_b|^2, <sigma_x>, <sigma_y>, <sigma_z>) of both blocks, shape (n, 8).

    amps holds (n, 4) frame amplitudes, one state per row.
    """
    a = amps.reshape(-1, 2)
    a0, a1 = a[:, 0], a[:, 1]
    p0 = a0.real * a0.real + a0.imag * a0.imag
    p1 = a1.real * a1.real + a1.imag * a1.imag
    z = 2.0 * a0.conj() * a1
    e = np.empty((len(a), 4))
    e[:, 0], e[:, 1], e[:, 2], e[:, 3] = p0 + p1, z.real, z.imag, p0 - p1
    return e.reshape(-1, 8)


def _variance(e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Var(G) = <G^2> - <G>^2 for each row of e (n, 8) and generator of g (k, 2, 4), shape (n, k)."""
    g0, gv = g[..., :1], g[..., 1:]
    sq = np.concatenate([g0 * g0 + np.sum(gv * gv, axis=-1, keepdims=True), 2.0 * g0 * gv], axis=-1)
    mean = e @ g.reshape(-1, 8).T
    return e @ sq.reshape(-1, 8).T - mean * mean


def _overlaps(e: np.ndarray, phase: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|<s_0 a | s_k a>|^2 for each row a of e (n, 8) and each block map s_k, k >= 1, of (phase, q), shape (n, k).

    phase (k + 1, 2) and q (k + 1, 2, 4) are what _rotations returns;
    row 0 is s_0.  s_0^dag s_k = exp(i (phase_0 - phase_k)) (m0 + i m . sigma),
    with (m0, m) the quaternion product conj(q_0) q_k.
    """
    m = ((q[0] @ _LEFT_CONJ).reshape(2, 4, 4) @ q[1:, :, :, None])[..., 0]
    m = np.exp(1j * (phase[0] - phase[1:]))[..., None] * m * _I_PARTS
    ov = e @ m.reshape(-1, 8).T
    return ov.real * ov.real + ov.imag * ov.imag


def _second_order(var: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """F^2 = 1 - step^2 var for each entry of var (n, k) and each step, shape (n, k, steps).

    An overflow comes out non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # an outer product with one factor per entry, as a matmul: numpy's
        # broadcast loop over a short last axis costs more than the product
        return 1.0 - (var.reshape(-1, 1) @ (steps * steps)[None]).reshape(var.shape + steps.shape)


def fidelity_exact(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Squared overlap of the exact and the perturbed final states.

    Both evolutions run as full 4x4 propagators, independent of the
    block closed forms; this is the oracle the second-order expansion
    and the sweep are judged against.  The displaced parameters must
    themselves be valid (in particular t + dt >= 0).
    """
    _check_state(state, p)
    psi = state.frame.change_of_basis @ state.amplitudes
    return float(abs(np.vdot(evolve(p) @ psi, evolve(_displaced(p, dp)) @ psi)) ** 2)


def fidelity_second_order(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Second-order fidelity expansion of one state, blockwise.

    F^2 = 1 - l^2 Var(G) with Var(G) along the unit direction of dp,
    evaluated at l = |dp| (see _variance).
    """
    _check_state(state, p)
    d = dp.as_array()
    step = dp.norm
    g = _generators(p, (d / step if step > 0.0 else d)[None])[0]
    var = _variance(_bloch(state.amplitudes[None]), g)
    f2 = float(_second_order(var, np.array([step]))[0, 0, 0])
    if not math.isfinite(f2):
        raise NonFiniteDerivative(int(np.argmax(np.abs(d))))
    return f2


def sensitivity_sweep(
    card: PrescriptionCard, states: list[BlockState], grid: Iterable[float]
) -> SweepResult:
    """Coordinate-displacement fidelity of a solved card, as columns.

    Every state is probed along each of the six parameter axes with
    every step in the grid.  The result holds the exact and second-order
    F^2 and their difference per (state, axis, step), and each state's
    quadratic sensitivity vector, from which rankings are derived.

    The per-card work is shared by all states: one block-kernel pass
    gives the block coefficients of the six unit axes, the solved point
    and every (axis, step) point.  The solved point's generator map, on
    floats, turns the axes' coefficients into the six unit-axis
    generators, and the coefficients of the points give their block
    maps.  Each state's Bloch vectors meet them in one variance and one
    overlap product.  The states must all live in one frame.
    Errors come in the order a step-by-step sweep would meet them: a
    derivative overflow, first axis first; then per axis and step, an
    invalid displaced parameter set, then an overflowing expansion.
    """
    grid = tuple(strict_float("perturbation component", step) for step in grid)
    if not states:
        raise ValueError("sensitivity sweep needs at least one state")
    if not grid:
        raise ValueError("sensitivity sweep needs a nonempty step grid")
    p = card.solved
    frame = states[0].frame
    for state in states:
        _check_state(state, p)
        if state.frame is not frame:
            raise ValueError("sensitivity sweep states must share one frame")
    steps = np.array(grid)
    shift = np.zeros((6, len(grid), 6))
    shift[_AXIS, :, _AXIS] = steps
    x0 = _param_vector(p)
    moved = x0 + shift
    # one block-kernel pass; rows: the six unit axes, the solved point, then every displaced point
    rows = np.concatenate([_UNIT_AXES, x0[None], moved.reshape(-1, 6)])
    c, r = _block_coefficients(rows[:, 1:], p.h)
    e = _bloch(np.array([state.amplitudes for state in states]))
    var = _variance(e, _generator_step(p.t, _UNIT_AXES, c[6], r[6], c[:6]))
    f2s = _second_order(var, steps)
    valid = admissible(moved)
    ok = valid & np.isfinite(f2s).all(axis=0)
    if not ok.all():
        # the first failure in (axis, step) order; _displaced raises the
        # error of an invalid point with the message PhysicalParams gives it
        i, j = divmod(int(np.argmin(ok)), len(grid))
        if not valid[i, j]:
            _displaced(p, Perturbation.axis(i, grid[j]))
        raise NonFiniteDerivative(i)
    f2e = _overlaps(e, *_rotations(rows[6:, :1], c[6:], r[6:]))
    f2e = f2e.reshape(-1, 6, len(grid))
    columns = (f2e, f2s, np.abs(f2s - f2e), var)
    for a in columns:
        a.flags.writeable = False
    return SweepResult(card, grid, *columns)


def _ranked(means) -> list[tuple[str, float]]:
    """PARAM_NAMES paired with means, largest first; ties (see rank_parameters) listed by name."""
    ranked = sorted(zip(PARAM_NAMES, means), key=lambda kv: -kv[1])
    ties: list[list[tuple[str, float]]] = []
    for name, val in ranked:
        if ties and ties[-1][0][1] - val <= RANK_TIE_TOL * abs(ties[-1][0][1]):
            ties[-1].append((name, val))
        else:
            ties.append([(name, val)])
    return [kv for tie in ties for kv in sorted(tie)]


def rank_parameters(card: PrescriptionCard) -> list[tuple[str, float]]:
    """Parameters ordered by their mean quadratic sensitivity over all states, largest first.

    The mean of Var(G) over states uniform on the unit sphere of C^d,
    d = 4, is (tr G^2 - (tr G)^2 / d) / (d + 1), from the second moment
    E[|a><a| (x) |a><a|] = (1 + SWAP) / (d (d + 1)) behind the average
    gate fidelity (Horodecki, Horodecki & Horodecki, PRA 60 (1999) 1888;
    Nielsen, Phys. Lett. A 303 (2002) 249).  Every Hamiltonian of the
    model is traceless (the blocks' c0 are opposite), so tr G = 0, and
    with the blocks G = g0 + g . sigma the mean is
    tr G^2 / 5 = 2 sum_b (g0^2 + |g|^2) / 5.  It is the large-sample
    limit of the mean of a sweep's gradient over sample_states, and
    equals that mean over any 2-design.

    Means within RANK_TIE_TOL of the largest mean of their tie are
    tied, and a tie lists its parameters by name.
    """
    g = _generators(card.solved, _UNIT_AXES)[0]
    return _ranked((0.4 * np.sum(g * g, axis=(1, 2))).tolist())


def sample_states(frame: BellFrame, n: int, seed: int) -> list[BlockState]:
    """n deterministic states uniform on the amplitude sphere: normalized Gaussian rows of default_rng(seed)."""
    if strict_int("n", n) < 1:
        raise ValueError(f"need at least one state, got {n}")
    z = np.random.default_rng(strict_int("seed", seed)).standard_normal((n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return [BlockState(z[k, :4] + 1j * z[k, 4:], frame) for k in range(n)]
