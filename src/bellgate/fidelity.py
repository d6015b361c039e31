"""Fidelity of perturbed gate pulses.

A state living in the frame arrangement evolves under the solved pulse
and under a parameter-perturbed copy of it.  The blocks stay unitary
along any displacement, so the squared overlap of the two outcomes has
no linear term and its quadratic term needs first derivatives only:
along a unit direction, F^2 = 1 - l^2 Var(G) + O(l^3) with the Hermitian
generator G = i s^dag Ds of the block maps s and their derivative Ds
(the Fubini-Study metric; Braunstein & Caves, PRL 72 (1994) 3439).  This
module computes that expansion, the exact overlap as the brute-force
oracle, and per-parameter sensitivity sweeps built on both.

Each block derivative is the Frechet derivative of the exponential of a
2x2 Hermitian block, read off the block's eigendecomposition with the
Daleckii-Krein divided differences exp(-i t (w_a + w_b) / 2)
sinc(t (w_a - w_b) / 2), which stay smooth for degenerate blocks and at
t = 0 (Higham, Functions of Matrices, SIAM 2008, sec. 3.2).

A sweep does its per-card work once, as array operations: one block
eigendecomposition for the six unit-axis derivatives and the variance
they give per state and axis, and one stacked exponential for the
propagator and the displaced propagators of every (axis, distinct
step).  All states are evaluated together as (n, 4) amplitude arrays,
and the numbers stay in arrays: a SweepResult holds them as columns
and walks them as rows only when they are read.  The variance is
itself the per-parameter sensitivity.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bellframe import BLOCK_BASIS, BLOCK_COEFFS, BellFrame
from .calib import PrescriptionCard
from .checks import STATE_NORM_TOL, ZERO_NORM_TOL, strict_float, strict_int
from .errors import NonFiniteDerivative
from .model import PhysicalParams, admissible, assemble_hamiltonian, evolve
from .sobol import ndtri, sobol_points
from .spinlin import expm_hermitian

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


def _block_derivatives(
    p: PhysicalParams, frame: BellFrame, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First derivatives of both block maps along k directions at once, and the block maps.

    directions is a (k, 6) array of displacements (dt, dJ1, dJ2, dJ3,
    dB1, dB2).  Returns (ds, s): ds[r, b] is the derivative of block map
    b along row r, shape (k, 2, 2, 2), and s the two block maps, shape
    (2, 2, 2).  Each block map is s_b = exp(-i t W_b), with
    W_b = V diag(w) V^dag the block's Hamiltonian in frame coordinates;
    one eigendecomposition serves every row.  Along x + l*d the
    derivative is Ds_b = V ((V^dag E V) * Phi) V^dag with
    E = -i (dt W_b + t dW_b), dW_b the block Hamiltonian of d's
    couplings, and the divided differences
    Phi_ab = exp(-i t (w_a + w_b) / 2) sinc(t (w_a - w_b) / 2).  Ds is
    linear in d; a zero row gives zero matrices.  The first row whose
    derivative overflows raises NonFiniteDerivative with the index of
    that row's largest component.
    """
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    d = np.asarray(directions, dtype=float)
    coeffs = BLOCK_COEFFS[frame.h]
    w = np.einsum("ka,aij->kij", coeffs @ _param_vector(p)[1:], BLOCK_BASIS)
    lam, v = np.linalg.eigh(w)
    vh = v.conj().swapaxes(1, 2)
    mean = (lam[:, :, None] + lam[:, None, :]) / 2.0
    half = (lam[:, :, None] - lam[:, None, :]) / 2.0
    phi = np.exp(-1j * p.t * mean) * np.sinc(p.t * half / np.pi)
    # an overflowing displacement surfaces as NonFiniteDerivative below
    with np.errstate(over="ignore", invalid="ignore"):
        # (c0, cx, cy, cz) of both blocks for each row's couplings
        dc = (coeffs @ d[:, None, 1:, None])[..., 0]
        dw = np.einsum("rka,aij->rkij", dc, BLOCK_BASIS)
        ds = v @ ((vh @ (-1j * (d[:, 0, None, None, None] * w + p.t * dw)) @ v) * phi) @ vh
    bad = ~np.isfinite(ds).all(axis=(1, 2, 3))
    if bad.any():
        raise NonFiniteDerivative(int(np.argmax(np.abs(d[np.argmax(bad)]))))
    s = v @ (phi * np.eye(2)) @ vh
    return ds, s


def directional_derivatives(
    p: PhysicalParams, dp: Perturbation, frame: BellFrame
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """First directional derivatives of both block maps, and the block maps.

    Returns ((Ds_1, Ds_2), (s_1, s_2)), the one-direction case of
    _block_derivatives.  Ds is linear in dp; dp = 0 returns zero
    matrices.
    """
    ds, s = _block_derivatives(p, frame, dp.as_array()[None])
    return (ds[0, 0], ds[0, 1]), (s[0], s[1])


def _check_state(state: BlockState, p: PhysicalParams) -> None:
    if state.frame.h != p.h:
        raise ValueError(
            f"state frame h={state.frame.h} does not match parameter h={p.h}"
        )


def _overlaps(psi: np.ndarray, u: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|<u psi | u2 psi>|^2 for each (..., 4, 4) propagator of u2 and each row of psi, shape (..., n).

    psi holds computational amplitudes, one state per row.
    """
    return np.abs(np.einsum("ni,...ni->...n", (psi @ u.T).conj(), psi @ u2.swapaxes(-1, -2))) ** 2


def _variance(amps: np.ndarray, ds: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Var(G) = ||G a||^2 - |<a|G|a>|^2 per direction and row a of amps, shape (k, n).

    amps holds (n, 4) frame amplitudes; ds and s are what
    _block_derivatives returns for k directions.  G is block-diagonal
    with G_b = i s_b^dag Ds_b.
    """
    g = 1j * s.conj().swapaxes(-1, -2) @ ds
    ga = np.concatenate([amps[:, 2 * b : 2 * b + 2] @ g[:, b].swapaxes(-1, -2) for b in (0, 1)], axis=-1)
    return np.sum(np.abs(ga) ** 2, axis=-1) - np.abs(np.einsum("ni,kni->kn", amps.conj(), ga)) ** 2


def _second_order(var: np.ndarray, steps) -> np.ndarray:
    """F^2 = 1 - step^2 var, broadcasting; an overflow comes out non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 - (steps * steps) * var


def _axis_variances(p: PhysicalParams, frame: BellFrame, amps: np.ndarray) -> np.ndarray:
    """Var(G) of each row of amps along the six unit axes, shape (n, 6)."""
    return np.ascontiguousarray(_variance(amps, *_block_derivatives(p, frame, np.eye(6))).T)


def fidelity_exact(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Squared overlap of the exact and the perturbed final states.

    Both evolutions run as full 4x4 propagators; this is the oracle the
    second-order expansion is judged against.  The displaced parameters
    must themselves be valid (in particular t + dt >= 0).
    """
    _check_state(state, p)
    p2 = _displaced(p, dp)
    psi = (state.frame.change_of_basis @ state.amplitudes)[None]
    return float(_overlaps(psi, evolve(p), evolve(p2))[0])


def fidelity_second_order(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Second-order fidelity expansion of one state, blockwise.

    F^2 = 1 - l^2 Var(G) with Var(G) along the unit direction of dp,
    evaluated at l = |dp| (see _variance).
    """
    _check_state(state, p)
    step = dp.norm
    unit = Perturbation(dp=tuple(v / step for v in dp.dp)) if step > 0.0 else dp
    var = _variance(state.amplitudes[None], *_block_derivatives(p, state.frame, unit.as_array()[None]))
    f2 = float(_second_order(var, step)[0, 0])
    if not math.isfinite(f2):
        raise NonFiniteDerivative(int(np.argmax(np.abs(dp.as_array()))))
    return f2


def sensitivity_sweep(
    card: PrescriptionCard, states: list[BlockState], grid: Iterable[float]
) -> SweepResult:
    """Coordinate-displacement fidelity of a solved card, as columns.

    Every state is probed along each of the six parameter axes with
    every step in the grid.  The result holds the exact and second-order
    F^2 and their difference per (state, axis, step), and each state's
    quadratic sensitivity vector, from which rankings are derived.

    The per-card work is shared by all states: one eigendecomposition
    for the six unit-axis derivatives and the variance per state and
    axis they give, and one stacked exponential for the propagator and
    the displaced propagators of every (axis, distinct step).  The
    states must all live in one frame.  Errors come in the order a
    step-by-step sweep would meet them: a derivative overflow, first
    axis first; then per axis and step, an invalid displaced parameter
    set, then an overflowing expansion.
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
    amps = np.array([state.amplitudes for state in states])
    var = _axis_variances(p, frame, amps)
    f2s = _second_order(var[:, :, None], np.array(grid))
    # each distinct step (0.0 and -0.0 are one) is displaced once per axis;
    # col maps a grid position to its distinct step
    first: dict[float, int] = {}
    col = [first.setdefault(step, len(first)) for step in grid]
    shift = np.zeros((6, len(first), 6))
    shift[range(6), :, range(6)] = list(first)
    x0 = _param_vector(p)
    moved = x0 + shift
    valid = admissible(moved)
    finite = np.isfinite(f2s).all(axis=0)
    if not (valid.all() and finite.all()):
        # the first failure in (axis, step) order; _displaced raises the
        # error of an invalid point with the message PhysicalParams gives it
        for i in range(6):
            for j, step in enumerate(grid):
                if not valid[i, col[j]]:
                    _displaced(p, Perturbation.axis(i, step))
                if not finite[i, j]:
                    raise NonFiniteDerivative(i)
    points = np.concatenate([x0[None], moved.reshape(-1, 6)])
    u = expm_hermitian(assemble_hamiltonian(points[:, 1:4].T, points[:, 4], points[:, 5], p.h), points[:, 0])
    psi = amps @ frame.change_of_basis.T
    f2e = _overlaps(psi, u[0], u[1:]).reshape(6, len(first), -1)[:, col].transpose(2, 0, 1)
    columns = (np.ascontiguousarray(f2e), f2s, np.abs(f2s - f2e), var)
    for a in columns:
        a.flags.writeable = False
    return SweepResult(card, grid, *columns)


def rank_parameters(result: SweepResult) -> list[tuple[str, float]]:
    """Parameters ordered by mean quadratic sensitivity over the sweep's states, largest first."""
    if not len(result):
        raise ValueError("cannot rank parameters without reports")
    mean = np.mean(result.gradient, axis=0)
    order = sorted(zip(PARAM_NAMES, mean), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(val)) for name, val in order]


def sample_states(frame: BellFrame, n: int, seed: int) -> list[BlockState]:
    """Deterministic low-discrepancy states on the amplitude sphere."""
    if strict_int("n", n) < 1:
        raise ValueError(f"need at least one state, got {n}")
    # draw a full power-of-two batch to keep the sequence balanced
    u = sobol_points(max(1, math.ceil(math.log2(n))), strict_int("seed", seed))[:n]
    z = np.array([ndtri(y) for y in u.ravel().tolist()]).reshape(u.shape)
    vecs = z[:, 0:4] + 1j * z[:, 4:8]
    return [BlockState.normalized(v, frame) for v in vecs]
