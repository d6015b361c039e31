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

A sweep does its per-card work once: one propagator, the six unit-axis
derivatives with the variance they give per state and axis, and one
displaced propagator per (axis, step).  All states are evaluated
together as (n, 4) amplitude arrays.  The variance is itself the
per-parameter sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellframe import BLOCK_BASIS, BLOCK_COEFFS, BellFrame
from .calib import PrescriptionCard
from .checks import STATE_NORM_TOL, ZERO_NORM_TOL, strict_float, strict_int
from .errors import NonFiniteDerivative
from .model import PhysicalParams, evolve
from .sobol import ndtri, sobol_points

__all__ = [
    "PARAM_NAMES",
    "BlockState",
    "Perturbation",
    "FidelityReport",
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
    """One (state, displacement) probe of a solved card."""

    state_id: int
    param: str
    dp: Perturbation
    f2_exact: float
    f2_second_order: float
    per_parameter_gradient: tuple[float, ...]
    cubic_residual: float


def _param_vector(p: PhysicalParams) -> np.ndarray:
    return np.array([p.t, *p.J, p.B1, p.B2], dtype=float)


def _displaced(p: PhysicalParams, dp: Perturbation) -> PhysicalParams:
    x = _param_vector(p) + dp.as_array()
    return PhysicalParams(t=x[0], J=(x[1], x[2], x[3]), B1=x[4], B2=x[5], h=p.h)


def directional_derivatives(
    p: PhysicalParams, dp: Perturbation, frame: BellFrame
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """First directional derivatives of both block maps, and the block maps.

    Returns ((Ds_1, Ds_2), (s_1, s_2)).  Each block map is
    s_k = exp(-i t W_k), with W_k = V diag(w) V^dag the block's
    Hamiltonian in frame coordinates.  Along x + l*dp its derivative is
    Ds_k = V ((V^dag E V) * Phi) V^dag with E = -i (dt W_k + t dW_k),
    dW_k the block Hamiltonian of dp's couplings, and the divided
    differences Phi_ab = exp(-i t (w_a + w_b) / 2) sinc(t (w_a - w_b) / 2).
    Ds is linear in dp; dp = 0 returns zero matrices.
    """
    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    d = dp.as_array()
    coeffs = BLOCK_COEFFS[frame.h]
    w = np.einsum("ka,aij->kij", coeffs @ _param_vector(p)[1:], BLOCK_BASIS)
    lam, v = np.linalg.eigh(w)
    vh = v.conj().swapaxes(1, 2)
    mean = (lam[:, :, None] + lam[:, None, :]) / 2.0
    half = (lam[:, :, None] - lam[:, None, :]) / 2.0
    phi = np.exp(-1j * p.t * mean) * np.sinc(p.t * half / np.pi)
    # an overflowing displacement surfaces as NonFiniteDerivative below
    with np.errstate(over="ignore", invalid="ignore"):
        dw = np.einsum("ka,aij->kij", coeffs @ d[1:], BLOCK_BASIS)
        ds = v @ ((vh @ (-1j * (d[0] * w + p.t * dw)) @ v) * phi) @ vh
    if not np.all(np.isfinite(ds)):
        raise NonFiniteDerivative(int(np.argmax(np.abs(d))))
    s = v @ (phi * np.eye(2)) @ vh
    return (ds[0], ds[1]), (s[0], s[1])


def _check_state(state: BlockState, p: PhysicalParams) -> None:
    if state.frame.h != p.h:
        raise ValueError(
            f"state frame h={state.frame.h} does not match parameter h={p.h}"
        )


def _overlaps(psi: np.ndarray, u: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|<u psi | u2 psi>|^2 for each row of psi (computational amplitudes)."""
    return np.abs(np.einsum("ni,ni->n", (psi @ u.T).conj(), psi @ u2.T)) ** 2


def _variance(amps: np.ndarray, ds, s) -> np.ndarray:
    """Var(G) = ||G a||^2 - |<a|G|a>|^2 for each row a of amps, (n, 4) frame amplitudes.

    ds and s are the block pairs directional_derivatives returns for one
    direction; G is block-diagonal with G_k = i s_k^dag Ds_k.
    """
    ga = np.hstack([amps[:, 2 * k : 2 * k + 2] @ (1j * s[k].conj().T @ ds[k]).T for k in (0, 1)])
    return np.sum(np.abs(ga) ** 2, axis=1) - np.abs(np.einsum("ni,ni->n", amps.conj(), ga)) ** 2


def _second_order(var: np.ndarray, step: float, axis: int) -> np.ndarray:
    """F^2 = 1 - step^2 var; NonFiniteDerivative(axis) if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = 1.0 - (step * step) * var
    if not np.all(np.isfinite(f2)):
        raise NonFiniteDerivative(axis)
    return f2


def _axis_variances(p: PhysicalParams, frame: BellFrame, amps: np.ndarray) -> np.ndarray:
    """Var(G) of each row of amps along the six unit axes, shape (n, 6)."""
    pairs = [directional_derivatives(p, Perturbation.axis(i, 1.0), frame) for i in range(6)]
    return np.stack([_variance(amps, *pair) for pair in pairs], axis=1)


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
    var = _variance(state.amplitudes[None], *directional_derivatives(p, unit, state.frame))
    axis = int(np.argmax(np.abs(dp.as_array())))
    return float(_second_order(var, step, axis)[0])


def sensitivity_sweep(
    card: PrescriptionCard, states: list[BlockState], grid: list[float]
) -> list[FidelityReport]:
    """Coordinate-displacement fidelity reports for a solved card.

    Every state is probed along each of the six parameter axes with
    every step in the grid; each report carries the state's quadratic
    sensitivity vector so rankings can be derived downstream.

    The per-card work is shared by all states: one propagator, six
    unit-axis derivatives and the variance per state and axis they
    give, and one displaced propagator per (axis, distinct step).  The
    states are evaluated together; all of them must live in one frame.
    """
    grid = [strict_float("perturbation component", step) for step in grid]
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
    psi = amps @ frame.change_of_basis.T
    u = evolve(p)
    var = _axis_variances(p, frame, amps)
    grads = var.tolist()
    # (name, perturbation, exact column, second-order column) in report order
    probes = []
    for i, name in enumerate(PARAM_NAMES):
        exact = {}
        for step in grid:
            pert = Perturbation.axis(i, step)
            if step not in exact:
                exact[step] = _overlaps(psi, u, evolve(_displaced(p, pert))).tolist()
            f2s = _second_order(var[:, i], step, i).tolist()
            probes.append((name, pert, exact[step], f2s))
    reports: list[FidelityReport] = []
    for sid, grad in enumerate(grads):
        grad = tuple(grad)
        for name, pert, f2e, f2s in probes:
            reports.append(
                FidelityReport(
                    state_id=sid,
                    param=name,
                    dp=pert,
                    f2_exact=f2e[sid],
                    f2_second_order=f2s[sid],
                    per_parameter_gradient=grad,
                    cubic_residual=abs(f2s[sid] - f2e[sid]),
                )
            )
    return reports


def rank_parameters(reports: list[FidelityReport]) -> list[tuple[str, float]]:
    """Parameters ordered by mean quadratic sensitivity, largest first."""
    if not reports:
        raise ValueError("cannot rank parameters without reports")
    by_state: dict[int, tuple[float, ...]] = {}
    for rep in reports:
        by_state.setdefault(rep.state_id, rep.per_parameter_gradient)
    mean = np.mean([g for g in by_state.values()], axis=0)
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
