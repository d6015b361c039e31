"""Fidelity of perturbed gate pulses.

A state living in the frame arrangement evolves under the solved pulse
and under a parameter-perturbed copy of it.  The squared overlap of
the two outcomes has no linear term in the perturbation because the
blocks stay unitary, so the leading behaviour is quadratic.  This
module computes that second-order expansion from exact block
derivatives, the exact overlap as the brute-force oracle, and
per-parameter sensitivity sweeps built on both.

Along a displacement the frame-coordinate generator is a quadratic
polynomial in the path parameter, so one matrix exponential of a
block upper-triangular matrix carries the propagator and its first
two derivatives (Najfeld & Havel, Adv. Appl. Math. 16 (1995) 321).
That augmented matrix is not normal, so it goes through scipy's Pade
expm rather than the Hermitian eigendecomposition evolve uses.

Those derivatives are linear and quadratic in the displacement, so
along a unit direction the expansion F^2 = 1 + 2 l Re(B) + l^2 (Re(C) +
|B|^2) of a state is fixed by two coefficients that do not depend on
the step l.  A sweep therefore does its per-card work once: one
propagator, the six unit-axis derivative pairs with the two
coefficients per state and axis they give, and one displaced
propagator per (axis, step).  All states are evaluated together as
(n, 4) amplitude arrays.  The quadratic coefficient is itself the
per-parameter sensitivity, so no probe step enters, and
fidelity_second_order uses the same two coefficients along the unit
direction of its displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellframe import BellFrame, bell_frame, to_blocks
from .calib import PrescriptionCard
from .checks import STATE_NORM_TOL, ZERO_NORM_TOL, strict_int
from .errors import NonFiniteDerivative
from .model import PhysicalParams, assemble_hamiltonian, build_hamiltonian, evolve

__all__ = [
    "PARAM_NAMES",
    "BlockState",
    "Perturbation",
    "FidelityReport",
    "directional_derivatives",
    "fidelity_exact",
    "fidelity_second_order",
    "quadratic_sensitivities",
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
        vals = tuple(float(v) for v in self.dp)
        if len(vals) != 6:
            raise ValueError(f"perturbation needs 6 components, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("perturbation components must be finite")
        object.__setattr__(self, "dp", vals)

    @classmethod
    def axis(cls, index, step: float) -> "Perturbation":
        """Single-coordinate displacement; index is an int 0..5 or a PARAM_NAMES entry."""
        if isinstance(index, str) and index in PARAM_NAMES:
            index = PARAM_NAMES.index(index)
        vals = [0.0] * 6
        vals[strict_int("axis", index, range(6))] = float(step)
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
    """First and second directional derivatives of both block maps.

    Along x + l*u, u the unit direction of dp, the frame-coordinate
    generator -i (t + l u_t)(W + l dW) is A + l B + l^2 Q exactly, with W
    and dW the Hamiltonians of the couplings and of u in frame
    coordinates.  The first block row of exp([[A, B, Q], [0, A, B],
    [0, 0, A]]) is (U, DU, D2U / 2).  The derivatives are scaled by |dp|
    and |dp|^2 so the outputs are the actual first- and second-order
    responses to the displacement; a unit direction keeps the augmented
    matrix's norm, and with it expm's scaling, independent of |dp|.
    dp = 0 returns zero matrices.
    """
    # imported on first use, so that import bellgate loads no scipy module
    from scipy.linalg import expm

    if p.h != frame.h:
        raise ValueError(f"parameter axis h={p.h} does not match frame axis h={frame.h}")
    d = dp.as_array()
    n = dp.norm
    u = d / n if n > 0.0 else d
    c = frame.change_of_basis
    w = c.conj().T @ build_hamiltonian(p) @ c
    dw = c.conj().T @ assemble_hamiltonian(u[1:4], u[4], u[5], p.h) @ c
    a = -1j * p.t * w
    b = -1j * (u[0] * w + p.t * dw)
    z = np.zeros((4, 4), dtype=np.complex128)
    e = expm(np.block([[a, b, -1j * u[0] * dw], [z, a, b], [z, z, a]]))
    # an overflowing displacement surfaces as NonFiniteDerivative below
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = n * e[0:4, 4:8], (2.0 * n * n) * e[0:4, 8:12]
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        raise NonFiniteDerivative(int(np.argmax(np.abs(d))))
    return (d1[0:2, 0:2], d1[2:4, 2:4]), (d2[0:2, 0:2], d2[2:4, 2:4])


def _check_state(state: BlockState, p: PhysicalParams) -> None:
    if state.frame.h != p.h:
        raise ValueError(
            f"state frame h={state.frame.h} does not match parameter h={p.h}"
        )


def _overlaps(psi: np.ndarray, u: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|<u psi | u2 psi>|^2 for each row of psi (computational amplitudes)."""
    return np.abs(np.einsum("ni,ni->n", (psi @ u.T).conj(), psi @ u2.T)) ** 2


def _coefficients(amps: np.ndarray, s, pair) -> tuple[np.ndarray, np.ndarray]:
    """(Re B, Re C + |B|^2) for each row of amps, (n, 4) frame amplitudes.

    s is the block pair of the propagator and pair the block pairs of
    its first and second derivatives along one unit direction.  With
    per-block overlaps B = sum_k a_k^dag (s_k^dag D1_k) a_k and
    C = sum_k a_k^dag (s_k^dag D2_k) a_k, a step l along that direction
    has F^2 = 1 + 2 l Re(B) + l^2 (Re(C) + |B|^2) to second order.
    """
    b = c = 0.0
    for k in (0, 1):
        a = amps[:, 2 * k : 2 * k + 2]
        sh = s[k].conj().T
        b = b + np.einsum("ni,ij,nj->n", a.conj(), sh @ pair[0][k], a)
        c = c + np.einsum("ni,ij,nj->n", a.conj(), sh @ pair[1][k], a)
    return b.real, c.real + np.abs(b) ** 2


def _second_order(lin: np.ndarray, quad: np.ndarray, step: float, axis: int) -> np.ndarray:
    """F^2 = 1 + 2 step lin + step^2 quad; NonFiniteDerivative(axis) if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = 1.0 + 2.0 * step * lin + (step * step) * quad
    if not np.all(np.isfinite(f2)):
        raise NonFiniteDerivative(axis)
    return f2


def _axis_coefficients(p: PhysicalParams, frame: BellFrame, amps: np.ndarray):
    """evolve(p) and the (lin, quad) coefficients of each row of amps along the six unit axes."""
    u = evolve(p)
    s1, s2, _ = to_blocks(u, frame)
    pairs = [directional_derivatives(p, Perturbation.axis(i, 1.0), frame) for i in range(6)]
    return u, [_coefficients(amps, (s1, s2), pair) for pair in pairs]


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

    The block overlaps along the unit direction of dp give the two
    coefficients of F^2 = 1 + 2 l Re(B) + l^2 (Re(C) + |B|^2), evaluated
    at l = |dp| (see _coefficients).
    """
    _check_state(state, p)
    step = dp.norm
    unit = Perturbation(dp=tuple(v / step for v in dp.dp)) if step > 0.0 else dp
    pair = directional_derivatives(p, unit, state.frame)
    s1, s2, _ = to_blocks(evolve(p), state.frame)
    lin, quad = _coefficients(state.amplitudes[None], (s1, s2), pair)
    axis = int(np.argmax(np.abs(dp.as_array())))
    return float(_second_order(lin, quad, step, axis)[0])


def quadratic_sensitivities(p: PhysicalParams, state: BlockState) -> tuple[float, ...]:
    """Per-parameter quadratic infidelity coefficients, -(Re(C) + |B|^2) per axis.

    The expansion has no linear term, so 1 - F^2 = l^2 times these
    diagonal coefficients to second order along each axis; they are the
    meaningful sensitivity ranking quantities.
    """
    _check_state(state, p)
    _, coeffs = _axis_coefficients(p, state.frame, state.amplitudes[None])
    return tuple(float(-quad[0]) for _, quad in coeffs)


def sensitivity_sweep(
    card: PrescriptionCard, states: list[BlockState], grid: list[float]
) -> list[FidelityReport]:
    """Coordinate-displacement fidelity reports for a solved card.

    Every state is probed along each of the six parameter axes with
    every step in the grid; each report carries the state's quadratic
    sensitivity vector so rankings can be derived downstream.

    The per-card work is shared by all states: one propagator, six
    unit-axis derivative pairs and the two expansion coefficients per
    state and axis, and one displaced propagator per (axis, distinct
    step).  The states are evaluated together; all of them must live in
    one frame.
    """
    grid = [float(step) for step in grid]
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
    u, coeffs = _axis_coefficients(p, frame, amps)
    grads = (-np.stack([quad for _, quad in coeffs], axis=1)).tolist()
    # (name, perturbation, exact column, second-order column) in report order
    probes = []
    for i, name in enumerate(PARAM_NAMES):
        exact = {}
        for step in grid:
            pert = Perturbation.axis(i, step)
            if step not in exact:
                exact[step] = _overlaps(psi, u, evolve(_displaced(p, pert))).tolist()
            f2s = _second_order(*coeffs[i], step, i).tolist()
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


def sample_states(frame: BellFrame, n: int = 64, seed: int = 7) -> list[BlockState]:
    """Deterministic low-discrepancy states on the amplitude sphere."""
    # imported on first use, so that import bellgate loads no scipy module
    from scipy.special import ndtri
    from scipy.stats import qmc

    if strict_int("n", n) < 1:
        raise ValueError(f"need at least one state, got {n}")
    sob = qmc.Sobol(d=8, scramble=True, seed=seed)
    # draw a full power-of-two batch to keep the sequence balanced
    z = ndtri(sob.random_base2(max(1, math.ceil(math.log2(n)))))[:n]
    vecs = z[:, 0:4] + 1j * z[:, 4:8]
    return [BlockState.normalized(v, frame) for v in vecs]
