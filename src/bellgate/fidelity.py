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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri
from scipy.stats import qmc

from .bellframe import BellFrame, bell_frame, to_blocks
from .calib import PrescriptionCard
from .errors import NonFiniteDerivative
from .gates import GateId
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

#: sensitivity probes use this coordinate step
SENSITIVITY_STEP = 1e-3


@dataclass(frozen=True, eq=False)
class BlockState:
    """Four complex amplitudes in the frame arrangement, unit norm.

    The first two entries ride block 1, the last two block 2.  The
    norm must already be 1 to within 1e-12; use normalized() to build
    a state from an arbitrary vector.
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
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm is {nrm}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, vec, frame: BellFrame) -> "BlockState":
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
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
        """Single-coordinate displacement; index is 0..5 or a PARAM_NAMES entry."""
        if isinstance(index, str):
            index = PARAM_NAMES.index(index)
        vals = [0.0] * 6
        vals[index] = float(step)
        return cls(dp=tuple(vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.dp, dtype=float)

    @property
    def norm(self) -> float:
        return math.hypot(*self.dp)


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """One (state, displacement) probe of a solved card."""

    gate: GateId
    card: PrescriptionCard
    state_id: int
    param: str
    dp: Perturbation
    f2_exact: float
    f2_second_order: float
    per_parameter_gradient: tuple[float, ...]
    cubic_residual: float


def _param_vector(p: PhysicalParams) -> np.ndarray:
    return np.array([p.t, *p.J, p.B1, p.B2], dtype=float)


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


def fidelity_exact(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Squared overlap of the exact and the perturbed final states.

    Both evolutions run as full 4x4 propagators; this is the oracle the
    second-order expansion is judged against.  The displaced parameters
    must themselves be valid (in particular t + dt >= 0).
    """
    _check_state(state, p)
    shifted = _param_vector(p) + dp.as_array()
    p2 = PhysicalParams(
        t=shifted[0],
        J=(shifted[1], shifted[2], shifted[3]),
        B1=shifted[4],
        B2=shifted[5],
        h=p.h,
    )
    psi0 = state.frame.change_of_basis @ state.amplitudes
    ov = np.vdot(evolve(p) @ psi0, evolve(p2) @ psi0)
    return float(abs(ov) ** 2)


def fidelity_second_order(state: BlockState, p: PhysicalParams, dp: Perturbation) -> float:
    """Second-order fidelity expansion, blockwise.

    With per-block overlaps B = sum_k a_k^dag (s_k^dag Ds_k) a_k and
    C = sum_k a_k^dag (s_k^dag D2s_k) a_k,

        F^2 = 1 + 2 Re(B) + Re(C) + |B|^2
    """
    _check_state(state, p)
    (d1_1, d1_2), (d2_1, d2_2) = directional_derivatives(p, dp, state.frame)
    s1, s2, _ = to_blocks(evolve(p), state.frame)
    a1 = state.amplitudes[0:2]
    a2 = state.amplitudes[2:4]
    b_ov = complex(0.0)
    c_ov = complex(0.0)
    for ak, sk, d1k, d2k in ((a1, s1, d1_1, d2_1), (a2, s2, d1_2, d2_2)):
        b_ov += np.vdot(ak, (sk.conj().T @ d1k) @ ak)
        c_ov += np.vdot(ak, (sk.conj().T @ d2k) @ ak)
    return float(1.0 + 2.0 * b_ov.real + c_ov.real + abs(b_ov) ** 2)


def quadratic_sensitivities(
    p: PhysicalParams, state: BlockState, step: float = SENSITIVITY_STEP
) -> tuple[float, ...]:
    """Per-parameter quadratic infidelity coefficients (1 - F^2) / step^2.

    The expansion has no linear term, so these diagonal coefficients
    are the meaningful sensitivity ranking quantities.
    """
    out = []
    for i in range(6):
        f2 = fidelity_second_order(state, p, Perturbation.axis(i, step))
        out.append((1.0 - f2) / (step * step))
    return tuple(out)


def sensitivity_sweep(
    card: PrescriptionCard, states: list[BlockState], grid: list[float]
) -> list[FidelityReport]:
    """Coordinate-displacement fidelity reports for a solved card.

    Every state is probed along each of the six parameter axes with
    every step in the grid; each report carries the state's quadratic
    sensitivity vector so rankings can be derived downstream.
    """
    if not states:
        raise ValueError("sensitivity sweep needs at least one state")
    if not list(grid):
        raise ValueError("sensitivity sweep needs a nonempty step grid")
    p = card.solved
    reports: list[FidelityReport] = []
    for sid, state in enumerate(states):
        _check_state(state, p)
        grad = quadratic_sensitivities(p, state)
        for name in PARAM_NAMES:
            for step in grid:
                pert = Perturbation.axis(name, float(step))
                f2e = fidelity_exact(state, p, pert)
                f2s = fidelity_second_order(state, p, pert)
                reports.append(
                    FidelityReport(
                        gate=card.targets.gate,
                        card=card,
                        state_id=sid,
                        param=name,
                        dp=pert,
                        f2_exact=f2e,
                        f2_second_order=f2s,
                        per_parameter_gradient=grad,
                        cubic_residual=abs(f2s - f2e),
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
    if n < 1:
        raise ValueError(f"need at least one state, got {n}")
    sob = qmc.Sobol(d=8, scramble=True, seed=seed)
    # draw a full power-of-two batch to keep the sequence balanced
    z = ndtri(sob.random_base2(max(1, math.ceil(math.log2(n)))))[:n]
    vecs = z[:, 0:4] + 1j * z[:, 4:8]
    return [BlockState.normalized(v, frame) for v in vecs]
