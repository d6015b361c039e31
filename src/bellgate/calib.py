"""Pulse prescriptions realizing the Bell-basis gate library.

Each library generator comes out of one free evolution of the driven
model.  prescription_targets transcribes the generator's reduced block
targets, solve_physical turns a target set into physical controls
(t, J, B) together with honesty numbers (per-constraint residuals and
the realized gate error), and cnot_family builds the finite-winding
controlled-NOT approximants whose error vanishes as the driving field
dominates the exchange.

Gauge convention: a solved card is normalized so the largest coupling
magnitude is 1 and the duration carries the overall scale.  Family
cards instead keep unit exchange strength so the field_scale knob
retains its meaning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bellframe import BLOCK_COEFFS, bell_frame, frame_permutation, reduced_params
from .errors import SolverFailure
from .gates import GateId, d_gate
from .jsonio import dumps
from .model import PhysicalParams, evolve
from .spinlin import dist_phase_invariant

__all__ = [
    "ACCEPT_TOL",
    "FAMILY_EXCHANGE",
    "SolverOptions",
    "PrescriptionTargets",
    "PrescriptionCard",
    "prescription_targets",
    "residual_labels",
    "solve_physical",
    "cnot_family",
    "emit_card",
    "parse_card",
]

TWO_PI = 2.0 * math.pi

#: acceptance threshold on realized gate error and target residuals
ACCEPT_TOL = 1e-8

#: exchange strength held fixed across the asymptotic CNOT family
FAMILY_EXCHANGE = 1.0

_CNOT_TAGS = ("CNOT_12", "CNOT_21")
_SOLVABLE_TAGS = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1") + _CNOT_TAGS

#: transversal rotation angle of the Hadamard rows, |b| = |j| = 1/sqrt(2)
_HADAMARD_WEIGHT = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start search budget; defaults are desk-scale and deterministic."""

    n_starts: int = 64
    newton_tol: float = 1e-12
    max_iter: int = 200
    seed: int = 7
    accept_tol: float = ACCEPT_TOL


@dataclass(frozen=True)
class PrescriptionTargets:
    """Constrained reduced block quantities for one library generator.

    Angles are radians.  delta_plus_1 is the first block's phase
    target, satisfied on either sign branch (the two blocks carry
    opposite phases, which sign lands on block 1 is convention).
    j_targets and b_targets pin the longitudinal and transversal
    weights where the row fixes them and stay None where it does not.
    b_relation_sign r encodes the Hadamard rows' coupling condition
    b_k = r * q_k * beta_k * j_k.  b_abs_to_one marks the asymptotic
    drive condition |b| -> 1, which is reported, never enforced.
    """

    gate: GateId
    h: int
    delta_plus_1: float
    delta_minus_1: float
    delta_minus_2: float
    j_targets: tuple[float, float] | None = None
    b_targets: tuple[float, float] | None = None
    b_relation_sign: int | None = None
    b_abs_to_one: bool = False
    m: int | None = None
    m_prime: int | None = None


@dataclass(frozen=True)
class PrescriptionCard:
    """A solved realization: targets, physical controls, honesty numbers.

    residuals follows residual_labels(targets); realized_error is the
    phase-invariant distance between the evolution and the target gate
    in the frame arrangement; phase_branch records which sign of
    delta_plus_1 the solution landed on.
    """

    targets: PrescriptionTargets
    solved: PhysicalParams
    residuals: tuple[float, ...]
    realized_error: float
    phase_branch: int


def residual_labels(tg: PrescriptionTargets) -> tuple[str, ...]:
    """Names of the residual vector entries, in order."""
    labels = ["delta_plus", "delta_minus_1", "delta_minus_2"]
    if tg.j_targets is not None:
        labels += ["j_1", "j_2"]
    if tg.b_targets is not None or tg.b_relation_sign is not None:
        labels += ["b_1", "b_2"]
    return tuple(labels)


def _canonical_phase(phi: float) -> float:
    """Fold a phase angle into (0, 2*pi]; a zero angle means a full winding."""
    pc = math.fmod(float(phi), TWO_PI)
    if pc < 0.0:
        pc += TWO_PI
    return TWO_PI if pc == 0.0 else pc


def prescription_targets(
    g: GateId, m: int = 1, m_prime: int = 0, route: str = "printed"
) -> PrescriptionTargets:
    """Target reduced quantities for generator g.

    m and m_prime are the winding numbers of the two CNOT blocks and
    are ignored for the other generators.  route selects between the
    two published realizations of S_phi_q1: "printed" drives h=1 and
    fixes the first block's phase, "alternate" reuses the S_phi_q2
    structure on h=3.  The translator needs no pulse (it is a basis
    bookkeeping device), so it is rejected here, as are the
    computational-basis tags.
    """
    if not isinstance(g, GateId):
        raise TypeError(f"expected a GateId, got {type(g).__name__}")
    if g.tag not in _SOLVABLE_TAGS:
        raise ValueError(f"{g.tag} has no pulse prescription")
    if route not in ("printed", "alternate"):
        raise ValueError(f"route must be printed or alternate, got {route!r}")
    if route == "alternate" and g.tag != "S_phi_q1":
        raise ValueError("only S_phi_q1 has an alternate route")

    if g.tag == "S_phi_q2":
        fr = bell_frame(1)
        pc = _canonical_phase(g.phi)
        return PrescriptionTargets(
            gate=g,
            h=1,
            delta_plus_1=TWO_PI,
            delta_minus_1=pc,
            delta_minus_2=pc,
            j_targets=(float(fr.beta[0]), float(fr.beta[1])),
            b_targets=(0.0, 0.0),
        )
    if g.tag == "S_phi_q1":
        pc = _canonical_phase(g.phi)
        if route == "alternate":
            fr = bell_frame(3)
            return PrescriptionTargets(
                gate=g,
                h=3,
                delta_plus_1=TWO_PI,
                delta_minus_1=pc,
                delta_minus_2=pc,
                j_targets=(float(fr.beta[0]), float(fr.beta[1])),
                b_targets=(0.0, 0.0),
            )
        return PrescriptionTargets(
            gate=g,
            h=1,
            delta_plus_1=pc,
            delta_minus_1=TWO_PI,
            delta_minus_2=TWO_PI,
        )
    if g.tag == "H_q2":
        return PrescriptionTargets(
            gate=g,
            h=1,
            delta_plus_1=math.pi / 2,
            delta_minus_1=math.pi / 2,
            delta_minus_2=math.pi / 2,
            b_relation_sign=1,
        )
    if g.tag == "H_q1":
        return PrescriptionTargets(
            gate=g,
            h=3,
            delta_plus_1=math.pi / 2,
            delta_minus_1=math.pi / 2,
            delta_minus_2=math.pi / 2,
            b_relation_sign=-1,
        )

    m = int(m)
    m_prime = int(m_prime)
    if m < 1 or m_prime < 0:
        raise ValueError(f"CNOT windings require m >= 1, m_prime >= 0, got {m}, {m_prime}")
    return PrescriptionTargets(
        gate=g,
        h=1 if g.tag == "CNOT_12" else 3,
        delta_plus_1=math.pi / 4,
        delta_minus_1=2.0 * m * math.pi,
        delta_minus_2=math.pi / 2 + 2.0 * m_prime * math.pi,
        j_targets=(0.0, 0.0),
        b_abs_to_one=True,
        m=m,
        m_prime=m_prime,
    )


def _check_feasible(tg: PrescriptionTargets) -> None:
    for pair in (tg.j_targets, tg.b_targets):
        if pair is not None and max(abs(v) for v in pair) > 1.0 + 1e-12:
            raise ValueError(f"infeasible targets: weight outside [-1, 1] in {pair}")
    if tg.j_targets is not None and tg.b_targets is not None:
        for jv, bv in zip(tg.j_targets, tg.b_targets):
            if abs(jv * jv + bv * bv - 1.0) > 1e-9:
                raise ValueError(
                    f"infeasible targets: j^2 + b^2 = {jv * jv + bv * bv} != 1"
                )
    if tg.b_targets is not None and tg.b_relation_sign is not None:
        raise ValueError("infeasible targets: b fixed by value and by relation at once")


def _frame_target(tg: PrescriptionTargets) -> np.ndarray:
    w = d_gate(tg.gate)
    perm = frame_permutation(bell_frame(tg.h))
    return w[np.ix_(perm, perm)]


def _circ(x: float) -> float:
    """Absolute distance of an angle from 0 on the circle."""
    return abs(math.remainder(x, TWO_PI))


def _evaluate(
    tg: PrescriptionTargets, p: PhysicalParams
) -> tuple[tuple[float, ...], int, float]:
    """Residual vector, phase branch, and realized gate error of p."""
    frame = bell_frame(tg.h)
    rp1, rp2 = reduced_params(p, frame)
    d_pos = _circ(rp1.delta_plus - tg.delta_plus_1)
    d_neg = _circ(rp1.delta_plus + tg.delta_plus_1)
    branch = 1 if d_pos <= d_neg else -1
    res = [
        min(d_pos, d_neg),
        _circ(rp1.delta_minus - tg.delta_minus_1),
        _circ(rp2.delta_minus - tg.delta_minus_2),
    ]
    if tg.j_targets is not None:
        res += [abs(rp1.j - tg.j_targets[0]), abs(rp2.j - tg.j_targets[1])]
    if tg.b_targets is not None:
        res += [abs(rp1.b - tg.b_targets[0]), abs(rp2.b - tg.b_targets[1])]
    elif tg.b_relation_sign is not None:
        r = float(tg.b_relation_sign)
        res += [
            abs(rp1.b - r * frame.q[0] * frame.beta[0] * rp1.j),
            abs(rp2.b - r * frame.q[1] * frame.beta[1] * rp2.j),
        ]
    c = frame.change_of_basis
    mat = c.conj().T @ evolve(p) @ c
    err = dist_phase_invariant(mat, _frame_target(tg))
    return tuple(float(v) for v in res), branch, float(err)


def _construction(tg: PrescriptionTargets) -> PhysicalParams:
    """Closed-form controls for a published row, already in canonical gauge."""
    tag = tg.gate.tag
    if tag == "S_phi_q2":
        pc = tg.delta_minus_1
        return PhysicalParams(t=pc, J=(0.0, 0.0, 1.0), B1=0.0, B2=0.0, h=1)
    if tag == "S_phi_q1":
        if tg.h == 3:
            pc = tg.delta_minus_1
            return PhysicalParams(t=pc, J=(1.0, 0.0, 0.0), B1=0.0, B2=0.0, h=3)
        pc = tg.delta_plus_1
        return PhysicalParams(
            t=TWO_PI, J=(pc / TWO_PI, 0.0, 1.0), B1=0.0, B2=0.0, h=1
        )
    if tag == "H_q2":
        return PhysicalParams(
            t=math.pi / 2,
            J=(-1.0, -_HADAMARD_WEIGHT, 0.0),
            B1=-_HADAMARD_WEIGHT,
            B2=0.0,
            h=1,
        )
    if tag == "H_q1":
        return PhysicalParams(
            t=math.pi / 2,
            J=(0.0, -_HADAMARD_WEIGHT, -1.0),
            B1=0.0,
            B2=-_HADAMARD_WEIGHT,
            h=3,
        )
    # CNOT rows: zeroing the spectator exchanges makes j = 0 exact on
    # both blocks, so the finite-m realization is exact up to phase.
    theta_hi = (tg.delta_minus_1 + tg.delta_minus_2) / 2.0
    theta_lo = (tg.delta_minus_1 - tg.delta_minus_2) / 2.0
    t = theta_hi
    if tag == "CNOT_12":
        return PhysicalParams(
            t=t, J=(math.pi / 4 / t, 0.0, 0.0), B1=1.0, B2=theta_lo / t, h=1
        )
    return PhysicalParams(
        t=t, J=(0.0, 0.0, math.pi / 4 / t), B1=theta_lo / t, B2=1.0, h=3
    )


def _canonical_gauge(p: PhysicalParams) -> PhysicalParams:
    lam = max(abs(v) for v in (*p.J, p.B1, p.B2))
    if lam == 0.0 or abs(lam - 1.0) < 1e-15:
        return p
    return PhysicalParams(
        t=p.t * lam,
        J=tuple(j / lam for j in p.J),
        B1=p.B1 / lam,
        B2=p.B2 / lam,
        h=p.h,
    )


def _snap_trace_coupling(p: PhysicalParams, tg: PrescriptionTargets) -> PhysicalParams:
    """Move the drift phase onto the target's branch where possible.

    Shifting delta_plus by a multiple of pi rescales the gate by a global
    sign, so the matrix fit is indifferent to it; only the trace coupling
    J_h moves.  The least-squares polish therefore lands on an arbitrary
    representative, and this picks the one closest to the target.
    """
    if p.t < 1e-9:
        return p
    frame = bell_frame(tg.h)
    rp1, _ = reduced_params(p, frame)
    best_k = 0
    best_dist = min(
        _circ(rp1.delta_plus - tg.delta_plus_1),
        _circ(rp1.delta_plus + tg.delta_plus_1),
    )
    for s in (1.0, -1.0):
        k = round((s * tg.delta_plus_1 - rp1.delta_plus) / math.pi)
        dist = _circ(rp1.delta_plus + k * math.pi - s * tg.delta_plus_1)
        if dist < best_dist - 1e-15:
            best_dist = dist
            best_k = k
    if best_k == 0:
        return p
    # J_h enters only the trace part c0 = sign * J_h + ... of block 1, and
    # delta_plus = -c0 * t, so a +k pi shift lowers J_h accordingly
    sign = float(BLOCK_COEFFS[tg.h][0, 0, tg.h - 1])
    shift = best_k * math.pi / (sign * p.t)
    new_j = list(p.J)
    new_j[tg.h - 1] -= shift
    return PhysicalParams(t=p.t, J=tuple(new_j), B1=p.B1, B2=p.B2, h=p.h)


def _matrix_residual(x: np.ndarray, t: float, h: int, cob: np.ndarray, wf: np.ndarray) -> np.ndarray:
    p = PhysicalParams(t=t, J=(x[0], x[1], x[2]), B1=x[3], B2=x[4], h=h)
    mat = cob.conj().T @ evolve(p) @ cob
    ov = np.trace(wf.conj().T @ mat)
    phase = ov / abs(ov) if abs(ov) > 1e-300 else 1.0
    diff = mat - phase * wf
    return np.concatenate([diff.real.ravel(), diff.imag.ravel()])


def _polish(
    p0: PhysicalParams, wf: np.ndarray, cob: np.ndarray, opts: SolverOptions
) -> PhysicalParams:
    # imported on first use, so that import bellgate loads no scipy module
    from scipy.optimize import least_squares

    x0 = np.array([*p0.J, p0.B1, p0.B2], dtype=float)
    sol = least_squares(
        _matrix_residual,
        x0,
        args=(p0.t, p0.h, cob, wf),
        method="lm",
        xtol=opts.newton_tol,
        ftol=opts.newton_tol,
        gtol=1e-15,
        max_nfev=opts.max_iter * len(x0),
    )
    x = sol.x
    return PhysicalParams(t=p0.t, J=(x[0], x[1], x[2]), B1=x[3], B2=x[4], h=p0.h)


def solve_physical(
    tg: PrescriptionTargets, opts: SolverOptions | None = None
) -> PrescriptionCard:
    """Physical controls realizing the target set.

    The closed-form construction for the row is evaluated first and
    returned when it meets the acceptance tolerance, which keeps the
    published prescriptions recognizable in the emitted cards.  If it
    does not (hand-built target sets), a seeded multi-start damped
    least-squares search runs with the evolution time frozen per start,
    and among acceptable solutions the one with minimal duration in
    canonical gauge wins.  Exhausting the budget raises SolverFailure
    carrying the best residual seen.
    """
    opts = SolverOptions() if opts is None else opts
    _check_feasible(tg)
    frame = bell_frame(tg.h)
    wf = _frame_target(tg)
    cob = frame.change_of_basis

    seed_p = _construction(tg)
    res, branch, err = _evaluate(tg, seed_p)
    if err <= opts.accept_tol and max(res) <= opts.accept_tol:
        return PrescriptionCard(
            targets=tg,
            solved=seed_p,
            residuals=res,
            realized_error=err,
            phase_branch=branch,
        )

    rng = np.random.default_rng(opts.seed)
    best_worst = max(max(res), err)
    accepted: list[tuple[float, int, PrescriptionCard]] = []
    for start in range(opts.n_starts):
        if start == 0:
            p0 = seed_p
        elif start < 8:
            jig = rng.normal(scale=0.05, size=5)
            p0 = PhysicalParams(
                t=seed_p.t,
                J=tuple(seed_p.J[i] + jig[i] for i in range(3)),
                B1=seed_p.B1 + jig[3],
                B2=seed_p.B2 + jig[4],
                h=seed_p.h,
            )
        else:
            t0 = float(rng.uniform(0.5, 4.0 * math.pi))
            c0 = rng.uniform(-2.0, 2.0, size=5)
            p0 = PhysicalParams(
                t=t0, J=(c0[0], c0[1], c0[2]), B1=c0[3], B2=c0[4], h=tg.h
            )
        sol = _canonical_gauge(_snap_trace_coupling(_polish(p0, wf, cob, opts), tg))
        res, branch, err = _evaluate(tg, sol)
        worst = max(max(res), err)
        best_worst = min(best_worst, worst)
        if worst <= opts.accept_tol:
            accepted.append(
                (
                    sol.t,
                    start,
                    PrescriptionCard(
                        targets=tg,
                        solved=sol,
                        residuals=res,
                        realized_error=err,
                        phase_branch=branch,
                    ),
                )
            )
    if not accepted:
        raise SolverFailure(
            best_worst,
            f"no acceptable controls for {tg.gate.tag} in {opts.n_starts} starts",
        )
    accepted.sort(key=lambda item: (item[0], item[1]))
    return accepted[0][2]


def cnot_family(g: GateId, m: int, field_scale: float) -> PrescriptionCard:
    """Finite-winding CNOT approximant with unit exchange strength.

    The drive winds m times on the identity block and m + 1/4 turns on
    the swap block while the exchange axis that tilts the identity
    block stays at magnitude FAMILY_EXCHANGE.  Duration is
    1/field_scale, so growing either m or field_scale increases field
    dominance: the identity block's transversal weight |b| -> 1 and
    realized_error falls off like the fourth power of the exchange to
    field ratio.  The card is returned with its honest nonzero error,
    never polished.
    """
    if not isinstance(g, GateId) or g.tag not in _CNOT_TAGS:
        raise ValueError("cnot_family requires a CNOT gate id")
    m = int(m)
    if m < 1:
        raise ValueError(f"family winding m must be >= 1, got {m}")
    s = float(field_scale)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"field_scale must be positive and finite, got {field_scale!r}")

    tg = prescription_targets(g, m=m, m_prime=m)
    t = 1.0 / s
    half = FAMILY_EXCHANGE / 2.0
    b_hi = (2.0 * m * math.pi + math.pi / 4) * s
    b_lo = -math.pi / 4 * s
    j_drive = math.pi / 4 * s
    if g.tag == "CNOT_12":
        p = PhysicalParams(t=t, J=(j_drive, half, -half), B1=b_hi, B2=b_lo, h=1)
    else:
        p = PhysicalParams(t=t, J=(half, -half, j_drive), B1=b_lo, B2=b_hi, h=3)
    res, branch, err = _evaluate(tg, p)
    return PrescriptionCard(
        targets=tg, solved=p, residuals=res, realized_error=err, phase_branch=branch
    )


def _targets_doc(tg: PrescriptionTargets) -> dict:
    return {
        "delta_plus_1": tg.delta_plus_1,
        "delta_minus_1": tg.delta_minus_1,
        "delta_minus_2": tg.delta_minus_2,
        "j_targets": list(tg.j_targets) if tg.j_targets is not None else None,
        "b_targets": list(tg.b_targets) if tg.b_targets is not None else None,
        "b_relation_sign": tg.b_relation_sign,
        "b_abs_to_one": tg.b_abs_to_one,
        "m_prime": tg.m_prime,
    }


def emit_card(card: PrescriptionCard) -> str:
    """Serialize a card to deterministic JSON; parse_card inverts losslessly."""
    g = card.targets.gate
    p = card.solved
    doc = {
        "gate": g.tag,
        "phi": g.phi,
        "h": card.targets.h,
        "m": card.targets.m,
        "targets": _targets_doc(card.targets),
        "solved": {"t": p.t, "J": list(p.J), "B1": p.B1, "B2": p.B2},
        "residuals": list(card.residuals),
        "realized_error": card.realized_error,
        "phase_branch": card.phase_branch,
    }
    return dumps(doc, indent=2)


def parse_card(text: str) -> PrescriptionCard:
    """Rebuild a card from its JSON document."""
    doc = json.loads(text)
    try:
        g = GateId(tag=doc["gate"], phi=doc["phi"])
        td = doc["targets"]
        tg = PrescriptionTargets(
            gate=g,
            h=doc["h"],
            delta_plus_1=float(td["delta_plus_1"]),
            delta_minus_1=float(td["delta_minus_1"]),
            delta_minus_2=float(td["delta_minus_2"]),
            j_targets=tuple(td["j_targets"]) if td["j_targets"] is not None else None,
            b_targets=tuple(td["b_targets"]) if td["b_targets"] is not None else None,
            b_relation_sign=td["b_relation_sign"],
            b_abs_to_one=bool(td["b_abs_to_one"]),
            m=doc["m"],
            m_prime=td["m_prime"],
        )
        sv = doc["solved"]
        p = PhysicalParams(
            t=sv["t"], J=tuple(sv["J"]), B1=sv["B1"], B2=sv["B2"], h=doc["h"]
        )
        return PrescriptionCard(
            targets=tg,
            solved=p,
            residuals=tuple(float(r) for r in doc["residuals"]),
            realized_error=float(doc["realized_error"]),
            phase_branch=int(doc["phase_branch"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed card document: {exc}") from exc
