"""Pulse prescriptions realizing the Bell-basis gate library.

Each library generator comes out of one free evolution of the driven
model.  prescription_targets transcribes the generator's reduced block
targets, solve_physical turns a target set into physical controls
(t, J, B) together with honesty numbers (per-constraint residuals and
the realized gate error), and cnot_family builds the finite-winding
controlled-NOT approximants whose error vanishes as the driving field
dominates the exchange.

The published rows, with the targets on the left and the closed-form
controls that realize them on the right.  d+ is delta_plus_1 and d-
the pair (delta_minus_1, delta_minus_2); pc is phi folded into
(0, 2 pi], w = 1/sqrt(2), and for the windings m, m_prime of a CNOT row
D = pi/2 + 2 pi m_prime, T = pi (m + m_prime) + pi/4 and
L = pi (m - m_prime) - pi/4:

    row          h  d+    d-            pins           t     (J1, J2, J3)    B1, B2
    S_phi_q2     1  2pi   pc, pc        j = beta, b=0  pc    (0, 0, 1)       0, 0
    S_phi_q1     1  pc    2pi, 2pi      -              2pi   (pc/2pi, 0, 1)  0, 0
    (alternate)  3  2pi   pc, pc        j = beta, b=0  pc    (1, 0, 0)       0, 0
    H_q2         1  pi/2  pi/2, pi/2    b = q beta j   pi/2  (-1, -w, 0)     -w, 0
    H_q1         3  pi/2  pi/2, pi/2    b = -q beta j  pi/2  (0, -w, -1)     0, -w
    CNOT_12      1  pi/4  2pi m, D      j = 0          T     (pi/(4T), 0, 0) 1, L/T
    CNOT_21      3  pi/4  2pi m, D      j = 0          T     (0, 0, pi/(4T)) L/T, 1

A target set equal to its gate's published row gets those controls.
Any other target set is synthesized by exact inversion, not a search.
In the frame of axis h each block restriction c0 + c . sigma is linear
in the couplings, and five of its coordinates (c0 of block 1, block 2
carrying -c0, and the transversal and longitudinal components of c in
each block) are a one-to-one 0/+-1 image of (J1, J2, J3, B1, B2).  At
t = 1 a target row fixes these coordinates up to a finite choice:

- phase branch: c0 = -s r with s = +-1 and r the drift target folded
  into [-pi, pi].  The residual accepts exactly the phases +-r + 2 pi n,
  and |c0| is one of the couplings, so every other branch is longer;
- rotation angle, taken literally: |c_k| = delta_minus_k.  A card winds
  as often as its row asks, so the windings m, m_prime of a CNOT row
  are realized as given, not folded mod 2 pi;
- axis n_k = c_k / |c_k|: fixed where the row pins (b_k, j_k), a sign
  choice where it pins one weight or the Hadamard relation, the axis of
  the target gate's frame block (up to sign) where it pins neither, and,
  where that block is a multiple of the identity so that no axis is
  visible, the axis of the shortest pulse (closed form).

The inverse of that 5x5 map is a fixed table with at most two
entries per row, so each choice's couplings x are signed two-term sums
of its block coordinates, and max|x| is the choice's canonical
duration.  Candidates are tried shortest first, ties in enumeration
order (phase sign +1 first, then block 1's axis choices, then block
2's, the positive sign of a free weight first), and each one is checked
against the row with one run of the point kernel, the block
coordinates of its one coupling row.  The solver runs on Python floats
end to end and loads no numpy: its tables are literals, and it reads
gates and frames through the numpy-free modules gateid and
pointkernel.

Gauge convention: a solved card is normalized so the largest coupling
magnitude is 1 and the duration carries the overall scale.  Family
cards instead keep unit exchange strength so the field_scale knob
retains its meaning.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .checks import (
    ACCEPT_TOL,
    INVISIBLE_AXIS_TOL,
    RECOMPUTE_TOL,
    SOLVABLE_TAGS,
    UNIT_CIRCLE_TOL,
    WEIGHT_TOL,
    strict_bool,
    strict_float,
    strict_int,
    strict_reals,
)
from .errors import SolverFailure
from .gateid import _PHASE_DIAGONAL, GateId
from .jsonio import fields
from .params import PhysicalParams
from .pointkernel import _FRAME_ORDER, _SIGNS, _TRANSVERSAL, _axis, _block_maps, _point_coefficients, _reduced

__all__ = [
    "FAMILY_EXCHANGE",
    "SOLVABLE_TAGS",
    "PrescriptionTargets",
    "PrescriptionCard",
    "prescription_targets",
    "solve_physical",
    "cnot_family",
]

TWO_PI = 2.0 * math.pi

#: exchange strength held fixed across the asymptotic CNOT family
FAMILY_EXCHANGE = 1.0

_CNOT_TAGS = ("CNOT_12", "CNOT_21")

#: largest m + m_prime of a CNOT row: its angles, up to 2 pi (m + m_prime) + pi / 2, stay finite
_MAX_WINDINGS = sys.float_info.max / (2.0 * TWO_PI)

#: transversal rotation angle of the Hadamard rows, |b| = |j| = 1/sqrt(2)
_HADAMARD_WEIGHT = 1.0 / math.sqrt(2.0)


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

    A target set that builds is one the card reader accepts.  Each value
    field holds what its check returns, so a malformed field raises the
    card reader's error for it.
    Then the gate must have a published row, a CNOT row must carry
    windings m >= 1, m_prime >= 0 that give its rotations (2 pi m, pi/2 +
    2 pi m_prime) and no other row any, and the weights must be feasible.
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

    def __post_init__(self):
        if not isinstance(self.gate, GateId):
            raise TypeError(f"expected a GateId, got {type(self.gate).__name__}")
        # the rotations as given, so that the windings message prints an integer 3 as 3
        dm = (self.delta_minus_1, self.delta_minus_2)
        for name, check, nullable in _TARGET_CHECKS:
            v = getattr(self, name)
            if v is not None or not nullable:
                object.__setattr__(self, name, check(name, v))
        tag, windings = self.gate.tag, (self.m, self.m_prime)
        if tag not in SOLVABLE_TAGS:
            raise ValueError(f"{tag} has no pulse prescription")
        if tag in _CNOT_TAGS and windings == (None, None):
            raise ValueError("a CNOT card carries its windings m and m_prime, got null for both")
        if windings != (None, None) and (tag not in _CNOT_TAGS or _cnot_rotations(*windings) != dm):
            raise ValueError(f"only CNOT cards carry windings, and m = {self.m}, m_prime = {self.m_prime} "
                             f"must give the card's delta_minus {dm[0]!r}, {dm[1]!r}")
        _check_feasible(self)


#: each value field's check and whether None passes it, in the order the card reader meets them
_TARGET_CHECKS = (
    *((name, strict_float, False) for name in ("delta_plus_1", "delta_minus_1", "delta_minus_2")),
    *((name, lambda n, v: strict_reals(n, v, 2), True) for name in ("j_targets", "b_targets")),
    ("b_abs_to_one", strict_bool, False),
    *((name, strict_int, True) for name in ("m", "m_prime")),
    ("b_relation_sign", lambda n, v: strict_int(n, v, (1, -1)), True),
    ("h", lambda n, v: strict_int("field axis h", v, (1, 2, 3)), False),
)


#: a target set as a plain tuple of PrescriptionTargets' fields, in order and with their defaults
_Row = namedtuple(
    "_Row",
    [f.name for f in dataclasses.fields(PrescriptionTargets)],
    defaults=[f.default for f in dataclasses.fields(PrescriptionTargets) if f.default is not dataclasses.MISSING],
)
#: the fields of a PrescriptionTargets as one tuple, in _Row order
_fields_of = operator.attrgetter(*_Row._fields)


_CARD_KEYS = ("gate", "phi", "h", "m", "targets", "solved",
              "residuals", "realized_error", "phase_branch")
_TARGET_KEYS = ("delta_plus_1", "delta_minus_1", "delta_minus_2", "j_targets", "b_targets",
                "b_relation_sign", "b_abs_to_one", "m_prime")
_target_values = operator.attrgetter(*_TARGET_KEYS)


@dataclass(frozen=True)
class PrescriptionCard:
    """A solved realization: targets, physical controls, honesty numbers.

    residuals are in the order delta_plus, delta_minus_1, delta_minus_2,
    then j_1, j_2 where the targets pin j, then b_1, b_2 where they pin
    b by value or by the Hadamard relation; a solver failure names a
    residual by these names.  realized_error is the
    phase-invariant distance between the evolution and the target gate
    in the frame arrangement; phase_branch records which sign of
    delta_plus_1 the solution landed on.
    """

    targets: PrescriptionTargets
    solved: PhysicalParams
    residuals: tuple[float, ...]
    realized_error: float
    phase_branch: int

    def to_doc(self) -> dict:
        tg, p = self.targets, self.solved
        return {
            "gate": tg.gate.tag,
            "phi": tg.gate.phi,
            "h": tg.h,
            "m": tg.m,
            # a pair is a tuple on the target set and a list in the document
            "targets": {k: list(v) if type(v) is tuple else v
                        for k, v in zip(_TARGET_KEYS, _target_values(tg))},
            "solved": {"t": p.t, "J": list(p.J), "B1": p.B1, "B2": p.B2},
            "residuals": list(self.residuals),
            "realized_error": self.realized_error,
            "phase_branch": self.phase_branch,
        }

    @classmethod
    def from_doc(cls, doc) -> "PrescriptionCard":
        """Read a card document with exactly the keys to_doc writes, each of its type.

        The honesty numbers are recomputed from the targets and controls:
        a document whose residual count differs from the recomputation,
        whose residuals or realized_error differ by more than
        RECOMPUTE_TOL, or whose phase_branch differs where the two branch
        distances are more than RECOMPUTE_TOL apart, is rejected.  The
        card carries the recomputed numbers.
        """
        tag, phi, h, m, td, sv, res, err, branch = fields(doc, "card", _CARD_KEYS)
        targets = dict(zip(_TARGET_KEYS, fields(td, "card", _TARGET_KEYS)))
        t, J, B1, B2 = fields(sv, "card", ("t", "J", "B1", "B2"))
        tg = PrescriptionTargets(gate=GateId(tag=tag, phi=phi), h=h, m=m, **targets)
        p = PhysicalParams(t=t, J=strict_reals("J", J, 3), B1=B1, B2=B2, h=h)
        stored_res = strict_reals("residuals", res)
        stored_err = strict_float("realized_error", err)
        stored_branch = strict_int("phase_branch", branch, (1, -1))
        e = _evaluate(tg, p, _target_blocks(tg))
        res = tuple(e.residuals.values())
        if len(stored_res) != len(res):
            raise ValueError(
                f"card residual count {len(stored_res)} differs from its recomputation {len(res)}"
            )
        if stored_branch != e.phase_branch and e.branch_margin > RECOMPUTE_TOL:
            raise ValueError(
                f"card phase_branch {stored_branch} differs from its recomputation {e.phase_branch}"
            )
        worst = max(abs(a - b) for a, b in zip(stored_res + (stored_err,), res + (e.realized_error,)))
        if worst > RECOMPUTE_TOL:
            raise ValueError(
                f"card residuals and realized_error differ from their recomputation by {worst!r}"
            )
        return _card(tg, p, e)


def _canonical_phase(phi: float) -> float:
    """Fold a phase angle into (0, 2*pi]; a zero angle means a full winding.

    An angle in (0, 2*pi] is its own fold.  Any other is folded as the
    gate's exp(-+i phi) folds it, by the exact 2*pi: the angle of
    (cos phi, sin phi).  A fold by the rounded 2*pi would be off by the
    winding count times its rounding, 3.9e-4 at phi = 1e13.
    """
    phi = float(phi)
    if 0.0 < phi <= TWO_PI:
        return phi
    pc = math.atan2(math.sin(phi), math.cos(phi))
    return pc + TWO_PI if pc <= 0.0 else pc


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
    return PrescriptionTargets(*_published_row(g, m, m_prime, route)[0])


def _published_row(
    g: GateId, m: int, m_prime: int, route: str
) -> tuple[_Row, Callable[[], PhysicalParams]]:
    """One row of the published table: its targets as a _Row, and a call that builds its closed-form controls in canonical gauge."""
    if not isinstance(g, GateId):
        raise TypeError(f"expected a GateId, got {type(g).__name__}")
    if g.tag not in SOLVABLE_TAGS:
        raise ValueError(f"{g.tag} has no pulse prescription")
    if route not in ("printed", "alternate"):
        raise ValueError(f"route must be printed or alternate, got {route!r}")
    if route == "alternate" and g.tag != "S_phi_q1":
        raise ValueError("only S_phi_q1 has an alternate route")

    tag = g.tag
    if tag == "S_phi_q2" or route == "alternate":
        # the phase is both blocks' rotation, one exchange coupling drives it
        h = 1 if tag == "S_phi_q2" else 3
        beta = _SIGNS[h][1]
        pc = _canonical_phase(g.phi)
        row = _Row(
            gate=g,
            h=h,
            delta_plus_1=TWO_PI,
            delta_minus_1=pc,
            delta_minus_2=pc,
            j_targets=(float(beta[0]), float(beta[1])),
            b_targets=(0.0, 0.0),
        )
        J = (0.0, 0.0, 1.0) if h == 1 else (1.0, 0.0, 0.0)
        return row, lambda: PhysicalParams(t=pc, J=J, B1=0.0, B2=0.0, h=h)
    if tag == "S_phi_q1":
        pc = _canonical_phase(g.phi)
        row = _Row(gate=g, h=1, delta_plus_1=pc, delta_minus_1=TWO_PI, delta_minus_2=TWO_PI)
        return row, lambda: PhysicalParams(t=TWO_PI, J=(pc / TWO_PI, 0.0, 1.0), B1=0.0, B2=0.0, h=1)
    if tag in ("H_q2", "H_q1"):
        h = 1 if tag == "H_q2" else 3
        row = _Row(
            gate=g,
            h=h,
            delta_plus_1=math.pi / 2,
            delta_minus_1=math.pi / 2,
            delta_minus_2=math.pi / 2,
            b_relation_sign=1 if h == 1 else -1,
        )
        w = _HADAMARD_WEIGHT
        if h == 1:
            return row, lambda: PhysicalParams(t=math.pi / 2, J=(-1.0, -w, 0.0), B1=-w, B2=0.0, h=1)
        return row, lambda: PhysicalParams(t=math.pi / 2, J=(0.0, -w, -1.0), B1=0.0, B2=-w, h=3)

    dm1, dm2 = _cnot_rotations(m, m_prime)
    h = 1 if tag == "CNOT_12" else 3
    row = _Row(
        gate=g,
        h=h,
        delta_plus_1=math.pi / 4,
        delta_minus_1=dm1,
        delta_minus_2=dm2,
        j_targets=(0.0, 0.0),
        b_abs_to_one=True,
        m=m,
        m_prime=m_prime,
    )
    # zeroing the spectator exchanges makes j = 0 exact on both blocks, so
    # the finite-m realization is exact up to phase
    t = (row.delta_minus_1 + row.delta_minus_2) / 2.0
    lo = (row.delta_minus_1 - row.delta_minus_2) / 2.0 / t
    if tag == "CNOT_12":
        return row, lambda: PhysicalParams(t=t, J=(math.pi / 4 / t, 0.0, 0.0), B1=1.0, B2=lo, h=1)
    return row, lambda: PhysicalParams(t=t, J=(0.0, 0.0, math.pi / 4 / t), B1=lo, B2=1.0, h=3)


def _cnot_rotations(m, m_prime) -> tuple[float, float]:
    """The rotations (2 pi m, pi/2 + 2 pi m_prime) of a CNOT row's windings, which must be in bounds."""
    m = strict_int("m", m)
    m_prime = strict_int("m_prime", m_prime)
    if m < 1 or m_prime < 0 or m + m_prime > _MAX_WINDINGS:
        limits = f"m >= 1, m_prime >= 0 and m + m_prime <= {_MAX_WINDINGS:.3g}"
        raise ValueError(f"CNOT windings require {limits}, got {m}, {m_prime}")
    return 2.0 * m * math.pi, math.pi / 2 + 2.0 * m_prime * math.pi


def _check_feasible(tg: PrescriptionTargets) -> None:
    for pair in (tg.j_targets, tg.b_targets):
        if pair is not None and max(abs(v) for v in pair) > 1.0 + WEIGHT_TOL:
            raise ValueError(f"infeasible targets: weight outside [-1, 1] in {pair}")
    if tg.j_targets is not None and tg.b_targets is not None:
        for jv, bv in zip(tg.j_targets, tg.b_targets):
            if abs(jv * jv + bv * bv - 1.0) > UNIT_CIRCLE_TOL:
                raise ValueError(f"infeasible targets: j^2 + b^2 = {jv * jv + bv * bv} != 1")
    if tg.b_targets is not None and tg.b_relation_sign is not None:
        raise ValueError("infeasible targets: b fixed by value and by relation at once")


#: Pauli coordinates (w0, wx, wy, wz) of both frame blocks of each gate without a phase
#: angle, on every axis: the projection of the gate's frame-order matrix, which the
#: tests recompute.  Every coordinate is real.
_FIXED_BLOCKS = {
    key: tuple(tuple(complex(v) for v in block) for block in blocks)
    for key, blocks in {
        ("H_q2", 1): ((0.0, _HADAMARD_WEIGHT, 0.0, _HADAMARD_WEIGHT), (0.0, _HADAMARD_WEIGHT, 0.0, _HADAMARD_WEIGHT)),
        ("H_q2", 2): ((0.0, 0.0, 0.0, _HADAMARD_WEIGHT), (0.0, 0.0, 0.0, -_HADAMARD_WEIGHT)),
        ("H_q2", 3): ((_HADAMARD_WEIGHT, 0.0, 0.0, 0.0), (-_HADAMARD_WEIGHT, 0.0, 0.0, 0.0)),
        ("H_q1", 1): ((_HADAMARD_WEIGHT, 0.0, 0.0, 0.0), (-_HADAMARD_WEIGHT, 0.0, 0.0, 0.0)),
        ("H_q1", 2): ((0.0, 0.0, 0.0, _HADAMARD_WEIGHT), (0.0, 0.0, 0.0, _HADAMARD_WEIGHT)),
        ("H_q1", 3): ((0.0, _HADAMARD_WEIGHT, 0.0, _HADAMARD_WEIGHT), (0.0, _HADAMARD_WEIGHT, 0.0, _HADAMARD_WEIGHT)),
        ("CNOT_12", 1): ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
        ("CNOT_12", 2): ((0.5, 0.0, 0.0, 0.5), (0.5, 0.0, 0.0, 0.5)),
        ("CNOT_12", 3): ((0.5, 0.0, 0.0, 0.5), (0.5, 0.0, 0.0, 0.5)),
        ("CNOT_21", 1): ((0.5, 0.0, 0.0, 0.5), (0.5, 0.0, 0.0, 0.5)),
        ("CNOT_21", 2): ((0.5, 0.0, 0.0, 0.5), (0.5, 0.0, 0.0, -0.5)),
        ("CNOT_21", 3): ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
    }.items()
}


def _target_blocks(tg: PrescriptionTargets) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Pauli coordinates (w0, wx, wy, wz) of both frame blocks of tg's gate, as two tuples of complex.

    A gate without a phase angle reads them from the literal table
    _FIXED_BLOCKS.  A phase gate is diagonal: block k holds the entries
    e_u, e_v of its two frame slots, each one of e^{-+i phi} as the
    gate's diagonal pattern places it, and is ((e_u + e_v) / 2, 0, 0,
    (e_u - e_v) / 2).  cmath.exp gives the bits of the np.exp that
    d_gate calls, and adding 0j turns a signed zero into +0, as the
    projection's +0 start does, so these keep the bits of the gate
    matrix's projection.
    """
    w = _FIXED_BLOCKS.get((tg.gate.tag, tg.h))
    if w is not None:
        return w
    diagonal = _PHASE_DIAGONAL[tg.gate.tag]
    # the gate's entries, in frame order
    e = (cmath.exp(-1j * tg.gate.phi), cmath.exp(1j * tg.gate.phi))
    u = [e[diagonal[i]] for i in _FRAME_ORDER[tg.h]]
    return tuple((0j + (eu + ev) / 2, 0j, 0j, 0j + (eu - ev) / 2) for eu, ev in (u[:2], u[2:]))


def _circ(a: float, b: float) -> float:
    """Absolute distance of the angle a - b from 0 on the circle; finite for any two finite angles.

    Where a - b overflows, the difference of the two angles' remainders
    modulo 2 pi, each exact, is the same angle on the circle.
    """
    d = a - b
    if math.isinf(d):
        d = math.remainder(a, TWO_PI) - math.remainder(b, TWO_PI)
    return abs(math.remainder(d, TWO_PI))


class _Evaluation(NamedTuple):
    """What one point-kernel run measures of controls against a target set.

    residuals maps each residual's name to its value, in PrescriptionCard
    order.  branch_margin is how far apart the distances to the two signs
    of delta_plus_1 are; it is 0 up to rounding where delta_plus_1 is a
    multiple of pi and both branches are the same phase.  b_abs is block
    1's |b|, the drive weight of a CNOT family card.
    """

    residuals: dict[str, float]
    phase_branch: int
    realized_error: float
    branch_margin: float
    b_abs: float


def _block_distance(s, w) -> float:
    """||e^{i theta} s - w||^2 / 4 over the Pauli coordinates of both blocks, theta = arg (s . w).

    s and w hold both blocks' four complex coordinates, as _block_maps
    and _target_blocks give them.  Both sums are fixed-order float sums:
    they run left to right from zero over the eight coordinates, block
    1's (1, x, y, z) and then block 2's.  s . w adds conj(s_k) w_k, the
    distance adds re^2 + im^2 of each e^{i theta} s_k - w_k.
    """
    z = 0j
    for sb, wb in zip(s, w):
        for a, b in zip(sb, wb):
            z += a.conjugate() * b
    # the phase by atan2: a subnormal s . w must neither be divided by nor underflow
    rot = cmath.rect(1.0, math.atan2(z.imag, z.real))
    err = 0.0
    for sb, wb in zip(s, w):
        for a, b in zip(sb, wb):
            d = rot * a - b
            err += d.real * d.real + d.imag * d.imag
    return err / 4.0


def _evaluate(tg: PrescriptionTargets, p: PhysicalParams, w) -> _Evaluation:
    """The residuals, phase branch and realized gate error of p against tg, as one record.

    The realized error ||e^{i theta} u - w||_F^2 / 8 of the frame
    propagator u is a sum over its block maps s_k and the target blocks
    w_k (_target_blocks), 2 |e^{i theta} s_k - w_k|^2 each in Pauli
    coordinates, theta = arg (s . w) (_block_distance).  The point
    kernel runs once; the reduced parameters and the block maps both
    read its coefficients, and all of it is Python floats.
    """
    c, norms = _point_coefficients((*p.J, p.B1, p.B2), tg.h)
    (dplus1, dminus1, b1, j1), (_, dminus2, b2, j2) = _reduced(c, norms, p.t, tg.h)
    d_pos = _circ(dplus1, tg.delta_plus_1)
    d_neg = _circ(dplus1, -tg.delta_plus_1)
    res = {
        "delta_plus": min(d_pos, d_neg),
        "delta_minus_1": _circ(dminus1, tg.delta_minus_1),
        "delta_minus_2": _circ(dminus2, tg.delta_minus_2),
    }
    if tg.j_targets is not None:
        res["j_1"], res["j_2"] = abs(j1 - tg.j_targets[0]), abs(j2 - tg.j_targets[1])
    if tg.b_targets is not None:
        res["b_1"], res["b_2"] = abs(b1 - tg.b_targets[0]), abs(b2 - tg.b_targets[1])
    elif tg.b_relation_sign is not None:
        r = float(tg.b_relation_sign)
        _, beta, q = _SIGNS[tg.h]
        res["b_1"] = abs(b1 - r * q[0] * beta[0] * j1)
        res["b_2"] = abs(b2 - r * q[1] * beta[1] * j2)
    return _Evaluation(
        residuals={name: float(v) for name, v in res.items()},
        phase_branch=1 if d_pos <= d_neg else -1,
        realized_error=_block_distance(_block_maps(p.t, c, norms), w),
        branch_margin=abs(d_pos - d_neg),
        b_abs=abs(b1),
    )


def _card(tg: PrescriptionTargets, p: PhysicalParams, e: _Evaluation) -> PrescriptionCard:
    """The card of controls p for tg, with the honesty numbers of their evaluation e."""
    return PrescriptionCard(tg, p, tuple(e.residuals.values()), e.realized_error, e.phase_branch)


def _closed_form(tg: PrescriptionTargets) -> PhysicalParams | None:
    """Closed-form controls of tg if it is the published row of its gate, route and windings.

    The row is a _Row, compared with tg's fields as one tuple; only a
    target equal to its row builds the row's controls.
    """
    route = "alternate" if tg.gate.tag == "S_phi_q1" and tg.h == 3 else "printed"
    m = 1 if tg.m is None else tg.m
    m_prime = 0 if tg.m_prime is None else tg.m_prime
    row, controls = _published_row(tg.gate, m, m_prime, route)
    return controls() if _fields_of(tg) == row else None


#: couplings (J1, J2, J3, B1, B2) at t = 1 from the five block coordinates y: c0 of
#: block 1, then the transversal and the longitudinal component of each block.
#: Block 2's c0 is minus block 1's and its other transversal component vanishes, so
#: these five fix both restrictions.  Each coupling pair enters one block as a sum
#: and the other as a difference, so the 0/+-1 columns of the forward map are
#: orthogonal and its inverse, the transpose over the squared column norms, is
#: exact, with at most two nonzero entries per row.  Coupling i is listed as
#: (j, a, k, b), the coupling being a y_j + b y_k; a missing term reads y_5, a
#: zero.  The tests recompute the inverse from the stacked coefficient map.
_INVERSE = {
    1: ((0, 1.0, 5, 1.0), (2, -0.5, 4, 0.5), (2, 0.5, 4, 0.5), (1, -0.5, 3, 0.5), (1, -0.5, 3, -0.5)),
    2: ((2, 0.5, 4, 0.5), (0, -1.0, 5, 1.0), (2, 0.5, 4, -0.5), (1, 0.5, 3, 0.5), (1, -0.5, 3, 0.5)),
    3: ((2, 0.5, 4, 0.5), (2, -0.5, 4, 0.5), (0, 1.0, 5, 1.0), (1, -0.5, 3, -0.5), (1, -0.5, 3, 0.5)),
}


def _axis_choices(
    tg: PrescriptionTargets, block: int, w: tuple[complex, ...]
) -> list[tuple[float, ...]] | None:
    """Rotation axes the row allows for one block, in tie-break order.

    Pinned weights give one axis, a weight pinned alone or the Hadamard
    relation give two (the free weight's sign, positive first).  A block
    with neither takes the axis of the target gate's frame block, of Pauli
    coordinates w, up to sign (its largest component positive first);
    None marks the case where w is a multiple of the identity, so that no
    axis is visible and the caller picks one by pulse length.
    """
    _, beta, q = _SIGNS[tg.h]
    k = block - 1
    j = None if tg.j_targets is None else tg.j_targets[k]
    b = None if tg.b_targets is None else tg.b_targets[k]
    if tg.b_relation_sign is not None:
        rel = tg.b_relation_sign * q[k] * beta[k]
        js = [j] if j is not None else [_HADAMARD_WEIGHT, -_HADAMARD_WEIGHT]
        pairs = [(rel * jv, jv) for jv in js]
    elif j is not None and b is not None:
        pairs = [(b, j)]
    elif j is not None:
        other = math.sqrt(max(0.0, 1.0 - j * j))
        pairs = [(other, j), (-other, j)]
    elif b is not None:
        other = math.sqrt(max(0.0, 1.0 - b * b))
        pairs = [(b, other), (b, -other)]
    else:
        # w = e^{i theta} (cos a - i sin a n . sigma): the Pauli components
        # of w are one complex phase times the real vector sin(a) n
        a = w[1:]
        size = [abs(v) for v in a]
        top = size.index(max(size))
        if size[top] <= INVISIBLE_AXIS_TOL:
            return None
        phase = size[top] / a[top]
        n = [(v * phase).real for v in a]
        norm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        n = tuple(v / norm for v in n)
        return [n, tuple(-v for v in n)]
    pairs = list(dict.fromkeys(pairs))
    return [_axis(bv, jv, tg.h, block) for bv, jv in pairs]


def _free_angle(a0: float, b0: float, r: float) -> float:
    """Angle in [0, pi/2] that minimises max(a0 + r cos, b0 + r sin)."""
    # cos - sin falls from 1 to -1 across the quarter turn; the crossing
    # of the falling and the rising term is the minimax when it exists
    u = (b0 - a0) / r if r > 0.0 else 1.0
    if u >= 1.0:
        return 0.0
    if u <= -1.0:
        return math.pi / 2
    return math.acos(u / math.sqrt(2.0)) - math.pi / 4


def _fill_invisible(
    axes: list[list[tuple[float, ...]] | None], rot: tuple[float, float], tr: int
) -> list[list[tuple[float, ...]]]:
    """Replace invisible axes by the in-plane axes of the shortest pulse.

    The inverse pairs the couplings so that, at t = 1, max|x| is
    max(|c0|, (|T_1| + |T_2|) / 2, (|L_1| + |L_2|) / 2), with T and L the
    transversal and longitudinal coordinates.  An invisible axis at angle
    th from the transversal direction adds r (cos th, sin th) to the two
    sums and is set to minimise the larger one.  With both axes invisible
    the optimum keeps one axis on a quarter-turn edge (inside the square
    both sums can fall together); the best edge puts the smaller rotation
    on the transversal axis and balances the larger one against it.
    """

    def only_axis(th: float) -> list[tuple[float, ...]]:
        n = [0.0, 0.0, math.sin(th)]
        n[tr - 1] = math.cos(th)
        return [tuple(n)]

    axes = list(axes)
    if axes[0] is None and axes[1] is None:
        axes[0 if rot[0] <= rot[1] else 1] = only_axis(0.0)
    for f in (0, 1):
        if axes[f] is None:
            # a visible block's axis choices differ only in sign
            n = axes[1 - f][0]
            r = rot[1 - f]
            axes[f] = only_axis(_free_angle(r * abs(n[tr - 1]), r * abs(n[2]), rot[f]))
    return axes


def _candidates(tg: PrescriptionTargets, w) -> Iterator[PhysicalParams]:
    """Every finite inversion choice as canonical controls, shortest first; w as _target_blocks gives it.

    Ties in duration keep enumeration order: phase sign +1 before -1,
    then block 1's axis choices, then block 2's, each in the order of
    _axis_choices.  The choices are scored and sorted up front; each one
    becomes PhysicalParams only when the caller asks for it.  A
    choice's couplings x = _INVERSE y are fixed-order float sums: each
    product a y_j is rounded, the at most two products of a row are
    added in column order, and a zero start turns a -0.0 sum into +0.0.
    The products are exact but for a subnormal y_j times 0.5, which
    rounds before the sum (a fused multiply-add would not).
    """
    h = tg.h
    tr = _TRANSVERSAL[h]
    rot = (tg.delta_minus_1, tg.delta_minus_2)
    axes = _fill_invisible([_axis_choices(tg, k, w[k - 1]) for k in (1, 2)], rot, tr)
    # every drift phase the residual accepts is +-r + 2 pi n; beyond +-r
    # a branch only lengthens the pulse, since |c0| is one of the couplings
    r = math.remainder(tg.delta_plus_1, TWO_PI)
    terms = _INVERSE[h]
    xs, lams = [], []
    for s, n1, n2 in itertools.product((1.0, -1.0), axes[0], axes[1]):
        y = (-s * r, rot[0] * n1[tr - 1], rot[0] * n1[2], rot[1] * n2[tr - 1], rot[1] * n2[2], 0.0)
        x = [0.0 + a * y[j] + b * y[k] for j, a, k, b in terms]
        xs.append(x)
        lams.append(max(abs(v) for v in x))
    # a stable sort: ties keep enumeration order
    for i in sorted(range(len(lams)), key=lams.__getitem__):
        lam = lams[i]
        xi = [v / lam for v in xs[i]] if lam else xs[i]
        yield PhysicalParams(t=lam, J=(xi[0], xi[1], xi[2]), B1=xi[3], B2=xi[4], h=h)


def solve_physical(tg: PrescriptionTargets) -> PrescriptionCard:
    """Physical controls realizing the target set.

    A published row (the one prescription_targets returns for the gate,
    route and windings of tg) gets its closed-form construction, which
    keeps the published prescriptions recognizable in the emitted cards.
    The row is compared with tg as a plain tuple (_closed_form), and the
    target blocks of a phase gate come from its diagonal (_target_blocks),
    so a shifted target builds no PrescriptionTargets for its row and no
    gate matrix.  Any other target set is inverted exactly (see the module
    docstring) and the shortest accepted candidate is returned, ties in
    enumeration order; candidates after it are never built.  A candidate
    is accepted when its realized gate error and every residual are at
    most ACCEPT_TOL.  If none is accepted, SolverFailure carries the smallest
    worst residual seen and the candidate that has it, and its message
    names that residual and the candidate's duration and gives the
    number of candidates, all of them tried.
    """
    w = _target_blocks(tg)
    closed = _closed_form(tg)
    attempts = [closed] if closed is not None else _candidates(tg, w)
    best_worst, name, best = math.inf, None, None
    tried = 0
    for p in attempts:
        tried += 1
        e = _evaluate(tg, p, w)
        res, err = e.residuals, e.realized_error
        if err <= ACCEPT_TOL and max(res.values()) <= ACCEPT_TOL:
            return _card(tg, p, e)
        worst = max(max(res.values()), err)
        if worst < best_worst:
            # the first entry at the worst value, in card order
            best_worst, best = worst, p
            name = next(k for k, v in (*res.items(), ("realized_error", err)) if v == worst)
    at = "" if best is None else f", at t = {best.t:.3e},"
    raise SolverFailure(
        best_worst,
        f"no acceptable controls for {tg.gate.tag}: {tried} candidates missed; the closest{at} "
        f"has worst residual {best_worst:.3e} ({name}) against ACCEPT_TOL {ACCEPT_TOL:.0e}",
        best,
    )


def cnot_family(g: GateId, m: int, field_scale: float) -> PrescriptionCard:
    """Finite-winding CNOT approximant with unit exchange strength.

    The drive winds m times on the identity block and m + 1/4 turns on
    the swap block while the exchange E = FAMILY_EXCHANGE tilts the
    identity block's axis.  Duration is t = 1/fs, fs = field_scale, so
    the field B ~ 2 pi m fs dominates as m or fs grow: |b| -> 1, and the
    identity block overshoots its m windings by E^2 t / (2 B) =
    1 / (4 pi m fs^2) =: d, a gate error of d^2 / 4.  So realized_error ~
    1 / (64 pi^2 m^2 fs^4), relative next term about -1 / (8 pi^2 m^2 fs^2).
    The card keeps its honest nonzero error; m is bounded as in its CNOT row.
    """
    return _family_card(g, m, field_scale)[0]


def _family_card(g: GateId, m: int, field_scale: float) -> tuple[PrescriptionCard, _Evaluation]:
    """cnot_family's card, and the evaluation its honesty numbers and |b| come from."""
    if not isinstance(g, GateId) or g.tag not in _CNOT_TAGS:
        raise ValueError("cnot_family requires a CNOT gate id")
    s = strict_float("field_scale", field_scale)
    if s <= 0.0:
        raise ValueError(f"field_scale must be positive, got {field_scale!r}")

    tg = prescription_targets(g, m=m, m_prime=m)
    t = 1.0 / s
    half = FAMILY_EXCHANGE / 2.0
    b_hi = (tg.delta_minus_1 + math.pi / 4) * s
    if not (t < math.inf and b_hi < math.inf):
        raise ValueError(f"field_scale must keep the duration 1 / field_scale and the field "
                         f"(2 pi m + pi / 4) field_scale finite, got {field_scale!r} at m = {tg.m}")
    b_lo = -math.pi / 4 * s
    j_drive = math.pi / 4 * s
    if g.tag == "CNOT_12":
        p = PhysicalParams(t=t, J=(j_drive, half, -half), B1=b_hi, B2=b_lo, h=1)
    else:
        p = PhysicalParams(t=t, J=(half, -half, j_drive), B1=b_lo, B2=b_hi, h=3)
    e = _evaluate(tg, p, _target_blocks(tg))
    return _card(tg, p, e), e
