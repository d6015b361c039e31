"""Gate names without numpy: the tags of both gate libraries and GateId.

D_TAGS names the Bell-basis library, B_TAGS the computational-basis one,
and a GateId is one named gate, valid when built.  gates re-exports
them next to the gate matrices; they live apart so that the solver,
which reads a gate by its name and its phase angle, runs without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import strict_float, strict_int

__all__ = ["D_TAGS", "B_TAGS", "GateId"]

D_TAGS = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1", "CNOT_12", "CNOT_21", "T_translator")
B_TAGS = ("B_S8", "B_S4", "B_H", "B_CNOT12", "B_CNOT21")
#: which of (e^{-i phi}, e^{i phi}) each phase gate's diagonal holds at b00, b01, b10, b11
_PHASE_DIAGONAL = {"S_phi_q2": (0, 1, 0, 1), "S_phi_q1": (0, 0, 1, 1)}
_PHASE_TAGS = tuple(_PHASE_DIAGONAL)
#: the one-level gates of the computational-basis library, which act on one qubit
_ONE_LEVEL_TAGS = ("B_S8", "B_S4", "B_H")


@dataclass(frozen=True)
class GateId:
    """A named gate: tag, optional phase angle (radians), optional target qubit.

    phi is required exactly for the parametric phase gates; qubit (1 or
    2) annotates one-level computational gates so they embed into 4x4.
    """

    tag: str
    phi: float | None = None
    qubit: int | None = None

    def __post_init__(self):
        if self.tag not in D_TAGS + B_TAGS:
            raise ValueError(f"unknown gate tag {self.tag!r}")
        if self.tag in _PHASE_TAGS:
            if self.phi is None:
                raise ValueError(f"{self.tag} requires a finite phi")
            object.__setattr__(self, "phi", strict_float("phi", self.phi))
        elif self.phi is not None:
            raise ValueError(f"{self.tag} takes no phi")
        if self.qubit is not None:
            object.__setattr__(self, "qubit", strict_int("qubit", self.qubit, (1, 2)))
        if self.qubit is not None and self.tag not in _ONE_LEVEL_TAGS:
            raise ValueError(f"{self.tag} takes no qubit annotation")
