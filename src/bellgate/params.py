"""The physical parameters of one free evolution, without numpy.

PhysicalParams is the validated record of the driven model's controls:
the duration t, the exchange couplings J = (J1, J2, J3), the field
amplitudes B1, B2 and the common field axis h in {1, 2, 3}.  It lives
apart from model, the Hamiltonian's module, so that the solver, which
builds and checks these records by the thousand, runs without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import strict_float, strict_int, strict_reals
from .jsonio import fields

__all__ = ["PhysicalParams"]


@dataclass(frozen=True)
class PhysicalParams:
    """Exchange couplings, field amplitudes, field axis and evolution time."""

    t: float
    J: tuple[float, float, float]
    B1: float
    B2: float
    h: int

    def __post_init__(self):
        object.__setattr__(self, "J", tuple(strict_float("J", j) for j in self.J))
        for name in ("t", "B1", "B2"):
            object.__setattr__(self, name, strict_float(name, getattr(self, name)))
        if len(self.J) != 3:
            raise ValueError("J must have exactly three components")
        object.__setattr__(self, "h", strict_int("field axis h", self.h, (1, 2, 3)))
        # fidelity._admissible states these value checks for parameter arrays; change both together
        if self.t < 0:
            raise ValueError("t must be nonnegative")

    def to_doc(self) -> dict:
        return {"t": self.t, "J": list(self.J), "B1": self.B1, "B2": self.B2, "h": self.h}

    @classmethod
    def from_doc(cls, doc) -> "PhysicalParams":
        """Read a parameter document with exactly the keys to_doc writes."""
        t, J, B1, B2, h = fields(doc, "parameter", ("t", "J", "B1", "B2", "h"))
        return cls(t=t, J=strict_reals("J", J, 3), B1=B1, B2=B2, h=h)
