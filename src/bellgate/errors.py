"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["BellgateError", "NonFiniteDerivative", "NonHermitianError", "NonUnitaryError", "SolverFailure"]


class BellgateError(Exception):
    """Base class for errors raised by this package."""


class NonHermitianError(BellgateError):
    """A matrix required to be Hermitian was not, within tolerance."""

    def __init__(self, asymmetry: float):
        self.asymmetry = asymmetry
        super().__init__(f"matrix is not Hermitian: max |m - m^dag| = {asymmetry:.3e}")


class NonUnitaryError(BellgateError):
    """A matrix required to be unitary was not, within tolerance."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"matrix is not unitary: max |u^dag u - 1| = {defect:.3e}")


class SolverFailure(BellgateError):
    """No candidate control set met the solver's acceptance tolerance.

    closest is the candidate with the smallest worst residual, or None
    when no candidate was scored.
    """

    def __init__(self, best_residual: float, message: str, closest=None):
        self.best_residual = best_residual
        self.closest = closest
        super().__init__(message)


class NonFiniteDerivative(BellgateError):
    """A block derivative came out non-finite, e.g. for an overflowing displacement."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite derivative input at parameter index {index}")
