"""Exception types shared across the package."""

from __future__ import annotations


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
    """The multi-start solver did not reach the requested accuracy."""

    def __init__(self, best_residual: float, message: str = ""):
        self.best_residual = best_residual
        msg = message or f"no start converged; best residual {best_residual:.3e}"
        super().__init__(msg)


class NonFiniteDerivative(BellgateError):
    """A block derivative came out non-finite, e.g. for an overflowing displacement."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite derivative input at parameter index {index}")
