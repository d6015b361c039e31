"""Every tolerance the package applies, each with its reason, and the strict integer, real and bool checks.

The tolerances are constants of the contract, not settings: ACCEPT_TOL
(criterion 5) accepts every synthesized card and STRUCTURAL_TOL
(criterion 1) judges every blocks report.  SOLVABLE_TAGS, the gates a
pulse prescription exists for, lives here too: the command line offers
them as choices before it loads any numerical layer.

The checks accept numpy integers, floats and bools where they accept
Python ones, and load no numpy for it: a numpy scalar exists only once
numpy is loaded, so they look for numpy's types only in a loaded numpy.
"""

from __future__ import annotations

import math
import sys

__all__ = ["ACCEPT_TOL", "STRUCTURAL_TOL"]

#: max |H - H^dag| for expm_hermitian; assembled Hamiltonians are Hermitian exactly
HERMITICITY_TOL = 1e-12
#: max |U^dag U - 1| for dist_phase_invariant; rounding stays far below, a non-unitary far above
UNITARITY_TOL = 1e-8
#: synthesis (criterion 5): largest realized gate error and target residual of an accepted card
ACCEPT_TOL = 1e-8
#: block structure (criterion 1): largest off-block norm reported as within_structural_tol
STRUCTURAL_TOL = 1e-10
#: slack on b^2 + j^2 = 1 for block weights, in closed_form_block and the feasibility check
UNIT_CIRCLE_TOL = 1e-9
#: slack on |weight| <= 1 for pinned j and b targets
WEIGHT_TOL = 1e-12
#: largest Pauli component of a target block read as a multiple of the identity
INVISIBLE_AXIS_TOL = 1e-12
#: slack on the unit norm of a BlockState; normalized() lands within a few ulps
STATE_NORM_TOL = 1e-12
#: norm below which BlockState.normalized() refuses a vector as zero
ZERO_NORM_TOL = 1e-12
#: relative gap within which rank_parameters counts two mean sensitivities as tied: axes that a
#: symmetry of the card ties differ only by rounding (a few ulps), and last-ulp noise must not
#: decide the ranking order
RANK_TIE_TOL = 1e-12
#: largest difference between a card document's honesty numbers and their recomputation on
#: read: a card read on another machine can differ in the last bits of LAPACK output, while
#: an edit that stays within it cannot move a number across ACCEPT_TOL by more than 1%
RECOMPUTE_TOL = 1e-10

#: the library generators with a published row, in table order (calib transcribes the rows)
SOLVABLE_TAGS = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1", "CNOT_12", "CNOT_21")


def _numpy_types(*names: str) -> tuple[type, ...]:
    """numpy's types of these names if numpy is loaded, else none."""
    np = sys.modules.get("numpy")
    return () if np is None else tuple(getattr(np, name) for name in names)


def strict_int(name: str, value, allowed=None) -> int:
    """int(value); ValueError for a bool, a non-integer, or a value not in allowed."""
    # fast path: a plain int is its own int(); anything else takes the general path below
    if type(value) is int and (allowed is None or value in allowed):
        return value
    # bool is an int subclass and 2.0 == 2, so both would pass "in"; numpy integers pass
    integer = isinstance(value, int) or isinstance(value, _numpy_types("integer"))
    if isinstance(value, bool) or not integer or (
        allowed is not None and value not in allowed
    ):
        vals = [repr(a) for a in allowed or ()]
        spec = ", ".join(vals[:-1]) + " or " + vals[-1] if vals else "an integer"
        raise ValueError(f"{name} must be {spec}, got {value!r}")
    return int(value)


def strict_float(name: str, value) -> float:
    """float(value); ValueError for a bool, a string, any other non-number, or a value no finite float holds."""
    # fast path: a finite plain float is its own float(); anything else takes the general path below
    if type(value) is float and math.isfinite(value):
        return value
    # bool is an int subclass, and float() would also parse "1.5"; numpy ints and floats
    # pass, np.float64 without a look at numpy, as it is a float
    real = not isinstance(value, bool) and (
        isinstance(value, (int, float)) or isinstance(value, _numpy_types("integer", "floating"))
    )
    if real and isinstance(value, int):
        # exact for any size; math.isfinite raises OverflowError past the float range
        real = abs(value) <= sys.float_info.max
    if not (real and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def strict_reals(name: str, values, count: int | None = None) -> tuple[float, ...]:
    """A JSON list, or a tuple, of finite reals as a tuple, with count entries when count is given."""
    if not isinstance(values, (list, tuple)) or count not in (None, len(values)):
        spec = "a list of real numbers" if count is None else f"a list of {count} real numbers"
        raise ValueError(f"{name} must be {spec}, got {values!r}")
    return tuple(strict_float(name, v) for v in values)


def strict_bool(name: str, value) -> bool:
    """bool(value); ValueError for anything but a bool, so neither 1 nor "false" passes."""
    if not (isinstance(value, bool) or isinstance(value, _numpy_types("bool_"))):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)
