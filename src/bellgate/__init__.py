"""Bell-basis universal gates for the driven two-qubit Heisenberg-Ising model.

The evolution of two exchange-coupled spins driven along a common
field axis is block-diagonal over a pairing of the Bell states.  That
structure carries a universal gate set acting on the Bell labels:
phase gates, label Hadamards and label CNOTs, each realized by one
free evolution.  The package computes the frames, solves the pulse
prescriptions, compiles computational circuits into the Bell grammar
and quantifies fidelity under parameter perturbations.
"""

from .bellframe import (
    LABELS,
    BellFrame,
    ReducedBlockParams,
    bell_change_of_basis,
    bell_frame,
    bell_state,
    closed_form_block,
    frame_permutation,
    reduced_params,
    to_blocks,
)
from .calib import (
    FAMILY_EXCHANGE,
    PrescriptionCard,
    PrescriptionTargets,
    cnot_family,
    prescription_targets,
    solve_physical,
)
from .checks import ACCEPT_TOL, STRUCTURAL_TOL
from .errors import (
    BellgateError,
    NonFiniteDerivative,
    NonHermitianError,
    NonUnitaryError,
    SolverFailure,
)
from .fidelity import (
    PARAM_NAMES,
    BlockState,
    FidelityReport,
    Perturbation,
    SweepResult,
    directional_derivatives,
    fidelity_exact,
    fidelity_second_order,
    rank_parameters,
    sample_states,
    sensitivity_sweep,
)
from .gates import (
    B_TAGS,
    D_TAGS,
    Circuit,
    GateId,
    OpaqueGate,
    compile_circuit,
    d_gate,
    embedded_matrix,
    matrix_of,
    translator,
)
from .model import PhysicalParams, assemble_hamiltonian, build_hamiltonian, evolve
from .spinlin import (
    dist_phase_invariant,
    dist_unitary,
    expm_hermitian,
    pauli,
)

__version__ = "0.1.0"
