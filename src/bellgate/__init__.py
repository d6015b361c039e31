"""Bell-basis universal gates for the driven two-qubit Heisenberg-Ising model.

The evolution of two exchange-coupled spins driven along a common
field axis is block-diagonal over a pairing of the Bell states, and
evolve builds the propagator as that direct sum of two 2x2 blocks.
That structure carries a universal gate set acting on the Bell labels:
phase gates, label Hadamards and label CNOTs, each realized by one
free evolution.  The package computes the frames, solves the pulse
prescriptions, compiles computational circuits into the Bell grammar
and quantifies fidelity under parameter perturbations.

The package namespace is lazy: a public name, or a layer module named
as an attribute, loads its module on first read, so "import bellgate"
costs neither numpy nor any layer, and each command of the command
line loads only the layers it runs; "from bellgate import *" binds
every public name.  Each public name has one home module, the one
whose __all__ lists it.  The modules are split by what they import:
params (PhysicalParams), gateid (GateId and the gate tags),
pointkernel (LABELS, the frame literals and the point kernel), calib
(the solver), checks, errors and jsonio load no numpy, so the synth
command and "from bellgate import GateId, solve_physical" run without
it; the other layers are numpy's.
"""

__version__ = "0.1.0"

#: every public name of the package, under the module that defines it
_HOMES = {
    "bellframe": (
        "BellFrame",
        "ReducedBlockParams",
        "bell_change_of_basis",
        "bell_frame",
        "closed_form_block",
        "frame_permutation",
        "reduced_params",
        "to_blocks",
    ),
    "calib": (
        "FAMILY_EXCHANGE",
        "PrescriptionCard",
        "PrescriptionTargets",
        "cnot_family",
        "prescription_targets",
        "solve_physical",
    ),
    "checks": ("ACCEPT_TOL", "STRUCTURAL_TOL"),
    "errors": (
        "BellgateError",
        "NonFiniteDerivative",
        "NonHermitianError",
        "NonUnitaryError",
        "SolverFailure",
    ),
    "fidelity": (
        "PARAM_NAMES",
        "BlockState",
        "FidelityReport",
        "Perturbation",
        "StateBatch",
        "SweepResult",
        "directional_derivatives",
        "fidelity_exact",
        "fidelity_second_order",
        "rank_parameters",
        "sample_states",
        "sensitivity_sweep",
    ),
    "gateid": ("B_TAGS", "D_TAGS", "GateId"),
    "gates": (
        "Circuit",
        "OpaqueGate",
        "compile_circuit",
        "d_gate",
        "matrix_of",
        "translator",
    ),
    "jsonio": (),
    "model": ("assemble_hamiltonian", "build_hamiltonian", "evolve"),
    "params": ("PhysicalParams",),
    "pointkernel": ("LABELS",),
    "spinlin": ("dist_phase_invariant", "dist_unitary", "expm_hermitian", "pauli"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    if name == "__all__":
        # "from bellgate import *" reads this, then loads each public name as it binds it
        return sorted(_HOME)
    # importing a module binds it into this namespace; a resolved name is bound here too,
    # so every later read is a plain attribute read
    module = _HOME.get(name, name)
    if module not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_HOME})
