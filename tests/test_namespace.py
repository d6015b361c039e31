"""The package namespace: lazy, with the public names of an eager one.

"import bellgate" loads no layer.  A public name loads its home module
on its first read and is then bound in the package, so every later
read is a plain attribute read; a layer module read as an attribute
loads the same way.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellgate

#: every name the package re-exported when its __init__ imported each layer, by home module
PUBLIC = {
    "bellframe": [
        "LABELS", "BellFrame", "ReducedBlockParams", "bell_change_of_basis", "bell_frame",
        "closed_form_block", "frame_permutation", "reduced_params", "to_blocks",
    ],
    "calib": [
        "FAMILY_EXCHANGE", "PrescriptionCard", "PrescriptionTargets", "cnot_family",
        "prescription_targets", "solve_physical",
    ],
    "checks": ["ACCEPT_TOL", "STRUCTURAL_TOL"],
    "errors": ["BellgateError", "NonFiniteDerivative", "NonHermitianError", "NonUnitaryError", "SolverFailure"],
    "fidelity": [
        "PARAM_NAMES", "BlockState", "FidelityReport", "Perturbation", "SweepResult",
        "directional_derivatives", "fidelity_exact", "fidelity_second_order", "rank_parameters",
        "sample_states", "sensitivity_sweep",
    ],
    "gates": [
        "B_TAGS", "D_TAGS", "Circuit", "GateId", "OpaqueGate", "compile_circuit", "d_gate",
        "matrix_of", "translator",
    ],
    "model": ["PhysicalParams", "assemble_hamiltonian", "build_hamiltonian", "evolve"],
    "spinlin": ["dist_phase_invariant", "dist_unitary", "expm_hermitian", "pauli"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
#: the package's modules that a bare "import bellgate" made attributes
MODULES = [*PUBLIC, "jsonio"]
_SRC = str(Path(bellgate.__file__).resolve().parents[1])


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_its_home_object(module, name):
    home = importlib.import_module(f"bellgate.{module}")
    assert getattr(bellgate, name) is getattr(home, name)
    # bound on the first read, so the next one does not reach the module __getattr__
    assert vars(bellgate)[name] is getattr(home, name)


def test_version_and_layer_modules_are_attributes():
    assert bellgate.__version__ == "0.1.0"
    for module in MODULES:
        assert getattr(bellgate, module) is importlib.import_module(f"bellgate.{module}")


def test_public_names_import_in_a_fresh_process():
    # dir() lists every name and layer before any is read; a layer read as an
    # attribute loads on that read; each "from bellgate import" gives its home
    # module's object
    script = (
        "import importlib, json, sys\n"
        "import bellgate\n"
        "listed = dir(bellgate)\n"
        "loaded = 'bellgate.calib' in sys.modules\n"
        "tags = bellgate.calib.SOLVABLE_TAGS\n"
        f"from bellgate import {', '.join(name for _, name in NAMES)}\n"
        f"names, modules = {NAMES!r}, {MODULES!r}\n"
        "home = lambda module: importlib.import_module('bellgate.' + module)\n"
        "unlisted = [x for x in modules + [n for _, n in names] if x not in listed]\n"
        "foreign = [n for m, n in names if globals()[n] is not getattr(home(m), n)]\n"
        "print(json.dumps([unlisted, loaded, tags, foreign]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[], False, list(bellgate.calib.SOLVABLE_TAGS), []]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'bellgate' has no attribute 'no_such_name'"):
        getattr(bellgate, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from bellgate import no_such_name", {})
    # calib's list of solvable gates was never a package name
    assert not hasattr(bellgate, "SOLVABLE_TAGS")
    assert "SOLVABLE_TAGS" not in dir(bellgate)
