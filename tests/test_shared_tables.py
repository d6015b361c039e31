"""Every array the package builds once and shares between calls is read-only.

A caller that writes into a shared table would change every later
result of the functions that read it, so each module-level ndarray of
bellgate, and each one held in a module-level dict or tuple, must
refuse writes.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import bellgate

MODULES = sorted(
    f"bellgate.{info.name}" for info in pkgutil.iter_modules(bellgate.__path__)
) + ["bellgate"]


def _arrays(value, path):
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")


def test_every_module_is_scanned():
    assert {"bellgate.bellframe", "bellgate.calib", "bellgate.gates", "bellgate.spinlin"} <= set(MODULES)


def test_the_solver_tables_are_scanned():
    # the fixed-gate target blocks and the inversion table are shared by every solve
    scanned = {
        f"{name}.{attr}"
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
        if any(True for _ in _arrays(value, attr))
    }
    assert {"bellgate.calib._FIXED_BLOCKS", "bellgate.calib._INVERSE"} <= scanned


@pytest.mark.parametrize("name", MODULES)
def test_module_level_arrays_are_read_only(name):
    module = importlib.import_module(name)
    writable = [
        path
        for attr, value in vars(module).items()
        for path, array in _arrays(value, f"{name}.{attr}")
        if array.flags.writeable
    ]
    assert writable == []
