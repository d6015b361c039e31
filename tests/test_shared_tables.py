"""Every array the package builds once and shares between calls is read-only.

A caller that writes into a shared table would change every later
result of the functions that read it, so each module-level ndarray of
bellgate, and each one held in a module-level dict or tuple, must
refuse writes, and the solver's tables hold tuples only.
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


def _numbers_only(value):
    """Whether value is a number or a tuple of such values, nested to any depth."""
    if isinstance(value, tuple):
        return all(_numbers_only(item) for item in value)
    return type(value) in (int, float, complex)


def test_the_solver_tables_are_scanned():
    # the tables every solve shares are literals of nested tuples of Python numbers,
    # which no caller can write into, and no array among them
    tables = {
        "calib": ("_FIXED_BLOCKS", "_INVERSE"),
        "pointkernel": ("_FRAME_ORDER", "_POINT_TERMS", "_SIGNS"),
    }
    for name, attrs in tables.items():
        module = importlib.import_module(f"bellgate.{name}")
        for attr in attrs:
            table = getattr(module, attr)
            assert isinstance(table, dict) and table
            assert all(_numbers_only(value) for value in table.values()), f"{name}.{attr}"
            assert not any(True for _ in _arrays(table, attr))


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
