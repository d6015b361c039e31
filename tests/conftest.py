"""Shared helpers for the test suite."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from bellgate import PhysicalParams

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: canonical Bell label (b00, b01, b10, b11) at each frame position; block k holds positions 2k - 2, 2k - 1
FRAME_ORDER = {1: (0, 1, 2, 3), 2: (0, 3, 1, 2), 3: (0, 2, 1, 3)}

COUPLING_RANGE = 2.0
TIME_RANGE = 4.0


def bench_module(name):
    """bench/<name>.py, imported by its path; the import leaves no bytecode under bench/.

    The bench modules import each other by name, so bench/ is on the path
    while the module runs.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return module


def random_params(rng, h=None):
    """Draw a random parameter set with couplings in [-2, 2] and t in [0, 4]."""
    if h is None:
        h = int(rng.integers(1, 4))
    return PhysicalParams(
        t=float(rng.uniform(0.0, TIME_RANGE)),
        J=tuple(float(x) for x in rng.uniform(-COUPLING_RANGE, COUPLING_RANGE, size=3)),
        B1=float(rng.uniform(-COUPLING_RANGE, COUPLING_RANGE)),
        B2=float(rng.uniform(-COUPLING_RANGE, COUPLING_RANGE)),
        h=h,
    )


def parsed(text):
    """The value a file holding text parses to; text that is no JSON stays a string, which is no document."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def random_unitary(rng, n=4):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Couplings that make one block's |c| vanish, expanded by hand:
# (h, block) -> (a, b, sJ, sB) with J[b] = sJ * J[a] and B2 = sB * B1.
DEGENERATE = {
    (1, 1): (1, 2, 1, -1),
    (1, 2): (1, 2, -1, 1),
    (2, 1): (0, 2, -1, 1),
    (2, 2): (0, 2, 1, -1),
    (3, 1): (0, 1, 1, -1),
    (3, 2): (0, 1, -1, 1),
}


@st.composite
def edge_params(draw):
    """(p, block): generic, degenerate or near-degenerate couplings over six decades, t = 0 often.

    block is the degenerate block (1 or 2) of a "degenerate" draw, None otherwise.
    """
    h = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))) * scale
    kind = draw(st.sampled_from(["generic", "degenerate", "near"]))
    block = draw(st.integers(1, 2)) if kind != "generic" else None
    if block is not None:
        a, b, s_j, s_b = DEGENERATE[(h, block)]
        c[b] = s_j * c[a]
        c[4] = s_b * c[3]
    if kind == "near":
        nudge = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)))
        c += nudge * scale * 10.0 ** draw(st.floats(-16.0, -6.0))
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    p = PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=h)
    return p, block if kind == "degenerate" else None


def windings_give_rotations(doc):
    """The rule for a card's windings, stated apart from calib.

    A CNOT card names windings m >= 1 and m_prime >= 0 that give its
    rotations (2 pi m, pi/2 + 2 pi m_prime); no other card has any.
    """
    m, m_prime, tg = doc["m"], doc["targets"]["m_prime"], doc["targets"]
    if doc["gate"] not in ("CNOT_12", "CNOT_21"):
        return (m, m_prime) == (None, None)
    return (
        m is not None
        and m_prime is not None
        and m >= 1
        and m_prime >= 0
        and tg["delta_minus_1"] == 2.0 * m * math.pi
        and tg["delta_minus_2"] == math.pi / 2 + 2.0 * m_prime * math.pi
    )
