"""Shared helpers for the test suite."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from bellgate import (
    GateId,
    PhysicalParams,
    build_hamiltonian,
    cnot_family,
    expm_hermitian,
    prescription_targets,
    solve_physical,
)

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


def dense_propagator(p):
    """exp(-i H t) of the assembled Hamiltonian by eigendecomposition: the oracle of evolve's closed form."""
    return expm_hermitian(build_hamiltonian(p), p.t)


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


#: drift phases the inversion meets for a published row: the Hadamard relation
#: (H_q2, H_q1), an invisible axis (the printed S_phi_q1 row) and CNOT windings
SHIFTED = [
    (GateId("H_q2"), {}, math.pi),
    (GateId("H_q1"), {}, 2 * math.pi),
    (GateId("S_phi_q1", phi=0.5), {"route": "printed"}, 0.5 + math.pi),
    (GateId("CNOT_12"), {"m": 2, "m_prime": 1}, 5 * math.pi / 4),
    (GateId("CNOT_21"), {"m": 2, "m_prime": 0}, 5 * math.pi / 4),
]


@st.composite
def drawn_card(draw):
    """A card document: a published row, a row with a shifted drift phase, or a family card with m fs <= 100."""
    kind = draw(st.sampled_from(["published", "shifted", "family"]))
    if kind == "family":
        fs = draw(st.floats(0.1, 20.0))
        m = draw(st.integers(1, int(100.0 / fs)))
        return cnot_family(GateId(draw(st.sampled_from(["CNOT_12", "CNOT_21"]))), m, fs).to_doc()
    if kind == "shifted":
        gate, kw, shift = draw(st.sampled_from(SHIFTED))
        return solve_physical(dataclasses.replace(prescription_targets(gate, **kw), delta_plus_1=shift)).to_doc()
    tag = draw(st.sampled_from(["H_q2", "H_q1", "S_phi_q2", "S_phi_q1", "CNOT_12", "CNOT_21"]))
    kw = {}
    if tag.startswith("CNOT"):
        kw = {"m": draw(st.integers(1, 20)), "m_prime": draw(st.integers(0, 20))}
    elif tag == "S_phi_q1":
        kw = {"route": draw(st.sampled_from(["printed", "alternate"]))}
    phi = draw(st.floats(-2 * math.pi, 2 * math.pi)) if tag.startswith("S_phi") else None
    return solve_physical(prescription_targets(GateId(tag, phi=phi), **kw)).to_doc()


def drawn_step(t):
    """A step of either sign; a negative one leaves the displaced duration t + step nonnegative."""
    return st.floats(1e-4, 1e-2).flatmap(lambda x: st.sampled_from([x, -x] if x <= t else [x]))
