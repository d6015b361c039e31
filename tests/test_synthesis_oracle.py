"""Slow, independent oracle for the exact-inversion solver.

Hypothesis draws consistent target rows the published closed forms miss:
drift phases shifted by pi, phase angles anywhere in (0, 2 pi) including
near 0 and pi, CNOT windings m in 1..6 and m' in 0..6, and both S_phi_q1
routes.  Each card's gate is checked against a propagator built here with
np.kron and scipy's expm, in a Bell basis and a gate table written out
here.  A brute-force search then walks a wider set of drift branches and
an axis-angle grid on both blocks, judges every candidate with the same
oracle, and the card must be no longer than anything the search accepts.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import (
    GateId,
    PhysicalParams,
    bell_frame,
    prescription_targets,
    reduced_params,
    solve_physical,
)
from bellgate.fidelity import _COEFF_MAP

PI = math.pi
TWO_PI = 2.0 * PI

# a gate matches the oracle at 1e-10 for the card, 1e-8 (the solver's
# acceptance tolerance) for a search candidate
CARD_TOL = 1e-10
SEARCH_TOL = 1e-8
#: drift branches s * delta_plus_1 + k pi searched, |k| <= WIDE_K
WIDE_K = 6
#: axis angles searched per block; a multiple of 8 keeps every pinned axis on the grid
GRID = 16

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)
_SIGMA = (_SX, _SY, _SZ)
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# canonical Bell states b00, b01, b10, b11 as columns: (|0 j> + (-1)^i |1, 1 - j>) / sqrt 2
_BELL = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
) / math.sqrt(2.0)


def _label_gate(tag, phi):
    """Bell-label matrix of a library gate, written out from its logical action."""
    ph = np.diag([np.exp(-1j * phi), np.exp(1j * phi)]) if phi is not None else None
    swap_low = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap_odd = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    return {
        "S_phi_q2": lambda: np.kron(_I2, ph),
        "S_phi_q1": lambda: np.kron(ph, _I2),
        "H_q2": lambda: np.kron(_I2, _HAD),
        "H_q1": lambda: np.kron(_HAD, _I2),
        "CNOT_12": lambda: swap_low,
        "CNOT_21": lambda: swap_odd,
    }[tag]()


def _hamiltonians(x, h):
    """H = sum_k J_k s_k (x) s_k - B1 s_h (x) 1 - B2 1 (x) s_h for a stack of couplings."""
    gens = [np.kron(s, s) for s in _SIGMA]
    gens += [-np.kron(_SIGMA[h - 1], _I2), -np.kron(_I2, _SIGMA[h - 1])]
    return np.einsum("nc,cij->nij", np.atleast_2d(x), np.array(gens))


def _gate_error(x, t, h, tag, phi):
    """Phase-invariant distance of exp(-i t H(x)) from the label gate, per row of x."""
    u = scipy.linalg.expm(-1j * t * _hamiltonians(x, h))
    u_bell = _BELL.conj().T @ u @ _BELL
    want = _label_gate(tag, phi)
    return 1.0 - np.abs(np.einsum("ij,nij->n", want.conj(), u_bell)) / 4.0


def _circ(a):
    return abs(math.remainder(a, TWO_PI))


def _meets_row(tg, p):
    """The row's own constraints on the reduced parameters of p."""
    frame = bell_frame(tg.h)
    rp = reduced_params(p, frame)
    dp = rp[0].delta_plus
    ok = min(_circ(dp - tg.delta_plus_1), _circ(dp + tg.delta_plus_1)) <= SEARCH_TOL
    ok &= _circ(rp[0].delta_minus - tg.delta_minus_1) <= SEARCH_TOL
    ok &= _circ(rp[1].delta_minus - tg.delta_minus_2) <= SEARCH_TOL
    for k in (0, 1):
        if tg.j_targets is not None:
            ok &= abs(rp[k].j - tg.j_targets[k]) <= SEARCH_TOL
        if tg.b_targets is not None:
            ok &= abs(rp[k].b - tg.b_targets[k]) <= SEARCH_TOL
        if tg.b_relation_sign is not None:
            rel = tg.b_relation_sign * frame.q[k] * frame.beta[k]
            ok &= abs(rp[k].b - rel * rp[k].j) <= SEARCH_TOL
    return bool(ok)


def _search(tg, shorter_than):
    """Durations below shorter_than of the grid candidates the oracle and the row accept."""
    h = tg.h
    table = _COEFF_MAP[h].T
    tr = 1 if table[1].any() else 2
    rot = (tg.delta_minus_1, tg.delta_minus_2)
    th = np.arange(GRID) * TWO_PI / GRID
    # every (drift branch, axis angle 1, axis angle 2) at t = 1 with the
    # literal rotation angles; the drift residual is checked here directly
    phases = [
        s * tg.delta_plus_1 + k * PI
        for s in (1.0, -1.0)
        for k in range(-WIDE_K, WIDE_K + 1)
        if min(_circ(s * tg.delta_plus_1 + k * PI - tg.delta_plus_1),
               _circ(s * tg.delta_plus_1 + k * PI + tg.delta_plus_1)) <= SEARCH_TOL
    ]
    y = np.zeros((len(phases), GRID, GRID, 2, 4))
    y[..., 0, 0] = -np.array(phases)[:, None, None]
    y[..., 1, 0] = np.array(phases)[:, None, None]
    y[..., 0, tr] = rot[0] * np.cos(th)[None, :, None]
    y[..., 0, 3] = rot[0] * np.sin(th)[None, :, None]
    y[..., 1, tr] = rot[1] * np.cos(th)[None, None, :]
    y[..., 1, 3] = rot[1] * np.sin(th)[None, None, :]
    y = y.reshape(-1, 8)
    x = np.linalg.lstsq(table, y.T, rcond=None)[0].T
    assert np.abs(x @ table.T - y).max() < 1e-9
    lam = np.abs(x).max(axis=1)
    x, lam = x[lam < shorter_than], lam[lam < shorter_than]
    # the canonical card (t = lam, x / lam) is the same evolution as (1, x)
    err = _gate_error(x, 1.0, h, tg.gate.tag, tg.gate.phi) if len(x) else lam
    accepted = []
    for i in np.flatnonzero(err <= SEARCH_TOL):
        p = PhysicalParams(t=1.0, J=tuple(x[i, :3]), B1=x[i, 3], B2=x[i, 4], h=h)
        if _meets_row(tg, p):
            accepted.append(float(lam[i]))
    return sorted(accepted)


phis = st.one_of(
    st.floats(1e-3, 0.1),
    st.floats(PI - 0.1, PI + 0.1),
    st.floats(TWO_PI - 0.1, TWO_PI - 1e-3),
    st.floats(1e-3, TWO_PI - 1e-3),
)


@st.composite
def shifted_rows(draw):
    kind = draw(st.sampled_from(
        ["S_phi_q2", "S_phi_q1 alternate", "S_phi_q1 printed", "S_phi_q1 half-turn",
         "H_q2", "H_q1", "CNOT_12", "CNOT_21", "CNOT_12 unpinned"]
    ))
    tag, _, variant = kind.partition(" ")
    if tag.startswith("S_phi"):
        route = "alternate" if variant == "alternate" else "printed"
        tg = prescription_targets(GateId(tag, phi=draw(phis)), route=route)
    elif tag.startswith("CNOT"):
        tg = prescription_targets(
            GateId(tag), m=draw(st.integers(1, 6)), m_prime=draw(st.integers(0, 6))
        )
    else:
        tg = prescription_targets(GateId(tag))
    if variant == "half-turn":
        # odd half-turns make both blocks a multiple of the identity, so
        # neither axis is visible (the closed form winds whole turns only)
        odd = st.sampled_from([1, 3, 5])
        tg = dataclasses.replace(tg, delta_minus_1=draw(odd) * PI, delta_minus_2=draw(odd) * PI)
    if variant == "unpinned":
        tg = dataclasses.replace(tg, j_targets=None)
    shifted = variant != "half-turn"
    return dataclasses.replace(tg, delta_plus_1=tg.delta_plus_1 + PI * shifted)


@settings(max_examples=40, deadline=None)
@given(shifted_rows())
def test_inversion_cards_match_the_oracle_and_no_grid_card_is_shorter(tg):
    card = solve_physical(tg)
    p = card.solved
    x = np.array([*p.J, p.B1, p.B2])
    assert _gate_error(x, p.t, p.h, tg.gate.tag, tg.gate.phi)[0] <= CARD_TOL
    assert np.abs(x).max() == 1.0
    assert _search(tg, shorter_than=p.t - 1e-9) == []
