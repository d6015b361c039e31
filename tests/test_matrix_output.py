"""What `bellgate evolve`, `blocks` and `compile` print, checked against an oracle that calls nothing of bellgate.

Each command runs in process and its stdout is parsed.  The propagator
is recomputed with bench/oracle.py (scipy's expm of a Kronecker-sum
Hamiltonian) and read in the Bell frame order of conftest; a block is
rebuilt from its printed reduced parameters by the closed form and the
sign table written out below; a compiled circuit's product is rebuilt
from its printed gate list, with the Bell-label matrices of T, H_q1 and
H_q2 written from their definitions, against oracle.circuit_matrix of
the input circuit.  Tolerances grow with the largest eigenphase, as the
rounding of both propagators does.  The bench module is imported by its
path and never changed.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellgate.cli import main

from conftest import FRAME_ORDER, bench_module, edge_params

oracle = bench_module("oracle")
EPS = float(np.finfo(float).eps)

#: (beta, q) of both blocks on each field axis: beta_k = (-1)^(k (h + 2)), q_k = beta_k (-1)^(h + 1)
SIGNS = {1: ((-1, 1), (-1, 1)), 2: ((1, 1), (-1, -1)), 3: ((-1, 1), (-1, 1))}
#: the transversal direction (sin(h pi / 2), cos(h pi / 2)) of each field axis
TRANSVERSAL = {1: (1, 0), 2: (0, -1), 3: (-1, 0)}
#: Bell-label matrices (label (i, j) at index 2 i + j): T and H_q1 are H on label i, H_q2 is H on label j
LABEL_GATES = {
    "T_translator": np.kron(oracle.HADAMARD, oracle.I2),
    "H_q1": np.kron(oracle.HADAMARD, oracle.I2),
    "H_q2": np.kron(oracle.I2, oracle.HADAMARD),
}
ONE_LEVEL = ("B_S8", "B_S4", "B_H")


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _matrix(entries):
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in entries])


def _doc(drawn):
    """The parameter document of a drawn (PhysicalParams, block)."""
    p, _ = drawn
    return {"t": float(p.t), "J": [float(x) for x in p.J], "B1": float(p.B1), "B2": float(p.B2), "h": int(p.h)}


def _tolerance(doc):
    # both propagators round to about eps times their largest eigenphase
    eig = np.linalg.eigvalsh(oracle.hamiltonian(doc["J"], doc["B1"], doc["B2"], doc["h"]))
    return 64 * EPS * max(1.0, doc["t"] * float(np.abs(eig).max()))


def _in_frame(u, h):
    """u read in the Bell frame of axis h: its two diagonal blocks and the Frobenius norm of the rest."""
    f = oracle.BELL[:, FRAME_ORDER[h]]
    m = f.conj().T @ u @ f
    off = math.sqrt(np.linalg.norm(m[:2, 2:]) ** 2 + np.linalg.norm(m[2:, :2]) ** 2)
    return m[:2, :2], m[2:, 2:], off


def _closed_form(rp, h):
    """exp(i dplus) (cos(dminus) 1 - i sin(dminus) n . sigma), n = (q b sx, q b sy, beta j) of block rp["block"]."""
    beta, q = (s[rp["block"] - 1] for s in SIGNS[h])
    sx, sy = TRANSVERSAL[h]
    n = (q * rp["b"] * sx, q * rp["b"] * sy, beta * rp["j"])
    dm = rp["delta_minus"]
    ns = sum(nk * s for nk, s in zip(n, oracle.PAULI))
    return np.exp(1j * rp["delta_plus"]) * (math.cos(dm) * oracle.I2 - 1j * math.sin(dm) * ns)


@settings(max_examples=40, deadline=None)
@given(edge_params().map(_doc), st.integers(1, 3))
@example({"t": 1.2, "J": [0.7, -0.4, 0.9], "B1": 0.3, "B2": -0.6, "h": 1}, 2)
@example({"t": 1e3, "J": [12.5, -30.0, 7.0], "B1": 44.0, "B2": -3.0, "h": 3}, 1)
def test_evolve_and_blocks_print_the_oracle_propagator(doc, cross_h):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "params.json"
        path.write_text(json.dumps(doc))
        evolved = json.loads(_run("evolve", path))
        rows = list(csv.DictReader(io.StringIO(_run("evolve", path, "--format", "csv"))))
        blocks = json.loads(_run("blocks", path))
        cross = json.loads(_run("blocks", path, "--cross-h", cross_h))
    h, tol = doc["h"], _tolerance(doc)
    u_ref = oracle.propagator(doc["t"], doc["J"], doc["B1"], doc["B2"], h)

    # evolve: the matrix, its unitarity defect from the printed matrix, and the csv at each position
    assert evolved["params"] == doc
    u = _matrix(evolved["unitary"])
    assert np.abs(u - u_ref).max() <= tol
    defect = float(np.abs(u.conj().T @ u - np.eye(4)).max())
    assert abs(evolved["unitarity_residual"] - defect) <= 8 * EPS
    assert evolved["unitarity_residual"] <= tol
    assert [(int(r["row"]), int(r["col"])) for r in rows] == [(i, k) for i in range(4) for k in range(4)]
    assert [complex(float(r["re"]), float(r["im"])) for r in rows] == u.ravel().tolist()

    # blocks: each block in the printed frame's order, the off-block norms, the reduced parameters
    b1, b2, off = _in_frame(u_ref, h)
    assert blocks == dict(cross, cross=None)
    assert blocks["frame"]["h"] == h
    assert (blocks["frame"]["signs"]["beta"], blocks["frame"]["signs"]["q"]) == tuple(map(list, SIGNS[h]))
    for printed, ref in ((blocks["block1"], b1), (blocks["block2"], b2)):
        assert np.abs(_matrix(printed) - ref).max() <= tol
    assert abs(blocks["offblock_norm"] - off) <= tol
    assert blocks["within_structural_tol"] == (blocks["offblock_norm"] <= 1e-10)
    assert [rp["block"] for rp in blocks["reduced"]] == [1, 2]
    for rp, ref in zip(blocks["reduced"], (b1, b2)):
        assert rp["delta_minus"] >= 0.0 and abs(rp["b"] ** 2 + rp["j"] ** 2 - 1.0) <= 4 * EPS
        assert np.abs(_closed_form(rp, h) - ref).max() <= tol
        assert rp["closed_form_residual"] <= tol
    cross_off = _in_frame(u_ref, cross_h)[2]
    assert cross["cross"]["h"] == cross_h
    assert abs(cross["cross"]["offblock_norm"] - cross_off) <= tol


_GATES = st.one_of(
    st.tuples(st.sampled_from(ONE_LEVEL), st.sampled_from([1, 2])),
    st.tuples(st.sampled_from(["B_CNOT12", "B_CNOT21"]), st.none()),
)
_ALL_GATES = json.loads((Path(__file__).parent / "data" / "compile_all_gates.json").read_text())["gates"]


def _node_matrix(node):
    if node["gate"] == "OPAQUE":
        return _matrix(node["matrix"])
    if node["gate"] == "S_phi_q2":
        return oracle.bell_gate("S_phi_q2", node["phi"])
    return LABEL_GATES[node["gate"]]


def _phase_distance(a, b):
    """||e^{i theta} a - b||_F^2 / 8 with theta = arg tr(a^dag b), as a sum of squares that keeps its rounding floor."""
    z = np.vdot(a, b)
    d = np.exp(1j * math.atan2(z.imag, z.real)) * a - b
    return float(np.vdot(d, d).real) / 8.0


@settings(max_examples=40, deadline=None)
@given(st.lists(_GATES, max_size=8))
@example([(g["gate"], g.get("qubit")) for g in _ALL_GATES])
def test_compile_prints_the_oracle_circuit(gates):
    circuit = {"basis": "computational",
               "gates": [{"gate": t} if q is None else {"gate": t, "qubit": q} for t, q in gates]}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "circuit.json"
        path.write_text(json.dumps(circuit))
        doc = json.loads(_run("compile", path))
    nodes = doc["compiled"]["gates"]
    assert doc["compiled"]["basis"] == "bell"
    assert len(nodes) == len(gates) + 2
    assert nodes[0] == nodes[-1] == {"gate": "T_translator"}
    t = LABEL_GATES["T_translator"]
    # each node is T g T of its input gate, under its library name or as a printed matrix
    for node, (tag, qubit) in zip(nodes[1:-1], gates):
        want = t @ oracle.computational_gate(tag, qubit) @ t
        assert np.abs(_node_matrix(node) - want).max() <= 4 * EPS
    product = np.eye(4, dtype=complex)
    for node in nodes:
        product = _node_matrix(node) @ product
    residual = _phase_distance(product, oracle.circuit_matrix(gates))
    # distances compared as norms: each product rounds by a few eps
    assert abs(math.sqrt(doc["equivalence_residual"]) - math.sqrt(residual)) <= 4 * EPS * len(nodes)
