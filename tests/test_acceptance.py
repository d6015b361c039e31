"""End-to-end acceptance: the advertised numerical guarantees.

Each test checks one guarantee at its published tolerance and prints a
single verdict line with the measured margin.  All randomness is
seeded, so the suite is deterministic run to run.
"""

import math

import numpy as np

import bellgate.cli as cli
from bellgate import (
    B_TAGS,
    BlockState,
    Circuit,
    GateId,
    Perturbation,
    PhysicalParams,
    bell_change_of_basis,
    bell_frame,
    closed_form_block,
    cnot_family,
    compile_circuit,
    d_gate,
    directional_derivatives,
    dist_phase_invariant,
    evolve,
    fidelity_exact,
    fidelity_second_order,
    frame_permutation,
    matrix_of,
    prescription_targets,
    reduced_params,
    solve_physical,
    to_blocks,
    translator,
)

from conftest import dense_propagator


def _generic_params(rng, h=None):
    """Generic parameter draw with couplings in [-2, 2] and t in [0.5, 4].

    The time floor keeps draws away from t = 0, where the evolution is
    near the identity: there every frame block-diagonalizes it and the
    quadratic fidelity response sinks into rounding noise.
    """
    if h is None:
        h = int(rng.integers(1, 4))
    return PhysicalParams(
        t=float(rng.uniform(0.5, 4.0)),
        J=tuple(float(x) for x in rng.uniform(-2.0, 2.0, size=3)),
        B1=float(rng.uniform(-2.0, 2.0)),
        B2=float(rng.uniform(-2.0, 2.0)),
        h=h,
    )


def _verdict(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_block_structure():
    rng = np.random.default_rng(211)
    worst_matched = 0.0
    worst_mismatched = np.inf
    for h in (1, 2, 3):
        matched = bell_frame(h)
        others = [bell_frame(g) for g in (1, 2, 3) if g != h]
        for _ in range(1000):
            # the dense propagator: evolve is the closed form that these criteria test
            u = dense_propagator(_generic_params(rng, h=h))
            _, _, off = to_blocks(u, matched)
            worst_matched = max(worst_matched, off)
            for fr in others:
                _, _, moff = to_blocks(u, fr)
                worst_mismatched = min(worst_mismatched, moff)
    ok = worst_matched <= 1e-10 and worst_mismatched > 1e-3
    _verdict(
        "criterion 1 (Bell-frame block structure)",
        ok,
        f"1000 draws per axis: matched off-block {worst_matched:.2e} (tol 1e-10), "
        f"mismatched off-block {worst_mismatched:.2e} (floor 1e-3)",
    )


def test_criterion_2_closed_form_blocks():
    rng = np.random.default_rng(211)
    worst_entry = 0.0
    worst_weight = 0.0
    for _ in range(1000):
        p = _generic_params(rng)
        fr = bell_frame(p.h)
        b1, b2, _ = to_blocks(dense_propagator(p), fr)
        for rp, blk in zip(reduced_params(p, fr), (b1, b2)):
            w = closed_form_block(rp, fr)
            worst_entry = max(worst_entry, float(np.max(np.abs(w - blk))))
            worst_weight = max(worst_weight, abs(rp.b**2 + rp.j**2 - 1.0))
    ok = worst_entry <= 1e-9 and worst_weight <= 1e-12
    _verdict(
        "criterion 2 (closed-form blocks)",
        ok,
        f"1000 draws: entrywise {worst_entry:.2e} (tol 1e-9), "
        f"b^2 + j^2 - 1 {worst_weight:.2e} (tol 1e-12)",
    )


def test_criterion_3_translator_identities():
    t = translator()
    q = bell_change_of_basis()
    herm = float(np.max(np.abs(t - t.conj().T)))
    invol = float(np.max(np.abs(t @ t - np.eye(4))))
    colmap = 0.0
    for i in (0, 1):
        for j in (0, 1):
            want = np.zeros(4)
            want[2 * i + (i ^ j)] = 1.0
            colmap = max(colmap, float(np.max(np.abs(q @ t[:, 2 * i + j] - want))))
    ok = herm <= 1e-14 and invol <= 1e-14 and colmap <= 1e-14
    _verdict(
        "criterion 3 (translator identities)",
        ok,
        f"self-adjoint {herm:.1e}, involution {invol:.1e}, "
        f"label map {colmap:.1e} for all four labels (tol 1e-14)",
    )


def test_criterion_4_compilation_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        ids = []
        for _ in range(int(rng.integers(1, 9))):
            tag = B_TAGS[rng.integers(0, len(B_TAGS))]
            if tag in ("B_CNOT12", "B_CNOT21"):
                ids.append(GateId(tag))
            else:
                ids.append(GateId(tag, qubit=int(rng.integers(1, 3))))
        c = Circuit(gates=tuple(ids), basis="computational")
        worst = max(worst, dist_phase_invariant(matrix_of(compile_circuit(c)), matrix_of(c)))
    ok = worst <= 1e-9
    _verdict(
        "criterion 4 (compilation equivalence)",
        ok,
        f"200 random circuits of 1..8 gates: phase-invariant distance {worst:.2e} (tol 1e-9)",
    )


def test_criterion_5_generator_synthesis():
    cases = []
    for tag in ("S_phi_q2", "S_phi_q1"):
        for phi in (math.pi / 8, math.pi / 4, 0.73):
            cases.append(GateId(tag, phi=phi))
    for tag in ("H_q2", "H_q1", "CNOT_12", "CNOT_21"):
        cases.append(GateId(tag))
    worst_realized = 0.0
    worst_residual = 0.0
    for g in cases:
        card = solve_physical(prescription_targets(g))
        fr = bell_frame(card.targets.h)
        cob = fr.change_of_basis
        mat = cob.conj().T @ evolve(card.solved) @ cob
        perm = frame_permutation(fr)
        want = d_gate(g)[np.ix_(perm, perm)]
        worst_realized = max(worst_realized, dist_phase_invariant(mat, want))
        worst_residual = max(worst_residual, max(card.residuals))
    ok = worst_realized <= 1e-8 and worst_residual <= 1e-9
    _verdict(
        "criterion 5 (generator synthesis)",
        ok,
        f"{len(cases)} cards over six generators: realized distance "
        f"{worst_realized:.2e} (tol 1e-8), reduced residual {worst_residual:.2e} (tol 1e-9)",
    )


def test_criterion_6_cnot_family_convergence():
    ok = True
    details = []
    for tag in ("CNOT_12", "CNOT_21"):
        cards = [cnot_family(GateId(tag), m, 1.0) for m in range(1, 7)]
        errs = [c.realized_error for c in cards]
        babs = [
            abs(reduced_params(c.solved, bell_frame(c.targets.h))[0].b) for c in cards
        ]
        monotone = all(a > b for a, b in zip(errs, errs[1:]))
        converged = [e for e, b in zip(errs, babs) if b >= 0.999]
        ok = ok and monotone and bool(converged) and max(converged) < 5e-3
        details.append(
            f"{tag} errors {errs[0]:.1e}..{errs[-1]:.1e} over 6 points, "
            f"{len(converged)} points at |b| >= 0.999 all below 5e-3"
        )
    _verdict("criterion 6 (CNOT family convergence)", ok, "; ".join(details))


def test_criterion_7_fidelity_expansion():
    rng = np.random.default_rng(11)
    ratios = []
    scale_lo = np.inf
    scale_hi = 0.0
    worst_unity = 0.0
    zero = Perturbation(dp=(0.0,) * 6)
    for _ in range(100):
        p = _generic_params(rng)
        fr = bell_frame(p.h)
        state = BlockState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4), fr)
        d = rng.normal(size=6)
        d /= np.linalg.norm(d)

        def residual(step):
            dp = Perturbation(dp=tuple(d * step))
            return abs(fidelity_second_order(state, p, dp) - fidelity_exact(state, p, dp))

        ratios.append(residual(3e-3) / residual(1.5e-3))

        def infidelity(step):
            dp = Perturbation(dp=tuple(d * step))
            return 1.0 - fidelity_exact(state, p, dp)

        scale = infidelity(2e-3) / infidelity(1e-3)
        scale_lo = min(scale_lo, scale)
        scale_hi = max(scale_hi, scale)
        worst_unity = max(
            worst_unity,
            abs(fidelity_exact(state, p, zero) - 1.0),
            abs(fidelity_second_order(state, p, zero) - 1.0),
        )
    med = float(np.median(ratios))
    inside = sum(1 for r in ratios if 6.0 <= r <= 10.0)
    # A triple can land on a direction where the third-order coefficient
    # nearly vanishes, pushing its halving factor toward the fourth-order
    # value 16; the ensemble statistics are the meaningful certificate.
    ok = (
        6.0 <= med <= 10.0
        and inside >= 90
        and scale_lo >= 3.6
        and scale_hi <= 4.4
        and worst_unity <= 1e-14
    )
    _verdict(
        "criterion 7 (fidelity expansion)",
        ok,
        f"100 triples: halving factor median {med:.2f} in [6, 10] with {inside}/100 "
        f"inside, doubling factor in [{scale_lo:.2f}, {scale_hi:.2f}] (band [3.6, 4.4]), "
        f"unit fidelity at zero displacement {worst_unity:.1e} (tol 1e-14)",
    )


def test_criterion_8_derivative_unitarity():
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(100):
        p = _generic_params(rng)
        fr = bell_frame(p.h)
        d = rng.normal(size=6)
        d /= np.linalg.norm(d)
        (d1_1, d1_2), _ = directional_derivatives(p, Perturbation(dp=tuple(d)), fr)
        s1, s2, _ = to_blocks(evolve(p), fr)
        for sk, dk in ((s1, d1_1), (s2, d1_2)):
            a = sk.conj().T @ dk
            worst = max(worst, float(np.max(np.abs(a + a.conj().T))))
    ok = worst <= 1e-9
    _verdict(
        "criterion 8 (derivative unitarity)",
        ok,
        f"100 configurations: skew-hermiticity defect of s^dag Ds {worst:.2e} (tol 1e-9)",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    params_file = tmp_path / "params.json"
    params_file.write_text('{"t": 1.2, "J": [0.7, -0.4, 0.9], "B1": 0.3, "B2": -0.6, "h": 1}')
    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(
        '{"basis": "computational", "gates": '
        '[{"gate": "B_H", "qubit": 1}, {"gate": "B_CNOT12"}, {"gate": "B_S8", "qubit": 2}]}'
    )
    card_file = tmp_path / "card.json"
    assert cli.main(["synth", "H_q2", "--out", str(card_file)]) == 0
    capsys.readouterr()

    invocations = [
        ("evolve", str(params_file)),
        ("evolve", str(params_file), "--format", "csv"),
        ("blocks", str(params_file)),
        ("blocks", str(params_file), "--cross-h", "2"),
        ("synth", "S_phi_q2", "--phi", "0.5"),
        ("synth", "S_phi_q1", "--phi", "0.5", "--route", "alternate"),
        ("synth", "CNOT_12", "--family", "--m", "1..4", "--format", "csv"),
        ("synth", "CNOT_21", "--family", "--m", "1..3"),
        ("compile", str(circuit_file)),
        ("fidelity-sweep", str(card_file), "--states", "2", "--steps", "1e-2,5e-3"),
        ("fidelity-sweep", str(card_file), "--states", "2", "--steps", "1e-2", "--format", "csv"),
    ]
    ok = True
    for argv in invocations:
        outs = []
        for _ in range(2):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            ok = ok and code == 0 and captured.err == ""
            outs.append(captured.out)
        ok = ok and bool(outs[0]) and outs[0] == outs[1]
    _verdict(
        "criterion 9 (deterministic command line)",
        ok,
        f"{len(invocations)} invocations covering every subcommand, "
        "each run twice with byte-identical output",
    )
