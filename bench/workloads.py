"""The four workloads: seeded inputs, one operation, and its oracle check.

Each workload generates all of its inputs from the seed before timing,
then the worker's loop calls ``op`` on them in turn (one client, closed
loop) and ``check`` on each result outside the timed region.  ``check``
returns the names of the checks an output failed.  An operation that
raises or fails a check counts as failed, except for the checks named
in ``accuracy_checks``: those measure the accuracy of an approximation
the package makes, and a miss is reported on its own (the report's
accuracy_miss_ratio and the traced run's fidelity.gradient_miss_share)
rather than as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import bellgate
import bellgate.cli

import oracle

CLI_ENTRY = "import sys; from bellgate.cli import main; sys.exit(main())"
SWEEP_STEPS = (1e-2, 5e-3, 2.5e-3)
SWEEP_STATES = 64
GRADIENT_H = 1e-4
GRADIENT_TOL = 0.01


def _block_diag(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = b1
    m[2:, 2:] = b2
    return m


def _random_circuit(rng) -> tuple[tuple[str, int | None], ...]:
    gates = []
    for _ in range(int(rng.integers(1, 9))):
        tag = str(rng.choice(bellgate.B_TAGS))
        gates.append((tag, None if tag.startswith("B_CNOT") else int(rng.integers(1, 3))))
    return tuple(gates)


def _circuit(gates) -> "bellgate.Circuit":
    return bellgate.Circuit(
        gates=tuple(bellgate.GateId(tag, qubit=q) for tag, q in gates), basis="computational"
    )


class Scan:
    """Propagator, Bell split, closed form and compiler on independent inputs."""

    name = "scan"
    operation = "parameter set + circuit"
    item = "parameter set"
    #: the name the report gives a generic end-to-end metric on this workload
    aliases = {"items_per_s": "scan_ops_per_s"}
    why = (
        "per-call cost of the 4x4 propagator, the Bell split and the compiler, with no solver, "
        "no derivatives and no work shared between operations"
    )
    accuracy_checks: dict[str, str] = {}
    pool = 2048
    #: kinds of parameter set, each a fixed share of the pool
    shares = {"t0": 0.125, "degenerate": 0.125, "large": 0.125, "generic": 0.625}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        kinds = [k for k, s in self.shares.items() for _ in range(round(s * self.pool))]
        rng.shuffle(kinds)
        self.inputs = []
        for i, kind in enumerate(kinds):
            t = float(rng.uniform(0.0, 4.0))
            c = rng.uniform(-2.0, 2.0, size=5)
            if kind == "t0":
                t = 0.0
            elif kind == "degenerate":
                c = np.array([c[0], c[0], c[0], 0.0, 0.0])
            elif kind == "large":
                c = c / 2.0 * 10.0 ** rng.uniform(1.0, 3.0)
            p = bellgate.PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=i % 3 + 1)
            gates = _random_circuit(rng)
            self.inputs.append((kind, p, gates, _circuit(gates)))
        self.gate_counts: dict[str, int] = {}
        for _, _, gates, _ in self.inputs:
            for tag, _ in gates:
                self.gate_counts[tag] = self.gate_counts.get(tag, 0) + 1

    def describe(self) -> dict:
        total = sum(self.gate_counts.values())
        return {
            "pool": len(self.inputs),
            "param_shares": self.shares,
            "large_magnitude_range": [10.0, 1000.0],
            "gate_mix": {k: round(v / total, 4) for k, v in sorted(self.gate_counts.items())},
        }

    def warmup(self) -> None:
        self.op(self.inputs[0])

    @staticmethod
    def op(inp):
        _, p, _, circ = inp
        fr = bellgate.bell_frame(p.h)
        u = bellgate.evolve(p)
        b1, b2, off = bellgate.to_blocks(u, fr)
        rps = bellgate.reduced_params(p, fr)
        rebuilt = [bellgate.closed_form_block(rp, fr) for rp in rps]
        compiled = bellgate.compile_circuit(circ)
        m_compiled = bellgate.matrix_of(compiled)
        m_original = bellgate.matrix_of(circ)
        dist = bellgate.dist_phase_invariant(m_compiled, m_original)
        return fr, u, (b1, b2), off, rps, rebuilt, m_compiled, m_original, dist

    @staticmethod
    def items(out) -> int:
        return 1

    @staticmethod
    def check(inp, out) -> list[str]:
        _, p, gates, _ = inp
        fr, u, blocks, off, rps, rebuilt, m_compiled, m_original, dist = out
        want = oracle.propagator_of(p)
        bad = []
        if np.abs(u - want).max() > 1e-9:
            bad.append("evolve")
        cob = fr.change_of_basis
        split = cob @ _block_diag(*blocks) @ cob.conj().T
        if not oracle.is_bell_permutation(cob) or off > 1e-10 or np.abs(split - want).max() > 1e-9:
            bad.append("blocks")
        if any(
            np.abs(w - b).max() > 1e-9 or abs(rp.b**2 + rp.j**2 - 1.0) > 1e-12
            for w, b, rp in zip(rebuilt, blocks, rps)
        ):
            bad.append("closed_form")
        circ = oracle.circuit_matrix(gates)
        if (
            oracle.phase_distance(m_compiled, circ) > 1e-9
            or oracle.phase_distance(m_original, circ) > 1e-9
            or dist > 1e-9
        ):
            bad.append("compile")
        return bad


class Synth:
    """Multistart solves of shifted-drift targets that the closed form misses."""

    name = "synth"
    operation = "solve_physical"
    item = "card"
    #: the name the report gives a generic end-to-end metric on this workload
    aliases = {"op_p50_s": "synth_card_p50_s"}
    why = (
        "the multistart least-squares solver on targets the closed form misses: 64 starts "
        "and thousands of propagators per card, no import and no fidelity work"
    )
    accuracy_checks: dict[str, str] = {}
    pool = 8
    kinds = ("S_phi_q2", "S_phi_q1", "CNOT_12", "CNOT_21")
    #: (m, m_prime) windings of the shifted CNOT rows.  CNOT_12 (2, 1) and
    #: CNOT_21 (2, 0) exhaust the default 64 starts (SolverFailure), so they
    #: are left out: the workload times cards that are reached.
    windings = {
        "CNOT_12": ((1, 0), (1, 1), (1, 2), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2)),
        "CNOT_21": ((1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)),
    }

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for i in range(self.pool):
            tag = self.kinds[i % len(self.kinds)]
            if tag.startswith("S_phi"):
                # near phi = 0 or pi a solve takes up to ten times the evaluations
                # of a typical card; those would set a run's median.  The two
                # draws of each phase gate come from the two halves of the
                # range, so every pool mixes cheaper and dearer targets alike.
                lo = 1.0 + 0.6 * (i // len(self.kinds))
                phi = float(rng.uniform(lo, lo + 0.6) + math.pi * rng.integers(0, 2))
                route = "alternate" if tag == "S_phi_q1" else "printed"
                published = bellgate.prescription_targets(bellgate.GateId(tag, phi=phi), route=route)
                shift = math.pi
            else:
                m, m_prime = self.windings[tag][rng.integers(0, len(self.windings[tag]))]
                published = bellgate.prescription_targets(bellgate.GateId(tag), m=m, m_prime=m_prime)
                shift = 5.0 * math.pi / 4.0
            self.inputs.append((published, dataclasses.replace(published, delta_plus_1=shift)))

    def describe(self) -> dict:
        return {
            "pool": len(self.inputs),
            "targets": [
                {"gate": tg.gate.tag, "phi": tg.gate.phi, "m": tg.m, "m_prime": tg.m_prime,
                 "h": tg.h, "delta_plus_1": tg.delta_plus_1}
                for _, tg in self.inputs
            ],
        }

    def warmup(self) -> None:
        # the published row of the first target: closed form, no multistart
        bellgate.solve_physical(self.inputs[0][0])

    @staticmethod
    def op(inp):
        return bellgate.solve_physical(inp[1])

    @staticmethod
    def items(out) -> int:
        return 1

    @staticmethod
    def check(inp, card) -> list[str]:
        tg = inp[1]
        bad = []
        if card.realized_error > 1e-8 or max(card.residuals) > 1e-8 or card.solved.h != tg.h:
            bad.append("card")
        u_bell = oracle.BELL.conj().T @ oracle.propagator_of(card.solved) @ oracle.BELL
        if oracle.phase_distance(u_bell, oracle.bell_gate(tg.gate.tag, tg.gate.phi)) > 1e-8:
            bad.append("oracle_gate")
        return bad


class Sweep:
    """Fidelity sensitivity sweeps of closed-form and CNOT-family cards."""

    name = "sweep"
    operation = "sensitivity_sweep of one card"
    item = "report"
    #: the name the report gives a generic end-to-end metric on this workload
    aliases = {"items_per_s": "sweep_reports_per_s"}
    why = (
        "fidelity sweeps, where 64 states share the same six (parameter, direction) derivative "
        "pairs; finite-difference derivatives dominate and no solver runs"
    )
    #: the second-order gradients are an approximation with a known defect
    #: on large-field family cards; misses are reported, not failed
    accuracy_checks = {
        "gradient": "per_parameter_gradient off the oracle curvature by more than 1%; known defect, "
        "the derivative stencil scales with the largest parameter, so large-field family cards miss",
    }
    family_scales = (1.0, 3.0, 10.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        phi = float(rng.uniform(0.1, 2.0 * math.pi - 0.1))
        cards = [
            bellgate.solve_physical(bellgate.prescription_targets(bellgate.GateId(tag, phi=p)))
            for tag, p in (("H_q2", None), ("H_q1", None), ("S_phi_q2", phi))
        ]
        for scale in self.family_scales:
            for _ in range(3):
                tag = str(rng.choice(("CNOT_12", "CNOT_21")))
                m = int(rng.integers(1, 9))
                cards.append(bellgate.cnot_family(bellgate.GateId(tag), m, scale))
        order = rng.permutation(len(cards))
        self.inputs = [cards[i] for i in order]
        self.states = {
            h: bellgate.sample_states(bellgate.bell_frame(h), n=SWEEP_STATES, seed=seed)
            for h in (1, 3)
        }

    @staticmethod
    def field_weight(card) -> float | None:
        """m * field_scale of a family card, None for a closed-form row."""
        if card.targets.b_abs_to_one:
            return round(card.targets.m / card.solved.t, 9)
        return None

    def describe(self) -> dict:
        return {
            "pool": len(self.inputs),
            "states": SWEEP_STATES,
            "steps": list(SWEEP_STEPS),
            "cards": [
                {"gate": c.targets.gate.tag, "m": c.targets.m,
                 "m_times_field_scale": self.field_weight(c)}
                for c in self.inputs
            ],
        }

    def warmup(self) -> None:
        card = self.inputs[0]
        bellgate.sensitivity_sweep(card, self.states[card.targets.h][:1], list(SWEEP_STEPS))

    def op(self, card):
        return bellgate.sensitivity_sweep(card, self.states[card.targets.h], list(SWEEP_STEPS))

    @staticmethod
    def items(reports) -> int:
        return len(reports)

    def check(self, card, reports) -> list[str]:
        p = card.solved
        states = self.states[p.h]
        bad = []
        if len(reports) != len(states) * 6 * len(SWEEP_STEPS):
            bad.append("reports")
        cob = states[0].frame.change_of_basis
        if not oracle.is_bell_permutation(cob):
            bad.append("frame")
        x0 = np.array([p.t, *p.J, p.B1, p.B2])
        u0 = oracle.propagator(x0[0], x0[1:4], x0[4], x0[5], p.h)
        shifted = {}

        def moved(i: int, step: float) -> np.ndarray:
            if (i, step) not in shifted:
                x = x0.copy()
                x[i] += step
                shifted[i, step] = oracle.propagator(x[0], x[1:4], x[4], x[5], p.h)
            return shifted[i, step]

        names = ("t", "J1", "J2", "J3", "B1", "B2")
        exact_ok = True
        grads = {}
        for rep in reports:
            psi = cob @ states[rep.state_id].amplitudes
            step = rep.dp.dp[names.index(rep.param)]
            want = oracle.fidelity(psi, u0, moved(names.index(rep.param), step))
            exact_ok = exact_ok and abs(rep.f2_exact - want) <= 1e-9
            grads.setdefault(rep.state_id, rep.per_parameter_gradient)
        if not exact_ok:
            bad.append("f2_exact")
        h = GRADIENT_H / max(1.0, float(np.abs(x0).max()))
        for sid, grad in grads.items():
            psi = cob @ states[sid].amplitudes
            coef = np.array([(1.0 - oracle.fidelity(psi, u0, moved(i, h))) / h**2 for i in range(6)])
            if np.abs(np.asarray(grad) - coef).max() > GRADIENT_TOL * np.abs(coef).max():
                bad.append("gradient")
                break
        return bad


class Cli:
    """Cold ``bellgate`` subprocesses of all five subcommands in rotation."""

    name = "cli"
    operation = "cold bellgate subprocess"
    item = "subprocess"
    #: the name the report gives a generic end-to-end metric on this workload
    aliases = {"op_p50_s": "cli_wall_p50_s"}
    why = (
        "cold start of the command line, where import dominates and compute is small; "
        "the only workload where start-up is not amortised"
    )
    accuracy_checks: dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        params, circuits, cards = [], [], []
        for k in range(2):
            c = rng.uniform(-2.0, 2.0, size=5)
            doc = {"t": float(rng.uniform(0.5, 4.0)), "J": [float(v) for v in c[:3]],
                   "B1": float(c[3]), "B2": float(c[4]), "h": int(rng.integers(1, 4))}
            params.append(workdir / f"params{k}.json")
            params[-1].write_text(json.dumps(doc))
            gates = [{"gate": t} if q is None else {"gate": t, "qubit": q} for t, q in _random_circuit(rng)]
            circuits.append(workdir / f"circuit{k}.json")
            circuits[-1].write_text(json.dumps({"basis": "computational", "gates": gates}))
            cards.append(workdir / f"card{k}.json")
        phi = f"{rng.uniform(0.1, 6.0):.6f}"
        self.run_in_process(["synth", "H_q2", "--out", str(cards[0])])
        self.run_in_process(["synth", "S_phi_q2", "--phi", phi, "--out", str(cards[1])])
        self.inputs = [
            ["evolve", str(params[0])],
            ["blocks", str(params[1]), "--cross-h", str(int(rng.integers(1, 4)))],
            ["synth", "S_phi_q1", "--phi", phi],
            ["compile", str(circuits[0])],
            ["fidelity-sweep", str(cards[0]), "--states", "2"],
            ["evolve", str(params[1]), "--format", "csv"],
            ["blocks", str(params[0])],
            ["synth", "CNOT_12", "--family", "--m", f"1..{int(rng.integers(2, 5))}",
             "--field-scale", str(int(rng.choice([1, 3, 10])))],
            ["compile", str(circuits[1])],
            ["fidelity-sweep", str(cards[1]), "--states", "2", "--format", "csv"],
        ]
        self.inputs = [(argv, self.run_in_process(argv)) for argv in self.inputs]

    @staticmethod
    def run_in_process(argv) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bellgate.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"bellgate {' '.join(argv)} exited with {code}")
        return out.getvalue().encode()

    def describe(self) -> dict:
        return {
            "pool": len(self.inputs),
            "invocations": [" ".join(a[0:1] + [Path(x).name if "/" in x else x for x in a[1:]])
                            for a, _ in self.inputs],
        }

    def warmup(self) -> None:
        self.op(self.inputs[0])

    def op(self, inp):
        argv, _ = inp
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            cwd=self.workdir, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def items(out) -> int:
        return 1

    @staticmethod
    def check(inp, out) -> list[str]:
        code, stdout = out
        bad = []
        if code != 0:
            bad.append("exit")
        if stdout != inp[1]:
            bad.append("stdout")
        return bad


WORKLOADS = {w.name: w for w in (Scan, Synth, Sweep, Cli)}
