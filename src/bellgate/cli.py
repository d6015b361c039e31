"""Batch command-line surface.

Five subcommands expose the library: evolve (propagator of a parameter
file), blocks (frame decomposition and reduced parameters), synth
(pulse prescription cards and CNOT families), compile (Bell-grammar
compilation of computational circuits), fidelity-sweep (perturbation
reports for a solved card).

All output is deterministic for fixed inputs and seed: floats print
with 17 significant digits, complex entries as {"re":…, "im":…},
angles are radians.  Exit codes: 0 success, 2 input error, 3
numerical or solver failure; failures write one JSON error object to
stderr.  --format exists where a second format does: evolve and
fidelity-sweep print json or csv, synth prints json always and csv for
--family; blocks and compile print json and take no --format.

A command loads only the layers it runs: each handler imports its own,
so a cold evolve or compile never compiles the solver or the fidelity
expansion.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

import numpy as np

from .checks import SOLVABLE_TAGS, STRUCTURAL_TOL
from .errors import BellgateError, SolverFailure
from .jsonio import complex_matrix, dumps, dumps_csv

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _grid(text: str) -> list[float]:
    """The steps of a comma list; empty items are skipped."""
    return [float(s) for s in text.split(",") if s.strip() != ""]


def _reads(read: Callable[[str], object], text: str) -> bool:
    try:
        read(text)
    except ValueError:
        return False
    return True


#: per subcommand, the options whose value may start with "-", each with the reader of its value
_SIGNED_VALUES = {"synth": {"--phi": float, "--field-scale": float}, "fidelity-sweep": {"--steps": _grid}}


def _option_named(token: str, options: dict[str, argparse.Action]) -> str | None:
    """The option a token names as argparse reads it: itself, or the one option it is a prefix of."""
    if token in options:
        return token
    matches = [o for o in options if o.startswith(token)] if token.startswith("--") else []
    return matches[0] if len(matches) == 1 else None


def _attach_values(argv: list[str], subcommands: dict[str, _Parser]) -> list[str]:
    """Spell "--phi VALUE", "--field-scale VALUE" and "--steps GRID" with "=".

    argparse reads a value that starts with "-" and is not a plain
    decimal, such as -5e-3, -inf or -1e-2,5e-3, as an option and reports
    a missing argument; attached with "=", it is read as the value.  Only
    the subcommand that has the option attaches it, and only a text the
    option reads, so every other usage error keeps quoting the arguments
    as given.  An option is named as argparse names it, in full or by a
    prefix of it alone, so "--ph -5e-3" is "--phi=-5e-3" on synth; an
    ambiguous prefix attaches nothing and keeps argparse's error.
    """
    # the top-level parser takes no option values, so its first positional is the subcommand
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    readers = _SIGNED_VALUES.get(command, {})
    options = subcommands[command]._option_string_actions if readers else {}
    out = []
    for arg in argv:
        read = readers.get(_option_named(out[-1], options)) if out else None
        if read is not None and _reads(read, arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except RecursionError:
            # nested deeper than the parser's recursion limit, an input error like any malformed file
            raise ValueError(f"{path} nests its JSON values too deeply to parse") from None


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser, and its subcommand parsers by name."""
    parser = _Parser(prog="bellgate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def formatted(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        out(p)

    p = sub.add_parser("evolve", help="propagator of a parameter file")
    p.add_argument("params", help="PhysicalParams JSON file")
    formatted(p)

    p = sub.add_parser("blocks", help="Bell-frame decomposition of a propagator")
    p.add_argument("params", help="PhysicalParams JSON file")
    p.add_argument("--cross-h", type=int, default=None, choices=(1, 2, 3),
                   help="also report the off-block residual in this frame")
    out(p)

    p = sub.add_parser("synth", help="solve a pulse prescription card")
    p.add_argument("gate", choices=SOLVABLE_TAGS)
    p.add_argument("--phi", type=float, default=None, help="phase angle, radians")
    p.add_argument("--m", default=None,
                   help="winding number of a CNOT (default 1), or a..b range with --family")
    p.add_argument("--m-prime", type=int, default=None)
    p.add_argument("--route", choices=("printed", "alternate"), default=None)
    p.add_argument("--family", action="store_true",
                   help="emit the asymptotic CNOT family instead of one card")
    p.add_argument("--field-scale", type=float, default=None)
    formatted(p)

    p = sub.add_parser("compile", help="compile a computational circuit to Bell grammar")
    p.add_argument("circuit", help="Circuit JSON file")
    out(p)

    p = sub.add_parser("fidelity-sweep", help="perturbation reports for a solved card")
    p.add_argument("card", help="PrescriptionCard JSON file")
    p.add_argument("--states", type=int, default=64)
    p.add_argument("--steps", default="1e-2,5e-3,2.5e-3",
                   help="comma-separated coordinate steps")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="state sampling seed")
    formatted(p)

    return parser, sub.choices


def _cmd_evolve(args) -> str:
    from .model import PhysicalParams, evolve
    from .spinlin import dist_unitary

    p = PhysicalParams.from_doc(_load(args.params))
    u = evolve(p)
    if args.format == "csv":
        rows = ((r, c, u[r, c].real, u[r, c].imag) for r in range(4) for c in range(4))
        return dumps_csv(("row", "col", "re", "im"), rows)
    doc = {
        "params": p.to_doc(),
        "unitary": complex_matrix(u),
        "unitarity_residual": dist_unitary(u),
    }
    return dumps(doc, indent=2) + "\n"


def _cmd_blocks(args) -> str:
    from .bellframe import bell_frame, closed_form_block, reduced_params, to_blocks
    from .model import PhysicalParams, evolve

    p = PhysicalParams.from_doc(_load(args.params))
    frame = bell_frame(p.h)
    u = evolve(p)
    b1, b2, off = to_blocks(u, frame)
    rps = reduced_params(p, frame)
    reduced = []
    for rp, blk in zip(rps, (b1, b2)):
        rebuilt = closed_form_block(rp, frame)
        reduced.append(
            {
                "block": rp.block,
                "delta_plus": rp.delta_plus,
                "delta_minus": rp.delta_minus,
                "b": rp.b,
                "j": rp.j,
                "closed_form_residual": float(np.max(np.abs(rebuilt - blk))),
            }
        )
    doc = {
        "frame": frame.to_doc(),
        "block1": complex_matrix(b1),
        "block2": complex_matrix(b2),
        "offblock_norm": off,
        "within_structural_tol": off <= STRUCTURAL_TOL,
        "reduced": reduced,
        "cross": None,
    }
    if args.cross_h is not None:
        _, _, cross_off = to_blocks(u, bell_frame(args.cross_h))
        doc["cross"] = {"h": args.cross_h, "offblock_norm": cross_off}
    return dumps(doc, indent=2) + "\n"


def _parse_m(text: str | None, family: bool) -> range:
    """The windings --m names: 1 when it is absent, an integer, or with --family an a..b range."""
    if text is None:
        return range(1, 2)
    if ".." in text and not family:
        raise ValueError("synth only takes an --m range a..b together with --family")
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--m takes an integer{' or a range a..b' if family else ''}, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty winding range {text!r}")
    return range(lo, hi + 1)


def _cmd_synth(args) -> str:
    from . import calib
    from .gates import GateId

    gate = GateId(tag=args.gate, phi=args.phi)
    if args.family:
        if args.gate not in ("CNOT_12", "CNOT_21"):
            raise ValueError(f"synth --family takes CNOT_12 or CNOT_21, got {args.gate}")
        for flag, value in (("--m-prime", args.m_prime), ("--route", args.route)):
            if value is not None:
                raise ValueError(f"synth --family takes no {flag}")
        scale = 1.0 if args.field_scale is None else args.field_scale
        windings = _parse_m(args.m, family=True)
        # the range is walked lazily: its far end meets its card's winding bounds before any card is solved
        calib.prescription_targets(gate, m=windings[-1], m_prime=windings[-1])
        # each card with its evaluation, which also measured its |b|
        cards = [calib._family_card(gate, m=m, field_scale=scale) for m in windings]
        if args.format == "csv":
            header = ("gate", "h", "m", "m_prime", "field_scale", "t", "b_abs", "realized_error")
            rows = (
                (c.targets.gate.tag, c.targets.h, c.targets.m, c.targets.m_prime,
                 scale, c.solved.t, e.b_abs, c.realized_error)
                for c, e in cards
            )
            return dumps_csv(header, rows)
        doc = {
            "field_scale": scale,
            "family": [dict(c.to_doc(), b_abs=e.b_abs) for c, e in cards],
        }
        return dumps(doc, indent=2) + "\n"
    if args.format == "csv":
        raise ValueError("synth only supports --format csv together with --family")
    if args.field_scale is not None:
        raise ValueError("synth only takes --field-scale together with --family")
    tg = calib.prescription_targets(
        gate, m=_parse_m(args.m, family=False)[0], m_prime=args.m_prime or 0, route=args.route or "printed"
    )
    if tg.m is None:
        # only a CNOT row carries windings; the other rows ignore them
        for flag, value in (("--m", args.m), ("--m-prime", args.m_prime)):
            if value is not None:
                raise ValueError(f"synth {args.gate} takes no {flag}: only a CNOT has windings")
    return dumps(calib.solve_physical(tg).to_doc(), indent=2) + "\n"


def _cmd_compile(args) -> str:
    from .gates import Circuit, compile_circuit, matrix_of
    from .spinlin import dist_phase_invariant

    circuit = Circuit.from_doc(_load(args.circuit))
    compiled = compile_circuit(circuit)
    residual = dist_phase_invariant(matrix_of(compiled), matrix_of(circuit))
    doc = {
        "compiled": compiled.to_doc(),
        "equivalence_residual": residual,
    }
    return dumps(doc, indent=2) + "\n"


def _cmd_fidelity_sweep(args) -> str:
    from . import calib, fidelity
    from .bellframe import bell_frame

    card = calib.PrescriptionCard.from_doc(_load(args.card))
    steps = _grid(args.steps)
    frame = bell_frame(card.targets.h)
    states = fidelity.sample_states(frame, n=args.states, seed=args.seed)
    result = fidelity.sensitivity_sweep(card, states, steps)
    g = card.targets.gate
    if args.format == "csv":
        header = ("gate", "phi", "m", "state_id", "param", "dp",
                  "f2_exact", "f2_second_order", "cubic_residual")
        rows = (
            (g.tag, g.phi, card.targets.m, sid, name, dp.dp[fidelity.PARAM_NAMES.index(name)],
             f2e, f2s, cubic)
            for sid, name, dp, f2e, f2s, _, cubic in result.rows()
        )
        return dumps_csv(header, rows)
    doc = {
        "gate": g.tag,
        "phi": g.phi,
        "m": card.targets.m,
        "reports": [
            {
                "state_id": sid,
                "param": name,
                "dp": dp.dp,
                "f2_exact": f2e,
                "f2_second_order": f2s,
                "cubic_residual": cubic,
                "per_parameter_gradient": grad,
            }
            for sid, name, dp, f2e, f2s, grad, cubic in result.rows()
        ],
        "ranking": [[name, val] for name, val in fidelity.rank_parameters(card)],
    }
    return dumps(doc, indent=2) + "\n"


_HANDLERS = {
    "evolve": _cmd_evolve,
    "blocks": _cmd_blocks,
    "synth": _cmd_synth,
    "compile": _cmd_compile,
    "fidelity-sweep": _cmd_fidelity_sweep,
}


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(dumps({"error": {"type": kind, "message": str(exc)}}) + "\n")


def main(argv=None) -> int:
    parser, subcommands = _build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv, subcommands))
    except _UsageError as exc:
        _emit_error("usage", exc)
        return 2
    try:
        text = _HANDLERS[args.command](args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except SolverFailure as exc:
        _emit_error("solver", exc)
        return 3
    except BellgateError as exc:
        _emit_error("numerical", exc)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError is an input asking for more than the machine holds, such as a huge --states
        _emit_error("input", exc)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
