"""Command-line interface: qassert run / lower / check.

Only `run` loads the simulator; `check` and `lower` need the circuit layer
alone.  Exit codes: 0 success, 1 usage or parse error, 2 internal
invariant violation.  A command handler writes only its result: every
failure is raised, and `main` alone turns it into its message on stderr
and its exit code.  `main` also maps argparse's own exit status (2 on bad
usage, 0 after ``--help``) to 1 or 0; argparse prints its message itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .gates import InvariantViolationError
from .lang import Circuit, ParseError, _check_expected, lower_assertions, parse, pretty_print

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qassert",
        description="Simulate quantum circuits with runtime assertions "
        "and post-selection filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run",
                         help="lower and execute a circuit, reporting statistics")
    run.add_argument("file", help="circuit file (.qac)")
    run.add_argument("--shots", type=int, required=True, help="number of shots")
    run.add_argument("--seed", type=int, required=True, help="master seed")
    run.add_argument("--noise-gate-p", type=float, default=None, metavar="P",
                     help="per-qubit flip probability after each gate")
    run.add_argument("--noise-readout-p", type=float, default=None, metavar="P",
                     help="probability a recorded bit is flipped")
    run.add_argument("--depolarizing", action="store_true",
                     help="draw gate errors uniformly from X/Y/Z instead of X only")
    run.add_argument("--expect", action="append", default=[], metavar="BITSTRING",
                     help="accepted data-creg bitstring (repeatable)")
    run.add_argument("--format", choices=("table", "json"), default="table")
    run.add_argument("--filtered", action="store_true",
                     help="add the post-selection filter report (needs --expect)")

    lower = sub.add_parser("lower",
                           help="print the circuit with assertions expanded")
    lower.add_argument("file", help="circuit file (.qac)")

    check = sub.add_parser("check",
                           help="parse and validate a circuit file")
    check.add_argument("file", help="circuit file (.qac)")
    return parser


def _load_circuit(path: str) -> Circuit:
    """Parse the circuit file at `path`; a `ParseError` propagates."""
    try:
        source = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    return parse(source)


def _cmd_check(args) -> int:
    circuit = _load_circuit(args.file)
    print(
        f"ok: {args.file}: {circuit.num_qubits} qubits, "
        f"{len(circuit.instructions)} instructions, "
        f"{len(circuit.assertion_labels)} assertions"
    )
    return EXIT_OK


def _cmd_lower(args) -> int:
    print(pretty_print(lower_assertions(_load_circuit(args.file))), end="")
    return EXIT_OK


def _cmd_run(args) -> int:
    from . import runner
    from .measurement import NoiseModel

    lowered = lower_assertions(_load_circuit(args.file))
    model = None
    if args.noise_gate_p is not None or args.noise_readout_p is not None or args.depolarizing:
        model = NoiseModel(
            gate_flip_p=args.noise_gate_p or 0.0,
            readout_flip_p=args.noise_readout_p or 0.0,
            depolarizing=args.depolarizing,
        )

    accepted = _check_expected(args.expect, lowered.creg_names, "--expect")
    if args.filtered and not args.expect:
        raise ValueError("--filtered requires at least one --expect")
    if args.depolarizing and args.noise_gate_p is None:
        raise ValueError("--depolarizing requires --noise-gate-p: it chooses which "
                         "Pauli a gate error applies, not how often errors occur")

    stats = runner.run_shots(lowered, args.shots, args.seed, model)
    report = None
    if args.filtered:
        report = runner.compute_filter_report(stats, lambda data: data in accepted)
    meta = {
        "circuit": args.file,
        "shots": args.shots,
        "seed": args.seed,
        "noise": (
            f"gate_flip_p={model.gate_flip_p} readout_flip_p={model.readout_flip_p} "
            f"depolarizing={model.depolarizing}"
            if model
            else "none"
        ),
    }
    out = runner.render_report(
        stats,
        report,
        format=args.format,
        expected=args.expect if args.expect else None,
        meta=meta,
    )
    print(out, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # Exit code 2 is kept for internal invariant violations.
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"run": _cmd_run, "lower": _cmd_lower, "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"{args.file}:{exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolationError as exc:
        print(f"qassert: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"qassert: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
