"""Command-line interface.

Subcommands: validate, evaluate, simulate, sweep, rank. All accept
--output PATH (default: stdout) and --format json|csv. Exit codes: 0 on
success, 1 when the input fails parsing/validation or the computation is
refused (a singular chain, or out of memory; always reported as `error:`
lines on stderr), 2 on usage errors. Human-readable progress and
diagnostics go to stderr; reports to stdout or the output file.

A command imports only the modules it runs: `sensitivity` and `simulation`
are imported in the branches that call them, so `validate` loads neither
(nor numpy.random, nor the Dirichlet and stream layers).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents
from .errors import InfoFlowError, ValidationError
from .network import ValidationReport


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description=(
            "Evaluate disaster-response information flow with an absorbing "
            "Markov chain over Dirichlet-posterior flow probabilities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("network", help="path to the network JSON document")
        p.add_argument("--output", type=Path, default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("validate", help="check a network document")
    add_common(p)

    p = sub.add_parser("evaluate", help="deterministic plug-in absorption from start")
    add_common(p)
    p.add_argument("--mode", choices=("raw", "posterior-mean"), default="raw")

    p = sub.add_parser("simulate", help="Monte Carlo over posterior draws")
    add_common(p)
    p.add_argument("--iterations", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bins", type=_positive_int, help="histogram bins")

    p = sub.add_parser("sweep", help="ineffective-flow sweep for one stakeholder")
    add_common(p)
    p.add_argument("--stakeholder", required=True)
    p.add_argument("--iterations", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("mc", "plugin"), default="mc")

    p = sub.add_parser("rank", help="rank stakeholders by ineffective-flow impact")
    add_common(p)
    p.add_argument("--iterations", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("mc", "plugin"), default="mc")

    return parser


def _emit(report: dict, fmt: str, output: Path | None) -> None:
    data = (
        documents.report_to_json_bytes(report)
        if fmt == "json"
        else documents.report_to_csv_bytes(report)
    )
    if output is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        output.write_bytes(data)


def _run(args: argparse.Namespace, raw: bytes) -> tuple[int, list[str], dict]:
    """A command's exit status, stderr summary lines and report result. The
    lines are printed only once the result is built, so a computation
    refused while it is built (a plug-in sweep's curve, checked as its
    report evaluates it) prints only its error."""
    if args.command == "validate":
        try:
            spec = documents.parse_network(raw)
        except ValidationError as exc:
            report = exc.report
            lines = [f"violation: {violation}" for violation in report.violations]
        else:
            report = ValidationReport(())
            lines = [f"OK: {len(spec.stakeholders)} stakeholders, {len(spec.flows)} flows"]
        return (0 if report.ok else 1), lines, documents.validation_result(report)

    spec = documents.parse_network(raw)
    from . import simulation

    if args.command == "evaluate":
        row = simulation.plug_in_start(spec, args.mode)
        line = (
            f"{spec.start}: P_DI={row[0]:.3f} P_S={row[1]:.3f} P_US={row[2]:.3f} "
            f"({args.mode} plug-in)"
        )
        return 0, [line], documents.evaluate_result(args.mode, spec.start, row)

    if args.command == "simulate":
        bins = simulation.DEFAULT_BINS if args.bins is None else args.bins
        summary = simulation.run(spec, args.iterations, args.seed, bins=bins)
        line = (
            f"mean P_S = {summary.mean_s:.3f} over {summary.iterations} iterations "
            f"(seed {summary.seed})"
        )
        return 0, [line], documents.simulation_result(summary, spec.start)

    from . import sensitivity

    if args.command == "sweep":
        sweep = sensitivity.sweep_ineffective(
            spec, args.stakeholder, args.iterations, args.seed, args.mode
        )
        line = (
            f"{sweep.stakeholder}: P_S {sweep.p_s_max:.3f} -> {sweep.p_s_min:.3f} "
            f"over n_di 0..{sweep.n_di_max:g}, impact ratio {sweep.impact_ratio:.5f}"
        )
        return 0, [line], documents.sweep_result(sweep)

    # rank, the last of the parser's commands
    sweeps = sensitivity.rank_details(spec, args.iterations, args.seed, args.mode)
    lines = [f"{sw.stakeholder}: impact ratio {sw.impact_ratio:.5f}" for sw in sweeps]
    mode = sensitivity.canonical_mode(args.mode)
    return 0, lines, documents.rank_result(sweeps, mode)


def _dispatch(args: argparse.Namespace) -> int:
    raw = Path(args.network).read_bytes()
    digest = documents.input_digest(raw)
    status, lines, result = _run(args, raw)
    for line in lines:
        print(line, file=sys.stderr)
    seed, iterations = getattr(args, "seed", None), getattr(args, "iterations", None)
    report = documents.report_document(args.command, digest, result, seed, iterations)
    _emit(report, args.format, args.output)
    return status


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except ValidationError as exc:
        for violation in exc.report.violations:
            print(f"error: {violation}", file=sys.stderr)
    except (InfoFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(cli_main())
