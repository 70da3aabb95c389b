"""Command-line interface.

Subcommands: validate, evaluate, simulate, sweep, rank. All accept
--output PATH (default: stdout) and --format json|csv. Exit codes: 0 on
success, 1 when the input fails parsing/validation, 2 on usage errors.
Human-readable progress and diagnostics go to stderr; reports to stdout or
the output file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents, sensitivity, simulation
from .errors import InfoFlowError, ValidationError
from .markov import absorption_probabilities
from .network import ValidationReport, plug_in_chain
from .simulation import DEFAULT_BINS


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
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS, help="histogram bins")

    p = sub.add_parser("sweep", help="ineffective-flow sweep for one stakeholder")
    add_common(p)
    p.add_argument("--stakeholder", required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("mc", "plugin"), default="mc")

    p = sub.add_parser("rank", help="rank stakeholders by ineffective-flow impact")
    add_common(p)
    p.add_argument("--iterations", type=int, required=True)
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


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    raw = Path(args.network).read_bytes()
    digest = documents.input_digest(raw)

    if args.command == "validate":
        try:
            spec = documents.parse_network(raw)
        except ValidationError as exc:
            report = exc.report
            for violation in report.violations:
                _info(f"violation: {violation}")
        else:
            report = ValidationReport(())
            _info(f"OK: {len(spec.stakeholders)} stakeholders, {len(spec.flows)} flows")
        _emit(
            documents.report_document("validate", digest, documents.validation_result(report)),
            args.format,
            args.output,
        )
        return 0 if report.ok else 1

    spec = documents.parse_network(raw)

    if args.command == "evaluate":
        result = absorption_probabilities(plug_in_chain(spec, args.mode))
        row = result.row(spec.start)
        _info(
            f"{spec.start}: P_DI={row[0]:.3f} P_S={row[1]:.3f} P_US={row[2]:.3f} "
            f"({args.mode} plug-in)"
        )
        _emit(
            documents.report_document(
                "evaluate", digest, documents.evaluate_result(args.mode, spec.start, row)
            ),
            args.format,
            args.output,
        )
        return 0

    if args.command == "simulate":
        summary = simulation.run(spec, args.iterations, args.seed, bins=args.bins)
        _info(
            f"mean P_S = {summary.mean_s:.3f} over {summary.iterations} iterations "
            f"(seed {summary.seed})"
        )
        _emit(
            documents.report_document(
                "simulate",
                digest,
                documents.simulation_result(summary, spec.start),
                seed=args.seed,
                iterations=args.iterations,
            ),
            args.format,
            args.output,
        )
        return 0

    if args.command == "sweep":
        sweep = sensitivity.sweep_ineffective(
            spec, args.stakeholder, args.iterations, args.seed, args.mode
        )
        _info(
            f"{sweep.stakeholder}: P_S {sweep.p_s_max:.3f} -> {sweep.p_s_min:.3f} "
            f"over n_di 0..{sweep.n_di_max:g}, impact ratio {sweep.impact_ratio:.5f}"
        )
        _emit(
            documents.report_document(
                "sweep",
                digest,
                documents.sweep_result(sweep),
                seed=args.seed,
                iterations=args.iterations,
            ),
            args.format,
            args.output,
        )
        return 0

    if args.command == "rank":
        sweeps = sensitivity.rank_details(spec, args.iterations, args.seed, args.mode)
        for sw in sweeps:
            _info(f"{sw.stakeholder}: impact ratio {sw.impact_ratio:.5f}")
        _emit(
            documents.report_document(
                "rank",
                digest,
                documents.rank_result(sweeps, sweeps[0].mode if sweeps else args.mode),
                seed=args.seed,
                iterations=args.iterations,
            ),
            args.format,
            args.output,
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


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
        return 1
    except InfoFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
