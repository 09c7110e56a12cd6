"""Command-line front end: spec files in, CSV data and reports out.

Commands::

    simulate <spec> --out <dir>
    verify-identity --n <int> --alpha <float> --tol <float> [--max-terms <int>]
    sweep <spec> --l3-from <float> --l3-to <float> --steps <int> --out <file>

``sweep`` takes ``--steps`` widths L3 evenly spaced from ``--l3-from`` to
``--l3-to``; ``--steps`` is an integer in [2, 2**20], and every L3 must obey
``L3 >= top_level*L1``, as in the spec's ``[cycle]``.

Exit codes: 0 success, 1 input or verification failure, 2 runtime or
numerical failure.  All floats are emitted with 17 significant digits, '.'
decimal separator, and '\\n' line endings; identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .boxmodel import _check_int
from .cycle import (
    CarnotSpec,
    CycleReport,
    build_carnot_cycle,
    evaluate_cycle,
    format_float,
    parse_spec,
    sample_cycle,
)
from .errors import (
    DomainError,
    EngineError,
    SpecFormatError,
    StateError,
    VerificationError,
)
from .processes import SampleTable
from .sudden import IDENTITY_TERM_BUDGET, TruncationReport, verify_energy_identity

SAMPLES_HEADER = "stroke_index,stroke_kind,L,force,energy,entropy,populations"
REPORT_HEADER = "W,Q_H,Q_C,eta,eta_closed_form,quadrature_discrepancy"
SWEEP_HEADER = "L3,W,Q_H,eta,eta_closed_form"

# Sample rows formatted per write, which bounds the text held at once.
_CSV_BLOCK_ROWS = 1024

# Largest sweep --steps: like the samples_per_stroke cap, it bounds the
# output, here one CSV row and one cycle evaluation per step.
MAX_SWEEP_STEPS = 2 ** 20

def _sample_lines(samples: SampleTable, start: int, stop: int) -> list[str]:
    """CSV lines for rows ``start:stop`` of ``samples``.

    Rows are grouped by their number of populated levels, so each group
    shares one ``%``-format; ``"%.17g" % x`` gives the same text as
    :func:`format_float`.
    """
    scalars = [
        getattr(samples, name)[start:stop]
        for name in ("stroke_index", "stroke_kind", "L", "force", "energy", "entropy")
    ]
    levels, weights = samples.levels[start:stop], samples.weights[start:stop]
    support = np.count_nonzero(levels, axis=1)
    lines = [""] * support.size
    for size in set(support.tolist()):
        rows = np.flatnonzero(support == size)
        columns = [c[rows] for c in scalars]
        for j in range(size):
            columns += [levels[rows, j], weights[rows, j]]
        row_format = "%d,%s,%.17g,%.17g,%.17g,%.17g," + ";".join(["%d:%.17g"] * size)
        for i, values in zip(rows.tolist(), zip(*(c.tolist() for c in columns))):
            lines[i] = row_format % values
    return lines


def write_samples_csv(path, samples: SampleTable) -> None:
    """Write ``samples`` with one line per row, formatted from its columns
    ``_CSV_BLOCK_ROWS`` rows at a time."""
    with open(path, "w", newline="\n") as out:
        out.write(SAMPLES_HEADER + "\n")
        for start in range(0, len(samples), _CSV_BLOCK_ROWS):
            out.write("\n".join(_sample_lines(samples, start, start + _CSV_BLOCK_ROWS)) + "\n")


def _report_fields(report: CycleReport) -> list[tuple[str, str]]:
    """(column, formatted value) for each column of ``REPORT_HEADER``."""
    return [(name, format_float(getattr(report, name))) for name in REPORT_HEADER.split(",")]


def write_report_csv(path, report: CycleReport) -> None:
    row = ",".join(value for _, value in _report_fields(report))
    Path(path).write_text(REPORT_HEADER + "\n" + row + "\n", newline="\n")


def _print_report(report: CycleReport) -> None:
    for name, value in _report_fields(report):
        print(f"{name} = {value}")


def _print_identity(report: TruncationReport, file=None) -> None:
    print(f"achieved_sum = {format_float(report.achieved_sum)}", file=file)
    print(f"terms_used = {report.terms_used}", file=file)
    print(f"tail_bound = {format_float(report.tail_bound)}", file=file)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# Exit code of each failure a command raises, looked up along the exception's
# MRO.  A spec file that cannot be read raises SpecFormatError, so an OSError
# comes from writing the output.
_EXIT_CODES = {
    SpecFormatError: 1,
    DomainError: 1,
    StateError: 1,
    VerificationError: 1,
    EngineError: 2,
    OSError: 2,
}


def _exit_code(command):
    """``command`` returning exit code 0, or the code in ``_EXIT_CODES`` of
    the failure it raises, which is written as one ``error:`` line."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            command(*args, **kwargs)
        except tuple(_EXIT_CODES) as exc:
            if isinstance(exc, VerificationError):
                _print_identity(exc.report, sys.stderr)
            prefix = "cannot write output: " if isinstance(exc, OSError) else ""
            code = next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
            return _fail(f"{prefix}{exc}", code)
        return 0

    return run


def _load_spec(spec_path) -> CarnotSpec:
    """The spec in the file at ``spec_path``; a file that cannot be read or
    parsed raises :class:`SpecFormatError` with a message naming the path."""
    try:
        return parse_spec(Path(spec_path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, SpecFormatError) as exc:
        raise SpecFormatError(f"{spec_path}: {exc}") from exc


@_exit_code
def cmd_simulate(spec_path, out_dir):
    """Write samples.csv and report.csv for the cycle described by ``spec_path``."""
    cycle = build_carnot_cycle(_load_spec(spec_path))
    report = evaluate_cycle(cycle)
    samples = sample_cycle(cycle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_samples_csv(out / "samples.csv", samples)
    write_report_csv(out / "report.csv", report)
    _print_report(report)


@_exit_code
def cmd_verify_identity(n, alpha, tol, max_terms: int = IDENTITY_TERM_BUDGET):
    """Certify the post-expansion energy-conservation sum for one (n, alpha)."""
    _print_identity(verify_energy_identity(n, alpha, tol, max_terms=max_terms))


@_exit_code
def cmd_sweep(spec_path, l3_from, l3_to, steps, out_path):
    """Efficiency curve over a range of L3 values, one CSV row per step; every
    step's :class:`CarnotSpec` is built, and so checked, before any cycle runs."""
    base = _load_spec(spec_path)
    steps = _check_int(steps, "steps", 2, MAX_SWEEP_STEPS)
    specs = [dataclasses.replace(base, L3=float(L3)) for L3 in np.linspace(l3_from, l3_to, steps)]
    rows = []
    for spec in specs:
        report = evaluate_cycle(build_carnot_cycle(spec))
        rows.append(",".join(format_float(v) for v in (
            spec.L3, report.W, report.Q_H, report.eta, report.eta_closed_form
        )))
    Path(out_path).write_text("\n".join([SWEEP_HEADER, *rows]) + "\n", newline="\n")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and reused by later calls."""
    parser = _Parser(prog="qcarnot", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one cycle and emit CSV data")
    sim.add_argument("spec", help="path to a cycle spec file")
    sim.add_argument("--out", required=True, help="output directory for the CSV files")

    ver = sub.add_parser("verify-identity", help="certify energy conservation after a sudden expansion")
    ver.add_argument("--n", type=int, required=True, help="initial level")
    ver.add_argument("--alpha", type=float, required=True, help="expansion ratio (> 1)")
    ver.add_argument("--tol", type=float, required=True, help="certification tolerance, in (0, 1e-4]")
    ver.add_argument("--max-terms", type=int, default=IDENTITY_TERM_BUDGET, help="summation budget")

    sw = sub.add_parser("sweep", help="efficiency curve over a range of L3")
    sw.add_argument("spec", help="path to a cycle spec file")
    sw.add_argument("--l3-from", type=float, required=True)
    sw.add_argument("--l3-to", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc), 1)
    if args.command == "simulate":
        return cmd_simulate(args.spec, args.out)
    if args.command == "verify-identity":
        return cmd_verify_identity(args.n, args.alpha, args.tol, max_terms=args.max_terms)
    return cmd_sweep(args.spec, args.l3_from, args.l3_to, args.steps, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
