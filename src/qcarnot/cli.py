"""Command-line front end: spec files in, CSV data and reports out.

Spec file grammar: lines are ``[section]`` headers or ``key = value``; ``#``
starts a comment; sections are ``well``, ``cycle``, ``sudden``.  Values are
decimal numbers or bare integers, except ``type`` which takes the identifier
``carnot``.  Duplicate keys or sections, unknown keys, and constraint
violations are rejected with line-numbered diagnostics.

Commands::

    simulate <spec> --out <dir>
    verify-identity --n <int> --alpha <float> --tol <float> [--max-terms <int>]
    sweep <spec> --l3-from <float> --l3-to <float> --steps <int> --out <file>

Exit codes: 0 success, 1 input or verification failure, 2 runtime or
numerical failure.  All floats are emitted with 17 significant digits, '.'
decimal separator, and '\\n' line endings; identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxmodel import WellParams
from .cycle import (
    MAX_TOP_LEVEL,
    CarnotSpec,
    CycleReport,
    build_carnot_cycle,
    evaluate_cycle,
    sample_cycle,
)
from .errors import (
    DomainError,
    EngineError,
    QuadratureError,
    SpecFormatError,
    StateError,
    TruncationError,
    VerificationError,
)
from .processes import SampleTable
from .sudden import verify_energy_identity

SAMPLES_HEADER = "stroke_index,stroke_kind,L,force,energy,entropy,populations"
REPORT_HEADER = "W,Q_H,Q_C,eta,eta_closed_form,quadrature_discrepancy"
SWEEP_HEADER = "L3,W,Q_H,eta,eta_closed_form"

# Sample rows formatted per write, which bounds the text held at once.
_CSV_BLOCK_ROWS = 1024

_INT_RE = re.compile(r"[+-]?\d+$")

_SECTION_KEYS = {
    "well": ("hbar", "mass"),
    "cycle": ("type", "top_level", "L1", "L3", "samples_per_stroke"),
    "sudden": ("n", "alpha", "tol"),
}
_INT_KEYS = {"top_level", "samples_per_stroke", "n"}


@dataclass(frozen=True)
class CycleSection:
    top_level: int
    L1: float
    L3: float
    type: str = "carnot"
    samples_per_stroke: int = 256


@dataclass(frozen=True)
class SuddenSection:
    n: int
    alpha: float
    tol: float = 1e-6


@dataclass(frozen=True)
class SpecFile:
    well: WellParams
    cycle: CycleSection
    sudden: SuddenSection | None = None

    def to_carnot_spec(self) -> CarnotSpec:
        return CarnotSpec(
            top_level=self.cycle.top_level,
            L1=self.cycle.L1,
            L3=self.cycle.L3,
            params=self.well,
            samples_per_stroke=self.cycle.samples_per_stroke,
        )


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _scan(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """Tokenize the spec text into ``{section: {key: (line, raw value)}}``."""
    entries: dict[str, dict[str, tuple[int, str]]] = {}
    section_lines: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFormatError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise SpecFormatError(
                    f"unknown section '[{name}]' (expected one of: well, cycle, sudden)", lineno
                )
            if name in section_lines:
                raise SpecFormatError(
                    f"duplicate section '[{name}]' (first at line {section_lines[name]})", lineno
                )
            section_lines[name] = lineno
            section = name
            entries[name] = {}
            continue
        if "=" not in line:
            raise SpecFormatError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise SpecFormatError(f"key {key!r} appears before any section header", lineno)
        if key not in _SECTION_KEYS[section]:
            raise SpecFormatError(f"unknown key {key!r} in [{section}]", lineno)
        if key in entries[section]:
            first = entries[section][key][0]
            raise SpecFormatError(f"duplicate key {key!r} (first at line {first})", lineno)
        if not value:
            raise SpecFormatError(f"missing value for key {key!r}", lineno)
        entries[section][key] = (lineno, value)
    return entries


def _take_number(entries, section, key, default=None):
    if key not in entries.get(section, {}):
        return default, None
    lineno, raw = entries[section][key]
    if key in _INT_KEYS:
        if not _INT_RE.fullmatch(raw):
            raise SpecFormatError(f"{key} must be a bare integer, got {raw!r}", lineno)
        return int(raw), lineno
    try:
        value = float(raw)
    except ValueError:
        raise SpecFormatError(f"{key} must be a decimal number, got {raw!r}", lineno) from None
    if not math.isfinite(value):
        raise SpecFormatError(f"{key} must be finite, got {raw!r}", lineno)
    return value, lineno


def _require_positive(value, lineno, key):
    if value <= 0:
        raise SpecFormatError(f"{key} must be positive, got {value!r}", lineno)


def parse_spec(text: str) -> SpecFile:
    """Parse and validate a spec document; raises :class:`SpecFormatError`."""
    entries = _scan(text)

    hbar, hbar_line = _take_number(entries, "well", "hbar", 1.0)
    mass, mass_line = _take_number(entries, "well", "mass", 1.0)
    _require_positive(hbar, hbar_line, "hbar")
    _require_positive(mass, mass_line, "mass")
    well = WellParams(hbar=hbar, mass=mass)

    if "cycle" not in entries:
        raise SpecFormatError("missing required section '[cycle]'")
    cycle_line = min(line for line, _ in entries["cycle"].values()) if entries["cycle"] else None
    if "type" in entries["cycle"]:
        type_line, type_raw = entries["cycle"]["type"]
        if type_raw != "carnot":
            raise SpecFormatError(f"type must be 'carnot', got {type_raw!r}", type_line)
    for key in ("top_level", "L1", "L3"):
        if key not in entries["cycle"]:
            raise SpecFormatError(f"missing required key {key!r} in [cycle]", cycle_line)
    top_level, top_line = _take_number(entries, "cycle", "top_level")
    L1, L1_line = _take_number(entries, "cycle", "L1")
    L3, L3_line = _take_number(entries, "cycle", "L3")
    samples, samples_line = _take_number(entries, "cycle", "samples_per_stroke", 256)
    if not 2 <= top_level <= MAX_TOP_LEVEL:
        raise SpecFormatError(f"top_level must lie in [2, 2**63 - 513], got {top_level}", top_line)
    _require_positive(L1, L1_line, "L1")
    _require_positive(L3, L3_line, "L3")
    if samples < 2:
        raise SpecFormatError(f"samples_per_stroke must be at least 2, got {samples}", samples_line)
    if L3 < top_level * L1:
        raise SpecFormatError(
            f"L3 must exceed top_level*L1: got L3={L3!r}, top_level*L1={top_level * L1!r}",
            L3_line,
        )
    cycle = CycleSection(top_level=top_level, L1=L1, L3=L3, samples_per_stroke=samples)

    sudden = None
    if "sudden" in entries:
        for key in ("n", "alpha"):
            if key not in entries["sudden"]:
                raise SpecFormatError(f"missing required key {key!r} in [sudden]")
        n, n_line = _take_number(entries, "sudden", "n")
        alpha, alpha_line = _take_number(entries, "sudden", "alpha")
        tol, tol_line = _take_number(entries, "sudden", "tol", 1e-6)
        if n < 1:
            raise SpecFormatError(f"n must be a positive integer, got {n}", n_line)
        if alpha <= 1.0:
            raise SpecFormatError(f"alpha must exceed 1, got {alpha!r}", alpha_line)
        if not (0.0 < tol <= 1e-4):
            raise SpecFormatError(f"tol must lie in (0, 1e-4], got {tol!r}", tol_line)
        sudden = SuddenSection(n=n, alpha=alpha, tol=tol)

    return SpecFile(well=well, cycle=cycle, sudden=sudden)


def render_spec(spec: SpecFile) -> str:
    """Canonical text for ``spec``; ``parse_spec(render_spec(s)) == s``."""
    lines = [
        "[well]",
        f"hbar = {format_float(spec.well.hbar)}",
        f"mass = {format_float(spec.well.mass)}",
        "",
        "[cycle]",
        f"type = {spec.cycle.type}",
        f"top_level = {spec.cycle.top_level}",
        f"L1 = {format_float(spec.cycle.L1)}",
        f"L3 = {format_float(spec.cycle.L3)}",
        f"samples_per_stroke = {spec.cycle.samples_per_stroke}",
    ]
    if spec.sudden is not None:
        lines += [
            "",
            "[sudden]",
            f"n = {spec.sudden.n}",
            f"alpha = {format_float(spec.sudden.alpha)}",
            f"tol = {format_float(spec.sudden.tol)}",
        ]
    return "\n".join(lines) + "\n"


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


def write_report_csv(path, report: CycleReport) -> None:
    row = ",".join(
        format_float(v)
        for v in (
            report.W,
            report.Q_H,
            report.Q_C,
            report.eta,
            report.eta_closed_form,
            report.quadrature_discrepancy,
        )
    )
    Path(path).write_text(REPORT_HEADER + "\n" + row + "\n", newline="\n")


def _print_report(report: CycleReport) -> None:
    print(f"W = {format_float(report.W)}")
    print(f"Q_H = {format_float(report.Q_H)}")
    print(f"Q_C = {format_float(report.Q_C)}")
    print(f"eta = {format_float(report.eta)}")
    print(f"eta_closed_form = {format_float(report.eta_closed_form)}")
    print(f"quadrature_discrepancy = {format_float(report.quadrature_discrepancy)}")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_spec(spec_path) -> SpecFile:
    try:
        text = Path(spec_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec file {spec_path!r}: {exc}") from exc
    return parse_spec(text)


def cmd_simulate(spec_path, out_dir) -> int:
    """Write samples.csv and report.csv for the cycle described by ``spec_path``."""
    try:
        spec = _load_spec(spec_path)
        cycle = build_carnot_cycle(spec.to_carnot_spec())
        report = evaluate_cycle(cycle)
        samples = sample_cycle(cycle)
    except (SpecFormatError, DomainError, StateError) as exc:
        return _fail(f"{spec_path}: {exc}", 1)
    except (QuadratureError, TruncationError, EngineError) as exc:
        return _fail(str(exc), 2)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_samples_csv(out / "samples.csv", samples)
        write_report_csv(out / "report.csv", report)
    except OSError as exc:
        return _fail(f"cannot write to {out_dir!r}: {exc}", 2)
    _print_report(report)
    return 0


def cmd_verify_identity(n, alpha, tol, max_terms: int = 100_000_000) -> int:
    """Certify the post-expansion energy-conservation sum for one (n, alpha)."""
    try:
        report = verify_energy_identity(n, alpha, tol, max_terms=max_terms)
    except (DomainError, StateError) as exc:
        return _fail(str(exc), 1)
    except VerificationError as exc:
        r = exc.report
        print(f"achieved_sum = {format_float(r.achieved_sum)}", file=sys.stderr)
        print(f"terms_used = {r.terms_used}", file=sys.stderr)
        print(f"tail_bound = {format_float(r.tail_bound)}", file=sys.stderr)
        return _fail(f"residual {format_float(r.achieved_sum - 1.0)} exceeds tol", 1)
    except TruncationError as exc:
        return _fail(str(exc), 2)
    print(f"achieved_sum = {format_float(report.achieved_sum)}")
    print(f"terms_used = {report.terms_used}")
    print(f"tail_bound = {format_float(report.tail_bound)}")
    return 0


def cmd_sweep(spec_path, l3_from, l3_to, steps, out_path) -> int:
    """Efficiency curve over a range of L3 values, one CSV row per step."""
    try:
        spec = _load_spec(spec_path)
        base = spec.to_carnot_spec()
        if int(steps) != steps or steps < 2:
            raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
        floor = base.top_level * base.L1
        if not l3_from > floor:
            raise DomainError(f"l3-from must exceed top_level*L1 = {floor!r}, got {l3_from!r}")
        rows = []
        for L3 in np.linspace(l3_from, l3_to, int(steps)):
            report = evaluate_cycle(
                build_carnot_cycle(dataclasses.replace(base, L3=float(L3)))
            )
            rows.append(
                ",".join(
                    (
                        format_float(L3),
                        format_float(report.W),
                        format_float(report.Q_H),
                        format_float(report.eta),
                        format_float(report.eta_closed_form),
                    )
                )
            )
    except (SpecFormatError, DomainError, StateError) as exc:
        return _fail(f"{spec_path}: {exc}", 1)
    except (QuadratureError, TruncationError, EngineError) as exc:
        return _fail(str(exc), 2)
    try:
        Path(out_path).write_text("\n".join([SWEEP_HEADER, *rows]) + "\n", newline="\n")
    except OSError as exc:
        return _fail(f"cannot write to {out_path!r}: {exc}", 2)
    return 0


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
    ver.add_argument("--max-terms", type=int, default=100_000_000, help="summation budget")

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
