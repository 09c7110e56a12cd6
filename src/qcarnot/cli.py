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
byte-identical outputs.  Every float is the text of ``'%.17g' % x``, as
:func:`format_float` gives it; this module is the one place that text is
chosen.  samples.csv gets it from an array path over the table's numpy
columns, ``_CSV_BLOCK_ROWS`` rows at a time.
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
from .processes import SampleTable, stroke_work_quadrature
from .sudden import IDENTITY_TERM_BUDGET, TruncationReport, verify_energy_identity

SAMPLES_HEADER = "stroke_index,stroke_kind,L,force,energy,entropy,populations"
REPORT_HEADER = "W,Q_H,Q_C,eta,eta_closed_form,quadrature_discrepancy"
SWEEP_HEADER = "L3,W,Q_H,eta,eta_closed_form"

# Sample rows formatted per write, which bounds the text and the formatter's
# temporary arrays held at once.
_CSV_BLOCK_ROWS = 512

# Largest sweep --steps: like the samples_per_stroke cap, it bounds the
# output, here one CSV row and one cycle evaluation per step.
MAX_SWEEP_STEPS = 2 ** 20
# Sweep steps whose strokes share one quadrature call, which bounds the
# cycles and integrand arrays held at once; 1 + 3*256 strokes of 16 pieces
# fit one integrand call.
_SWEEP_CHUNK_STEPS = 256

# samples.csv is built a block of rows at a time as a byte matrix: one row
# per CSV line, each field in columns of its own, and zero bytes wherever a
# field's text is shorter.  The zeros are dropped before the block is written.

# Decimal exponents of the nonzero finite doubles, 4.9e-324 to 1.8e308.
_E_MIN, _E_MAX = -324, 308
# '%.17g' writes exponents -4 <= e <= 16 in fixed notation, else as d.ddde±XX.
_FIXED_E_MIN, _FIXED_E_MAX = -4, 16
# Dekker's splitter: with c = a * _SPLIT, c - (c - a) keeps a's top 26 bits.
_SPLIT = 2.0 ** 27 + 1
# The 16 digits after the first come in four groups of four; the position
# of each group's first digit among the 17.
_GROUP_START = np.array([[1], [5], [9], [13]], np.int8)


def format_float(x: float) -> str:
    """``x`` as ``'%.17g'`` text, which reads back as the same double."""
    return format(float(x), ".17g")


def _words(texts) -> np.ndarray:
    """One uint64 per text of at most 8 bytes, holding its bytes zero-padded."""
    return np.array(texts, "S8").view(np.uint64)


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each value 0..9999, a word with its four ASCII digits at the odd
    bytes and the position after its last nonzero digit (0 for 0); and by
    ``k + 13`` for k in -13..16, the mask word that keeps the first k of a
    word's digits, clamped to 0..4."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    spaced = np.zeros((10_000, 8), np.uint8)
    spaced[:, 1::2] = digits + ord("0")
    figures = 4 - np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    keep = _words([b"\0\xff" * min(max(b, 0), 4) for b in range(-13, 17)])
    return spaced.view(np.uint64).ravel(), figures.astype(np.int8), keep


@functools.cache
def _exponent_table() -> tuple[np.ndarray, ...]:
    """Tables by row ``e - _E_MIN``, for each decimal exponent e:

    - ``h, h_hi, h_lo, l, s`` with ``10**(16 - e) = (h + l) * 2**s``: ``h`` in
      [1, 2] correctly rounded, ``h_hi + h_lo`` its Dekker split, and ``l``
      the rest, correctly rounded, so ``h + l`` is within 2**-106 of the
      power, relative;
    - the word before the digits, at ``row + negative * rows``: the sign and,
      in fixed notation below 1, ``0.`` and the zeros after it;
    - the word after the digits: the exponent, empty in fixed notation;
    - the number of digits before the point.
    """
    columns = []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        s = num.bit_length() - den.bit_length()
        if num << max(-s, 0) < den << max(s, 0):
            s -= 1
        num, den = num << max(-s, 0), den << max(s, 0)
        h = num / den  # int / int rounds correctly
        columns.append((h, (num * 2 ** 52 - int(h * 2 ** 52) * den) / (den * 2 ** 52), s))
    h, l, s = np.array(columns).T
    c = h * _SPLIT
    h_hi = c - (c - h)
    exponents = range(_E_MIN, _E_MAX + 1)
    fixed = [_FIXED_E_MIN <= e <= _FIXED_E_MAX for e in exponents]
    prefix = [sign + ("0." + "0" * (-e - 1) if f and e < 0 else "")
              for sign in ("", "-") for e, f in zip(exponents, fixed)]
    suffix = ["" if f else "e%+03d" % e for e, f in zip(exponents, fixed)]
    whole = [max(e + 1, 0) if f else 1 for e, f in zip(exponents, fixed)]
    return np.stack([h, h_hi, h - h_hi, l, s]), _words(prefix), _words(suffix), np.array(whole, np.int8)


def _scaled(m, exp2, row):
    """``(hi, lo)``: ``m * 2**exp2 * 10**(16 - e)`` as a normalised
    double-double, for ``m`` in [0.5, 1) and ``row = e - _E_MIN``.

    ``m * h`` is exact in Dekker's product; rounding ``m * l`` and the sums
    adds at most 2**-104, and the table's ``h + l`` 2**-106 of ``m * h``.  So
    ``hi + lo`` is within 2**-102 of the product, relative.
    """
    h, h_hi, h_lo, l, s = _exponent_table()[0].take(row, axis=1)
    p = m * h
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    q = ((m_hi * h_hi - p) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo + m * l
    hi = p + q
    scale = exp2 + s.astype(np.int32)
    return np.ldexp(hi, scale), np.ldexp(q - (hi - p), scale)


def _float_text(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each value ``v`` of ``x``, as a ``x.shape + (48,)``
    byte array padded with zeros.

    The digits are ``N = round(|v| * 10**(16 - e))`` in [10**16, 10**17), from
    a double-double product within 2**-100 of the exact one, relative.  Where
    the product's fraction is that close to 1/2, the value is a tie or too near
    one to round from it; such values, nan and ±inf go through
    :func:`format_float`.  Each text is six words: the sign and any leading
    ``0.00``; the 17 digits, each after a byte that may hold the point; and
    the exponent.
    """
    shape, x = x.shape, x.ravel()
    size = x.size
    a = np.abs(x)
    zero = a == 0.0
    finite = a < np.inf
    a[~finite | zero] = 1.0  # zeros print as 1 with the digit lowered to 0; the rest fall back
    row = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    m, exp2 = np.frexp(a)
    hi, lo = _scaled(m, exp2, row)
    # Next to a power of ten log10 can put e one off: move e wherever the
    # unrounded product leaves [10**16, 10**17), and scale again.
    above = (hi - 1e17) + lo >= 0.0
    moved = np.flatnonzero(((hi - 1e16) + lo < 0.0) | above)
    if moved.size:
        row[moved] += np.where(above[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(m[moved], exp2[moved], row[moved])
    rounded = np.rint(lo)
    # hi + lo < 2**57 is within 2**-100 of it, 2**-43, of the exact product.
    tie = np.abs(lo - rounded) >= 0.5 - 2.0 ** -43
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = n >= 10 ** 17  # rounded up to 10**17: one digit more
    if carry.any():
        n[carry] //= 10
        row += carry

    groups = np.empty((4, size), np.int64)
    lead = n
    for j in (3, 2, 1, 0):
        upper = lead // 10_000
        groups[j] = lead - upper * 10_000
        lead = upper
    digit_words, figures, keep_words = _digit_table()
    _, prefix, suffix, whole_digits = _exponent_table()
    ends = figures.take(groups)  # per group: the position after its last nonzero digit
    ends = (ends + _GROUP_START) * (ends > 0)
    whole = whole_digits.take(row)
    # Digits shown: up to the last nonzero one, and at least the whole part.
    kept = np.maximum(np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3])), whole)

    words = np.empty((size, 6), np.uint64)
    words[:, 0] = prefix.take(np.signbit(x) * (_E_MAX - _E_MIN + 1) + row)
    words[:, 1:5] = (digit_words.take(groups) & keep_words.take(kept + (13 - _GROUP_START))).T
    words[:, 5] = suffix.take(row)
    text = words.view(np.uint8)
    text[:, 7] = lead + ord("0") - zero
    # Digit k is byte 7 + 2k, after its point slot 6 + 2k.  Slot 6 would hold
    # a point before the first digit, which the prefix '0.' already has; slot
    # 40, for 17 whole digits, is the empty exponent's and gets no point.
    text.reshape(-1)[np.arange(6, 48 * size, 48) + 2 * whole] = (kept > whole) * ord(".")
    text[:, 6] = 0
    for i in np.flatnonzero(~finite | tie).tolist():
        value = format_float(x[i]).encode()
        text[i] = 0
        text[i, :len(value)] = np.frombuffer(value, np.uint8)
    return text.reshape(shape + (-1,))


def _run_text(column: np.ndarray) -> np.ndarray:
    """``str`` of each value of the 1-D int or str ``column``, as a
    ``(len(column), width)`` byte array padded with zeros; each run of equal
    neighbours is formatted once."""
    starts = np.concatenate([[True], column[1:] != column[:-1]])  # row opens a run
    table = np.array([str(v).encode() for v in column[starts].tolist()])
    return table.view(np.uint8).reshape(len(table), -1).take(np.cumsum(starts) - 1, axis=0)


def _sample_block(samples: SampleTable, start: int, stop: int) -> bytes:
    """The newline-terminated CSV lines of rows ``start:stop`` of ``samples``."""
    rows = slice(start, stop)
    levels = samples.levels[rows]
    count, width = levels.shape
    floats = _float_text(np.column_stack([
        samples.L[rows], samples.force[rows], samples.energy[rows], samples.entropy[rows],
        samples.weights[rows],
    ]))
    comma = np.full((count, 1), ord(","), np.uint8)
    pieces = [_run_text(samples.stroke_index[rows]), comma, _run_text(samples.stroke_kind[rows]), comma]
    for j in range(4):
        pieces += [floats[:, j], comma]
    for j in range(width):
        shown = (levels[:, j, None] != 0).view(np.uint8)
        if j:
            pieces.append(shown * np.uint8(ord(";")))
        pieces += [_run_text(levels[:, j]) * shown, shown * np.uint8(ord(":")), floats[:, 4 + j] * shown]
    pieces.append(np.full((count, 1), ord("\n"), np.uint8))
    return np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")


def write_samples_csv(path, samples: SampleTable) -> None:
    """Write ``samples`` with one line per row, formatted from its columns
    ``_CSV_BLOCK_ROWS`` rows at a time."""
    with open(path, "wb") as out:
        out.write(SAMPLES_HEADER.encode() + b"\n")
        for start in range(0, len(samples), _CSV_BLOCK_ROWS):
            out.write(_sample_block(samples, start, start + _CSV_BLOCK_ROWS))


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
# comes from writing the output.  A MemoryError is an allocation the host
# cannot meet, such as the sample table of a large samples_per_stroke.
_EXIT_CODES = {
    SpecFormatError: 1,
    DomainError: 1,
    StateError: 1,
    VerificationError: 1,
    EngineError: 2,
    OSError: 2,
    MemoryError: 2,
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
            message = str(exc)
            if isinstance(exc, OSError):
                message = f"cannot write output: {message}"
            elif isinstance(exc, MemoryError):  # whose text may be empty
                message = f"out of memory: {message}" if message else "out of memory"
            code = next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
            return _fail(message, code)
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
    """Efficiency curve over a range of L3 values, one CSV row per step.

    Both ends are checked as the spec's ``L3`` before any cycle runs, which
    checks every step: each rule, the energy scale's included, bounds ``L3``
    from below or bounds monomials in it, and no ``np.linspace`` value lies
    past an end (at most 1e300, so none overflows).  The steps run in chunks of
    ``_SWEEP_CHUNK_STEPS``.  A chunk builds the specs and cycles of its steps,
    then integrates their strokes in one :func:`stroke_work_quadrature` call:
    stroke 1, the hot isotherm from ``L1`` to ``top_level * L1``, is the same
    on every step and is integrated once.  :func:`evaluate_cycle` then checks
    and reports each cycle with its four works.  Each chunk's rows are kept as
    one string, and the file is written only once every cycle has passed.
    """
    base = _load_spec(spec_path)
    steps = _check_int(steps, "steps", 2, MAX_SWEEP_STEPS)
    ends = [dataclasses.replace(base, L3=L3).L3 for L3 in (l3_from, l3_to)]
    widths = np.linspace(*ends, steps)
    chunks = []
    for start in range(0, steps, _SWEEP_CHUNK_STEPS):
        chunk = widths[start:start + _SWEEP_CHUNK_STEPS].tolist()
        cycles = [build_carnot_cycle(dataclasses.replace(base, L3=L3)) for L3 in chunk]
        hot, *quads = stroke_work_quadrature(
            [cycles[0].strokes[0]] + [s for cycle in cycles for s in cycle.strokes[1:]])
        rows = []
        for j, (L3, cycle) in enumerate(zip(chunk, cycles)):
            report = evaluate_cycle(cycle, [hot, *quads[3 * j:3 * j + 3]])
            rows.append(",".join(format_float(v) for v in (
                L3, report.W, report.Q_H, report.eta, report.eta_closed_form
            )) + "\n")
        chunks.append("".join(rows))
    with open(out_path, "w", newline="\n") as out:
        out.write(SWEEP_HEADER + "\n")
        out.writelines(chunks)


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
