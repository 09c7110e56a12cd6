#!/usr/bin/env python3
"""SHA-256 digest of every CLI and expansion output over a fixed grid of runs.

Runs ``qcarnot.cli.main`` and ``post_expansion_distribution`` in-process and
prints one ``sha256  name`` line per output, so two source trees print the
same lines exactly when their outputs on the grid are byte-identical.  Takes
no options.  It imports the ``qcarnot`` that ``PYTHONPATH`` finds, so one run
with each tree's ``src`` on ``PYTHONPATH`` and a ``diff`` of the two compare
the trees; the spec files are always this tree's.  The grid:

- ``simulate`` on each ``specs/*.spec``, then on each of ``WRITTEN_SPECS``,
  which are written into the temporary directory: the exit code with stdout
  and stderr, then ``samples.csv`` and ``report.csv``;
- the README sweep; a 50-step ``three_state.spec`` sweep with L3 from 3 to
  300; a 300-step ``two_state.spec`` sweep from the zero-work cycle at L3 = 2
  to 8, past the end of ``qcarnot sweep``'s first chunk of steps; a
  descending 40-step ``three_state.spec`` sweep from L3 = 1e30 to 9, whose
  adiabats take from 16 to 68 quadrature pieces; a ``two_state.spec``
  sweep whose lower end lies below ``top_level * L1``; and one whose upper
  end, L3 = 1e101, leaves the energy scale, which is checked at the ends
  before any cycle runs.  The last two fail and write no CSV.  Each sweep
  gives one digest of the exit code, stdout, stderr and the CSV;
- ``verify-identity`` at every ``(n, alpha, tol)`` of ``N`` x ``ALPHAS`` x
  ``TOLS``, and at each ``(n, alpha, tol, max_terms)`` of
  ``BUDGETED_IDENTITIES``: the exit code with stdout and stderr;
- ``post_expansion_distribution`` on each of ``EXPANSIONS``: ``terms_used``,
  ``tail_bound`` and ``achieved_sum`` in ``repr`` form with the bytes of the
  state's levels and weights, or the error's class and text;
- more runs that fail, so that exit codes and ``error:`` lines are
  compared too: ``simulate`` on each of ``FAILING_SPECS``, written into the
  temporary directory, and each of ``FAILING_RUNS``: the exit code with
  stdout and stderr.

The temporary directory's path, which a spec error names, is hashed as
``WORK``.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qcarnot import EngineError, MixedState, cli, post_expansion_distribution

SPECS = Path(__file__).resolve().parents[1] / "specs"
# A cycle whose adiabats span ln 100 in ln L, wider than those of the specs,
# and one whose isotherms climb to level 1e12, where the staircase weight
# keeps its digits only if it does not subtract two squares.
WRITTEN_SPECS = (
    ("wide_adiabats.spec", "[cycle]\ntype = carnot\ntop_level = 3\nL1 = 1\nL3 = 300\n"),
    ("high_level.spec", "[cycle]\ntype = carnot\ntop_level = 1000000000000\nL1 = 1\nL3 = 3e12\n"),
)
SWEEPS = (
    ("two_state.spec", "2.5", "8", "12"),
    ("three_state.spec", "3", "300", "50"),
    ("two_state.spec", "2", "8", "300"),
    ("three_state.spec", "1e30", "9", "40"),
    ("two_state.spec", "1", "8", "4"),
    ("two_state.spec", "4", "1e101", "8"),
)
N = ("1", "2", "3", "5", "8")
ALPHAS = ("1.05", "1.3", "1.5", "2", "2.5", "3.7", "10")
TOLS = ("1e-4", "1e-6", "3e-7")
# Cutoffs past the default budget of 1e8 terms: (1, 2, 1e-9) at the least
# budget that certifies it, then two near 1e9 terms; last, a level that
# certifies at its floor cutoff, 2 alpha n + 2 = 8002 terms.
BUDGETED_IDENTITIES = (
    ("1", "2", "1e-9", "426615512"),
    ("3", "2.6", "3e-9", "1000000000"),
    ("5", "1.05", "1e-9", "1000000000"),
    ("2000", "2", "1e-4", "100000000"),
)
# (levels, alpha, tail_tol, term_budget), weights proportional to 1, 2, ...:
# the nine-, five- and two-level shapes of the benchmark's expansions, then a
# budget below the least cutoff and one too small to certify the tolerance;
# last, a state that certifies at its floor cutoff, 6402 terms.
EXPANSIONS = (
    ((1, 2, 3, 5, 6, 8, 9, 11, 12), 3.0, 1e-6, 10_000_000),
    ((2, 4, 7, 10, 12), 2.0, 1e-6, 10_000_000),
    ((3, 8), 1.3, 1e-6, 10_000_000),
    ((3, 8), 1.3, 1e-6, 20),
    ((3, 8), 1.3, 1e-6, 1000),
    ((1500, 1600), 2.0, 1e-3, 10_000_000),
)
# A spec with an unknown key (exit 1), and one whose energies leave binary64
# (exit 2).
FAILING_SPECS = (
    ("unknown_key.spec", "[cycle]\ntype = carnot\ntop_level = 2\nL1 = 1\nL3 = 4\ncolour = red\n"),
    ("past_scale.spec", "[well]\nhbar = 1e-100\n\n[cycle]\ntop_level = 2\nL1 = 1\nL3 = 1e290\n"),
)
# An identity the default budget cannot certify (exit 2), and one with no
# --tol (exit 1).
FAILING_RUNS = (
    ("verify-identity", "--n", "1", "--alpha", "2", "--tol", "1e-9"),
    ("verify-identity", "--n", "1", "--alpha", "2"),
)


def run(*argv) -> bytes:
    """The exit code, stdout and stderr of ``main(argv)``, as one byte string."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def read(path: Path) -> bytes:
    """The bytes of the file at ``path``, or a marker if the run wrote none."""
    return path.read_bytes() if path.exists() else b"(no file)"


def expand(levels, alpha, tail_tol, term_budget) -> bytes:
    """The report and state of one expansion, or its error, as one byte string."""
    ranks = range(1, len(levels) + 1)
    weights = [k / sum(ranks) for k in ranks]
    try:
        state, report = post_expansion_distribution(
            MixedState.from_pairs(zip(levels, weights)), alpha, tail_tol, term_budget)
    except EngineError as error:
        return f"{type(error).__name__}: {error}".encode()
    text = f"{report.terms_used!r} {report.tail_bound!r} {report.achieved_sum!r}\n"
    return text.encode() + state.levels.tobytes() + state.weights.tobytes()


def digests(work: Path):
    """``(name, bytes)`` for each output of the grid; files go under ``work``."""
    for name, text in WRITTEN_SPECS + FAILING_SPECS:
        (work / name).write_text(text)
    for spec in [*sorted(SPECS.glob("*.spec")), *(work / name for name, _ in WRITTEN_SPECS)]:
        out = work / spec.stem
        yield f"simulate {spec.name}", run("simulate", str(spec), "--out", str(out))
        for name in ("samples.csv", "report.csv"):
            yield f"simulate {spec.name} {name}", read(out / name)
    for i, (spec, l3_from, l3_to, steps) in enumerate(SWEEPS):
        flags = ["--l3-from", l3_from, "--l3-to", l3_to, "--steps", steps]
        csv = work / f"sweep-{i}.csv"  # a sweep that fails must not find an earlier CSV
        done = run("sweep", str(SPECS / spec), *flags, "--out", str(csv))
        yield " ".join(["sweep", spec, *flags]), done + read(csv)
    for n in N:
        for alpha in ALPHAS:
            for tol in TOLS:
                argv = ["verify-identity", "--n", n, "--alpha", alpha, "--tol", tol]
                yield " ".join(argv), run(*argv)
    for n, alpha, tol, budget in BUDGETED_IDENTITIES:
        argv = ["verify-identity", "--n", n, "--alpha", alpha, "--tol", tol, "--max-terms", budget]
        yield " ".join(argv), run(*argv)
    for case in EXPANSIONS:
        yield "expand " + " ".join(map(repr, case)), expand(*case)
    for name, _ in FAILING_SPECS:
        yield f"simulate {name}", run("simulate", str(work / name), "--out", str(work / "failed"))
    for argv in FAILING_RUNS:
        yield " ".join(argv), run(*argv)


def main():
    with tempfile.TemporaryDirectory() as work:
        for name, data in digests(Path(work)):
            data = data.replace(work.encode(), b"WORK")
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
