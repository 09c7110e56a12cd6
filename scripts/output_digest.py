#!/usr/bin/env python3
"""SHA-256 digest of every CLI output over a fixed grid of runs.

Runs ``qcarnot.cli.main`` in-process and prints one ``sha256  name`` line per
output, so two source trees print the same lines exactly when their outputs
on the grid are byte-identical.  Takes no options.  It imports the
``qcarnot`` that ``PYTHONPATH`` finds, so one run with each tree's ``src`` on
``PYTHONPATH`` and a ``diff`` of the two compare the trees; the spec files
are always this tree's.  The grid:

- ``simulate`` on each ``specs/*.spec``: the exit code with stdout and
  stderr, then ``samples.csv`` and ``report.csv``;
- the README sweep, and a 50-step ``three_state.spec`` sweep with L3 from 3
  to 300: the exit code, stdout, stderr and the CSV, one digest each;
- ``verify-identity`` at every ``(n, alpha, tol)`` of ``N`` x ``ALPHAS`` x
  ``TOLS``: the exit code with stdout and stderr.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qcarnot import cli

SPECS = Path(__file__).resolve().parents[1] / "specs"
SWEEPS = (
    ("two_state.spec", "2.5", "8", "12"),
    ("three_state.spec", "3", "300", "50"),
)
N = ("1", "2", "3", "5", "8")
ALPHAS = ("1.05", "1.3", "1.5", "2", "2.5", "3.7", "10")
TOLS = ("1e-4", "1e-6", "3e-7")


def run(*argv) -> bytes:
    """The exit code, stdout and stderr of ``main(argv)``, as one byte string."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def read(path: Path) -> bytes:
    """The bytes of the file at ``path``, or a marker if the run wrote none."""
    return path.read_bytes() if path.exists() else b"(no file)"


def digests(work: Path):
    """``(name, bytes)`` for each output of the grid; files go under ``work``."""
    for spec in sorted(SPECS.glob("*.spec")):
        out = work / spec.stem
        yield f"simulate {spec.name}", run("simulate", str(spec), "--out", str(out))
        for name in ("samples.csv", "report.csv"):
            yield f"simulate {spec.name} {name}", read(out / name)
    for spec, l3_from, l3_to, steps in SWEEPS:
        flags = ["--l3-from", l3_from, "--l3-to", l3_to, "--steps", steps]
        csv = work / f"sweep-{spec}.csv"
        done = run("sweep", str(SPECS / spec), *flags, "--out", str(csv))
        yield " ".join(["sweep", spec, *flags]), done + read(csv)
    for n in N:
        for alpha in ALPHAS:
            for tol in TOLS:
                argv = ["verify-identity", "--n", n, "--alpha", alpha, "--tol", tol]
                yield " ".join(argv), run(*argv)


def main():
    with tempfile.TemporaryDirectory() as work:
        for name, data in digests(Path(work)):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
