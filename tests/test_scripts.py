"""Smoke tests: each script in scripts/ runs end to end in a new interpreter."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcarnot

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, **env_vars):
    """Run ``scripts/name`` in a new interpreter with ``env_vars`` added to its environment."""
    src = str(Path(qcarnot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env_vars)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_two_state_engine(tmp_path):
    done = run_script("two_state_engine.py", "--samples", 64, "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    eta = float(re.search(r"^eta = (\S+)", done.stdout, re.MULTILINE).group(1))
    assert eta == pytest.approx(0.75, abs=1e-12)
    assert (tmp_path / "samples.csv").read_text().count("\n") == 1 + 4 * 64
    assert (tmp_path / "report.csv").read_text().count("\n") == 2


def test_area_convergence_is_second_order():
    done = run_script("area_convergence.py", "--doublings", 3)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [64, 128, 256]
    orders = [float(row[2]) for row in rows[1:]]
    assert orders == pytest.approx([2.0, 2.0], abs=0.05)


def test_output_digest_is_stable_and_covers_the_grid():
    # The second run picks OpenBLAS's Nehalem kernel, which has no fused
    # multiply-add: a BLAS call on an output path would round differently.
    runs = [run_script("output_digest.py"),
            run_script("output_digest.py", OPENBLAS_CORETYPE="Nehalem")]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line[66:] for line in lines]
    assert len(set(names)) == len(names)
    specs = len(list((SCRIPTS.parent / "specs").glob("*.spec")))
    # simulate: the run, samples.csv and report.csv per spec and for the
    # written wide-adiabat and level-1e12 specs; five sweeps, one failing;
    # verify-identity at 5 levels x 7 ratios x 3 tolerances, three runs past
    # the default budget and one at its floor cutoff; six expansions; two
    # failing simulate and two failing verify-identity runs.
    assert len(names) == 3 * (specs + 2) + 5 + 5 * 7 * 3 + 4 + 6 + 4


def test_source_size_totals_the_lines_of_every_module():
    modules = sorted(Path(qcarnot.__file__).resolve().parent.glob("*.py"))
    done = run_script("source_size.py", *modules)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[0] == ["lines", "tokens"] and rows[-1][2:] == ["total"]
    assert [row[2] for row in rows[1:-1]] == [str(path) for path in modules]
    lines = [path.read_bytes().count(b"\n") for path in modules]
    assert [int(row[0]) for row in rows[1:-1]] == lines
    assert int(rows[-1][0]) == sum(lines)


def test_traced_check_passes_on_cycle_sweep():
    done = run_script("traced_check.py", "cycle_sweep")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "cycle_sweep: ok\n"


# (text in cli.py, its replacement, names of the digest lines that change).
EDITS = [
    # Every sweep of the digest that passes writes the header.
    ('SWEEP_HEADER = "L3,', 'SWEEP_HEADER = "l3,', [
        "sweep two_state.spec --l3-from 2.5 --l3-to 8 --steps 12",
        "sweep three_state.spec --l3-from 3 --l3-to 300 --steps 50",
        "sweep two_state.spec --l3-from 2 --l3-to 8 --steps 300",
        "sweep three_state.spec --l3-from 1e30 --l3-to 9 --steps 40",
    ]),
    # Every failing run writes one error: line, and no other run does.
    ('print(f"error: {message}"', 'print(f"failed: {message}"', [
        "sweep two_state.spec --l3-from 1 --l3-to 8 --steps 4",
        "simulate unknown_key.spec",
        "simulate past_scale.spec",
        "verify-identity --n 1 --alpha 2 --tol 1e-9",
        "verify-identity --n 1 --alpha 2",
    ]),
]


def test_compare_outputs_shows_only_the_lines_that_differ(tmp_path):
    assert run_script("compare_outputs.py", SCRIPTS.parent).stdout == "identical\n"
    src = Path(qcarnot.__file__).resolve().parent
    for i, (old, new, names) in enumerate(EDITS):
        copy = tmp_path / str(i) / "src" / "qcarnot"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        cli = copy / "cli.py"
        assert old in cli.read_text()
        cli.write_text(cli.read_text().replace(old, new, 1))
        done = run_script("compare_outputs.py", tmp_path / str(i))
        assert done.returncode == 0, done.stderr
        header, *changed = done.stdout.splitlines()
        assert header == "differ (base <, this tree >):"
        assert all(line[:2] in ("< ", "> ") for line in changed)
        for mark in ("< ", "> "):
            assert [line[68:] for line in changed if line[:2] == mark] == names
