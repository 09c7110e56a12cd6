"""Each output check accepts the program's real output and rejects a corrupted copy;
BENCHMARK.json lists what run.py emits.

    python3 -m pytest bench/test_checks.py
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import CheckFailed, CycleInput  # noqa: E402
from qcarnot import MixedState, cli, post_expansion_distribution, verify_energy_identity  # noqa: E402

CYC = CycleInput(top_level=3, L1=0.7, L3=4.2, hbar=1.3, mass=0.8, samples_per_stroke=64)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    spec = out / "cycle.spec"
    spec.write_text(CYC.spec_text())
    _run(["simulate", str(spec), "--out", str(out)])
    return (out / "report.csv").read_text(), (out / "samples.csv").read_text()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = out / "cycle.spec"
    spec.write_text(CYC.spec_text())
    _run(["sweep", str(spec), "--l3-from", "4.2", "--l3-to", "9", "--steps", "3",
          "--out", str(out / "sweep.csv")])
    return (out / "sweep.csv").read_text()


def _edit_field(text, row, col, change):
    """Apply ``change`` to one CSV field; ``row`` counts data rows from 0."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = change(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _shift(delta):
    return lambda field: repr(float(field) + delta)


def _scale(factor):
    return lambda field: repr(float(field) * factor)


def test_real_outputs_pass(simulate_out, sweep_out):
    report, samples = simulate_out
    W = checks.check_report_csv(report, CYC)
    assert checks.check_samples_csv(samples, CYC, W) == 4 * CYC.samples_per_stroke
    assert checks.check_sweep_csv(sweep_out, CYC, 4.2, 9.0, 3) == 3


@pytest.mark.parametrize("col, change", [
    (3, _shift(1e-9)),     # eta
    (4, _shift(1e-9)),     # eta_closed_form
    (1, _scale(1 + 1e-9)), # W
    (2, _scale(1 - 1e-9)), # Q_H
    (0, _shift(1e-6)),     # L3 off the requested grid
])
def test_sweep_check_rejects(sweep_out, col, change):
    with pytest.raises(CheckFailed):
        checks.check_sweep_csv(_edit_field(sweep_out, 1, col, change), CYC, 4.2, 9.0, 3)


def test_sweep_check_rejects_missing_row(sweep_out):
    with pytest.raises(CheckFailed):
        checks.check_sweep_csv(sweep_out.rsplit("\n", 2)[0] + "\n", CYC, 4.2, 9.0, 3)


@pytest.mark.parametrize("col, change", [
    (3, _shift(-1e-9)),                  # eta
    (0, _scale(1 + 1e-9)),               # W
    (2, _scale(1 + 1e-9)),               # Q_C
    (5, lambda field: "2e-8"),           # quadrature_discrepancy over the gate
])
def test_report_check_rejects(simulate_out, col, change):
    report, _ = simulate_out
    with pytest.raises(CheckFailed):
        checks.check_report_csv(_edit_field(report, 0, col, change), CYC)


def test_discrepancy_gate():
    checks.check_discrepancy(1e-8)
    with pytest.raises(CheckFailed):
        checks.check_discrepancy(1.1e-8)


def _first_row(samples, kind, mixed):
    """Index of the first data row of ``kind`` with (or without) two populated levels."""
    rows = samples.split("\n")[1:-1]
    for i, row in enumerate(rows):
        fields = row.split(",")
        if fields[1] == kind and (";" in fields[6]) == mixed:
            return i
    raise AssertionError(f"no {kind} row")


def _drop_population(field):
    return field.split(";")[0]


def _negate_upper(field):
    lower, upper = field.split(";")
    level, weight = upper.split(":")
    return f"{lower};{level}:{-float(weight)!r}"


@pytest.mark.parametrize("kind, mixed, col, change, check", [
    ("isothermal", True, 3, _scale(1 + 1e-9), checks.check_equation_of_state),   # L F != 2E
    ("isothermal", True, 4, _scale(1 - 1e-9), checks.check_equation_of_state),
    ("adiabatic", False, 3, _scale(1 + 1e-9), checks.check_equation_of_state),   # F L^3 drifts
    ("isothermal", True, 6, _drop_population, checks.check_populations),
    ("isothermal", True, 6, _negate_upper, checks.check_populations),
    ("isothermal", True, 5, _shift(1e-9), checks.check_populations),             # entropy
])
def test_samples_check_rejects(simulate_out, kind, mixed, col, change, check):
    _, samples = simulate_out
    row = _first_row(samples, kind, mixed)
    parsed = checks.parse_samples(samples)
    check(parsed)
    with pytest.raises(CheckFailed):
        check(checks.parse_samples(_edit_field(samples, row, col, change)))


def test_loop_area_check_rejects_work_outside_the_trapezoid_bound(simulate_out):
    report, samples = simulate_out
    W = checks.check_report_csv(report, CYC)
    parsed = checks.parse_samples(samples)
    bound = checks.trapezoid_error_bound(CYC)
    checks.check_loop_area(parsed, CYC, W)
    with pytest.raises(CheckFailed):
        checks.check_loop_area(parsed, CYC, W + 2 * bound)


def test_sample_layout_rejects_a_missing_row(simulate_out):
    _, samples = simulate_out
    lines = samples.split("\n")
    with pytest.raises(CheckFailed):
        checks.check_sample_layout(checks.parse_samples("\n".join(lines[:5] + lines[6:])),
                                   CYC.samples_per_stroke)


N, ALPHA, TOL = 2, 1.7, 5e-7


@pytest.fixture(scope="module")
def identity():
    r = verify_energy_identity(N, ALPHA, TOL)
    return r.achieved_sum, r.tail_bound, r.terms_used


def test_identity_passes(identity):
    checks.check_identity(N, ALPHA, TOL, *identity)


@pytest.mark.parametrize("corrupt", [
    lambda s, b, m: (1.0 - 2.0 * b, b, m),          # achieved_sum past its bound
    lambda s, b, m: (1.0 + 1e-15, b, m),            # achieved_sum above 1
    lambda s, b, m: (s, 2.0 * TOL, m),              # tail_bound above tol
    lambda s, b, m: (s + 1e-9, b, m),               # not the direct sum of the series
    lambda s, b, m: (s, b, m - 1000),               # sum over other terms than claimed
])
def test_identity_check_rejects(identity, corrupt):
    with pytest.raises(CheckFailed):
        checks.check_identity(N, ALPHA, TOL, *corrupt(*identity))


def test_identity_reference_at_exact_resonance():
    r = verify_energy_identity(1, 2.0, 1e-5)
    checks.check_identity(1, 2.0, 1e-5, r.achieved_sum, r.tail_bound, r.terms_used)


LEVELS, WEIGHTS, ALPHA_EXP = (1, 3, 4), (0.5, 0.3, 0.2), 2.3


@pytest.fixture(scope="module")
def expansion():
    state, report = post_expansion_distribution(
        MixedState(np.array(LEVELS), np.array(WEIGHTS)), ALPHA_EXP, 1e-6)
    return state.levels, state.weights, report.achieved_sum, report.tail_bound


def _check_expansion(levels, weights, achieved, bound, alpha=ALPHA_EXP):
    checks.check_expansion(LEVELS, WEIGHTS, alpha, 1e-6, levels, weights, achieved, bound)


def test_expansion_passes(expansion):
    _check_expansion(*expansion)


def _negate_last(levels, weights, achieved, bound):
    weights = weights.copy()
    weights[-1] = -weights[-1]
    return levels, weights, achieved, bound


@pytest.mark.parametrize("corrupt", [
    lambda lv, w, a, b: (lv[1:], w[1:], a, b),          # dropped population
    _negate_last,                                       # negative population
    lambda lv, w, a, b: (lv, w, a - 2.0 * b, b),        # captured mass past its bound
    lambda lv, w, a, b: (lv, w, a, 2e-6),               # tail_bound above tail_tol
    lambda lv, w, a, b: (lv + 1, w, a, b),              # energy not conserved
])
def test_expansion_check_rejects(expansion, corrupt):
    with pytest.raises(CheckFailed):
        _check_expansion(*corrupt(*expansion))


def test_expansion_check_rejects_wrong_ratio(expansion):
    with pytest.raises(CheckFailed):
        _check_expansion(*expansion, alpha=ALPHA_EXP * (1 + 1e-3))


def test_benchmark_json_names_what_run_py_emits():
    import json

    import run
    from workloads import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
