"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import math
import time

import numpy as np

import oracles
from qcarnot import (
    CarnotSpec,
    MixedState,
    adiabatic_stroke,
    build_carnot_cycle,
    cosine_series,
    eigenenergy,
    evaluate_cycle,
    expectation_energy,
    isothermal_stroke,
    overlap_coefficient,
    polyline_work,
    post_expansion_distribution,
    sample_cycle,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
    verify_energy_identity,
)
from qcarnot.cli import cmd_simulate, cmd_verify_identity

FLAGSHIP_TEXT = "[cycle]\ntop_level = 2\nL1 = 1\nL3 = 4\n"


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {description}: {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_efficiency_reproduction(tmp_path, capsys):
    spec_file = tmp_path / "flagship.spec"
    spec_file.write_text(FLAGSHIP_TEXT)
    started = time.perf_counter()
    code = cmd_simulate(spec_file, tmp_path / "out")
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    header, row = (tmp_path / "out" / "report.csv").read_text().splitlines()
    values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    ok = (
        code == 0
        and abs(values["eta"] - 0.75) <= 1e-10
        and abs(values["eta"] - values["eta_closed_form"]) <= 1e-10
        and values["quadrature_discrepancy"] <= 1e-8
        and elapsed < 1.0
    )
    _report(
        1,
        "simulate reproduces eta = 0.75",
        ok,
        f"eta={values['eta']!r} disc={values['quadrature_discrepancy']:.2e} "
        f"runtime={elapsed * 1e3:.0f}ms",
    )


def test_criterion_2_work_and_heat_reproduction():
    cycle = build_carnot_cycle(CarnotSpec(top_level=2, L1=1.0, L3=4.0))
    report = evaluate_cycle(cycle)
    w_exact = math.pi ** 2 * (1.0 - 4.0 / 16.0) * math.log(2)
    qh_exact = math.pi ** 2 * math.log(2)
    quads = [stroke_work_quadrature(s) for s in cycle.strokes]
    w_quad = sum(quads)
    ok = (
        abs(report.W - w_exact) <= 1e-9 * w_exact
        and abs(report.Q_H - qh_exact) <= 1e-9 * qh_exact
        and abs(w_quad - w_exact) <= 1e-8 * w_exact
        and abs(quads[0] - qh_exact) <= 1e-8 * qh_exact
    )
    _report(
        2,
        "W and Q_H match their closed forms",
        ok,
        f"W={report.W!r} (exact {w_exact!r}), Q_H={report.Q_H!r} (exact {qh_exact!r}), "
        f"quad dW={abs(w_quad - w_exact):.2e}",
    )


def test_criterion_3_identity_certification(capsys):
    worst_residual = 0.0
    worst_bound = 0.0
    worst_time = 0.0
    ok = True
    for n in (1, 2, 3, 4, 5):
        for alpha in (1.1, 1.5, 2.0, math.e, 3.7):
            started = time.perf_counter()
            code = cmd_verify_identity(n, alpha, 1e-6)
            elapsed = time.perf_counter() - started
            result = verify_energy_identity(n, alpha, 1e-6)
            residual = abs(result.achieved_sum - 1.0)
            ok = ok and code == 0 and residual <= 1e-6 and result.tail_bound <= 1e-6
            ok = ok and elapsed < 5.0
            worst_residual = max(worst_residual, residual)
            worst_bound = max(worst_bound, result.tail_bound)
            worst_time = max(worst_time, elapsed)
    capsys.readouterr()
    _report(
        3,
        "verify-identity certifies all 25 (n, alpha) pairs",
        ok,
        f"worst |sum-1|={worst_residual:.2e}, worst bound={worst_bound:.2e}, "
        f"worst time={worst_time * 1e3:.0f}ms",
    )


def test_criterion_4_free_expansion_energy_conservation():
    rng = np.random.default_rng(20250810)
    alphas = (1.3, 2.0, 2.5)
    worst_err = 0.0
    worst_bound = 0.0
    ok = True
    for case in range(100):
        support = int(rng.integers(1, 9))
        levels = np.sort(rng.choice(np.arange(1, 13), size=support, replace=False))
        weights = rng.random(support) + 1e-3
        state = MixedState(levels, weights / weights.sum())
        alpha = alphas[case % 3]
        out, report = post_expansion_distribution(state, alpha, 1e-6)
        e_pre = expectation_energy(state, 1.0)
        e_post = expectation_energy(out, alpha)
        err = abs(e_post - e_pre) / e_pre
        ok = ok and err <= report.tail_bound <= 1e-6
        worst_err = max(worst_err, err)
        worst_bound = max(worst_bound, report.tail_bound)
    _report(
        4,
        "sudden expansion conserves energy within the certified bound",
        ok,
        f"100 states, worst rel err={worst_err:.3e}, worst bound={worst_bound:.3e}",
    )


def test_criterion_5_equation_of_state_invariants():
    rng = np.random.default_rng(5150)
    worst_iso = 0.0
    worst_adia = 0.0
    for _ in range(1000):
        if rng.random() < 0.5:
            base = rng.uniform(0.4, 2.0)
            a, b = np.sort(rng.uniform(base, 6.0 * base, size=2))
            stroke = isothermal_stroke(eigenenergy(1, base), a, b, base)
            for s in sample_stroke(stroke, 5):
                worst_iso = max(
                    worst_iso, abs(s.L * s.force / (2.0 * stroke.conserved) - 1.0)
                )
        else:
            support = int(rng.integers(1, 7))
            levels = np.sort(rng.choice(np.arange(1, 13), size=support, replace=False))
            weights = rng.random(support) + 0.01
            state = MixedState(levels, weights / weights.sum())
            a, b = np.sort(rng.uniform(0.3, 5.0, size=2))
            stroke = adiabatic_stroke(state, a, b)
            reference = stroke.force_at(a) * a ** 3
            for s in sample_stroke(stroke, 5):
                worst_adia = max(
                    worst_adia, abs(s.force * s.L ** 3 / reference - 1.0)
                )
    ok = worst_iso <= 1e-12 and worst_adia <= 1e-12
    _report(
        5,
        "equation-of-state invariants on 1000 random strokes",
        ok,
        f"worst |LF/2E - 1|={worst_iso:.2e}, worst F*L^3 drift={worst_adia:.2e}",
    )


def test_criterion_6_conservation_and_adiabatic_cancellation():
    rng = np.random.default_rng(606)
    worst_conservation = 0.0
    worst_cancellation = 0.0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        L1 = rng.uniform(0.4, 2.0)
        L3 = L1 * rng.uniform(n + 0.05, 10.0)
        cycle = build_carnot_cycle(CarnotSpec(n, L1, L3))
        report = evaluate_cycle(cycle)
        worst_conservation = max(
            worst_conservation,
            abs(report.W - (report.Q_H - report.Q_C)) / abs(report.W),
        )
        w2 = stroke_work(cycle.strokes[1])
        w4 = stroke_work(cycle.strokes[3])
        worst_cancellation = max(worst_cancellation, abs(w2 + w4) / abs(w2))
    ok = worst_conservation <= 1e-10 and worst_cancellation <= 1e-12
    _report(
        6,
        "energy conservation and adiabatic-pair cancellation on a random grid",
        ok,
        f"worst |W-(Q_H-Q_C)|/W={worst_conservation:.2e}, "
        f"worst |W2+W4|/|W2|={worst_cancellation:.2e}",
    )


def test_criterion_7_oracle_equivalence():
    worst_overlap = 0.0
    for alpha in (1.3, 2.0, 2.5):
        for n in range(1, 21):
            for m in range(1, 21):
                closed = overlap_coefficient(n, m, alpha)
                brute = oracles.overlap_by_integration(n, m, alpha)
                worst_overlap = max(worst_overlap, abs(closed - brute))

    rng = np.random.default_rng(77)
    worst_cosine = 0.0
    count = 0
    while count < 50:
        x = rng.uniform(0.3, 2 * math.pi - 0.3)
        u = rng.uniform(0.05, 5.95)
        if abs(u - round(u)) < 1e-3:
            continue
        count += 1
        reference, bound = oracles.cosine_partial_sum(x, u, 1e-9)
        worst_cosine = max(worst_cosine, abs(cosine_series(x, u) - reference) - bound)

    ok = worst_overlap <= 1e-9 and worst_cosine <= 1e-8
    _report(
        7,
        "closed forms match the independent oracles",
        ok,
        f"worst overlap abs err={worst_overlap:.2e} (1200 integrals), "
        f"worst cosine gap={worst_cosine:.2e} (50 points)",
    )


def test_criterion_8_polyline_area_convergence():
    cycle = build_carnot_cycle(CarnotSpec(top_level=2, L1=1.0, L3=4.0))
    W = evaluate_cycle(cycle).W
    errors = [
        abs(polyline_work(sample_cycle(cycle, count)) - W)
        for count in (256, 1024, 4096)
    ]
    orders = [
        math.log(errors[i] / errors[i + 1]) / math.log(4.0)
        for i in range(2)
    ]
    ok = all(order >= 2.0 for order in orders)
    _report(
        8,
        "sampled loop area converges to W at second order or better",
        ok,
        f"errors={[f'{e:.3e}' for e in errors]}, orders={[f'{o:.4f}' for o in orders]}",
    )
