"""Output checks for the benchmark, computed apart from the program.

Every reference value here comes from the closed forms of the box model
(``E_n = pi^2 hbar^2 n^2 / (2 m L^2)``) or from the original ``sin(m pi / alpha)``
form of the sudden-expansion series, never from a qcarnot function.  Each
check raises :class:`CheckFailed` with a message naming what is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rounding slack on quantities that the program computes in a few flops.
REL_TOL = 1e-12
# Acceptance gate on the closed-form vs quadrature work discrepancy.
MAX_DISCREPANCY = 1e-8
# |achieved_sum - reference sum|: both sums carry ~1e-15 rounding error, and
# tail terms of the original form lose up to ~1e-13 near a resonance.
SERIES_ABS_TOL = 1e-10
_CHUNK = 1 << 20


class CheckFailed(AssertionError):
    """A program output disagrees with its independently computed reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value: float, reference: float, scale: float, what: str) -> None:
    _require(
        abs(value - reference) <= REL_TOL * abs(scale),
        f"{what} = {value!r}, expected {reference!r}",
    )


@dataclass(frozen=True)
class CycleInput:
    """One Carnot cycle as the benchmark writes it into a spec file."""

    top_level: int
    L1: float
    L3: float
    hbar: float = 1.0
    mass: float = 1.0
    samples_per_stroke: int = 256

    def energy(self, n: int, L: float) -> float:
        return (math.pi * self.hbar * n) ** 2 / (2.0 * self.mass * L * L)

    def spec_text(self) -> str:
        return (
            f"[well]\nhbar = {self.hbar!r}\nmass = {self.mass!r}\n\n"
            f"[cycle]\ntop_level = {self.top_level}\nL1 = {self.L1!r}\nL3 = {self.L3!r}\n"
            f"samples_per_stroke = {self.samples_per_stroke}\n"
        )


@dataclass(frozen=True)
class ClosedForm:
    e_hot: float
    e_cold: float
    W: float
    Q_H: float
    eta: float


def closed_form(cyc: CycleInput, L3: float | None = None) -> ClosedForm:
    """Work, heat and efficiency from the eigenenergies alone."""
    L3 = cyc.L3 if L3 is None else L3
    n = cyc.top_level
    e_hot = cyc.energy(1, cyc.L1)
    e_cold = cyc.energy(n, L3)
    log_n = math.log(n)
    return ClosedForm(
        e_hot=e_hot,
        e_cold=e_cold,
        W=2.0 * (e_hot - e_cold) * log_n,
        Q_H=2.0 * e_hot * log_n,
        eta=1.0 - (n * cyc.L1 / L3) ** 2,
    )


def check_cycle_figures(cyc: CycleInput, L3: float, W: float, Q_H: float, eta: float,
                        eta_closed_form: float) -> None:
    """``eta``, ``W`` and ``Q_H`` of one cycle against the closed forms."""
    ref = closed_form(cyc, L3)
    _close(eta, ref.eta, 1.0, f"eta at L3={L3!r}")
    _close(eta_closed_form, ref.eta, 1.0, f"eta_closed_form at L3={L3!r}")
    _close(W, ref.W, ref.Q_H, f"W at L3={L3!r}")
    _close(Q_H, ref.Q_H, ref.Q_H, f"Q_H at L3={L3!r}")


def check_discrepancy(discrepancy: float) -> None:
    _require(
        0.0 <= discrepancy <= MAX_DISCREPANCY,
        f"quadrature_discrepancy = {discrepancy!r} exceeds {MAX_DISCREPANCY!r}",
    )


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    _require(lines[0] == header, f"unexpected CSV header {lines[0]!r}")
    _require(lines[-1] == "", "CSV does not end with a newline")
    return [line.split(",") for line in lines[1:-1]]


SWEEP_HEADER = "L3,W,Q_H,eta,eta_closed_form"
REPORT_HEADER = "W,Q_H,Q_C,eta,eta_closed_form,quadrature_discrepancy"
SAMPLES_HEADER = "stroke_index,stroke_kind,L,force,energy,entropy,populations"


def check_sweep_csv(text: str, cyc: CycleInput, l3_from: float, l3_to: float,
                    steps: int) -> int:
    """Every row of a ``sweep`` CSV; returns the number of cycles it holds."""
    rows = _csv_rows(text, SWEEP_HEADER)
    _require(len(rows) == steps, f"sweep has {len(rows)} rows, expected {steps}")
    grid = np.linspace(l3_from, l3_to, steps)
    for row, L3_ref in zip(rows, grid):
        _require(len(row) == 5, f"sweep row has {len(row)} fields")
        L3, W, Q_H, eta, eta_cf = map(float, row)
        _close(L3, float(L3_ref), L3_ref, "sweep L3")
        check_cycle_figures(cyc, L3, W, Q_H, eta, eta_cf)
    return steps


def check_report_csv(text: str, cyc: CycleInput) -> float:
    """The one-row ``report.csv`` of ``simulate``; returns ``W``."""
    rows = _csv_rows(text, REPORT_HEADER)
    _require(len(rows) == 1 and len(rows[0]) == 6, "report.csv must hold one 6-field row")
    W, Q_H, Q_C, eta, eta_cf, discrepancy = map(float, rows[0])
    check_cycle_figures(cyc, cyc.L3, W, Q_H, eta, eta_cf)
    _close(Q_C, Q_H - W, Q_H, "Q_C")
    check_discrepancy(discrepancy)
    return W


@dataclass
class Samples:
    """Columns of a parsed ``samples.csv``."""

    stroke: np.ndarray
    kind: list[str]
    L: np.ndarray
    force: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    populations: list[list[tuple[int, float]]]


def parse_samples(text: str) -> Samples:
    rows = _csv_rows(text, SAMPLES_HEADER)
    _require(all(len(r) == 7 for r in rows), "samples rows must have 7 fields")
    populations = []
    for r in rows:
        pairs = []
        for item in r[6].split(";"):
            level, _, weight = item.partition(":")
            pairs.append((int(level), float(weight)))
        populations.append(pairs)
    return Samples(
        stroke=np.array([int(r[0]) for r in rows]),
        kind=[r[1] for r in rows],
        L=np.array([float(r[2]) for r in rows]),
        force=np.array([float(r[3]) for r in rows]),
        energy=np.array([float(r[4]) for r in rows]),
        entropy=np.array([float(r[5]) for r in rows]),
        populations=populations,
    )


_STROKE_KINDS = ("isothermal", "adiabatic", "isothermal", "adiabatic")


def check_sample_layout(s: Samples, samples_per_stroke: int) -> None:
    count = samples_per_stroke
    _require(len(s.kind) == 4 * count, f"{len(s.kind)} sample rows, expected {4 * count}")
    expected_stroke = np.repeat(np.arange(1, 5), count)
    _require(bool(np.array_equal(s.stroke, expected_stroke)), "stroke_index column out of order")
    expected_kind = [k for k in _STROKE_KINDS for _ in range(count)]
    _require(s.kind == expected_kind, "stroke_kind column does not match the stroke order")


def check_equation_of_state(s: Samples) -> None:
    """``L F = 2E`` on isothermal rows; ``F L^3`` constant along each adiabat."""
    for i, kind in enumerate(s.kind):
        if kind == "isothermal":
            _close(s.L[i] * s.force[i], 2.0 * s.energy[i], 2.0 * s.energy[i],
                   f"L*F on isothermal row {i + 1}")
    for stroke in (2, 4):
        rows = np.flatnonzero(s.stroke == stroke)
        invariant = s.force[rows] * s.L[rows] ** 3
        for i, value in zip(rows, invariant):
            _close(value, invariant[0], invariant[0], f"F*L^3 on adiabatic row {i + 1}")


def check_populations(s: Samples) -> None:
    """Populations nonnegative and summing to one; entropy recomputed from them."""
    for i, pairs in enumerate(s.populations):
        weights = [w for _, w in pairs]
        _require(all(w >= 0.0 for w in weights), f"negative population on row {i + 1}")
        total = math.fsum(weights)
        _require(abs(total - 1.0) <= REL_TOL, f"populations on row {i + 1} sum to {total!r}")
        entropy = -math.fsum(w * math.log(w) for w in weights if w > 0.0)
        _require(
            abs(s.entropy[i] - entropy) <= REL_TOL,
            f"entropy on row {i + 1} = {s.entropy[i]!r}, recomputed {entropy!r}",
        )


def trapezoid_error_bound(cyc: CycleInput) -> float:
    """``sum (b - a) h^2 / 12 * max|F''|`` over the four strokes of the sampled loop.

    Isotherms carry ``F = 2E/L`` (``F'' = 4E/L^3``), adiabats in pure level ``k``
    carry ``F = C_k / L^3`` with ``C_k = pi^2 hbar^2 k^2 / m`` (``F'' = 12 C_k / L^5``);
    each ``|F''|`` peaks at the stroke's narrow end.
    """
    n, L1, L3 = cyc.top_level, cyc.L1, cyc.L3
    L2, L4 = n * L1, L3 / n
    ref = closed_form(cyc)

    def adiabat_c(k):
        return (math.pi * cyc.hbar * k) ** 2 / cyc.mass

    strokes = (
        (L1, L2, 4.0 * ref.e_hot / L1 ** 3),
        (L2, L3, 12.0 * adiabat_c(n) / L2 ** 5),
        (L4, L3, 4.0 * ref.e_cold / L4 ** 3),
        (L1, L4, 12.0 * adiabat_c(1) / L1 ** 5),
    )
    bound = 0.0
    for a, b, curvature in strokes:
        h = (b - a) / (cyc.samples_per_stroke - 1)
        bound += (b - a) * h * h / 12.0 * curvature
    return bound


def check_loop_area(s: Samples, cyc: CycleInput, W: float) -> None:
    """Trapezoid area of the closed sampled loop within its error bound of ``W``."""
    L_next = np.roll(s.L, -1)
    F_next = np.roll(s.force, -1)
    pieces = 0.5 * (s.force + F_next) * (L_next - s.L)
    area = math.fsum(pieces.tolist())
    rounding = 64 * 2.220446049250313e-16 * math.fsum(np.abs(pieces).tolist())
    bound = trapezoid_error_bound(cyc) + rounding
    _require(
        abs(area - W) <= bound,
        f"loop area {area!r} misses W = {W!r} by more than the trapezoid bound {bound!r}",
    )


def check_samples_csv(text: str, cyc: CycleInput, W: float) -> int:
    """All checks on one ``samples.csv``; returns its row count."""
    s = parse_samples(text)
    check_sample_layout(s, cyc.samples_per_stroke)
    check_equation_of_state(s)
    check_populations(s)
    check_loop_area(s, cyc, W)
    return len(s.kind)


def identity_reference_sum(n: int, alpha: float, terms: int) -> float:
    """``sum_{m <= terms} 4 alpha m^2 sin^2(m pi/alpha) / (pi^2 (m^2 - alpha^2 n^2)^2)``.

    The original form of the series, summed in chunks whose partial sums are
    added with ``math.fsum``.  At an exact resonance ``m = alpha n`` the 0/0
    term takes its limit ``1/alpha``; close to one this form loses accuracy,
    so callers keep ``alpha n`` away from integers.
    """
    a2 = (alpha * n) ** 2
    chunk_sums = []
    for start in range(1, terms + 1, _CHUNK):
        m = np.arange(start, min(start + _CHUNK, terms + 1), dtype=np.float64)
        s = np.sin(m * (math.pi / alpha))
        d = m * m - a2
        resonant = d == 0.0
        d[resonant] = 1.0
        term = 4.0 * alpha * m * m * s * s / (math.pi ** 2 * d * d)
        term[resonant] = 1.0 / alpha
        chunk_sums.append(float(np.sum(term)))
    return math.fsum(chunk_sums)


def check_identity(n: int, alpha: float, tol: float, achieved_sum: float,
                   tail_bound: float, terms_used: int) -> None:
    """``0 <= 1 - achieved_sum <= tail_bound <= tol`` and the sum itself."""
    gap = 1.0 - achieved_sum
    _require(0.0 <= gap, f"achieved_sum {achieved_sum!r} exceeds 1")
    _require(gap <= tail_bound, f"1 - achieved_sum = {gap!r} exceeds tail_bound {tail_bound!r}")
    _require(tail_bound <= tol, f"tail_bound {tail_bound!r} exceeds tol {tol!r}")
    reference = identity_reference_sum(n, alpha, terms_used)
    _require(
        abs(achieved_sum - reference) <= SERIES_ABS_TOL,
        f"achieved_sum {achieved_sum!r} differs from the direct sum {reference!r}",
    )


def check_expansion(levels, weights, alpha: float, tail_tol: float, out_levels,
                    out_weights, achieved_sum: float, tail_bound: float) -> None:
    """Post-expansion state: normalized, truncation within bound, energy conserved.

    ``levels``/``weights`` describe the state before the jump.  The raw
    captured populations are ``out_weights * achieved_sum``; their mean energy
    in the widened box must match the initial one within ``tail_bound``.
    """
    out_levels = np.asarray(out_levels, dtype=np.float64)
    out_weights = np.asarray(out_weights, dtype=np.float64)
    _require(out_levels.size == out_weights.size and out_levels.size > 0, "malformed state")
    _require(bool(np.all(out_weights >= 0.0)), "negative post-expansion population")
    total = math.fsum(np.add.reduceat(out_weights, np.arange(0, out_weights.size, _CHUNK)).tolist())
    _require(abs(total - 1.0) <= 1e-12, f"post-expansion populations sum to {total!r}")
    gap = 1.0 - achieved_sum
    _require(-REL_TOL <= gap <= tail_bound, f"captured mass {achieved_sum!r} outside its bound {tail_bound!r}")
    _require(tail_bound <= tail_tol, f"tail_bound {tail_bound!r} exceeds tail_tol {tail_tol!r}")
    levels = np.asarray(levels, dtype=np.float64)
    e_pre = math.fsum((np.asarray(weights, dtype=np.float64) * levels * levels).tolist())
    e_post = achieved_sum * float(np.dot(out_weights, out_levels * out_levels)) / (alpha * alpha)
    shift = abs(e_post - e_pre) / e_pre
    _require(shift <= tail_bound, f"|E_post - E_pre| / E_pre = {shift!r} exceeds {tail_bound!r}")
