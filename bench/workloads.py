"""Seeded workloads: the operations each round runs and how each is checked.

A run is a sequence of whole rounds; every round of a workload holds the same
operations, so known faults are the same share of the attempted operations
in every run.  Parameters that set an operation's cost (``top_level``, L3
range, samples per stroke, ``alpha``, ``tol``, state size) stay within a
few percent of fixed values per band or cell, stepped along a low-discrepancy
sequence with a seeded offset, so medians barely move between seeds.
Parameters the cost does not depend on (``L1``, ``hbar``, ``mass``, ``n``,
which levels are populated and their weights) are drawn from the seed freely.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    CycleInput,
    check_discrepancy,
    check_expansion,
    check_identity,
    check_report_csv,
    check_samples_csv,
    check_sweep_csv,
)

# Additive recurrence on the root of x^4 = x + 1: a 3-D low-discrepancy sequence.
_G = 1.2207440846057596
_STEP = np.array([1.0 / _G, 1.0 / _G ** 2, 1.0 / _G ** 3])


def _stratified(offset: np.ndarray, r: int) -> list[float]:
    return [float(x) for x in (offset + r * _STEP) % 1.0]


class Program:
    """The qcarnot modules the operations call, plus a tap on ``cli``'s
    ``evaluate_cycle`` that keeps each ``CycleReport`` a ``sweep`` computes,
    because the sweep CSV omits the quadrature discrepancy."""

    def __init__(self, package):
        self.package = package
        self.cli = package.cli
        self.sudden = package.sudden
        self.reports: list = []
        cycle_module = package.cycle

        def evaluate_cycle(*args, **kwargs):
            report = cycle_module.evaluate_cycle(*args, **kwargs)
            self.reports.append(report)
            return report

        self.cli.evaluate_cycle = evaluate_cycle

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue()


@dataclass
class SweepOp:
    """One ``qcarnot sweep`` command."""

    cyc: CycleInput
    l3_from: float
    l3_to: float
    steps: int
    known_fault: bool = False
    work: int = field(init=False)

    def __post_init__(self):
        self.work = self.steps

    def prepare(self, prog: Program, workdir: Path) -> None:
        spec = workdir / "sweep.spec"
        spec.write_text(self.cyc.spec_text())
        self.out = workdir / "sweep.csv"
        self.out.unlink(missing_ok=True)
        self.argv = ["sweep", str(spec), "--l3-from", repr(self.l3_from),
                     "--l3-to", repr(self.l3_to), "--steps", str(self.steps),
                     "--out", str(self.out)]
        prog.reports.clear()

    def execute(self, prog: Program):
        return prog.run_cli(self.argv)

    def verify(self, prog: Program, result) -> bool:
        code, err = result
        if code != 0:
            if self.known_fault and code == 2 and "quadrature error estimate" in err:
                return False
            raise CheckFailed(f"sweep exited {code}: {err.strip()}")
        check_sweep_csv(self.out.read_text(), self.cyc, self.l3_from, self.l3_to, self.steps)
        if len(prog.reports) != self.steps:
            raise CheckFailed(f"sweep evaluated {len(prog.reports)} cycles, expected {self.steps}")
        for report in prog.reports:
            check_discrepancy(report.quadrature_discrepancy)
        return True


@dataclass
class SimulateOp:
    """One ``qcarnot simulate`` command; its work is the sample rows written."""

    cyc: CycleInput
    work: int = field(init=False)

    def __post_init__(self):
        self.work = 4 * self.cyc.samples_per_stroke

    def prepare(self, prog: Program, workdir: Path) -> None:
        spec = workdir / "simulate.spec"
        spec.write_text(self.cyc.spec_text())
        self.out = workdir / "simulate"
        for name in ("samples.csv", "report.csv"):
            (self.out / name).unlink(missing_ok=True)
        self.argv = ["simulate", str(spec), "--out", str(self.out)]

    def execute(self, prog: Program):
        return prog.run_cli(self.argv)

    def verify(self, prog: Program, result) -> bool:
        code, err = result
        if code != 0:
            raise CheckFailed(f"simulate exited {code}: {err.strip()}")
        W = check_report_csv((self.out / "report.csv").read_text(), self.cyc)
        check_samples_csv((self.out / "samples.csv").read_text(), self.cyc, W)
        return True


@dataclass
class CertifyOp:
    """Certify one energy identity, then expand one mixed state by ``alpha_exp``.

    ``levels is None`` makes it the identity alone: the known-fault operation.
    """

    n: int
    alpha: float
    tol: float
    levels: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    alpha_exp: float | None = None
    tail_tol: float = 1e-6
    known_fault: bool = False
    work: int = field(init=False)

    def __post_init__(self):
        self.work = 1 if self.levels is None else 2

    def prepare(self, prog: Program, workdir: Path) -> None:
        if self.levels is not None:
            self.state = prog.package.MixedState(np.array(self.levels), np.array(self.weights))

    def execute(self, prog: Program):
        errors = prog.package.EngineError
        try:
            identity = prog.sudden.verify_energy_identity(self.n, self.alpha, self.tol)
        except errors as exc:
            return exc
        if self.levels is None:
            return identity, None
        try:
            expansion = prog.sudden.post_expansion_distribution(
                self.state, self.alpha_exp, self.tail_tol)
        except errors as exc:
            return exc
        return identity, expansion

    def verify(self, prog: Program, result) -> bool:
        if isinstance(result, Exception):
            if self.known_fault and isinstance(result, prog.package.TruncationError):
                return False
            raise CheckFailed(f"{type(result).__name__}: {result}")
        identity, expansion = result
        check_identity(self.n, self.alpha, self.tol, identity.achieved_sum,
                       identity.tail_bound, identity.terms_used)
        if expansion is not None:
            state, report = expansion
            check_expansion(self.levels, self.weights, self.alpha_exp, self.tail_tol,
                            state.levels, state.weights, report.achieved_sum,
                            report.tail_bound)
        return True


def _jitter(base: float, u: float, width: float) -> float:
    """``base`` scaled by a factor in ``[1 - width, 1 + width]``."""
    return base * (1.0 + width * (2.0 * u - 1.0))


def _well(rng) -> dict:
    return dict(L1=float(10 ** rng.uniform(-1, 1)), hbar=float(10 ** rng.uniform(-0.5, 0.5)),
                mass=float(10 ** rng.uniform(-0.5, 0.5)))


class Workload:
    name: str
    # Rough timed seconds per round, used only to size the traced run.
    round_seconds: float
    # Rounds in the plan that an end-to-end run repeats, pass after pass.
    plan_rounds: int
    operation: str

    def __init__(self, seed: int):
        self.seed = seed
        self.offsets = np.random.default_rng([seed, 0]).random((8, 3))

    def rng(self, r: int):
        return np.random.default_rng([self.seed, 1, r])

    def round(self, r: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError


class CycleSweep(Workload):
    """Seven ``sweep`` commands over five ``top_level`` bands, plus one known fault.

    Bands are narrow so that each band's sweeps cost about the same.  The
    middle band has three sweeps, so the median sweep lies among several of
    about the same cost: a single sweep's time varies more from run to run
    than the middle of three.
    """

    name = "cycle_sweep"
    round_seconds = 1.7
    plan_rounds = 1
    operation = "one sweep command"
    # (lowest top_level, highest top_level, steps)
    BANDS = ((2, 2, 4), (5, 6, 2), (25, 30, 2), (25, 30, 2), (25, 30, 2), (90, 110, 2),
             (220, 260, 2))
    # evaluate_cycle raises QuadratureError for top_level >= 500: the absolute
    # tolerance of quadrature.integrate is anchored to its first coarse value.
    FAULT = SweepOp(CycleInput(top_level=1000, L1=1.0, L3=3000.0), 3000.0, 6000.0, 2,
                    known_fault=True)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for (lo, hi, steps), offset in zip(self.BANDS, self.offsets):
            u, v, w = _stratified(offset, r)
            n = lo + min(int(u * (hi - lo + 1)), hi - lo)
            well = _well(rng)
            from_ratio = _jitter(1.2, v, 0.05)
            to_ratio = from_ratio * _jitter(3.5, w, 0.05)
            floor = n * well["L1"]
            cyc = CycleInput(top_level=n, L3=from_ratio * floor, **well)
            ops.append(SweepOp(cyc, cyc.L3, to_ratio * floor, steps))
        ops.append(self.FAULT)
        return ops

    def warmup(self):
        return [SweepOp(CycleInput(top_level=2, L1=1.0, L3=4.0), 4.0, 5.0, 2)]


class DiagramExport(Workload):
    """One ``simulate`` command with thousands of samples per stroke."""

    name = "diagram_export"
    round_seconds = 0.4
    plan_rounds = 4
    operation = "one simulate command"

    def round(self, r):
        u, v, w = _stratified(self.offsets[0], r)
        n = 2 + min(int(3 * u), 2)
        well = _well(self.rng(r))
        cyc = CycleInput(top_level=n, L3=n * well["L1"] * _jitter(2.0, w, 0.25),
                         samples_per_stroke=2000 + int(100 * v), **well)
        return [SimulateOp(cyc)]

    def warmup(self):
        return [SimulateOp(CycleInput(top_level=2, L1=1.0, L3=4.0, samples_per_stroke=64))]


class SuddenCertify(Workload):
    """Three identity-plus-expansion jobs, plus one known fault.

    The cells pair a cheap identity with a large expansion and the reverse,
    so the three jobs take about as long while their parts span the ranges.
    """

    name = "sudden_certify"
    round_seconds = 0.6
    plan_rounds = 2
    operation = "one identity certification plus one expansion"
    # (identity alpha, identity tol, expansion alpha, populated levels)
    CELLS = ((1.3, 8e-7, 3.0, 9), (2.0, 3e-7, 2.0, 5), (2.6, 1.2e-7, 1.3, 2))
    # The one-sided tail bound needs ~1/tol terms: 1e-9 overruns the 1e8 budget.
    FAULT = CertifyOp(1, 2.0, 1e-9, known_fault=True)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for (alpha0, tol0, alpha_exp0, size), offset in zip(self.CELLS, self.offsets):
            u, v, w = _stratified(offset, r)
            n = int(rng.integers(1, 7))
            alpha = _jitter(alpha0, u, 0.02)
            # The reference sum's original form loses accuracy next to the
            # resonance m = alpha * n, so alpha * n stays 0.01 off integers.
            while abs(alpha * n - round(alpha * n)) < 0.01:
                alpha += 0.02 / n
            levels = tuple(int(x) for x in np.sort(rng.choice(np.arange(1, 13), size, replace=False)))
            weights = rng.dirichlet(np.ones(size))
            ops.append(CertifyOp(n, alpha, _jitter(tol0, v, 0.02), levels,
                                 tuple(float(x) for x in weights / weights.sum()),
                                 _jitter(alpha_exp0, w, 0.02)))
        ops.append(self.FAULT)
        return ops

    def warmup(self):
        return [CertifyOp(1, 1.5, 1e-5, (1, 2), (0.5, 0.5), 1.5)]


WORKLOADS = {w.name: w for w in (CycleSweep, DiagramExport, SuddenCertify)}
