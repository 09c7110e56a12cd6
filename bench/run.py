"""qcarnot benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout, in this one process, and driven through its public
functions; set-up time is taken by starting fresh interpreters.  Operations
run in whole rounds, in passes (see ``run_passes``), for about ``--seconds``
of timed work; every output is checked outside the timed region.  The last
line of standard output is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from a fixed number of traced rounds with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Interpreter starts before and after the workload, and between passes about
# every 1/SETUP_RUNS_BETWEEN of the run, so that one slow stretch of a shared
# host does not set the median.
SETUP_RUNS_AT_ENDS = 2
SETUP_RUNS_BETWEEN = 8
# Least number of passes over a run's plan; an operation's time is the median
# of its passes.
MIN_PASSES = 3
_SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import qcarnot, qcarnot.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, qcarnot.__file__)\n"
)

# Per-layer metrics, each named after the tracer's stat it reports, and its unit.
PER_LAYER = (
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.s", "s"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.integrate.f_evals", "count"),
    ("processes.Stroke.force_at.calls", "count"),
    ("processes.isothermal_state_at.calls", "count"),
    ("processes.isothermal_state_at.s", "s"),
    ("boxmodel.MixedState.count", "count"),
    ("boxmodel.MixedState.s", "s"),
    ("boxmodel.MixedState.levels", "count"),
    ("processes.sample_stroke.s", "s"),
    ("processes.sample_stroke.rows", "count"),
    ("cycle.sample_cycle.s", "s"),
    ("cli.write_samples_csv.s", "s"),
    ("cli.write_samples_csv.bytes", "bytes"),
    ("cycle.evaluate_cycle.calls", "count"),
    ("cycle.evaluate_cycle.s", "s"),
    ("cycle.build_carnot_cycle.s", "s"),
    ("processes.stroke_work_quadrature.calls", "count"),
    ("processes.stroke_work_quadrature.s", "s"),
    ("cli.main.s", "s"),
    ("sudden.verify_energy_identity.calls", "count"),
    ("sudden.verify_energy_identity.s", "s"),
    ("sudden.verify_energy_identity.terms", "count"),
    ("sudden.verify_energy_identity.terms_per_s", "1/s"),
    ("sudden.post_expansion_distribution.calls", "count"),
    ("sudden.post_expansion_distribution.s", "s"),
    ("sudden.post_expansion_distribution.terms", "count"),
    ("sudden.post_expansion_distribution.support_levels", "count"),
    ("sudden.level_overlap_squares.calls", "count"),
    ("sudden.level_overlap_squares.s", "s"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_qcarnot_own_s", "s"),
    ("trace.overhead", "ratio"),
)
# The tracer counts every span's calls as ``<span>.calls``.
_STAT_ALIASES = {"boxmodel.MixedState.count": "boxmodel.MixedState.calls"}


class SetupError(RuntimeError):
    pass


def start_interpreter() -> tuple[float, float, float]:
    """One fresh interpreter importing ``qcarnot`` and ``qcarnot.cli``.

    Returns its wall time, taken from outside, and the child's own numpy and
    qcarnot import times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"interpreter start failed: {done.stderr.strip()}")
    t_numpy, t_own, location = done.stdout.split()
    if not Path(location).resolve().is_relative_to(SRC):
        raise SetupError(f"child imported qcarnot from {location}, not from {SRC}")
    return wall, float(t_numpy), float(t_own)


def import_program():
    if not (SRC / "qcarnot" / "__init__.py").is_file():
        raise SetupError(f"no qcarnot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcarnot
    import qcarnot.cli  # noqa: F401  (the package need not import its cli)

    if not Path(qcarnot.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported qcarnot from {qcarnot.__file__}, not from {SRC}")
    return qcarnot


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self):
        self.rounds = 0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.spent = 0.0
        self.timed = 0.0  # sum of the recorded operation times
        self.ok_seconds: list[float] = []
        self.problems: list[str] = []

    def record(self, op, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.timed += seconds
        if ok:
            self.work += op.work
            self.ok_seconds.append(seconds)
        else:
            self.failed += 1


def run_op(prog, op, workdir, *, verify: bool, problems: list | None = None):
    """Execute ``op`` once; returns its wall time and, if ``verify``, whether it
    succeeded.  A failed check is appended to ``problems``, or raised if None."""
    from checks import CheckFailed

    op.prepare(prog, workdir)
    start = perf_counter()
    result = op.execute(prog)
    elapsed = perf_counter() - start
    if not verify:
        return elapsed, None
    try:
        return elapsed, op.verify(prog, result)
    except CheckFailed as exc:
        if problems is None:
            raise
        problems.append(f"{type(op).__name__} {getattr(op, 'argv', '')} {exc}")
        return elapsed, False


def run_passes(prog, workload, workdir, *, seconds: float,
               between_passes=lambda: None) -> Tally:
    """Passes over a fixed plan of whole rounds for about ``seconds`` of timed work.

    The plan is ``workload.plan_rounds`` rounds; every pass runs all of its
    operations, and passes go on while another one is expected to fit in
    ``seconds`` (at least ``MIN_PASSES``).  An operation's time is the median
    of its passes.  Other tenants of a shared host slow the program by up to
    1.6x in bursts; a run may or may not meet a quiet stretch, so the least
    of the passes swings between runs, while the median sees the host's
    typical state over the whole run.  Outputs are checked on the first
    pass, outside the timed region; the later passes repeat the same inputs.
    ``between_passes`` runs about every ``seconds / SETUP_RUNS_BETWEEN`` of
    timed work.
    """
    tally = Tally()
    plan = [op for r in range(workload.plan_rounds) for op in workload.round(r)]
    times: list[list[float]] = [[] for _ in plan]
    ok = [False] * len(plan)
    passes = 0
    next_between = seconds / SETUP_RUNS_BETWEEN
    while passes < MIN_PASSES or tally.spent * (passes + 1) / passes <= seconds:
        verify = passes == 0
        for i, op in enumerate(plan):
            elapsed, passed = run_op(prog, op, workdir, verify=verify, problems=tally.problems)
            if verify:
                ok[i] = passed
            tally.spent += elapsed
            times[i].append(elapsed)
        passes += 1
        if tally.spent >= next_between:
            between_passes()
            next_between += seconds / SETUP_RUNS_BETWEEN
    for op, op_times, passed in zip(plan, times, ok):
        tally.record(op, statistics.median(op_times), passed)
    tally.rounds = workload.plan_rounds
    tally.passes = passes
    return tally


def metric(value, unit):
    return {"value": value, "unit": unit}


def traced_run(package, prog, workload, workdir, seconds):
    """A fixed number of rounds; each operation runs untraced, then traced.

    The round count depends only on ``seconds``, so count metrics repeat
    exactly for a seed.  Running the two executions back to back lets their
    ratio, ``trace.overhead``, see the same host conditions.  Returns the
    two tallies and the tracer's stats.
    """
    from tracing import Tracer

    rounds = max(1, round(seconds / (3 * workload.round_seconds)))
    tracer = Tracer(package)
    plain, traced = Tally(), Tally()
    for r in range(rounds):
        for op in workload.round(r):
            plain.record(op, *run_op(prog, op, workdir, verify=True, problems=plain.problems))
            tracer.install()
            try:
                traced.record(op, *run_op(prog, op, workdir, verify=True,
                                          problems=traced.problems))
            finally:
                tracer.uninstall()
    stats = tracer.stats
    stats["trace.overhead"] = traced.timed / plain.timed
    name = "sudden.verify_energy_identity"
    if stats[f"{name}.s"] > 0:
        stats[f"{name}.terms_per_s"] = stats[f"{name}.terms"] / stats[f"{name}.s"]
    print(f"{workload.name}: {rounds} rounds, {plain.timed:.3f} s timed untraced, "
          f"{traced.timed:.3f} s traced")
    return (plain, traced), stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, Program

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    try:
        package = import_program()
        start_interpreter()  # unrecorded: leaves byte-code caches as a user has them
        setup = [start_interpreter() for _ in range(SETUP_RUNS_AT_ENDS)]
        prog = Program(package)
        workdir.mkdir(parents=True, exist_ok=True)
        for op in workload.warmup():
            run_op(prog, op, workdir, verify=True)
        if args.trace:
            tallies, stats = traced_run(package, prog, workload, workdir, args.seconds)
        else:
            tally = run_passes(prog, workload, workdir, seconds=args.seconds,
                               between_passes=lambda: setup.append(start_interpreter()))
            tallies = (tally,)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += [start_interpreter() for _ in range(SETUP_RUNS_AT_ENDS)]
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        stats["setup.import_numpy_s"] = statistics.median(t[1] for t in setup)
        stats["setup.import_qcarnot_own_s"] = statistics.median(t[2] for t in setup)
        metrics = {}
        for name, unit in PER_LAYER:
            value = stats[_STAT_ALIASES.get(name, name)]
            metrics[name] = metric(int(value) if unit in ("count", "bytes") else value, unit)
    else:
        metrics = {
            "setup_s": metric(statistics.median(t[0] for t in setup), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "work_per_s": metric(tally.work / tally.timed, "1/s"),
            "op_ms_p50": metric(1e3 * statistics.median(tally.ok_seconds), "ms"),
        }
        print(f"{workload.name} seed {args.seed}: {tally.rounds} rounds x {tally.passes} passes, "
              f"{tally.spent:.3f} s timed; op_ms_p50 over {len(tally.ok_seconds)} "
              f"successful operations ({workload.operation}); setup_s over {len(setup)} starts")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, of which failed checks {len(problems)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
