#!/usr/bin/env python3
"""Run each benchmark workload under the tracer and check its record.

Each workload runs once as ``bench/run.py --workload W --seed 1 --seconds 1
--trace 1`` in a new interpreter with RuntimeWarnings as errors, as pytest's
filterwarnings has them.  Its last line of output must say ``correct``
and give a value for every per-layer metric that ``BENCHMARK.json`` lists,
which must be ``METRICS`` of them.  On ``cycle_sweep`` every quadrature must
also take one integrand call per ``integrate`` call, and a sweep must
integrate the strokes of several cycles at once: fewer
``stroke_work_quadrature`` calls than ``evaluate_cycle`` calls.  Prints one
line per workload and exits 1 at the first that fails.

Usage: ``python scripts/traced_check.py [WORKLOAD ...]``; the default is all
three workloads.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cycle_sweep", "diagram_export", "sudden_certify")
# Per-layer metrics that BENCHMARK.json lists.
METRICS = 34


def check(workload: str) -> str | None:
    """The failure of ``workload``'s traced run, or None if it passes."""
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()}"
    last = json.loads(done.stdout.splitlines()[-1])
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [n for n in names if "value" not in last["metrics"].get(n, {})]
    if last["correct"] is not True or len(names) != METRICS or missing:
        return f"correct={last['correct']}, {len(names)} metrics listed, missing {missing}"
    if workload != "cycle_sweep":
        return None
    value = {n: last["metrics"][n]["value"] for n in names}
    evals, calls = value["quadrature.integrate.f_evals"], value["quadrature.integrate.calls"]
    if evals != calls:
        return f"{evals} integrand calls for {calls} quadratures"
    strokes, cycles = value["processes.stroke_work_quadrature.calls"], value["cycle.evaluate_cycle.calls"]
    if not strokes < cycles:
        return f"{strokes} stroke_work_quadrature calls for {cycles} evaluate_cycle calls"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"one of {', '.join(WORKLOADS)}; all of them if none is given")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    for workload in args.workloads or WORKLOADS:
        failure = check(workload)
        if failure is not None:
            print(f"{workload}: {failure}")
            return 1
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
