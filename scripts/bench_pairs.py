#!/usr/bin/env python3
"""Paired benchmark runs of another source tree and this one, in one JSON file.

Usage: ``bench_pairs.py BASE_ROOT [--workload W ...] --pairs N --seconds S
--out FILE``.  For each workload (all of ``BENCHMARK.json``'s if none is
given) and each seed ``i`` in 1..N, runs ``bench/run.py --workload W --seed i
--seconds S --trace 0`` once in ``BASE_ROOT`` and once in this tree, each in a
new interpreter from the root of its own tree, one run at a time.  The base
runs first on odd seeds and second on even ones, so that a drift in the
host's load favours neither side.

``FILE`` holds, per workload, each pair's runs (``exit``, ``correct``,
``attempted`` and ``failed`` of each side) and, per end-to-end metric of
``BENCHMARK.json``: every run's value, each side's median and quartiles,
the median over pairs of the change's value over the base's, and the number
of pairs in which the change reads better by the metric's ``better``.  A run
that exits nonzero has no values.  ``host`` records, read only, the CPU
count, ``/proc/loadavg`` before and after, the Python and numpy versions,
``PYTHONDONTWRITEBYTECODE`` and both trees' commits.  Prints one line per
run to stderr as it ends and one summary line per workload and metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def load_average():
    """The first three fields of ``/proc/loadavg``, or None where it does not exist."""
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def commit(root: Path):
    """The checked-out commit of the tree at ``root`` and whether its tracked
    files differ from it, or None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    return {"commit": head.stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())}


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in the tree at ``root``: its exit code and,
    when it exits 0, the fields of its last line of output."""
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=10 * seconds + 600,
    )
    if done.returncode != 0:
        return {"exit": done.returncode, "correct": False, "error": done.stderr.strip()[-500:]}
    last = json.loads(done.stdout.splitlines()[-1])
    return {"exit": 0, **{key: last[key] for key in ("correct", "attempted", "failed")},
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def summary(values: list) -> dict:
    """``values`` with their median and quartiles (numpy's default linear
    interpolation), or only the values if there are none."""
    if not values:
        return {"values": values}
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[0::2]
              if len(values) > 1 else values * 2)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def compare(pairs: list, name: str, spec: dict) -> dict:
    """The record of end-to-end metric ``name``, declared by ``spec`` in
    ``BENCHMARK.json``, over the pairs of one workload."""
    values = {side: [p[side]["metrics"][name] for p in pairs if "metrics" in p[side]] for side in SIDES}
    both = [(p["base"]["metrics"][name], p["head"]["metrics"][name])
            for p in pairs if "metrics" in p["base"] and "metrics" in p["head"]]
    sign = 1 if spec["better"] == "higher" else -1
    ratios = [head / base for base, head in both if base]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        **{side: summary(values[side]) for side in SIDES},
        "pair_ratio_median": statistics.median(ratios) if ratios else None,
        "pairs": len(both),
        "pairs_ahead": sum(sign * (head - base) > 0 for base, head in both),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_root", type=Path, help="root of the tree to compare with")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="a workload of BENCHMARK.json; repeat for more (default: all)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="output JSON path")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    workloads = args.workloads or names
    if unknown := sorted(set(workloads) - set(names)):
        parser.error(f"unknown workloads {unknown}; choose from {names}")
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    roots = {"base": args.base_root.resolve(), "head": ROOT}
    if not (roots["base"] / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {roots['base']}")

    host = {"cpu_count": os.cpu_count(), "loadavg_before": load_average(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "trees": {side: commit(root) for side, root in roots.items()}}
    result = {"pairs": args.pairs, "seconds": args.seconds, "host": host, "workloads": {}}
    for workload in workloads:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(roots[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: exit {pair[side]['exit']}, "
                      f"correct {pair[side]['correct']}", file=sys.stderr)
            pairs.append(pair)
        metrics = {m["name"]: compare(pairs, m["name"], m) for m in declared["end_to_end"]}
        result["workloads"][workload] = {"runs": pairs, "metrics": metrics}
        for name, m in metrics.items():
            medians = " -> ".join(f"{m[side].get('median', float('nan')):.6g}" for side in SIDES)
            print(f"{workload} {name}: {medians} {m['unit']}, "
                  f"ahead in {m['pairs_ahead']} of {m['pairs']} pairs")
    host["loadavg_after"] = load_average()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
