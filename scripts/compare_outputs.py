#!/usr/bin/env python3
"""Compare the outputs of this tree with those of another source tree.

Usage: ``compare_outputs.py BASE_ROOT``.  Runs this tree's
``output_digest.py`` in two new interpreters at once, one with
``BASE_ROOT/src`` and one with this tree's ``src`` first on ``PYTHONPATH``,
and prints ``identical``, or a header line and then each digest line that
only the base prints (``< ``) or only this tree prints (``> ``).  Exits 0
either way, since some changes alter outputs on purpose; exits 1 if a digest
run fails.
"""

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_root", type=Path, help="root of the tree to compare with")
    args = parser.parse_args(argv)
    base_src = args.base_root.resolve() / "src"
    if not (base_src / "qcarnot").is_dir():  # else the child would import another qcarnot
        parser.error(f"no package at {base_src / 'qcarnot'}")
    runs = []
    for src in (base_src, ROOT / "src"):
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        runs.append(subprocess.Popen([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                                     stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, PYTHONPATH=path)))
    base, head = (run.communicate()[0].splitlines() for run in runs)
    if any(run.returncode for run in runs):
        print("error: a digest run failed", file=sys.stderr)
        return 1
    marks = {"- ": "< ", "+ ": "> "}
    changed = [marks[line[:2]] + line[2:] for line in difflib.ndiff(base, head) if line[:2] in marks]
    print("\n".join(["differ (base <, this tree >):", *changed]) if changed else "identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
