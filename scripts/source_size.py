#!/usr/bin/env python3
"""Lines and parser tokens of each module named on the command line.

Prints one row per path, ``lines tokens path``, then the totals.  Lines are
counted as ``wc -l`` counts them; tokens are all ``tokenize`` tokens but
comments and blank-line NLs.  The compiler's peak memory grows with the
tokens and steps up by about 0.28 MB once a module passes about 4,096 of
them, so each module at or past that step is marked.

Usage: ``python scripts/source_size.py src/qcarnot/*.py``
"""

import io
import sys
import tokenize

# Parser tokens of one module at which the compiler's peak memory steps up.
TOKEN_STEP = 4096


def main(paths):
    totals = [0, 0]
    print("  lines  tokens")
    for path in paths:
        with open(path, encoding="utf-8") as source:
            text = source.read()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        counts = (text.count("\n"), sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens))
        totals = [t + c for t, c in zip(totals, counts)]
        mark = "  (4,096+ tokens: compile-peak step)" if counts[1] >= TOKEN_STEP else ""
        print("%7d %7d %s%s" % (*counts, path, mark))
    print("%7d %7d total" % tuple(totals))


if __name__ == "__main__":
    main(sys.argv[1:])
