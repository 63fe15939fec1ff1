"""Reference start: fixed Python work that uses no atomata code.

    python3 perfbench/reference.py

run.py times this script in a fresh interpreter next to every cold start
of atomata, and divides the workload's times by the median of these
reference times.  Both are short process starts taken at the same moments,
so a change in machine speed moves them alike; a change to atomata moves
only the workload.  The work is what an atomata command does most: start
an interpreter, import standard-library modules, then compose tuples and
look them up in a set (here the closure of the full transformation
semigroup on POINTS points, REPEATS times).
"""

import argparse  # noqa: F401  (imported for its start-up cost, as atomata does)
import dataclasses  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
import sys

POINTS = 5
REPEATS = 4


def closure_size(n: int) -> int:
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0), (*range(n - 1), 0)]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        found = []
        for t in frontier:
            for g in gens:
                u = tuple([g[x] for x in t])
                if u not in seen:
                    seen.add(u)
                    found.append(u)
        frontier = found
    return len(seen)


if __name__ == "__main__":
    sys.exit(0 if all(closure_size(POINTS) == POINTS**POINTS for _ in range(REPEATS)) else 1)
