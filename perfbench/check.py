"""Check one sample's outputs in a process of its own.

    python3 perfbench/check.py --workload NAME --seed N OUTPUT...

Prints one JSON object: ``errors`` (one list per command), ``dfas`` and
``atoms``.  The checks parse whole outputs and import atomata for their
oracles; running them here keeps the benchmark's own process small.  That
matters because a child started from it reports the parent's peak RSS as
its ``ru_maxrss`` when that is larger than its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("outputs", nargs="+", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    checked = WORKLOADS[args.workload].check([p.read_bytes() for p in args.outputs], args.seed)
    print(json.dumps(dataclasses.asdict(checked)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
