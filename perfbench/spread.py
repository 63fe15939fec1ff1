"""Run-to-run spread of the end-to-end metrics over several seeds.

From the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, for every
workload, seeds in the outer loop, one run at a time.  For each workload
and metric, and each raw figure of the details line, it reports the
median of the runs and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--out`` writes every run's result and details line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import RAW
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    run_py = Path(__file__).resolve().parent / "run.py"
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for seed in args.seeds:
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run_py), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result, details = json.loads(lines[-1]), json.loads(lines[-2])
            runs[name].append({"seed": seed, "result": result, "details": details})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {}
    for name, rs in runs.items():
        metrics = rs[0]["result"]["metrics"]
        summary[name] = {
            k: dict(spread([r["result"]["metrics"][k]["value"] for r in rs]), unit=m["unit"])
            for k, m in metrics.items()
        }
        summary[name].update(
            (k, dict(spread([r["details"][k] for r in rs]), unit=unit)) for k, unit in RAW.items()
        )
        summary[name]["all_correct"] = all(r["result"]["correct"] for r in rs)
    for name, metrics in summary.items():
        print(name)
        for k, s in metrics.items():
            if k != "all_correct":
                text = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {k:12} median {s['median']:12.6g} {s['unit']:5} spread {text}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
