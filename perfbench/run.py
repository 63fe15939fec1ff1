"""End-to-end benchmark of the atomata CLI.

Run from the root of a checkout (the directory holding ``src/atomata``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in a fresh interpreter, one at a time, with this
checkout's ``src`` on ``PYTHONPATH``; wall time is taken around each child
and CPU time and peak RSS come from ``os.wait4`` on that child alone.  The
workload's command sequence repeats while another sample still fits in S
seconds (at least twice); each metric is the median over the samples.
Before every command and once at the end, a slot times cold starts of a
trivial atomata command, each followed by a start of ``reference.py``
(fixed work with no atomata code).  ``setup_s`` is the median of the
atomata starts; the times of a workload are reported divided by the
median reference start (``wall_ref``, ``cpu_ref``), because the speed of a
shared machine drifts between runs and both kinds of time move with it.  The raw
times are in the details line.  Outputs are checked after each sample,
outside the timed region, by ``check.py`` in a process of its own.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: each command runs once under perfbench's tracer,
between two untraced runs of the same command.  ``--workload all`` runs
every workload and prints a table.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine, the code measured, the seed and
the sample count behind each median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, per_layer
from workloads import WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}
# Raw figures of an untraced run, in its details line and the --workload all table.
RAW = {
    "wall_s": "s",
    "cpu_s": "s",
    "ref_s": "s",
    "dfas_per_s": "1/s",
    "atoms_per_s": "1/s",
    "failed_frac": "ratio",
}

# Cold starts of a trivial command, each followed by a reference start, in
# each slot; setup_s and ref_s are the medians over all slots of a run.
SETUP_LAUNCHES = 2
SETUP_ARGS = ["bounds", "1"]
# Samples behind every other median, even when fewer fit in --seconds.
MIN_SAMPLES = 2

HERE = Path(__file__).resolve().parent
CLI = "from atomata.cli import console_main; console_main()"
PROBE = "import atomata, sys; sys.stdout.write(atomata.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, unimportable package)."""


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ATOMATA_")}
    env["PYTHONPATH"] = str(src)
    return env


def launch(argv: list[str], out_path: Path, env: dict) -> dict:
    """Run one child to completion with stdout to out_path; time and rusage it."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
    }


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, naming the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((src / "atomata").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Bench:
    """One benchmark invocation in one checkout: launches, counts, checks."""

    def __init__(self, root: Path):
        self.src = root / "src"
        if not (self.src / "atomata" / "cli.py").is_file():
            raise BenchError(f"no atomata sources under {self.src}")
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env(self.src)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._verdicts: dict[tuple, dict] = {}
        self.setup_walls: list[float] = []
        self.ref_walls: list[float] = []
        probe = self.work / "probe.out"
        result = launch([sys.executable, "-c", PROBE], probe, self.env)
        where = Path(probe.read_text() or ".").resolve()
        if result["exit"] != 0 or self.src.resolve() not in where.parents:
            raise BenchError(f"atomata does not import from {self.src} (got {where})")

    def cli(self, args: list[str], out_path: Path) -> dict:
        self.attempted += 1
        return launch([sys.executable, "-c", CLI, *args], out_path, self.env)

    def fail(self, label: str, args: list[str], problems: list[str]) -> None:
        """Count one failed command (at most once, whatever went wrong)."""
        if problems:
            self.failed += 1
            self.errors.extend(f"{label} atomata {' '.join(args)}: {p}" for p in problems)

    def warm_up(self) -> None:
        """One untimed start, so that bytecode caches exist before timing."""
        launch([sys.executable, "-c", CLI, *SETUP_ARGS], self.work / "setup.out", self.env)

    def slot(self) -> None:
        """SETUP_LAUNCHES timed starts of a trivial command, into
        setup_walls, each followed by a reference start, into ref_walls."""
        for _ in range(SETUP_LAUNCHES):
            run = self.cli(SETUP_ARGS, self.work / "setup.out")
            self.fail("setup", SETUP_ARGS, [f"exit status {run['exit']}"] if run["exit"] else [])
            self.setup_walls.append(run["wall_s"])
            ref = launch([sys.executable, str(HERE / "reference.py")], self.work / "ref.out", self.env)
            if ref["exit"] != 0:
                raise BenchError(f"reference.py exited with status {ref['exit']}")
            self.ref_walls.append(ref["wall_s"])

    def check(self, name: str, seed: int, outputs: list[Path]) -> tuple[dict, tuple]:
        """Check one sample's outputs in a checker process; returns the
        verdict and the outputs' digests.  Identical outputs reuse the
        earlier verdict."""
        digests = tuple(file_sha256(p) for p in outputs)
        key = (name, seed, digests)
        if key not in self._verdicts:
            proc = subprocess.run(
                [sys.executable, str(HERE / "check.py"), "--workload", name, "--seed", str(seed),
                 *map(str, outputs)],
                capture_output=True,
                text=True,
                env=self.env,
            )
            if proc.returncode == 0:
                self._verdicts[key] = json.loads(proc.stdout)
            else:
                failure = f"checker failed: {proc.stderr.strip()[-400:]}"
                self._verdicts[key] = {"errors": [[failure]] * len(outputs), "dfas": 0, "atoms": 0}
        return self._verdicts[key], digests

    def judge(self, label: str, commands: list[list[str]], runs: list[dict], verdict: dict) -> None:
        """Count the failures of one untraced command sequence."""
        for args, run, errors in zip(commands, runs, verdict["errors"]):
            self.fail(label, args, ([f"exit status {run['exit']}"] if run["exit"] else []) + errors)

    def sample(self, name: str, commands: list[list[str]], seed: int) -> dict:
        """Run the command sequence once, untraced and each command after
        a slot, then check its outputs."""
        outputs = [self.work / f"cmd{i}.out" for i in range(len(commands))]
        runs = []
        for args, out in zip(commands, outputs):
            self.slot()
            runs.append(self.cli(args, out))
        verdict, _ = self.check(name, seed, outputs)
        self.judge("untraced", commands, runs, verdict)
        return {
            "wall_s": sum(r["wall_s"] for r in runs),
            "cpu_s": sum(r["cpu_s"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs),
            "commands": runs,
            "dfas": verdict["dfas"],
            "atoms": verdict["atoms"],
        }

    def traced_sample(self, name: str, commands: list[list[str]], seed: int) -> dict:
        """Run each command under the tracer, between two untraced runs of
        it, so the traced time is compared with untraced times taken just
        before and after.  Traced outputs must match the untraced ones byte
        for byte.  Traces are read only after every command has run, since
        they are large."""
        count = len(commands)
        before = [self.work / f"before{i}.out" for i in range(count)]
        after = [self.work / f"after{i}.out" for i in range(count)]
        outputs = [self.work / f"traced{i}.out" for i in range(count)]
        span_files = [self.work / f"traced{i}.json" for i in range(count)]
        befores, runs, afters = [], [], []
        for i, args in enumerate(commands):
            befores.append(self.cli(args, before[i]))
            argv = [sys.executable, str(HERE / "tracer.py"), "--out", str(span_files[i]),
                    "--stdout", str(outputs[i]), "--", *args]
            self.attempted += 1
            runs.append(launch(argv, self.work / f"traced{i}.log", self.env))
            afters.append(self.cli(args, after[i]))
        verdict, digests = self.check(name, seed, before)
        self.judge("untraced", commands, befores, verdict)
        self.judge("untraced", commands, afters, self.check(name, seed, after)[0])
        verdict, traced_digests = self.check(name, seed, outputs)
        traces = []
        for i, (args, run, spans) in enumerate(zip(commands, runs, span_files)):
            trace = json.loads(spans.read_text()) if spans.is_file() else None
            problems = list(verdict["errors"][i])
            if run["exit"] != 0 or trace is None:
                problems.append(f"exit status {run['exit']}")
            elif not trace["restored"]:
                problems.append("a wrapped function was not restored")
            if traced_digests[i] != digests[i]:
                problems.append("output differs from the untraced run")
            self.fail("traced", args, problems)
            traces.append(trace)
        return {
            "traced_wall_s": sum(r["wall_s"] for r in runs),
            "untraced_wall_s": sum((b["wall_s"] + a["wall_s"]) / 2 for b, a in zip(befores, afters)),
            "per_command": [
                {"args": args, "untraced_before_s": b["wall_s"], "traced_s": r["wall_s"],
                 "untraced_after_s": a["wall_s"]}
                for args, b, r, a in zip(commands, befores, runs, afters)
            ],
            "traces": traces,
        }


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (metrics, details)."""
    commands = WORKLOADS[name].commands(seed, bench.work)
    bench.warm_up()
    if trace:
        traced = bench.traced_sample(name, commands, seed)
        traces = traced.pop("traces")
        if any(t is None for t in traces):
            values = {k: 0 for k in PER_LAYER}
        else:
            values = per_layer(traces, traced["traced_wall_s"], traced["untraced_wall_s"])
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, traced

    samples: list[dict] = []
    measured = 0.0
    while len(samples) < MIN_SAMPLES or measured + statistics.median(
        s["wall_s"] for s in samples
    ) <= seconds:
        samples.append(bench.sample(name, commands, seed))
        measured += samples[-1]["wall_s"]
    bench.slot()

    def med(key):
        return statistics.median(s[key] for s in samples)

    wall = med("wall_s")
    ref = statistics.median(bench.ref_walls)
    details = {
        "samples": {"setup_s": len(bench.setup_walls), "ref_s": len(bench.ref_walls),
                    "sequence": len(samples)},
        "per_command": [
            {
                "args": args,
                "wall_s": statistics.median(s["commands"][i]["wall_s"] for s in samples),
                "cpu_s": statistics.median(s["commands"][i]["cpu_s"] for s in samples),
                "rss_mb": statistics.median(s["commands"][i]["rss_mb"] for s in samples),
            }
            for i, args in enumerate(commands)
        ],
        "dfas": samples[0]["dfas"],
        "atoms": samples[0]["atoms"],
        "wall_s": wall,
        "cpu_s": med("cpu_s"),
        "ref_s": ref,
        "dfas_per_s": samples[0]["dfas"] / wall,
        "atoms_per_s": samples[0]["atoms"] / wall,
    }
    values = {
        "setup_s": statistics.median(bench.setup_walls),
        "wall_ref": wall / ref,
        "cpu_ref": med("cpu_s") / ref,
        "peak_rss_mb": med("rss_mb"),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, details


def run_all(args) -> int:
    """Every workload, each in a benchmark process of its own; prints their
    details lines, a table (with the RAW figures of an untraced run), and
    one result line keyed workload/metric."""
    results, figures = {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            return proc.returncode or 1
        print(lines[-2])
        results[name] = json.loads(lines[-1])
        figures[name] = {k: v["value"] for k, v in results[name]["metrics"].items()}
        if not args.trace:
            details = json.loads(lines[-2])
            figures[name].update((k, details[k]) for k in RAW)
    units = {k: v["unit"] for k, v in results[name]["metrics"].items()}
    if not args.trace:
        units.update(RAW)
    width = max(map(len, units))
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"  {w:>16}" for w in figures))
    for metric, unit in units.items():
        row = "".join(f"  {f[metric]:>16.6g}" for f in figures.values())
        print(f"{metric:{width}}  {unit:6}" + row)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the atomata CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    try:
        bench = Bench(root)
        metrics, details = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(bench.work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(bench.src),
        "machine": machine_facts(),
        "failed_frac": bench.failed / bench.attempted,
        "errors": bench.errors[:20],
        **details,
    }
    print(json.dumps(record))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
