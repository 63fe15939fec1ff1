"""Span tracer for one atomata CLI command, run in a fresh interpreter.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --out SPANS.json --stdout FILE -- ARGV...

Before calling ``atomata.cli.main(ARGV)`` it replaces each traced function
on every ``atomata`` module that binds it (``cli.minimize`` as well as
``automata.minimize``; the lazily imported ``cli.serialize_dfa`` is found
through ``atomata.cli``).  Each wrapper records a span (name, start, end,
parent span) in memory; all spans are written to SPANS.json after the
command, together with the cache statistics of the original lru-cached
objects.  Standard output goes to a byte-counting sink that writes it on
to FILE.  No atomata source file is changed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Traced:
    """One traced function: the span it records and what it counts."""

    span: str
    module: str  # module that defines the function
    attr: str
    count: Optional[Callable] = None  # (args, result) -> number added to counts[span]
    memory: bool = False  # record how far the call raised the process's peak RSS


def _minimal_pass(args, result):
    return 1 if result else 0


def _all_atoms(args, result):
    n = args[0]
    return 1 if result == 1 << n else 0


TRACED = (
    Traced("search.closure", "atomata.search", "_closure_size"),
    Traced("search.minimal", "atomata.search", "_is_minimal_raw", _minimal_pass),
    Traced("search.pre_tables", "atomata.search", "_pre_tables"),
    Traced("search.atom_count", "atomata.search", "_reach_subsets", _all_atoms),
    Traced("search.atom_walk", "atomata.search", "_atom_complexities"),
    Traced("search.campaign", "atomata.search", "verify_theorem3"),
    Traced("search.campaign", "atomata.search", "find_converse_counterexamples"),
    Traced("search.campaign", "atomata.search", "verify_prop2"),
    Traced("search.records", "atomata.search", "_record_from_metrics"),
    Traced("cli.serialize_dfa", "atomata.cli", "serialize_dfa"),
    Traced("cli.emit", "atomata.cli", "_emit"),
    Traced("cli.emit", "atomata.cli", "_print_report"),
    Traced(
        "semigroup.closure",
        "atomata.semigroup",
        "_closure",
        lambda args, result: len(result[0]),
        memory=True,
    ),
    Traced("automata.minimize", "atomata.automata", "minimize"),
    Traced("automata.determinize", "atomata.automata", "determinize", lambda args, result: result.n),
    Traced("automata.reverse", "atomata.automata", "reverse"),
    Traced("atoms.atoms_of", "atomata.atoms", "atoms_of"),
    Traced("atoms.build_atomaton", "atomata.atoms", "build_atomaton"),
    Traced("atoms.atom_minimal_dfa", "atomata.atoms", "atom_minimal_dfa"),
    Traced("intervals.require_full", "atomata.intervals", "_require_full"),
    Traced("intervals.walk", "atomata.intervals", "_interval_walk", lambda args, result: result[0]),
)

# lru-cached originals whose cache_info() is reported: span name -> (module, attr)
CACHED = {
    "search.closure": ("atomata.search", "_closure_size"),
    "search.atom_walk": ("atomata.search", "_atom_complexities"),
    "intervals.require_full": ("atomata.intervals", "_require_full"),
}


def _atomata_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "atomata" or name.startswith("atomata."))
    ]


class Tracer:
    """Installs span-recording wrappers and restores the originals.

    Spans are kept as parallel columns; a span's parent is the span open
    when it started (-1 for none).  Times are ``perf_counter_ns`` values.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counts: dict[str, int] = {}
        self.peak_rise_kb: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (module, attr, original)
        self._wrappers: list[object] = []

    def _wrap(self, spec: Traced, original):
        name_id = len(self.names)
        self.names.append(spec.span)
        self.counts.setdefault(spec.span, 0)
        span_name, start, end, parent, stack = (
            self.span_name,
            self.start,
            self.end,
            self.parent,
            self._stack,
        )
        clock = time.perf_counter_ns
        count = spec.count
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            if spec.memory:
                rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                if spec.memory:
                    rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
                    self.peak_rise_kb[spec.span] = max(self.peak_rise_kb.get(spec.span, 0), rise)
                stack.pop()
            if count is not None:
                counts[spec.span] += count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in loaded atomata modules."""
        modules = _atomata_modules()
        for spec in TRACED:
            original = getattr(importlib.import_module(spec.module), spec.attr)
            wrapper = self._wrap(spec, original)
            self._wrappers.append(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when no atomata module binds a wrapper."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return not any(
            value is w
            for module in _atomata_modules()
            for value in vars(module).values()
            for w in self._wrappers
        )

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


def cache_stats() -> dict:
    """cache_info() of the original lru-cached objects, by span name."""
    out = {}
    for span, (module, attr) in CACHED.items():
        info = getattr(importlib.import_module(module), attr).cache_info()
        out[span] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


class ByteSink:
    """Text stream that counts the UTF-8 bytes written and writes them on
    to a binary stream."""

    def __init__(self, tee):
        self.bytes = 0
        self._tee = tee

    def write(self, s: str) -> int:
        data = s.encode("utf-8")
        self.bytes += len(data)
        self._tee.write(data)
        return len(s)

    def flush(self) -> None:
        self._tee.flush()


def trace_command(argv: list[str], tee) -> dict:
    """Run ``atomata.cli.main(argv)`` under a fresh Tracer, its output
    going to the binary stream ``tee``; return the trace.

    ``wall_ns`` is the time around ``main``; cache statistics come from the
    original lru-cached objects, and ``restored`` says whether every binding
    was put back.
    """
    import atomata.cli

    tracer = Tracer()
    sink = ByteSink(tee)
    tracer.install()
    saved_stdout = sys.stdout
    sys.stdout = sink
    try:
        t0 = time.perf_counter_ns()
        try:
            code = atomata.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        wall_ns = time.perf_counter_ns() - t0
    finally:
        sys.stdout = saved_stdout
        restored = tracer.restore()
    return {
        "argv": list(argv),
        "exit_code": code,
        "wall_ns": wall_ns,
        "stdout_bytes": sink.bytes,
        "counts": tracer.counts,
        "peak_rise_kb": tracer.peak_rise_kb,
        "caches": cache_stats(),
        "restored": restored,
        "spans": tracer.spans(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("--stdout", required=True, help="where to write the command's output")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    with open(args.stdout, "wb") as tee:
        trace = trace_command(command, tee)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return 0 if trace["exit_code"] == 0 and trace["restored"] else 1


if __name__ == "__main__":
    sys.exit(main())
