"""Per-layer metrics from the traces of one workload's commands.

A span's self time is its duration minus the durations of its direct
children; spans of one interpreter nest properly, so the children cover
disjoint parts of it.  A layer's ``.s`` is the time covered by its spans
(outermost ones only, so a function re-entering itself is not counted
twice).  Times are reported in seconds, from ``perf_counter_ns`` values.
"""

from __future__ import annotations

NS = 1e-9

# name -> unit; the order is the order of the benchmark's per_layer list
PER_LAYER = {
    "search.closure.s": "s",
    "search.closure.calls": "count",
    "search.closure.hit_ratio": "ratio",
    "search.minimal.s": "s",
    "search.minimal.calls": "count",
    "search.minimal.pass_ratio": "ratio",
    "search.pre_tables.s": "s",
    "search.pre_tables.calls": "count",
    "search.atom_count.s": "s",
    "search.atom_count.calls": "count",
    "search.atom_count.pass_ratio": "ratio",
    "search.atom_walk.s": "s",
    "search.atom_walk.calls": "count",
    "search.atom_walk.hit_ratio": "ratio",
    "search.campaign.self_s": "s",
    "search.cache.entries": "count",
    "search.records.s": "s",
    "search.records.count": "count",
    "cli.serialize_dfa.s": "s",
    "cli.serialize_dfa.calls": "count",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "semigroup.closure.s": "s",
    "semigroup.closure.elements": "count",
    "semigroup.closure.peak_mb": "MB",
    "automata.minimize.s": "s",
    "automata.minimize.calls": "count",
    "automata.determinize.s": "s",
    "automata.determinize.calls": "count",
    "automata.determinize.states": "count",
    "automata.reverse.s": "s",
    "atoms.atoms_of.s": "s",
    "atoms.build_atomaton.s": "s",
    "atoms.atom_minimal_dfa.self_s": "s",
    "atoms.diag_minimize.s": "s",
    "intervals.require_full.s": "s",
    "intervals.walk.s": "s",
    "intervals.walk.collections": "count",
    "untraced.s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans: dict) -> list[int]:
    """Self time of every span, in ns."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child_ns = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    return [end[i] - start[i] - child_ns[i] for i in range(len(start))]


def summarize(trace: dict) -> dict:
    """Per span name of one trace: calls, covered ns, self ns; plus
    ``diag_minimize_ns`` and ``untraced_ns`` (wall around main minus all
    self time)."""
    spans = trace["spans"]
    names, ids = spans["names"], spans["name"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    covered_until: dict[str, int] = {}
    for i, name_id in enumerate(ids):
        name = names[name_id]
        entry = by_name.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += selfs[i]
        if start[i] >= covered_until.get(name, -1):  # not inside a span of the same name
            entry["ns"] += end[i] - start[i]
            covered_until[name] = end[i]
    diag = sum(
        end[i] - start[i]
        for i, name_id in enumerate(ids)
        if names[name_id] == "automata.minimize"
        and parent[i] >= 0
        and names[ids[parent[i]]] == "atoms.atom_minimal_dfa"
    )
    return {
        "by_name": by_name,
        "diag_minimize_ns": diag,
        "untraced_ns": trace["wall_ns"] - sum(selfs),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traces: list[dict], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every PER_LAYER value for the traces of one command sequence.

    ``traced_wall_s`` and ``untraced_wall_s`` are the sequence's wall times
    measured from outside, with and without tracing.
    """
    totals: dict[str, dict] = {}
    counts: dict[str, int] = {}
    caches: dict[str, dict] = {}
    diag_ns = untraced_ns = 0
    peak_rise_kb = cache_entries = stdout_bytes = 0
    for trace in traces:
        summary = summarize(trace)
        for name, entry in summary["by_name"].items():
            acc = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, info in trace["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        diag_ns += summary["diag_minimize_ns"]
        untraced_ns += summary["untraced_ns"]
        peak_rise_kb = max(peak_rise_kb, trace["peak_rise_kb"].get("semigroup.closure", 0))
        cache_entries = max(
            cache_entries,
            trace["caches"]["search.closure"]["currsize"]
            + trace["caches"]["search.atom_walk"]["currsize"],
        )
        stdout_bytes += trace["stdout_bytes"]

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def secs(name, key="ns"):
        return totals.get(name, {}).get(key, 0) * NS

    def hit_ratio(name):
        info = caches.get(name, {"hits": 0, "misses": 0})
        return _ratio(info["hits"], info["hits"] + info["misses"])

    values = {
        "search.closure.s": secs("search.closure"),
        "search.closure.calls": calls("search.closure"),
        "search.closure.hit_ratio": hit_ratio("search.closure"),
        "search.minimal.s": secs("search.minimal"),
        "search.minimal.calls": calls("search.minimal"),
        "search.minimal.pass_ratio": _ratio(counts.get("search.minimal", 0), calls("search.minimal")),
        "search.pre_tables.s": secs("search.pre_tables"),
        "search.pre_tables.calls": calls("search.pre_tables"),
        "search.atom_count.s": secs("search.atom_count"),
        "search.atom_count.calls": calls("search.atom_count"),
        "search.atom_count.pass_ratio": _ratio(
            counts.get("search.atom_count", 0), calls("search.atom_count")
        ),
        "search.atom_walk.s": secs("search.atom_walk"),
        "search.atom_walk.calls": calls("search.atom_walk"),
        "search.atom_walk.hit_ratio": hit_ratio("search.atom_walk"),
        "search.campaign.self_s": secs("search.campaign", "self_ns"),
        "search.cache.entries": cache_entries,
        "search.records.s": secs("search.records"),
        "search.records.count": calls("search.records"),
        "cli.serialize_dfa.s": secs("cli.serialize_dfa"),
        "cli.serialize_dfa.calls": calls("cli.serialize_dfa"),
        "cli.emit.s": secs("cli.emit"),
        "cli.emit.bytes": stdout_bytes,
        "semigroup.closure.s": secs("semigroup.closure"),
        "semigroup.closure.elements": counts.get("semigroup.closure", 0),
        "semigroup.closure.peak_mb": peak_rise_kb / 1024,
        "automata.minimize.s": secs("automata.minimize"),
        "automata.minimize.calls": calls("automata.minimize"),
        "automata.determinize.s": secs("automata.determinize"),
        "automata.determinize.calls": calls("automata.determinize"),
        "automata.determinize.states": counts.get("automata.determinize", 0),
        "automata.reverse.s": secs("automata.reverse"),
        "atoms.atoms_of.s": secs("atoms.atoms_of"),
        "atoms.build_atomaton.s": secs("atoms.build_atomaton"),
        "atoms.atom_minimal_dfa.self_s": secs("atoms.atom_minimal_dfa", "self_ns"),
        "atoms.diag_minimize.s": diag_ns * NS,
        "intervals.require_full.s": secs("intervals.require_full"),
        "intervals.walk.s": secs("intervals.walk"),
        "intervals.walk.collections": counts.get("intervals.walk", 0),
        "untraced.s": untraced_ns * NS,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
