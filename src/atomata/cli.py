"""Command-line front end: DFA text documents, analysis commands, campaigns.

Document grammar (line oriented, ``#`` starts a comment)::

    states: 3
    alphabet: a b c d
    initial: 0
    final: 2
    a: 1 0 2
    b: 0 2 1
    c: 0 1 0
    d: 1 1 1

Sections appear in that order; afterwards one transition row per letter
(any row order).  ``final:`` may list no states.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import search
from .atoms import atom_minimal_dfa, atoms_of, build_atomaton
from .automata import Dfa, determinize, minimize, quotient_complexity, reverse
from .bounds import max_atom_complexity, max_over_r
from .errors import AtomataError, DfaParseError
from .intervals import interval_reach_report
from .semigroup import (
    DEFAULT_CLOSURE_CAP,
    semigroup_summary,
    transition_semigroup,
)
from .stateset import StateSet, parse_subset_label
from .transformations import Transformation

ENV_PREFIX = "ATOMATA_"

_SECTION_RE = re.compile(r"^\s*([^\s:]+)\s*:(.*)$")
_TOKEN_RE = re.compile(r"\S+")


# ---------------------------------------------------------------------------
# DFA text format


_HEADERS = ("states", "alphabet", "initial", "final")


def parse_dfa(text: str) -> Dfa:
    """Parse a DFA document; malformed input raises DfaParseError with the
    line (and where it helps, column) of the offending token."""
    n: Optional[int] = None
    alphabet: tuple[str, ...] = ()
    initial: Optional[int] = None
    finals: Optional[list[int]] = None
    rows: dict[str, list[tuple[str, int]]] = {}
    row_lines: dict[str, int] = {}
    stage = 0  # index into _HEADERS; past the end means transition rows

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _SECTION_RE.match(line)
        if m is None:
            raise DfaParseError("expected 'name: ...'", line=lineno)
        name = m.group(1)
        rest_offset = m.start(2)
        tokens = [
            (t.group(0), rest_offset + t.start() + 1)
            for t in _TOKEN_RE.finditer(m.group(2))
        ]
        if stage < len(_HEADERS):
            want = _HEADERS[stage]
            if name != want:
                if name in _HEADERS[:stage]:
                    raise DfaParseError(f"duplicate section {name!r}", line=lineno)
                raise DfaParseError(
                    f"expected section {want!r}, got {name!r}", line=lineno
                )
            stage += 1
            if name == "states":
                if len(tokens) != 1 or not tokens[0][0].isdigit():
                    raise DfaParseError("states: wants one number", line=lineno)
                n = int(tokens[0][0])
                if n < 1:
                    raise DfaParseError("state count must be positive", line=lineno)
            elif name == "alphabet":
                letters = [t for t, _ in tokens]
                if not letters:
                    raise DfaParseError("alphabet: wants at least one letter", line=lineno)
                if len(set(letters)) != len(letters):
                    raise DfaParseError("alphabet letters must be distinct", line=lineno)
                alphabet = tuple(letters)
            elif name == "initial":
                if len(tokens) != 1 or not tokens[0][0].isdigit():
                    raise DfaParseError("initial: wants one state", line=lineno)
                initial = int(tokens[0][0])
                assert n is not None
                if initial >= n:
                    raise DfaParseError(
                        "initial state out of range", line=lineno, column=tokens[0][1]
                    )
            else:
                assert n is not None
                finals = []
                for tok, col in tokens:
                    if not tok.isdigit() or int(tok) >= n:
                        raise DfaParseError(
                            "final state out of range", line=lineno, column=col
                        )
                    finals.append(int(tok))
            continue
        # transition rows
        if name in _HEADERS:
            raise DfaParseError(f"duplicate section {name!r}", line=lineno)
        if name not in alphabet:
            raise DfaParseError(f"unknown letter {name!r}", line=lineno)
        if name in rows:
            raise DfaParseError(f"duplicate transition row for {name!r}", line=lineno)
        rows[name] = tokens
        row_lines[name] = lineno

    if stage < len(_HEADERS):
        raise DfaParseError(f"missing section {_HEADERS[stage]!r}")
    assert n is not None and initial is not None and finals is not None

    deltas = []
    for a in alphabet:
        if a not in rows:
            raise DfaParseError(f"missing transition row for letter {a!r}")
        tokens = rows[a]
        if len(tokens) != n:
            raise DfaParseError(
                f"row for {a!r} needs {n} entries, got {len(tokens)}",
                line=row_lines[a],
            )
        entries = []
        for tok, col in tokens:
            if not tok.isdigit() or int(tok) >= n:
                raise DfaParseError(
                    "state out of range", line=row_lines[a], column=col
                )
            entries.append(int(tok))
        deltas.append(Transformation(entries))
    return Dfa(n, alphabet, tuple(deltas), initial, StateSet(n, finals))


def serialize_dfa(d: Dfa) -> str:
    """Canonical document text; parse(serialize(d)) == d."""
    for a in d.alphabet:
        if _TOKEN_RE.fullmatch(a) is None or ":" in a or "#" in a:
            raise ValueError(f"letter {a!r} cannot be written in the text format")
    lines = [
        f"states: {d.n}",
        f"alphabet: {' '.join(d.alphabet)}",
        f"initial: {d.initial}",
        ("final: " + " ".join(str(q) for q in d.finals.members())).rstrip(),
    ]
    for a, t in zip(d.alphabet, d.deltas):
        lines.append(f"{a}: {' '.join(str(v) for v in t.map)}")
    return "\n".join(lines) + "\n"


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# rendering


def _emit(data: dict, args, render_text) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        render_text(data)


def _collection_label(labels) -> str:
    members = sorted(labels, key=lambda s: (len(s), s.members()))
    return ",".join(s.label() for s in members) if members else "∅"


def _atom_table_lines(atom_dicts: list[dict]) -> list[str]:
    lines = ["  atom   r  complexity  bound  maximal"]
    for rep in atom_dicts:
        flags = "".join(
            ch
            for ch, on in (
                ("i", rep["is_initial"]),
                ("f", rep["is_final"]),
                ("-", rep["is_negative"]),
            )
            if on
        )
        lines.append(
            f"  {rep['atom']:<5} {rep['r']:>2}  {rep['complexity']:>10}  "
            f"{rep['bound']:>5}  {'yes' if rep['is_maximal'] else 'NO':<3}  {flags}"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    d = parse_dfa(_read_document(args.file))
    dm = minimize(d)
    reports = atoms_of(d)
    sc = len(transition_semigroup(dm, cap=args.max_closure))
    rev_qc = quotient_complexity(determinize(reverse(d)))
    data = {
        "states": d.n,
        "minimal": dm.n == d.n,
        "quotient_complexity": dm.n,
        "syntactic_complexity": sc,
        "is_full": sc == dm.n**dm.n,
        "atom_count": len(reports),
        "prop2": {
            "atom_count": len(reports),
            "reverse_quotient_complexity": rev_qc,
            "equal": len(reports) == rev_qc,
        },
        "atoms": [rep.to_dict() for rep in reports],
    }

    def render(data):
        print(f"states: {data['states']} (minimal: {'yes' if data['minimal'] else 'no'})")
        print(f"quotient complexity: {data['quotient_complexity']}")
        full = "yes" if data["is_full"] else "no"
        nn = data["quotient_complexity"] ** data["quotient_complexity"]
        print(f"syntactic complexity: {data['syntactic_complexity']} (full: {full}, max {nn})")
        p2 = data["prop2"]
        verdict = "ok" if p2["equal"] else "VIOLATED"
        print(
            f"atoms: {data['atom_count']} "
            f"(reverse quotient complexity {p2['reverse_quotient_complexity']}: {verdict})"
        )
        for line in _atom_table_lines(data["atoms"]):
            print(line)

    _emit(data, args, render)
    return 0


def cmd_semigroup(args) -> int:
    d = parse_dfa(_read_document(args.file))
    summary = semigroup_summary(d, cap=args.max_closure)
    data = summary.to_dict()
    if args.witnesses:
        sg = transition_semigroup(minimize(d), witnesses=True, cap=args.max_closure)
        data["witnesses"] = [
            {
                "transformation": str(w.transformation),
                "map": list(w.transformation.map),
                "word": w.word,
            }
            for w in sg.word_witnesses()
        ]

    def render(data):
        print(f"n: {data['n']}  (input minimized: {'yes' if data['minimized_input'] else 'no'})")
        print(f"size: {data['size']}  full: {'yes' if data['is_full'] else 'no'}")
        print(f"generators: {data['generator_count']}")
        hist = "  ".join(f"rank {r}: {c}" for r, c in data["rank_histogram"].items())
        print(f"rank histogram: {hist}")
        for w in data.get("witnesses", []):
            print(f"  {w['word']:<10} -> {w['transformation']}")

    _emit(data, args, render)
    return 0


def cmd_atoms(args) -> int:
    d = parse_dfa(_read_document(args.file))
    if args.atom is not None:
        dm = minimize(d)
        label = parse_subset_label(args.atom, dm.n)
        adfa = atom_minimal_dfa(d, label)
        data = {
            "atom": label.label(),
            "complexity": adfa.n,
            "minimal_dfa": serialize_dfa(adfa),
        }
        _emit(data, args, lambda data: print(data["minimal_dfa"], end=""))
        return 0
    reports = atoms_of(d)
    data = {"atoms": [rep.to_dict() for rep in reports]}
    _emit(data, args, lambda data: [print(l) for l in _atom_table_lines(data["atoms"])])
    return 0


def cmd_atomaton(args) -> int:
    d = parse_dfa(_read_document(args.file))
    am = build_atomaton(d)
    states = am.states

    def ordered(labels) -> list[str]:
        return [s.label() for s in sorted(labels, key=lambda s: (len(s), s.members()))]

    data = {
        "states": [s.label() for s in states],
        "initials": ordered(am.initials),
        "finals": ordered(am.finals),
        "transitions": {
            s.label(): {a: ordered(am.nfa.eta[(s, a)]) for a in am.alphabet}
            for s in states
        },
    }

    def render(data):
        width = max(5, *(len(s) for s in data["states"])) + 2
        cells = {
            s: {a: ",".join(data["transitions"][s][a]) or "∅" for a in am.alphabet}
            for s in data["states"]
        }
        colw = {
            a: max(len(cells[s][a]) for s in data["states"]) + 2 for a in am.alphabet
        }
        header = " " * 4 + "state".ljust(width) + "".join(a.ljust(colw[a]) for a in am.alphabet)
        print(header)
        for s in data["states"]:
            mark = ("→" if s in data["initials"] else " ") + (
                "←" if s in data["finals"] else " "
            )
            row = f"{mark}  " + s.ljust(width)
            row += "".join(cells[s][a].ljust(colw[a]) for a in am.alphabet)
            print(row.rstrip())

    _emit(data, args, render)
    return 0


def cmd_bounds(args) -> int:
    n = args.n
    rows = [{"r": r, "bound": max_atom_complexity(n, r)} for r in range(n + 1)]
    r_star, value = max_over_r(n)
    data = {"n": n, "rows": rows, "max": {"r": r_star, "value": value}}

    def render(data):
        print(f"n = {data['n']}")
        for row in data["rows"]:
            star = "  *" if row["r"] == data["max"]["r"] else ""
            print(f"  r = {row['r']:>2}: {row['bound']}{star}")
        print(f"max over r: {data['max']['value']} at r = {data['max']['r']}")

    _emit(data, args, render)
    return 0


def cmd_intervals(args) -> int:
    d = parse_dfa(_read_document(args.file))
    dm = minimize(d)
    label = parse_subset_label(args.atom, dm.n)
    data = interval_reach_report(dm, label)

    def render(data):
        print(f"atom {data['atom']}: {data['count']} reachable collections")
        print(f"  interval types: {', '.join(f'({v},{u})' for v, u in data['types'])}")
        print(f"  empty sink reached: {'yes' if data['sink'] else 'no'}")

    _emit(data, args, render)
    return 0


def _print_report(report: search.CampaignReport) -> int:
    for line in report.to_jsonl_lines():
        print(line)
    return 0


def cmd_verify(args) -> int:
    mode = "sample" if args.samples is not None else "exhaustive"
    if args.which == "theorem3":
        if args.workers > 1 and mode == "exhaustive":
            report = search.run_sharded(
                search.verify_theorem3,
                args.n,
                args.k,
                workers=args.workers,
                mode=mode,
                seed=args.seed,
                timestamp=args.timestamp,
                max_n=args.max_enum_n,
                max_k=args.max_enum_k,
            )
        else:
            report = search.verify_theorem3(
                args.n,
                args.k,
                mode=mode,
                samples=args.samples or 0,
                seed=args.seed,
                timestamp=args.timestamp,
                max_n=args.max_enum_n,
                max_k=args.max_enum_k,
            )
    elif args.which == "prop1":
        report = search.verify_prop1(
            args.n,
            k=args.k,
            mode="exhaustive" if args.exhaustive else "witness",
            timestamp=args.timestamp,
            max_n=args.max_enum_n,
            max_k=args.max_enum_k,
        )
    elif args.which == "prop2":
        report = search.verify_prop2(
            samples=args.samples or 10_000,
            seed=args.seed,
            max_state_count=args.n,
            max_alphabet=args.k,
            timestamp=args.timestamp,
        )
    else:
        raise AtomataError(f"unknown verification target {args.which!r}")
    return _print_report(report)


def cmd_search(args) -> int:
    mode = "sample" if args.samples is not None else "exhaustive"
    if args.workers > 1 and mode == "exhaustive":
        report = search.run_sharded(
            search.find_converse_counterexamples,
            args.n,
            args.k,
            workers=args.workers,
            mode=mode,
            seed=args.seed,
            limit=args.limit,
            timestamp=args.timestamp,
            max_n=args.max_enum_n,
            max_k=args.max_enum_k,
        )
    else:
        report = search.find_converse_counterexamples(
            args.n,
            args.k,
            mode=mode,
            samples=args.samples or 0,
            seed=args.seed,
            limit=args.limit,
            timestamp=args.timestamp,
            max_n=args.max_enum_n,
            max_k=args.max_enum_k,
        )
    return _print_report(report)


def cmd_witness(args) -> int:
    if args.which == "example1":
        d = search.example1()
    elif args.which == "max-semigroup":
        d = search.witness_max_semigroup(args.n, cap=args.max_closure)
    else:
        raise AtomataError(f"unknown witness {args.which!r}")
    print(serialize_dfa(d), end="")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise AtomataError(f"environment variable {ENV_PREFIX}{name} must be an integer")


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_closure_cap(p) -> None:
    p.add_argument(
        "--max-closure",
        type=int,
        default=_env_int("MAX_CLOSURE", DEFAULT_CLOSURE_CAP),
        help="refuse semigroup closures whose n^n exceeds this",
    )


def _add_campaign_opts(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=_env_int("SEED", 0))
    p.add_argument("--workers", type=int, default=_env_int("WORKERS", 1))
    p.add_argument("--timestamp", default=None, help="fixed timestamp for reproducible records")
    p.add_argument("--max-enum-n", type=int, default=_env_int("MAX_ENUM_N", search.DEFAULT_MAX_ENUM_N))
    p.add_argument("--max-enum-k", type=int, default=_env_int("MAX_ENUM_K", search.DEFAULT_MAX_ENUM_K))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomata",
        description="Syntactic complexity and atom complexities of regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one DFA document")
    p.add_argument("file", help="DFA document path, or - for stdin")
    _add_format(p)
    _add_closure_cap(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("semigroup", help="transition-semigroup summary")
    p.add_argument("file")
    p.add_argument("--witnesses", action="store_true", help="list a word per element")
    _add_format(p)
    _add_closure_cap(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("atoms", help="per-atom report, or one atom's minimal DFA")
    p.add_argument("file")
    p.add_argument("--atom", default=None, help="atom label, e.g. 02 or Φ")
    _add_format(p)
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("atomaton", help="atomaton transition table")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_atomaton)

    p = sub.add_parser("bounds", help="atom complexity bounds for one n")
    p.add_argument("n", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("intervals", help="interval reachability for one atom")
    p.add_argument("file")
    p.add_argument("--atom", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("verify", help="run a verification campaign (JSONL output)")
    p.add_argument("which", choices=("theorem3", "prop1", "prop2"))
    _add_campaign_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="run a counterexample campaign (JSONL output)")
    p.add_argument("which", choices=("converse",))
    _add_campaign_opts(p)
    p.add_argument("--limit", type=int, default=None, help="stop after this many findings")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("witness", help="print a named witness DFA document")
    p.add_argument("which", choices=("max-semigroup", "example1"))
    p.add_argument("--n", type=int, default=3)
    _add_closure_cap(p)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AtomataError, OSError, ValueError) as exc:
        print(f"atomata: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
