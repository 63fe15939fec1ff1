"""Command-line front end: analysis commands and campaigns over DFA documents."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import search
from .atoms import atom_minimal_dfa, atoms_of, build_atomaton
from .automata import determinize, minimize, quotient_complexity, reverse
from .bounds import max_atom_complexity, max_over_r
from .document import parse_dfa, serialize_dfa
from .errors import AtomataError
from .intervals import interval_reach_report
from .semigroup import transition_semigroup
from .stateset import parse_subset_label
from .transformations import Transformation


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
    sc = len(transition_semigroup(dm))
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
    dm = minimize(d)
    sg = transition_semigroup(dm, witnesses=args.witnesses)
    data = replace(sg.summary(), minimized_input=dm.n != d.n).to_dict()
    # witness rows are printed one element at a time: at n = 8 the rows of
    # all 8^8 elements would not fit in memory together
    rows = zip(sg.maps, sg.words) if args.witnesses else ()
    if args.format == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
        if not args.witnesses:
            print(text)
            return 0
        # "witnesses" sorts after every summary key: drop the closing "\n}"
        sep = text[:-2] + ',\n  "witnesses": [\n    '
        for m, word in rows:
            row = {"map": list(m), "transformation": str(Transformation(m)), "word": word}
            print(sep + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    "), end="")
            sep = ",\n    "
        print("\n  ]\n}")
        return 0
    print(f"n: {data['n']}  (input minimized: {'yes' if data['minimized_input'] else 'no'})")
    print(f"size: {data['size']}  full: {'yes' if data['is_full'] else 'no'}")
    print(f"generators: {data['generator_count']}")
    hist = "  ".join(f"rank {r}: {c}" for r, c in data["rank_histogram"].items())
    print(f"rank histogram: {hist}")
    for m, word in rows:
        print(f"  {word:<10} -> {Transformation(m)}")
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
            s.label(): {a: ordered(am.eta(s, a)) for a in am.alphabet}
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


def _note_ignored(why: str, flag: str) -> None:
    """Say on stderr that ``flag`` was given but has no effect."""
    print(f"atomata: note: {why}; {flag} is ignored", file=sys.stderr)


def _campaign(func, args, **extra) -> int:
    """Run an enumeration campaign, over ``--workers`` processes when
    exhaustive, and print its JSONL."""
    mode = "sample" if args.samples is not None else "exhaustive"
    if mode == "sample" and args.workers > 1:
        _note_ignored("sampling runs in one process", "--workers")
    if mode == "exhaustive" and args.seed is not None:
        _note_ignored("an exhaustive scan draws no samples", "--seed")
    report = search.run_sharded(
        func,
        args.n,
        args.k,
        workers=args.workers if mode == "exhaustive" else 1,
        mode=mode,
        samples=args.samples or 0,
        seed=args.seed or 0,
        timestamp=args.timestamp,
        **extra,
    )
    return _print_report(report)


def cmd_verify(args) -> int:
    if args.exhaustive and args.which != "prop1":
        raise AtomataError(
            f"--exhaustive applies to 'verify prop1' only, not 'verify {args.which}'"
        )
    if args.which == "theorem3":
        return _campaign(search.verify_theorem3, args)
    if args.workers > 1:
        _note_ignored(f"verify {args.which} runs in one process", "--workers")
    if args.which == "prop1":
        if args.samples is not None:
            _note_ignored("verify prop1 draws no samples", "--samples")
        if args.seed is not None:
            _note_ignored("verify prop1 draws no samples", "--seed")
        report = search.verify_prop1(
            args.n,
            k=args.k,
            mode="exhaustive" if args.exhaustive else "witness",
            timestamp=args.timestamp,
        )
    elif args.which == "prop2":
        report = search.verify_prop2(
            samples=args.samples or 10_000,
            seed=args.seed or 0,
            max_state_count=args.n,
            max_alphabet=args.k,
            timestamp=args.timestamp,
        )
    else:
        raise AtomataError(f"unknown verification target {args.which!r}")
    return _print_report(report)


def cmd_search(args) -> int:
    return _campaign(search.find_converse_counterexamples, args, limit=args.limit)


def cmd_witness(args) -> int:
    if args.which == "example1":
        d = search.example1()
    elif args.which == "max-semigroup":
        d = search.witness_max_semigroup(args.n)
    else:
        raise AtomataError(f"unknown witness {args.which!r}")
    print(serialize_dfa(d), end="")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def count(text: str) -> int:
    """Type of the count flags: an integer of at least 1.  argparse reports
    a non-integer as an "invalid count value", after this function's name."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_campaign_opts(p) -> None:
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--k", type=count, default=3)
    p.add_argument("--samples", type=count, default=None)
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    p.add_argument("--workers", type=count, default=1)
    p.add_argument("--timestamp", default=None, help="fixed timestamp for reproducible records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomata",
        description="Syntactic complexity and atom complexities of regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one DFA document")
    p.add_argument("file", help="DFA document path, or - for stdin")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("semigroup", help="transition-semigroup summary")
    p.add_argument("file")
    p.add_argument("--witnesses", action="store_true", help="list a word per element")
    _add_format(p)
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
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="prop1 only: also scan every full-semigroup minimal DFA",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="run a counterexample campaign (JSONL output)")
    p.add_argument("which", choices=("converse",))
    _add_campaign_opts(p)
    p.add_argument("--limit", type=count, default=None, help="stop after this many findings")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("witness", help="print a named witness DFA document")
    p.add_argument("which", choices=("max-semigroup", "example1"))
    p.add_argument("--n", type=count, default=3)
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
