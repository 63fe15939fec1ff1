"""The DFA text document: parsing and canonical serialization.

Grammar (line oriented, ``#`` starts a comment)::

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

import re
from typing import Optional

from .automata import Dfa
from .errors import DfaParseError
from .stateset import StateSet
from .transformations import Transformation

_SECTION_RE = re.compile(r"^\s*([^\s:]+)\s*:(.*)$")
_TOKEN_RE = re.compile(r"\S+")
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
