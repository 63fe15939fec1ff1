"""The benchmark's workloads: the atomata commands each runs, and the
checks on their outputs.

Each workload turns a seed and a work directory into a sequence of CLI
argument lists (writing any input documents it needs), and checks the
outputs of that sequence afterwards, outside the timed region (in a
process of its own, see check.py).  Why each
workload exists, and what is left out, is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Every campaign gets the same fixed timestamp, so its JSONL is reproducible.
TIMESTAMP = "2013-02-15T00:00:00+00:00"

# sha256 of `search converse --n 3 --k 3 --timestamp TIMESTAMP --workers 1`
# as printed by the commit that introduced this benchmark.
CONVERSE_N3K3_SHA256 = "a951949ea76d31bc5d7e28fcd893f01312b8690b37be8d04c1d3a901f13d9589"


@dataclass
class Checked:
    """Verdict on one sample's outputs.

    ``errors[i]`` lists what is wrong with command i's output (empty when
    it passed).  ``dfas`` counts the DFAs the commands processed and
    ``atoms`` the atom complexities their outputs state.
    """

    errors: list[list[str]]
    dfas: int = 0
    atoms: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, Path], list[list[str]]]
    check: Callable[[list[bytes], int], Checked]


def _campaign_flags() -> list[str]:
    return ["--timestamp", TIMESTAMP, "--workers", "1"]


def _jsonl(output: bytes) -> list[dict]:
    return [json.loads(line) for line in output.decode("utf-8").splitlines()]


def _summary(records: list[dict], errors: list[str]) -> dict:
    """The trailing campaign-summary record, or {} with an error noted."""
    if not records or records[-1].get("type") != "campaign-summary":
        errors.append("output does not end with a campaign-summary record")
        return {}
    return records[-1]


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _parse(output: bytes, errors: list[str], parse) -> object:
    try:
        return parse(output)
    except (ValueError, UnicodeDecodeError) as exc:
        errors.append(f"unparseable output: {exc}")
        return None


# ---------------------------------------------------------------------------
# exhaustive-n3k3


def _exhaustive_commands(seed: int, work: Path) -> list[list[str]]:
    return [
        ["verify", "theorem3", "--n", "3", "--k", "3", *_campaign_flags()],
        ["search", "converse", "--n", "3", "--k", "3", *_campaign_flags()],
    ]


def _exhaustive_check(outputs: list[bytes], seed: int) -> Checked:
    t3_err: list[str] = []
    conv_err: list[str] = []
    checked = Checked([t3_err, conv_err])
    t3 = _parse(outputs[0], t3_err, _jsonl)
    if t3 is not None:
        summary = _summary(t3, t3_err)
        _expect(t3_err, "theorem3 records", len(t3), 1)
        _expect(t3_err, "theorem3 scanned", summary.get("scanned"), 157_464)
        _expect(t3_err, "theorem3 tested", summary.get("tested"), 5_832)
        _expect(t3_err, "theorem3 violations", summary.get("violations"), 0)
        checked.dfas += summary.get("scanned", 0)
    _expect(
        conv_err,
        "converse JSONL sha256",
        hashlib.sha256(outputs[1]).hexdigest(),
        CONVERSE_N3K3_SHA256,
    )
    conv = _parse(outputs[1], conv_err, _jsonl)
    if conv is not None:
        summary = _summary(conv, conv_err)
        _expect(conv_err, "converse findings", summary.get("findings"), 18_144)
        _expect(conv_err, "converse records", len(conv) - 1, 18_144)
        _expect(
            conv_err,
            "converse syntactic_complexities",
            summary.get("syntactic_complexities"),
            {"24": 18_144},
        )
        checked.dfas += summary.get("scanned", 0)
        checked.atoms += sum(len(r.get("atom_complexities", ())) for r in conv[:-1])
    return checked


# ---------------------------------------------------------------------------
# sample-n4k3


def _sample_flags(seed: int) -> list[str]:
    return ["--n", "4", "--k", "3", "--samples", "20000", "--seed", str(seed), *_campaign_flags()]


def _sample_commands(seed: int, work: Path) -> list[list[str]]:
    return [
        ["search", "converse", *_sample_flags(seed)],
        ["verify", "theorem3", *_sample_flags(seed)],
    ]


def _recheck_findings(records: list[dict]) -> list[str]:
    """Re-derive each converse finding with the public object API."""
    import atomata

    errors = []
    for rec in records:
        d = atomata.parse_dfa(rec["dfa"])
        sc = atomata.syntactic_complexity(d)
        maximal, reports = atomata.is_maximal_atoms(d)
        where = f"finding {rec['dfa']!r}"
        if not (sc < 4**4 and sc == rec["syntactic_complexity"]):
            errors.append(f"{where}: syntactic complexity {sc}, record says {rec['syntactic_complexity']}")
        if not (maximal and rec["is_maximal_atoms"] and len(reports) == 16):
            errors.append(f"{where}: atoms not all maximal ({len(reports)} atoms)")
    return errors


def _sample_check(outputs: list[bytes], seed: int) -> Checked:
    conv_err: list[str] = []
    t3_err: list[str] = []
    checked = Checked([conv_err, t3_err])
    conv = _parse(outputs[0], conv_err, _jsonl)
    if conv is not None:
        summary = _summary(conv, conv_err)
        findings = conv[:-1]
        _expect(conv_err, "converse scanned", summary.get("scanned"), 20_000)
        _expect(conv_err, "converse violations", summary.get("violations"), 0)
        _expect(conv_err, "converse findings", summary.get("findings"), len(findings))
        conv_err.extend(_recheck_findings(findings))
        checked.dfas += summary.get("scanned", 0)
        checked.atoms += sum(len(r.get("atom_complexities", ())) for r in findings)
    t3 = _parse(outputs[1], t3_err, _jsonl)
    if t3 is not None:
        summary = _summary(t3, t3_err)
        _expect(t3_err, "theorem3 scanned", summary.get("scanned"), 20_000)
        _expect(t3_err, "theorem3 violations", summary.get("violations"), 0)
        _expect(t3_err, "theorem3 records", len(t3), 1)
        checked.dfas += summary.get("scanned", 0)
    return checked


# ---------------------------------------------------------------------------
# analyze-witness


def witness_document(n: int) -> str:
    """The generator-witness of maximal syntactic complexity, written out:
    a = (0 1), b = (0 1 ... n-1), c = (n-1 -> 0), initial 0, final n-1; n >= 2."""
    a = [1, 0, *range(2, n)]
    b = [*range(1, n), 0]
    c = [*range(n - 1), 0]
    rows = "".join(f"{name}: {' '.join(map(str, m))}\n" for name, m in zip("abc", (a, b, c)))
    return f"states: {n}\nalphabet: a b c\ninitial: 0\nfinal: {n - 1}\n{rows}"


def _analyze_commands(seed: int, work: Path) -> list[list[str]]:
    docs = []
    for n in (7, 6):
        path = work / f"witness-n{n}.dfa"
        path.write_text(witness_document(n), encoding="utf-8")
        docs.append(os.path.relpath(path))  # commands run from the checkout root
    return [
        ["analyze", docs[0], "--format", "json"],
        ["intervals", docs[1], "--atom", "012", "--format", "json"],
    ]


def _analyze_check(outputs: list[bytes], seed: int) -> Checked:
    from atomata.bounds import max_atom_complexity

    an_err: list[str] = []
    iv_err: list[str] = []
    checked = Checked([an_err, iv_err])
    data = _parse(outputs[0], an_err, json.loads)
    if data is not None:
        atoms = data.get("atoms", [])
        _expect(an_err, "syntactic_complexity", data.get("syntactic_complexity"), 7**7)
        _expect(an_err, "atom_count", data.get("atom_count"), 2**7)
        _expect(an_err, "atoms listed", len(atoms), 2**7)
        _expect(an_err, "prop2.equal", data.get("prop2", {}).get("equal"), True)
        wrong = [
            a["atom"]
            for a in atoms
            if not (a["is_maximal"] and a["complexity"] == max_atom_complexity(7, a["r"]))
        ]
        _expect(an_err, "atoms below their bound", wrong, [])
        checked.dfas += 1
        checked.atoms += len(atoms)
    data = _parse(outputs[1], iv_err, json.loads)
    if data is not None:
        _expect(iv_err, "intervals atom", data.get("atom"), "012")
        _expect(iv_err, "intervals count", data.get("count"), max_atom_complexity(6, 3))
        checked.dfas += 1
        checked.atoms += 1
    return checked


# ---------------------------------------------------------------------------
# prop2-random


def _prop2_commands(seed: int, work: Path) -> list[list[str]]:
    return [
        ["verify", "prop2", "--n", "5", "--k", "3", "--samples", "30000", "--seed", str(seed),
         *_campaign_flags()],
    ]


def _prop2_check(outputs: list[bytes], seed: int) -> Checked:
    errors: list[str] = []
    checked = Checked([errors])
    records = _parse(outputs[0], errors, _jsonl)
    if records is not None:
        summary = _summary(records, errors)
        _expect(errors, "prop2 records", len(records), 1)
        _expect(errors, "prop2 violations", summary.get("violations"), 0)
        _expect(errors, "prop2 scanned", summary.get("scanned"), 30_000)
        checked.dfas += summary.get("scanned", 0)
    return checked


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive-n3k3", _exhaustive_commands, _exhaustive_check),
        Workload("sample-n4k3", _sample_commands, _sample_check),
        Workload("analyze-witness", _analyze_commands, _analyze_check),
        Workload("prop2-random", _prop2_commands, _prop2_check),
    )
}
