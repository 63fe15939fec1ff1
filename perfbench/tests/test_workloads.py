"""Tests of the benchmark's generated inputs and output checks."""

import json

from atomata.bounds import max_atom_complexity
from atomata.cli import serialize_dfa
from atomata.search import witness_max_semigroup

from workloads import WORKLOADS, witness_document


def _summary(**fields) -> bytes:
    record = {"type": "campaign-summary", "scanned": 30_000, "violations": 0, **fields}
    return (json.dumps(record) + "\n").encode()


def test_witness_document_is_the_library_witness():
    for n in (2, 3, 5):
        assert witness_document(n) == serialize_dfa(witness_max_semigroup(n))


def test_prop2_check_flags_violations_and_short_scans():
    check = WORKLOADS["prop2-random"].check
    assert check([_summary()], 1).errors == [[]]
    assert check([_summary(violations=1)], 1).errors != [[]]
    assert check([_summary(scanned=29_999)], 1).errors != [[]]
    assert check([b"not json\n"], 1).errors != [[]]


def test_analyze_check_flags_an_atom_below_its_bound():
    atoms = [
        {"atom": f"a{i}", "r": r, "complexity": max_atom_complexity(7, r), "is_maximal": True}
        for i, r in enumerate([0] + [3] * 126 + [7])
    ]
    good = {"syntactic_complexity": 7**7, "atom_count": 128, "atoms": atoms, "prop2": {"equal": True}}
    intervals = json.dumps({"atom": "012", "count": 501}).encode()
    check = WORKLOADS["analyze-witness"].check
    assert check([json.dumps(good).encode(), intervals], 1).errors == [[], []]
    atoms[5] = dict(atoms[5], complexity=atoms[5]["complexity"] - 1, is_maximal=False)
    assert check([json.dumps(good).encode(), intervals], 1).errors[0]


def test_exhaustive_check_flags_changed_output():
    check = WORKLOADS["exhaustive-n3k3"].check
    t3 = _summary(scanned=157_464, tested=5_832)
    errors = check([t3, _summary(findings=18_144, syntactic_complexities={"24": 18_144})], 1).errors
    assert errors[0] == []
    assert any("sha256" in e for e in errors[1])
