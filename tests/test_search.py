import itertools
import json
import random

import pytest

from atomata import atom_count, atoms_of, is_minimal, syntactic_complexity, transition_semigroup
from atomata.cli import parse_dfa
from atomata.errors import EnumerationCapError
from atomata.search import (
    CampaignRecord,
    enumerate_dfas,
    example1,
    find_converse_counterexamples,
    full_semigroup_transition_tuples,
    random_dfa,
    run_sharded,
    sample_full_semigroup_dfa,
    verify_prop1,
    verify_prop2,
    verify_theorem3,
    witness_max_semigroup,
    _atom_complexities,
    _closure_size,
    _is_minimal_raw,
    _pre_tables,
    _reach_subsets,
)
from conftest import worklist_closure


# --- enumeration -------------------------------------------------------------


def test_enumerate_counts():
    assert len(list(enumerate_dfas(1, 1))) == 2
    assert len(list(enumerate_dfas(2, 1))) == 16
    assert sum(1 for _ in enumerate_dfas(2, 2)) == 16 * 4
    assert sum(1 for _ in enumerate_dfas(3, 3)) == 27**3 * 8 == 157_464


def test_enumerate_order_deterministic():
    first = list(itertools.islice(enumerate_dfas(2, 1), 6))
    again = list(itertools.islice(enumerate_dfas(2, 1), 6))
    assert first == again
    # lexicographic: constant-to-0 map first, finals counting up
    assert first[0].deltas[0].map == (0, 0)
    assert first[0].finals.bits == 0 and first[1].finals.bits == 1


def test_enumerate_caps():
    with pytest.raises(EnumerationCapError) as err:
        list(enumerate_dfas(5, 3))
    assert "estimated" in str(err.value)


def test_enumerate_canonical_letters():
    total = sum(1 for _ in enumerate_dfas(2, 2, canonical_letters=True))
    # 10 unordered pairs of the 4 maps (with repeats), times 4 final sets
    assert total == 10 * 4


def test_engine_minimality_matches_public():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        d = random_dfa(rng, n, k)
        maps = tuple(t.map for t in d.deltas)
        assert _is_minimal_raw(n, maps, d.finals.bits) == is_minimal(d)


def test_engine_closure_matches_public():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        d = random_dfa(rng, n, 3)
        maps = tuple(t.map for t in d.deltas)
        size = len(worklist_closure(maps))
        assert _closure_size(maps, n) == size
        assert len(transition_semigroup(d)) == size


def test_engine_atom_count_matches_public():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 4)
        d = random_dfa(rng, n, rng.randint(1, 3))
        if not is_minimal(d):
            continue
        maps = tuple(t.map for t in d.deltas)
        assert _reach_subsets(n, _pre_tables(n, maps), d.finals.bits) == atom_count(d)


def test_engine_atom_complexities_match_public():
    rng = random.Random(4)
    for n in (3, 4):
        d = sample_full_semigroup_dfa(n, rng)
        maps = tuple(t.map for t in d.deltas)
        comps = _atom_complexities(maps, n)
        for rep in atoms_of(d):
            assert comps[rep.label.bits] == rep.complexity


# --- witnesses ---------------------------------------------------------------


def test_witness_max_semigroup_values():
    assert syntactic_complexity(witness_max_semigroup(1)) == 1
    assert syntactic_complexity(witness_max_semigroup(3)) == 27
    w4 = witness_max_semigroup(4)
    assert syntactic_complexity(w4) == 256
    reports = atoms_of(w4)
    assert len(reports) == 16
    assert max(rep.complexity for rep in reports) == 43


def test_example1_fixture(ex1):
    assert example1() == ex1
    assert syntactic_complexity(ex1) == 27
    assert is_minimal(ex1)


def test_sample_full_semigroup_deterministic():
    a = sample_full_semigroup_dfa(4, random.Random(9))
    b = sample_full_semigroup_dfa(4, random.Random(9))
    assert a == b
    assert syntactic_complexity(a) == 256
    assert is_minimal(a)


# --- campaigns ---------------------------------------------------------------


def test_theorem3_small_exhaustive():
    rep = verify_theorem3(2, 2, timestamp="fixed")
    assert rep.scanned == (2**2) ** 2 * 4 == 64
    assert rep.violations == []
    assert rep.tested > 0


def test_theorem3_n2_hand_checkable():
    # letters (0,1) and (Q->0) generate all 4 transformations of 2 states
    maps = ((1, 0), (0, 0))
    assert _closure_size(maps, 2) == 4
    comps = _atom_complexities(maps, 2)
    assert comps == (3, 3, 3, 3)  # bounds: 2^2-1=3 at r in {0,2}, f(2,1)=3


def test_theorem3_sampled_deterministic():
    r1 = verify_theorem3(3, 3, mode="sample", samples=400, seed=5, timestamp="t")
    r2 = verify_theorem3(3, 3, mode="sample", samples=400, seed=5, timestamp="t")
    assert r1.scanned == r2.scanned == 400
    assert r1.summary_dict() == r2.summary_dict()
    assert not r1.violations


def test_converse_small():
    rep = find_converse_counterexamples(2, 2, timestamp="fixed")
    # at n=2 two letters can reach the full semigroup; converse findings may
    # or may not exist, but the scan must cover the whole space
    assert rep.scanned == 64
    for rec in rep.findings:
        assert rec.syntactic_complexity < 4
        assert rec.is_maximal_atoms


def test_converse_limit_and_records():
    rep = find_converse_counterexamples(3, 3, limit=3, timestamp="fixed")
    assert len(rep.findings) == 3
    assert set(rep.extra["syntactic_complexities"]) == {"24"}
    for rec in rep.findings:
        _assert_record_roundtrips(rec)


def test_converse_single_letter_empty():
    rep = find_converse_counterexamples(3, 1, timestamp="fixed")
    assert rep.scanned == 27 * 8 == 216
    assert rep.findings == []


def test_converse_rerun_identical_records():
    r1 = find_converse_counterexamples(3, 3, limit=4, timestamp="t0")
    r2 = find_converse_counterexamples(3, 3, limit=4, timestamp="t0")
    assert r1.findings == r2.findings
    assert list(r1.to_jsonl_lines()) == list(r2.to_jsonl_lines())


def _assert_record_roundtrips(rec: CampaignRecord):
    data = json.loads(json.dumps(rec.to_dict()))
    assert CampaignRecord.from_dict(data) == rec
    d = parse_dfa(rec.dfa)
    assert d.n == rec.n and len(d.alphabet) == rec.alphabet_size
    assert is_minimal(d)
    assert syntactic_complexity(d) == rec.syntactic_complexity
    reports = atoms_of(d)
    assert len(reports) == rec.atom_count
    got = {rep.label.label(): rep.complexity for rep in reports}
    assert got == dict(rec.atom_complexities)
    assert all(rep.is_maximal for rep in reports) == rec.is_maximal_atoms


def test_prop1_witness_mode():
    for n in (2, 3, 4):
        rep = verify_prop1(n, timestamp="fixed")
        assert rep.violations == []
        assert rep.tested == 1


def test_prop1_exhaustive_n2():
    rep = verify_prop1(2, k=2, mode="exhaustive", timestamp="fixed")
    assert rep.violations == []
    assert rep.tested > 1


def test_prop2_sampled():
    rep = verify_prop2(samples=500, seed=21, timestamp="fixed")
    assert rep.scanned == 500
    assert rep.violations == []


def test_prop2_deterministic():
    r1 = verify_prop2(samples=200, seed=33, timestamp="t")
    r2 = verify_prop2(samples=200, seed=33, timestamp="t")
    assert r1.summary_dict() == r2.summary_dict()


def test_jsonl_output_shape():
    rep = find_converse_counterexamples(3, 3, limit=2, timestamp="fixed")
    lines = list(rep.to_jsonl_lines())
    parsed = [json.loads(line) for line in lines]
    assert [p["type"] for p in parsed] == [
        "campaign-record",
        "campaign-record",
        "campaign-summary",
    ]
    assert parsed[-1]["findings"] == 2
    assert parsed[-1]["ok"] is True


def test_sharding_matches_single_run():
    whole = verify_theorem3(2, 2, timestamp="fixed")
    parts = [
        verify_theorem3(2, 2, timestamp="fixed", shard=i, num_shards=3)
        for i in range(3)
    ]
    assert sum(p.scanned for p in parts) == whole.scanned
    assert sum(p.tested for p in parts) == whole.tested


def test_run_sharded_merges():
    merged = run_sharded(verify_theorem3, 2, 2, workers=2, timestamp="fixed")
    single = verify_theorem3(2, 2, timestamp="fixed")
    assert merged.scanned == single.scanned
    assert merged.tested == single.tested
    assert merged.violations == single.violations


def test_run_sharded_matches_single_run_order():
    single = find_converse_counterexamples(3, 2, timestamp="fixed")
    merged = run_sharded(find_converse_counterexamples, 3, 2, workers=2, timestamp="fixed")
    assert single.findings
    assert merged.findings == single.findings
    assert merged.violations == single.violations
    assert merged.extra == single.extra


def test_run_sharded_honours_limit():
    single = find_converse_counterexamples(3, 3, limit=5, timestamp="fixed")
    merged = run_sharded(
        find_converse_counterexamples, 3, 3, workers=2, limit=5, timestamp="fixed"
    )
    assert len(merged.findings) == 5
    assert merged.findings == single.findings
    assert merged.extra == single.extra


def test_letter_filters_run_once_per_letter_tuple(monkeypatch):
    import atomata.search as search

    calls = {}

    def counted(name):
        original = getattr(search, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("_generates_full_raw", "_pre_tables"):
        monkeypatch.setattr(search, name, counted(name))
    tuples = 27**2
    for campaign in (verify_theorem3, find_converse_counterexamples):
        _atom_complexities.cache_clear()
        calls.update(_generates_full_raw=0, _pre_tables=0)
        campaign(3, 2, timestamp="fixed")
        assert 0 < calls["_generates_full_raw"] <= tuples
        # one in the letter stage, one in the cached atom walk
        assert calls["_pre_tables"] <= 2 * tuples


def test_engine_caches_are_bounded():
    for cached in (_closure_size, _atom_complexities):
        assert cached.cache_info().maxsize is not None


def test_full_triples_count_n3():
    triples = list(full_semigroup_transition_tuples(3, 3))
    assert len(triples) == 972
    for deltas in triples[:5]:
        maps = tuple(t.map for t in deltas)
        assert _closure_size(maps, 3) == 27
