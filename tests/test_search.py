import dataclasses
import hashlib
import itertools
import json
import math
import random
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from atomata import (
    StateSet,
    Transformation,
    atom_count,
    atoms_of,
    build_atomaton,
    generates_full,
    is_minimal,
    minimize,
    reverse,
    syntactic_complexity,
    transition_semigroup,
)
from atomata.cli import parse_dfa
from atomata.document import serialize_dfa
from atomata.errors import ClosureCapError, EnumerationCapError
from atomata.search import (
    MAX_CAMPAIGN_N,
    MAX_ENUM_DFAS,
    CampaignRecord,
    CampaignReport,
    example1,
    find_converse_counterexamples,
    random_dfa,
    run_sharded,
    verify_prop1,
    verify_prop2,
    verify_theorem3,
    witness_max_semigroup,
    all_maps,
    _atom_bounds,
    _atom_complexities,
    _atom_count_raw,
    _below,
    _closure_size,
    _eta_tables,
    _draw,
    _is_minimal_raw,
    _make_dfa,
    _maps_between,
    _maximally_atomic_raw,
    _minimal_finals,
    _pre_tables,
    _reach_subsets,
    _reverse_complexity_raw,
)
from atomata.semigroup import MAX_CLOSURE, _generates_full_raw
from atomata.transformations import make_cycle, make_singular
from conftest import (
    enumerate_dfas,
    full_semigroup_transition_tuples,
    make_dfa,
    random_dfas,
    reference_determinize,
    reference_draw,
    reference_minimize,
    sample_full_semigroup_dfa,
    worklist_closure,
)


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
    for n, k in ((5, 3), (4, 4)):
        with pytest.raises(EnumerationCapError) as err:
            next(enumerate_dfas(n, k))
        assert "estimated" in str(err.value)


def test_enumerate_cap_bounds_the_dfa_count():
    # the cap is the count at n = 4, k = 3; n and k are not bounded apart
    assert MAX_ENUM_DFAS == (4**4) ** 3 * 2**4
    assert next(enumerate_dfas(4, 3)).n == 4
    d = next(enumerate_dfas(3, 4))
    assert (d.n, len(d.alphabet)) == (3, 4)
    assert next(enumerate_dfas(5, 1)).n == 5


def test_engine_minimality_matches_public():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        d = random_dfa(rng, n, k)
        maps = tuple(t.map for t in d.deltas)
        assert _is_minimal_raw(n, maps, d.finals.bits) == is_minimal(d)


def _minimal_finals_by_minimize(n, k, maps):
    """The mask ``_minimal_finals`` should give, one ``minimize`` per final
    set: it shares no code with the pair graph."""
    d = _make_dfa(n, k, maps, 0)
    return sum(
        (minimize(dataclasses.replace(d, finals=StateSet.from_bits(n, f))).n == n) << f
        for f in range(1 << n)
    )


@pytest.mark.parametrize(
    "n, k, minimal",
    # at n = 3, k = 3: theorem3's 5,832 tested plus the converse's 78,024
    [(1, 1, 2), (1, 3, 2), (2, 1, 4), (2, 2, 24), (2, 3, 112), (3, 1, 24), (3, 2, 2056),
     (3, 3, 83856)],
)
def test_minimal_finals_match_minimize(n, k, minimal):
    """Every letter tuple on all its final sets: a tuple that leaves a state
    unreachable gives no minimal DFA."""
    total = 0
    for maps in itertools.product(all_maps(n), repeat=k):
        mask = _minimal_finals(n, maps)
        assert mask == _minimal_finals_by_minimize(n, k, maps), maps
        total += mask.bit_count()
    assert total == minimal


@pytest.mark.parametrize("n, count", [(4, 1500), (5, 200), (6, 40)])
def test_minimal_finals_match_minimize_k3_sample(n, count):
    """Seeded three-letter tuples, on all their final sets: the sizes where
    sample mode asks the mask about one final set per draw."""
    rng = random.Random(11)
    for _ in range(count):
        maps = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(3))
        assert _minimal_finals(n, maps) == _minimal_finals_by_minimize(n, 3, maps), maps


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
        maps, fbits = tuple(t.map for t in d.deltas), d.finals.bits
        atoms = _reach_subsets(n, _pre_tables(n, maps), fbits)
        assert atoms == atom_count(d) == _atom_count_raw(n, maps, fbits)


def test_prop_kernels_match_the_references():
    """The prop campaigns' helpers on raw maps against the frozenset/dict
    references, on minimal and non-minimal DFAs alike."""
    for d in random_dfas(seed=6, count=400, max_n=5):
        n, maps, fbits = d.n, tuple(t.map for t in d.deltas), d.finals.bits
        atoms = reference_determinize(reverse(reference_minimize(d))).n
        assert _atom_count_raw(n, maps, fbits) == atoms
        assert _reverse_complexity_raw(n, maps, fbits) == reference_minimize(
            reference_determinize(reverse(d))
        ).n


def test_engine_atom_complexities_match_public():
    rng = random.Random(4)
    for n in (3, 4):
        d = sample_full_semigroup_dfa(n, rng)
        maps = tuple(t.map for t in d.deltas)
        comps = _atom_complexities(_pre_tables(n, maps), n)
        for rep in atoms_of(d):
            assert comps[rep.label.bits] == rep.complexity



def test_engine_eta_tables_match_atomaton():
    """The engine's collection tables and the atomaton share no code: each
    is the other's oracle, on every atom S and letter."""
    dfas = [
        make_dfa(3, [t.map for t in deltas], finals=[2])
        for deltas in full_semigroup_transition_tuples(3, 3)
    ]
    assert len(dfas) == 972
    rng = random.Random(13)
    dfas += [sample_full_semigroup_dfa(4, rng) for _ in range(20)]
    for d in dfas:
        n = d.n
        etas = _eta_tables(n, _pre_tables(n, tuple(t.map for t in d.deltas)))
        nfa = build_atomaton(d).nfa
        for eta, a in zip(etas, d.alphabet):
            for s_bits in range(1 << n):
                assert eta[s_bits] == sum(1 << p for p in nfa.eta[(s_bits, a)]), (d, s_bits, a)

# --- sampling ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_draw_gives_the_randrange_stream(seed):
    """``_draw`` and ``random_dfa`` give exactly the DFAs that ``randrange``
    draws, and leave the rng where it leaves it, so a seed's JSONL does not
    depend on how the draw is made.  n = 1 takes one bit per try; n = 2, 4
    and 8 are powers of two; the final set takes n + 1 bits per try."""
    for n, k in itertools.product(range(1, 9), range(1, 5)):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _draw(rng.getrandbits, n, k) == reference_draw(ref, n, k)
            assert rng.getstate() == ref.getstate()
            assert random_dfa(rng, n, k) == _make_dfa(n, k, *reference_draw(ref, n, k))
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_n, max_k", [(5, 3), (1, 1), (8, 4), (3, 26)])
def test_prop2_draws_sizes_as_randint_does(monkeypatch, max_n, max_k):
    import atomata.search as search

    original, drawn = search._draw, []

    def recorded(bits, n, k):
        drawn.append((n, k, original(bits, n, k)))
        return drawn[-1][2]

    monkeypatch.setattr(search, "_draw", recorded)
    for seed in range(10):
        drawn.clear()
        verify_prop2(samples=20, seed=seed, max_state_count=max_n, max_alphabet=max_k, timestamp="t")
        ref = random.Random(seed)
        expected = []
        for _ in range(20):
            n, k = ref.randint(1, max_n), ref.randint(1, max_k)
            expected.append((n, k, reference_draw(ref, n, k)))
        assert drawn == expected


class _NoEmptyDraws(random.Random):
    def getrandbits(self, k):
        # getrandbits(0) is always 0: a rejection loop on it would never end
        assert k > 0, "getrandbits(0) drawn"
        return super().getrandbits(k)


def test_empty_ranges_raise(monkeypatch):
    import atomata.search as search

    for m in (0, -1, -8):
        with pytest.raises(ValueError, match="empty range"):
            _below(_NoEmptyDraws(1).getrandbits, m)
    assert _below(_NoEmptyDraws(1).getrandbits, 1) == 0
    monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=_NoEmptyDraws))
    for sizes in ({"max_state_count": 0}, {"max_alphabet": 0}, {"max_state_count": -2}):
        with pytest.raises(ValueError, match="empty range"):
            verify_prop2(samples=1, timestamp="t", **sizes)
    with pytest.raises(ValueError, match="transformation degree must be positive"):
        random_dfa(random.Random(1), 0, 1)


@pytest.mark.parametrize("samples", [0, -3])
def test_prop2_refuses_samples_below_one(samples):
    """It used to report the count it was given as scanned and tested."""
    with pytest.raises(ValueError) as err:
        verify_prop2(samples=samples, timestamp="t")
    assert str(err.value) == f"samples must be >= 1, got {samples}"


# --- witnesses ---------------------------------------------------------------


def test_witness_max_semigroup_values():
    assert syntactic_complexity(witness_max_semigroup(1)) == 1
    assert syntactic_complexity(witness_max_semigroup(3)) == 27
    w4 = witness_max_semigroup(4)
    assert syntactic_complexity(w4) == 256
    reports = atoms_of(w4)
    assert len(reports) == 16
    assert max(rep.complexity for rep in reports) == 43


@pytest.mark.parametrize("n", range(1, 10))
def test_witness_max_semigroup_is_full(n):
    """The construction is classical: a transposition and an n-cycle
    generate S_n, and a rank n-1 map adds the rest of T_n.  At n = 10 the
    test would close 10! permutations."""
    w = witness_max_semigroup(n)
    assert generates_full(w.deltas, n)
    assert syntactic_complexity(w) == n**n


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: witness_max_semigroup(0), "n must be >= 1, got 0"),
        (lambda: verify_theorem3(0, 1), "n must be >= 1, got 0"),
        (lambda: verify_theorem3(2, 1, mode="bogus"), "unknown mode 'bogus'"),
        (lambda: verify_prop1(2, mode="bogus"), "unknown mode 'bogus'"),
    ],
    ids=["witness-n0", "theorem3-n0", "theorem3-mode", "prop1-mode"],
)
def test_campaign_arguments_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


N_PAST_THE_CLOSURE = (
    "n must be at most 10, got 11: a group of units of degree 11 could reach n! elements, "
    "over the closure bound of 16777216"
)


# case: (n, k, arguments past the default ones, error, message)
REFUSALS = {
    "n0": (0, 1, {}, ValueError, "n must be >= 1, got 0"),
    "k0": (2, 0, {}, ValueError, "k must be between 1 and 26, got 0"),
    "k27": (1, 27, {}, ValueError, "k must be between 1 and 26, got 27"),
    "n11": (11, 3, {}, ClosureCapError, N_PAST_THE_CLOSURE),
    "limit0": (3, 2, {"limit": 0}, ValueError, "limit must be >= 1, got 0"),
    "limit-1": (3, 2, {"limit": -1}, ValueError, "limit must be >= 1, got -1"),
    "samples0": (3, 2, {"samples": 0}, ValueError, "samples must be >= 1, got 0"),
    "samples-3": (3, 2, {"samples": -3}, ValueError, "samples must be >= 1, got -3"),
}


def _refusal_params():
    """Every case in both modes, for both campaigns, direct and sharded,
    where it applies: only the converse takes a limit, and only sample
    mode reads ``samples``."""
    for case, (n, k, extra, error, message) in REFUSALS.items():
        for sharded, name, mode in itertools.product(
            ("direct", "sharded"), ("converse", "theorem3"), ("exhaustive", "sample")
        ):
            if "limit" in extra and name == "theorem3" or "samples" in extra and mode == "exhaustive":
                continue
            campaign = find_converse_counterexamples if name == "converse" else verify_theorem3
            yield pytest.param(
                campaign, mode, sharded == "sharded", n, k, extra, error, message,
                id=f"{case}-{sharded}-{name}-{mode}",
            )


@pytest.mark.parametrize(
    "campaign, mode, sharded, n, k, extra, error, message", _refusal_params()
)
def test_admission_refuses_before_any_work(
    monkeypatch, campaign, mode, sharded, n, k, extra, error, message
):
    """Each refusal names the argument and its bound, in both modes, before
    any map, draw, atom bound or worker process.  Sampled, k = 0 used to
    scan 200 DFAs with no letters, and k = 27 to fail at its first record.
    A limit below 1 used to keep one finding, or to fail sharded at the
    cut, and a sampled run of no samples to scan nothing and say nothing."""
    import concurrent.futures

    import atomata.search as search

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the run was admitted")

    for name in ("_draw", "_maps_between", "_atom_bounds", "_pair_tables"):
        monkeypatch.setattr(search, name, refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    kwargs = {"mode": mode, "samples": 200, "timestamp": "t", **extra}
    with pytest.raises(error) as err:
        if sharded:
            next(run_sharded(campaign, n, k, workers=2, **kwargs))
        else:
            campaign(n, k, **kwargs)
    assert str(err.value) == message


def test_admission_bounds():
    # n = 10 is the last degree whose group of units the closure bound admits
    assert math.factorial(MAX_CAMPAIGN_N) <= MAX_CLOSURE < math.factorial(MAX_CAMPAIGN_N + 1)
    report = find_converse_counterexamples(MAX_CAMPAIGN_N, 3, mode="sample", samples=20)
    assert report.scanned == 20
    assert verify_theorem3(2, 26, mode="sample", samples=20).scanned == 20
    # an exhaustive scan draws no samples, so it takes samples=0, as the CLI passes it
    assert verify_theorem3(2, 1, samples=0).scanned == 16
    lines = list(itertools.chain.from_iterable(
        run_sharded(find_converse_counterexamples, 2, 1, workers=1, samples=0, limit=1)
    ))
    assert json.loads(lines[-1])["scanned"] == 16
    # exhaustive prop1 scans through the same admission, after its witness
    for k in (0, 27):
        with pytest.raises(ValueError, match=f"^k must be between 1 and 26, got {k}$"):
            verify_prop1(2, k=k, mode="exhaustive")


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
    comps = _atom_complexities(_pre_tables(2, maps), 2)
    assert comps == (3, 3, 3, 3)  # bounds: 2^2-1=3 at r in {0,2}, f(2,1)=3


def test_theorem3_n1_violations_walk_no_atom():
    # a one-state language has one atom, not 2^1: there is no atom to measure
    rep = verify_theorem3(1, 1, timestamp="fixed")
    assert len(rep.violations) == 2
    for rec in rep.violations:
        assert rec.atom_count == 1 and rec.atom_complexities == ()
        assert rec.to_dict()["atom_complexities"] == {}


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


def test_converse_reports_no_violations():
    # n = 3, k = 3 is checked by acceptance criterion 5
    for k in (1, 2):
        rep = find_converse_counterexamples(3, k, timestamp="fixed")
        assert rep.violations == [] and rep.ok
    rep = find_converse_counterexamples(4, 3, mode="sample", samples=2000, seed=1, timestamp="t")
    assert rep.findings and rep.violations == []


def test_converse_records_refuted_predictions(monkeypatch):
    """A DFA the letter test admits but the atom walk refutes becomes a
    violation record; the findings do not change."""
    import atomata.search as search

    real = find_converse_counterexamples(3, 2, timestamp="fixed")
    monkeypatch.setattr(search, "_maximally_atomic_raw", lambda maps, n: True)
    rep = find_converse_counterexamples(3, 2, timestamp="fixed")
    assert rep.findings == real.findings
    assert rep.tested == real.tested == 2056
    assert len(rep.violations) == rep.tested - len(rep.findings) == 2056 - 432
    assert not rep.ok and rep.summary_dict()["violations"] == 1624
    for rec in rep.violations[::100]:
        d = parse_dfa(rec.dfa)
        assert is_minimal(d) and not rec.is_maximal_atoms
        assert rec.atom_count == atom_count(d)
        assert syntactic_complexity(d) == rec.syntactic_complexity
        if rec.atom_count == 8:
            assert rec.to_dict()["atom_complexities"] == {
                r.label.label(): r.complexity for r in atoms_of(d)
            }
        else:
            assert rec.atom_complexities == ()


def test_converse_rerun_identical_records():
    r1 = find_converse_counterexamples(3, 3, limit=4, timestamp="t0")
    r2 = find_converse_counterexamples(3, 3, limit=4, timestamp="t0")
    assert r1.findings == r2.findings
    assert list(r1.to_jsonl_lines()) == list(r2.to_jsonl_lines())


def test_records_of_a_letter_tuple_share_one_tuple():
    """Every record holds the atom walk's own result, which all final sets of
    a letter tuple share, and no copy of it."""
    rep = find_converse_counterexamples(3, 3, timestamp="fixed")
    ids_by_letters = {}
    for rec in rep.findings:
        ids_by_letters.setdefault(parse_dfa(rec.dfa).deltas, set()).add(id(rec.atom_complexities))
    assert len(rep.findings) == 18144 and len(ids_by_letters) == 3024
    assert all(len(ids) == 1 for ids in ids_by_letters.values())
    assert len({id(rec.atom_complexities) for rec in rep.findings}) == 3024


# --- record lines ----------------------------------------------------------
#
# record_lines writes each line from a template; to_dict through json.dumps
# is its oracle.

# the characters JSON escapes or ensure_ascii rewrites, astral ones included
_AWKWARD = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aΦé\u2028\U0001f600\U00010000'))
_TEXTS = st.one_of(_AWKWARD, st.text(), st.sampled_from(["camp", "T"]))
_SEEDS = st.one_of(st.none(), st.integers(), st.sampled_from([0, 1]))

# a few full tuples per n, so that records share them as a letter tuple's do
_SHARED_COMPS = {n: [tuple(range(1 << n)), tuple([7] * (1 << n))] for n in range(1, 5)}


@st.composite
def _records(draw):
    n = draw(st.integers(1, 4))
    comps = draw(
        st.one_of(
            st.just(()),
            st.sampled_from(_SHARED_COMPS[n]),
            st.tuples(*[st.integers(0, 300)] * (1 << n)),
        )
    )
    return CampaignRecord(
        dfa=draw(_TEXTS),
        n=n,
        alphabet_size=draw(st.integers()),
        syntactic_complexity=draw(st.integers()),
        atom_count=draw(st.integers()),
        atom_complexities=comps,
        is_maximal_atoms=draw(st.booleans()),
        timestamp=draw(_TEXTS),
        campaign=draw(_TEXTS),
        seed=draw(_SEEDS),
    )


@st.composite
def _reports(draw):
    records = st.lists(_records(), max_size=6)
    return CampaignReport(
        draw(_TEXTS),
        "exhaustive",
        {"seed": draw(_SEEDS)},
        violations=draw(records),
        findings=draw(records),
        timestamp=draw(_TEXTS),
    )


def _expected_lines(report):
    return [json.dumps(rec.to_dict(), sort_keys=True) for rec in report.violations + report.findings]


@settings(max_examples=150, deadline=None)
@given(_reports())
@example(
    CampaignReport(
        "camp",
        "sample",
        {"seed": 3},
        findings=[
            CampaignRecord('d "\\ \x01 é \U0001f600', 2, 1, 3, 4, (1, 2, 3, 4), True, "T", "camp", 3),
            CampaignRecord("d", 2, 1, 3, 4, (1, 2, 3, 4), False, 'T"\x02', "Φ\\", None),
            CampaignRecord("d", 1, 1, 1, 1, (), False, "T", "camp", 4),
        ],
        timestamp="T",
    )
)
def test_record_lines_equal_the_dumped_dicts(report):
    assert list(report.record_lines()) == _expected_lines(report)


def test_record_lines_equal_the_dumped_dicts_on_campaigns():
    reports = [
        verify_theorem3(1, 2, timestamp="fixed"),  # violations, no atom measured
        find_converse_counterexamples(3, 2, timestamp="fixed"),
        find_converse_counterexamples(3, 2, mode="sample", samples=300, seed=4, timestamp="fixed"),
        verify_prop1(1, mode="exhaustive", timestamp="fixed"),
    ]
    assert all(rep.violations or rep.findings for rep in reports)
    for rep in reports:
        assert list(rep.record_lines()) == _expected_lines(rep)


def test_record_dfas_of_a_letter_tuple_share_its_transformations(monkeypatch):
    import atomata.search as search

    filed = []
    file_record = search._file_record
    monkeypatch.setattr(
        search, "_file_record", lambda report, d, found: filed.append(d) or file_record(report, d, found)
    )
    built = []
    monkeypatch.setattr(search, "Transformation", lambda m: built.append(m) or Transformation(m))
    rep = find_converse_counterexamples(3, 2, timestamp="fixed")
    # 72 letter tuples file records, and each builds its k = 2 maps once
    assert len(filed) == len(rep.findings) == 432 and len(built) == 72 * 2
    deltas_by_maps = {}
    for d, rec in zip(filed, rep.findings):
        maps = tuple(t.map for t in d.deltas)
        assert d == _make_dfa(3, 2, maps, d.finals.bits)
        assert type(d.alphabet) is tuple and rec.dfa == serialize_dfa(d)
        deltas_by_maps.setdefault(maps, set()).add(id(d.deltas))
    assert len(deltas_by_maps) == 72
    assert all(len(ids) == 1 for ids in deltas_by_maps.values())
    # Theorem 3 files nothing at n = 3, so it builds no Transformation
    built.clear()
    assert not verify_theorem3(3, 3, timestamp="fixed").violations
    assert built == []


def _assert_record_roundtrips(rec: CampaignRecord):
    data = json.loads(json.dumps(rec.to_dict()))
    d = parse_dfa(rec.dfa)
    assert d.n == rec.n and len(d.alphabet) == rec.alphabet_size
    assert is_minimal(d)
    assert syntactic_complexity(d) == rec.syntactic_complexity
    reports = atoms_of(d)
    assert len(reports) == rec.atom_count
    got = {rep.label.label(): rep.complexity for rep in reports}
    assert got == data["atom_complexities"]
    assert all(rep.is_maximal for rep in reports) == rec.is_maximal_atoms


def test_prop1_witness_mode():
    # n = 9: the reversal of the witness has 2^9 quotients
    for n in (2, 3, 4, 9):
        rep = verify_prop1(n, timestamp="fixed")
        assert rep.violations == []
        assert rep.tested == 1


def test_prop1_exhaustive_n2():
    rep = verify_prop1(2, k=2, mode="exhaustive", timestamp="fixed")
    assert rep.violations == []
    assert rep.tested > 1


@pytest.mark.parametrize("n, k", [(2, 2), (2, 4), (3, 1)])
def test_prop1_exhaustive_scans_the_whole_space(n, k):
    rep = verify_prop1(n, k=k, mode="exhaustive", timestamp="fixed")
    # the witness, then every DFA of the space, as verify_theorem3 counts it
    assert rep.scanned == 1 + (n**n) ** k * 2**n
    # the witness, then each minimal DFA whose letters generate T_n
    minimal = sum(
        is_minimal(make_dfa(n, [t.map for t in deltas], finals=StateSet.from_bits(n, f).members()))
        for deltas in full_semigroup_transition_tuples(n, k)
        for f in range(2**n)
    )
    assert rep.tested == 1 + minimal
    assert rep.violations == []


def test_prop2_sampled():
    rep = verify_prop2(samples=500, seed=21, timestamp="fixed")
    assert rep.scanned == 500
    assert rep.violations == []


def test_prop2_deterministic():
    r1 = verify_prop2(samples=200, seed=33, timestamp="t")
    r2 = verify_prop2(samples=200, seed=33, timestamp="t")
    assert r1.summary_dict() == r2.summary_dict()


def test_prop2_violation_records_are_pinned(monkeypatch):
    import atomata.search as search

    # one more than the true reverse complexity makes every sample a
    # violation, so the violation records are written; digest of the JSONL
    # recorded before the campaigns filed their records through one function
    true_complexity = search._reverse_complexity_raw
    monkeypatch.setattr(
        search, "_reverse_complexity_raw", lambda n, maps, fbits: true_complexity(n, maps, fbits) + 1
    )
    rep = verify_prop2(samples=300, seed=5, timestamp="T")
    assert len(rep.violations) == 300 and rep.findings == []
    record = rep.violations[0]
    assert record.atom_count == atom_count(parse_dfa(record.dfa))
    text = "".join(line + "\n" for line in rep.to_jsonl_lines())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "aa2ab3d4d9bb29d16e7b28160c06330123055d6cd1e67d40af0e5c695e031187"


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


def _streamed(campaign_func, n, k, **kwargs):
    """``run_sharded``'s lines, its records and its summary apart."""
    *records, summary = itertools.chain.from_iterable(run_sharded(campaign_func, n, k, **kwargs))
    return records, json.loads(summary)


def _summary_without_params(summary):
    summary = dict(summary)
    del summary["params"]
    return summary


def test_run_sharded_merges():
    records, summary = _streamed(verify_theorem3, 2, 2, workers=2, timestamp="fixed")
    single = verify_theorem3(2, 2, timestamp="fixed")
    assert records == list(single.record_lines())
    assert summary["scanned"] == single.scanned
    assert summary["tested"] == single.tested
    assert summary["violations"] == len(single.violations)


def test_run_sharded_matches_single_run_order():
    single = find_converse_counterexamples(3, 2, timestamp="fixed")
    records, summary = _streamed(find_converse_counterexamples, 3, 2, workers=2, timestamp="fixed")
    assert single.findings
    assert records == list(single.record_lines())
    assert summary["syntactic_complexities"] == single.extra["syntactic_complexities"]
    assert summary["params"] == dict(single.params, shard="merged", num_shards=2)
    assert _summary_without_params(summary) == _summary_without_params(single.summary_dict())


def test_run_sharded_on_one_worker_prints_the_one_call_lines():
    """The summary's params included: one worker names the shards 0 of 1."""
    records, summary = _streamed(find_converse_counterexamples, 3, 2, workers=1, timestamp="fixed")
    single = find_converse_counterexamples(3, 2, timestamp="fixed")
    assert [*records, json.dumps(summary, sort_keys=True)] == list(single.to_jsonl_lines())


def test_run_sharded_honours_limit():
    single = find_converse_counterexamples(3, 3, limit=5, timestamp="fixed")
    records, summary = _streamed(
        find_converse_counterexamples, 3, 3, workers=2, limit=5, timestamp="fixed"
    )
    assert summary["findings"] == 5
    assert records == list(single.record_lines())
    assert _summary_without_params(summary) == _summary_without_params(single.summary_dict())


@pytest.fixture(scope="module")
def sampled_converse_n4k3():
    return find_converse_counterexamples(4, 3, mode="sample", samples=20_000, seed=1, timestamp="t")


@pytest.mark.parametrize("limit, scanned, tested", [(1, 295, 167), (5, 1603, 948)])
def test_sampled_converse_under_a_limit(sampled_converse_n4k3, limit, scanned, tested):
    """Sample mode stops at the draw whose finding reaches the limit: its
    counts are those of a run that draws no further."""
    kwargs = dict(mode="sample", seed=1, timestamp="t")
    limited = find_converse_counterexamples(4, 3, samples=20_000, limit=limit, **kwargs)
    assert limited.findings == sampled_converse_n4k3.findings[:limit]
    assert (limited.scanned, limited.tested) == (scanned, tested)
    cut = find_converse_counterexamples(4, 3, samples=scanned, **kwargs)
    assert list(cut.record_lines()) == list(limited.record_lines())
    assert cut.tested == tested
    streamed = run_sharded(
        find_converse_counterexamples, 4, 3, workers=1, samples=20_000, limit=limit, **kwargs
    )
    assert list(itertools.chain.from_iterable(streamed)) == list(limited.to_jsonl_lines())


@pytest.fixture
def inline_pool(monkeypatch):
    """Runs ``run_sharded``'s shards in process, one after another; the
    list it returns records the pool size each run asked for."""
    import concurrent.futures

    pool_sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pool_sizes


@pytest.mark.parametrize("workers, limit", [(2, 5), (3, 100), (3, 400), (5, 432), (3, 1000)])
def test_run_sharded_under_a_limit_matches_single_run(inline_pool, monkeypatch, workers, limit):
    """Records and counts equal the one-process run's wherever the limit
    falls, violations included: with the letter test admitting every
    tuple, the walk refutes most of the 2056 minimal DFAs, 432 of them
    findings, and records each refuted one as a violation.  The records
    come shard by shard, each shard's violations before its findings, so
    the violations and the findings each keep the one-process order."""
    import atomata.search as search

    monkeypatch.setattr(search, "_maximally_atomic_raw", lambda maps, n: True)
    single = find_converse_counterexamples(3, 2, limit=limit, timestamp="fixed")
    records, summary = _streamed(
        find_converse_counterexamples, 3, 2, workers=workers, limit=limit, timestamp="fixed"
    )
    assert single.violations
    maximal = [json.loads(line)["is_maximal_atoms"] for line in records]
    lines = {
        kind: [json.dumps(rec.to_dict(), sort_keys=True) for rec in recs]
        for kind, recs in ((True, single.findings), (False, single.violations))
    }
    for kind in (True, False):
        assert [r for r, m in zip(records, maximal) if m is kind] == lines[kind]
    assert _summary_without_params(summary) == _summary_without_params(single.summary_dict())


def test_run_sharded_starts_one_process_per_cpu(inline_pool, monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    records, summary = _streamed(find_converse_counterexamples, 3, 2, workers=8, timestamp="fixed")
    single = find_converse_counterexamples(3, 2, timestamp="fixed")
    assert inline_pool == [2]
    assert records == list(single.record_lines())
    assert summary["params"]["num_shards"] == 8


def test_shards_build_no_map_list_at_one_letter(monkeypatch):
    """A shard of a one-letter scan makes only its own block of first maps
    (at n = 7 all n^n of them would take 90 MB per shard)."""
    import atomata.search as search

    single = verify_theorem3(5, 1, timestamp="fixed")
    monkeypatch.setattr(search, "all_maps", None)
    records, summary = _streamed(verify_theorem3, 5, 1, workers=1, timestamp="fixed")
    assert [*records, json.dumps(summary, sort_keys=True)] == list(single.to_jsonl_lines())


def test_maps_between_is_a_slice_of_all_maps():
    rng = random.Random(3)
    for n in range(1, 7):
        maps = all_maps(n)
        for lo, hi in [(0, len(maps)), (0, 0), (len(maps), len(maps))] + [
            sorted(rng.sample(range(len(maps) + 1), 2)) for _ in range(30)
        ]:
            assert list(_maps_between(n, lo, hi)) == maps[lo:hi]


def test_letter_filters_run_once_per_letter_tuple(monkeypatch):
    import atomata.search as search

    calls = {}

    def counted(name):
        original = getattr(search, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    names = ("_generates_full_raw", "_pre_tables", "_minimal_finals", "_is_minimal_raw")
    for name in names:
        monkeypatch.setattr(search, name, counted(name))
    # theorem3 visits the 972 full triples, the converse 72 maximally atomic
    # pairs, each with 6 minimal final sets (432 findings)
    for campaign, k, visited in ((verify_theorem3, 3, 972), (find_converse_counterexamples, 2, 72)):
        tuples = 27**k
        _atom_complexities.cache_clear()
        calls.update(dict.fromkeys(names, 0))
        campaign(3, k, timestamp="fixed")
        assert 0 < calls["_generates_full_raw"] <= tuples
        # built once per visited tuple, for its atom counts and atom walk together
        assert calls["_pre_tables"] == visited
        # every final set's minimality at once; sampling alone asks one at a time
        assert calls["_minimal_finals"] <= tuples and calls["_is_minimal_raw"] == 0


# --- the maximally atomic letter test -----------------------------------------
#
# Its oracle is the atom count and the walk over every atom, which share no
# code with the group of units.  Both directions are checked: every DFA the
# letters admit has all 2^n atoms at their bounds, and every other does not.


def _converse_tuples(n, k):
    """The letter tuples the converse's letter stage keeps: semigroup not
    full.  ``_minimal_finals`` gives those that leave a state unreachable no
    minimal final set."""
    for maps in itertools.product(all_maps(n), repeat=k):
        if not _generates_full_raw(maps, n):
            yield maps


def _walk_is_maximally_atomic(n, pres, fbits):
    return _reach_subsets(n, pres, fbits) == 1 << n and _atom_complexities(pres, n) == _atom_bounds(n)


def _check_final_sets(n, maps):
    """Compare the letter verdict with the walk on each minimal final set;
    return (minimal DFAs compared, of them maximally atomic)."""
    verdict = _maximally_atomic_raw(maps, n)
    pres = _pre_tables(n, maps)
    minimal = _minimal_finals(n, maps)
    for fbits in range(1 << n):
        if minimal >> fbits & 1:
            assert _walk_is_maximally_atomic(n, pres, fbits) == verdict, (maps, fbits)
    compared = minimal.bit_count()
    return compared, compared if verdict else 0


@pytest.mark.parametrize("k, tested, findings", [(1, 24, 0), (2, 2056, 432), (3, 78024, 18144)])
def test_maximally_atomic_matches_atom_walk_n3(k, tested, findings):
    """Every minimal final set of every kept tuple; the totals are the
    converse campaign's ``tested`` and findings."""
    totals = [0, 0]
    for maps in _converse_tuples(3, k):
        for i, count in enumerate(_check_final_sets(3, maps)):
            totals[i] += count
    assert totals == [tested, findings]


def test_maximally_atomic_matches_atom_walk_n4k2():
    """Every kept pair on its first minimal final set, every 40th on all of
    them.  No pair passes: a single permutation generates a cyclic group,
    at most 4 elements, fewer than the C(4, 2) = 6 two-subsets."""
    pairs = walked = 0
    for i, maps in enumerate(_converse_tuples(4, 2)):
        minimal = _minimal_finals(4, maps)
        if not minimal:
            continue
        first = (minimal & -minimal).bit_length() - 1
        pairs += 1
        assert not _maximally_atomic_raw(maps, 4)
        pres = _pre_tables(4, maps)
        walked += _reach_subsets(4, pres, first) == 16
        assert not _walk_is_maximally_atomic(4, pres, first), maps
        if i % 40 == 0:
            _check_final_sets(4, maps)
    assert pairs == 31290
    assert walked > 0  # some pairs reach all 16 atoms, and the walk refutes them


def test_maximally_atomic_matches_atom_walk_n4k3_sample():
    rng = random.Random(7)
    totals = [0, 0]
    for _ in range(1000):
        maps = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(3))
        if not _generates_full_raw(maps, 4):
            for i, count in enumerate(_check_final_sets(4, maps)):
                totals[i] += count
    assert totals[0] > 5000 and totals[1] > 0


def test_maximally_atomic_passes_a_cyclic_group():
    """At n = 3 the 3-cycle alone generates A_3, transitive on 1- and
    2-subsets: with a rank-2 letter that is maximally atomic, not full."""
    maps = ((1, 2, 0), (0, 0, 2))
    assert _maximally_atomic_raw(maps, 3) and not _generates_full_raw(maps, 3)
    assert not _maximally_atomic_raw(((1, 2, 0), (0, 0, 0)), 3)  # no rank-2 letter
    assert not _maximally_atomic_raw(((1, 0, 2), (0, 0, 2)), 3)  # a transposition: intransitive
    assert not _maximally_atomic_raw(((0,),), 1)


def _alternating_witness(n):
    """Letters (0 1 2), the n-cycle for odd n or (1 2 ... n-1) for even n, and
    n-1 -> 0.  Both cycles are even, and they generate A_n."""
    cycle = range(n) if n % 2 else range(1, n)
    return tuple(
        t.map for t in (make_cycle(n, (0, 1, 2)), make_cycle(n, cycle), make_singular(n, n - 1, 0))
    )


@pytest.mark.parametrize("n", range(4, 11))
def test_maximally_atomic_accepts_the_alternating_witness(n):
    """A_n is transitive on k-subsets for every k.  Up to n = 6 the atom walk
    agrees, on the final set {n-1}, and the semigroup is not full: it is A_n
    and every singular map."""
    maps = _alternating_witness(n)
    assert _maximally_atomic_raw(maps, n)
    if n <= 6:
        fbits = 1 << n - 1
        assert _minimal_finals(n, maps) >> fbits & 1
        assert _walk_is_maximally_atomic(n, _pre_tables(n, maps), fbits)
        assert len(worklist_closure(maps)) == n**n - math.factorial(n) // 2


def test_engine_caches_are_bounded():
    for cached in (_closure_size, _atom_complexities):
        assert cached.cache_info().maxsize is not None


def test_full_triples_count_n3():
    triples = list(full_semigroup_transition_tuples(3, 3))
    assert len(triples) == 972
    for deltas in triples[:5]:
        maps = tuple(t.map for t in deltas)
        assert _closure_size(maps, 3) == 27
