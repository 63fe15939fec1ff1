import random

import pytest

from atomata import (
    Interval,
    StateSet,
    atom_quotient_complexity,
    build_atomaton,
    count_from_types,
    eta_letter,
    eta_letter_on_interval,
    eta_word_perm,
    interval_reach_count,
    interval_reach_report,
    interval_reach_types,
    max_atom_complexity,
    type_reachability,
)
from atomata.errors import FullSemigroupError
from atomata.intervals import _check_interval_preimages
from atomata.search import witness_max_semigroup
from conftest import make_dfa, sample_full_semigroup_dfa


def _s(n, members):
    return StateSet(n, members)


# --- Interval type -----------------------------------------------------------


def test_interval_basics():
    iv = Interval(_s(5, [1, 2]), _s(5, [1, 2, 3, 4]))
    assert not iv.is_empty
    assert iv.type == (2, 4)
    assert iv.size() == 4
    assert _s(5, [1, 2, 3]) in iv
    assert _s(5, [1, 3]) not in iv
    assert {m.label() for m in iv.members()} == {"12", "123", "124", "1234"}

    empty = Interval(_s(5, [1, 2]), _s(5, [3, 4]))
    assert empty.is_empty
    assert empty.type is None
    assert empty.size() == 0

    point = Interval(_s(3, []), _s(3, []))
    assert point.type == (0, 0) and point.size() == 1

    with pytest.raises(ValueError, match="^interval bounds must share a universe$"):
        Interval(_s(3, [0]), _s(4, [0]))


# --- single-letter transitions -----------------------------------------------


def test_eta_letter_examples(ex1):
    iv = eta_letter(ex1, _s(3, [0, 1, 2]), "d")
    assert iv == Interval(_s(3, [1]), _s(3, [0, 1, 2]))

    assert eta_letter(ex1, _s(3, [0]), "d") is None

    iv = eta_letter(ex1, _s(3, [0, 2]), "c")
    assert iv == Interval(_s(3, [0]), _s(3, [0, 2]))


def test_eta_letter_requires_full_semigroup():
    d = make_dfa(3, [(1, 2, 0), (0, 0, 2)], finals=[2])  # semigroup size 24
    with pytest.raises(FullSemigroupError):
        eta_letter(d, _s(3, [0]), "a")
    not_minimal = make_dfa(3, [(1, 2, 1), (2, 1, 2)], finals=[1, 2])
    with pytest.raises(FullSemigroupError):
        eta_letter(not_minimal, _s(3, [0]), "a")


def test_eta_letter_agrees_with_atomaton(ex1):
    am = build_atomaton(ex1)
    for bits in range(8):
        s = StateSet.from_bits(3, bits)
        for a in ex1.alphabet:
            iv = eta_letter(ex1, s, a)
            got = set() if iv is None else set(iv.members())
            assert got == set(am.eta(s, a)), (s, a)


# --- interval transitions ----------------------------------------------------


def test_eta_on_singleton_interval_matches_eta_letter(ex1):
    for bits in range(8):
        s = StateSet.from_bits(3, bits)
        for a in ex1.alphabet:
            single = eta_letter(ex1, s, a)
            if single is None:
                continue  # not a preimage; the interval rule does not apply
            via_interval = eta_letter_on_interval(ex1, Interval(s, s), a)
            assert via_interval == single


def test_eta_on_interval_permutation(ex1):
    iv = Interval(_s(3, [1]), _s(3, [0, 1, 2]))
    out = eta_letter_on_interval(ex1, iv, "a")
    assert out == Interval(_s(3, [0]), _s(3, [0, 1, 2]))
    # cross-check by mapping the members one by one
    mapped = set()
    for member in iv.members():
        single = eta_letter(ex1, member, "a")
        mapped |= set(single.members())
    assert mapped == set(out.members())


def test_eta_on_interval_rejects_mixed(ex1):
    # {0} is not a preimage of delta_d, so [Φ, {0}] mixes
    iv = Interval(_s(3, []), _s(3, [0]))
    with pytest.raises(FullSemigroupError) as err:
        eta_letter_on_interval(ex1, iv, "d")
    assert "0" in str(err.value)


def test_eta_on_empty_interval(ex1):
    assert eta_letter_on_interval(ex1, Interval(_s(3, [1]), _s(3, [0])), "a") is None


def test_preimage_check_enumerates_members(ex1):
    t = ex1.delta("c")  # (2->0), rank 2
    good = Interval(_s(3, [0, 2]), _s(3, [0, 1, 2]))  # {k,l}={2,0} inside lower
    _check_interval_preimages(t, good)
    disjoint = Interval(_s(3, [1]), _s(3, [1]))
    _check_interval_preimages(t, disjoint)
    with pytest.raises(FullSemigroupError):
        _check_interval_preimages(t, Interval(_s(3, [0]), _s(3, [0, 1])))


def test_eta_word_perm(ex1):
    iv = Interval(_s(3, [0]), _s(3, [0, 1]))
    assert eta_word_perm(ex1, iv, "") == iv
    assert eta_word_perm(ex1, iv, "a") == Interval(_s(3, [1]), _s(3, [0, 1]))
    assert eta_word_perm(ex1, iv, "aa") == iv
    with pytest.raises(ValueError):
        eta_word_perm(ex1, iv, "d")


# --- reachability counting ---------------------------------------------------


def test_interval_reach_counts_example1(ex1):
    assert interval_reach_count(ex1, _s(3, [0, 1])) == 10
    assert interval_reach_count(ex1, StateSet.full(3)) == 7
    assert interval_reach_count(ex1, StateSet.empty(3)) == 7


def test_interval_reach_count_n4():
    w4 = witness_max_semigroup(4)
    assert interval_reach_count(w4, _s(4, [0, 1])) == 43
    assert interval_reach_count(w4, StateSet.full(4)) == 15


def test_reach_count_equals_atom_complexity():
    rng = random.Random(20)
    dfas = [witness_max_semigroup(3), witness_max_semigroup(4)]
    dfas += [sample_full_semigroup_dfa(3, rng) for _ in range(3)]
    dfas += [sample_full_semigroup_dfa(4, rng) for _ in range(2)]
    for d in dfas:
        for bits in range(2**d.n):
            s = StateSet.from_bits(d.n, bits)
            assert interval_reach_count(d, s) == atom_quotient_complexity(d, s)


def test_sink_reached_exactly_for_proper_subsets(ex1):
    for bits in range(8):
        s = StateSet.from_bits(3, bits)
        report = interval_reach_report(ex1, s)
        assert report["sink"] == (0 < len(s) < 3), s


def test_strong_connectedness_same_type(ex1):
    """Same-type reachable intervals are mutually reachable."""
    rng = random.Random(77)
    for d in [ex1, sample_full_semigroup_dfa(3, rng)]:
        am = build_atomaton(d)
        for bits in range(2**d.n):
            s = StateSet.from_bits(d.n, bits)
            nodes, edges = _reachable_interval_graph(d, am, s)
            reach = _transitive_closure(nodes, edges)
            for x in nodes:
                for y in nodes:
                    if x == 0 or y == 0 or x == y:
                        continue
                    if _mask_type(d.n, x) == _mask_type(d.n, y):
                        assert y in reach[x] and x in reach[y]


def _reachable_interval_graph(d, am, s):
    tables = {}
    for a in am.alphabet:
        table = [0] * (1 << d.n)
        for bits in range(1 << d.n):
            src = StateSet.from_bits(d.n, bits)
            for succ in am.eta(src, a):
                table[bits] |= 1 << succ.bits
        tables[a] = table
    start = 1 << s.bits
    nodes = {start}
    edges = {}
    queue = [start]
    for cm in queue:
        for a, table in tables.items():
            nxt = 0
            m = cm
            while m:
                b = m & -m
                nxt |= table[b.bit_length() - 1]
                m ^= b
            edges.setdefault(cm, set()).add(nxt)
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
    return nodes, edges


def _transitive_closure(nodes, edges):
    reach = {x: set(targets) for x, targets in edges.items()}
    for x in nodes:
        reach.setdefault(x, set())
    changed = True
    while changed:
        changed = False
        for x in nodes:
            new = set()
            for y in reach[x]:
                new |= reach.get(y, set())
            if not new <= reach[x]:
                reach[x] |= new
                changed = True
    return reach


def _mask_type(n, cm):
    lo = (1 << n) - 1
    hi = 0
    m = cm
    while m:
        b = m & -m
        bits = b.bit_length() - 1
        lo &= bits
        hi |= bits
        m ^= b
    return (lo.bit_count(), hi.bit_count())


# --- type calculus -----------------------------------------------------------


def test_type_reachability_examples():
    assert type_reachability(3, 2) == {(2, 2), (1, 2)}
    assert type_reachability(3, 3) == {(3, 3), (2, 3), (1, 3)}
    assert type_reachability(3, 0) == {(0, 0), (0, 1), (0, 2)}
    with pytest.raises(ValueError):
        type_reachability(3, 4)


def test_reach_types_match_type_calculus(ex1):
    for bits in range(8):
        s = StateSet.from_bits(3, bits)
        assert interval_reach_types(ex1, s) == type_reachability(3, len(s))


def test_count_from_types_examples():
    assert count_from_types(3, 2) == 10
    assert count_from_types(3, 3) == 7
    assert count_from_types(4, 2) == 43


@pytest.mark.parametrize("n", range(1, 9))
def test_count_from_types_matches_bounds(n):
    for s in range(n + 1):
        assert count_from_types(n, s) == max_atom_complexity(n, n - s)
