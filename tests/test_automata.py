import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import _golden as G
from atomata import (
    Dfa,
    StateSet,
    Transformation,
    accepts,
    determinize,
    is_isomorphic,
    is_minimal,
    minimize,
    quotient_complexity,
    reverse,
)
from atomata.atoms import build_atomaton
from atomata.automata import Nfa
from atomata.errors import UnknownLetterError
from conftest import make_dfa, random_dfas, reference_determinize, reference_minimize


def dfas(max_n=4, max_k=3):
    def build(args):
        n, k = args
        maps = st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
            min_size=k,
            max_size=k,
        )
        finals = st.integers(0, 2**n - 1)
        return st.tuples(maps, finals, st.integers(0, n - 1)).map(
            lambda t: Dfa(
                n,
                tuple("abcdef"[:k]),
                tuple(Transformation(m) for m in t[0]),
                t[2],
                StateSet.from_bits(n, t[1]),
            )
        )

    return st.tuples(st.integers(1, max_n), st.integers(1, max_k)).flatmap(build)


# --- reversal ---------------------------------------------------------------


def test_reverse_matches_golden_table(ex1):
    r = reverse(ex1)
    assert set(r.states) == set(G.TABLE_DR)
    assert set(r.initials) == G.TABLE_DR_INITIALS
    assert set(r.finals) == G.TABLE_DR_FINALS
    for q, row in G.TABLE_DR.items():
        for a, targets in row.items():
            assert set(r.eta[(q, a)]) == targets, (q, a)


def test_reverse_one_state_self_loop():
    d = make_dfa(1, [(0,)], finals=[0])
    r = reverse(d)
    assert set(r.initials) == {0} and set(r.finals) == {0}
    assert r.eta[(0, "a")] == frozenset({0})


def test_reverse_reverse_language(ex1):
    rr = determinize(reverse(determinize(reverse(ex1))))
    assert is_isomorphic(rr, ex1)
    for w in itertools.product(ex1.alphabet, repeat=3):
        assert accepts(rr, w) == accepts(ex1, w)


# --- determinization --------------------------------------------------------


def test_determinize_matches_golden_table(ex1):
    drd = determinize(reverse(ex1))
    assert drd.n == 8
    by_label = {lab: i for i, lab in enumerate(drd.labels)}
    assert set(by_label) == set(G.TABLE_DRD)
    assert drd.labels[drd.initial] == G.TABLE_DRD_INITIAL
    finals = {drd.labels[q] for q in drd.finals.members()}
    assert finals == G.TABLE_DRD_FINALS
    for sub, row in G.TABLE_DRD.items():
        for a, target in row.items():
            got = drd.labels[drd.delta(a).map[by_label[sub]]]
            assert got == target, (sub, a)


def test_determinize_label_discipline():
    for d in random_dfas(seed=42, count=60):
        det = determinize(reverse(d))
        assert len(set(det.labels)) == det.n
        for a in det.alphabet:
            for q in range(det.n):
                assert det.labels[det.delta(a).map[q]] in set(det.labels)


def test_determinize_of_dfa_view(ex1):
    view = reverse(reverse(ex1))  # same language as ex1, as an NFA
    det = determinize(view)
    assert is_isomorphic(det, ex1)


def test_determinize_empty_initials(ex1):
    det = determinize(reverse(ex1), initials=())
    with pytest.raises(ValueError, match="initial"):
        determinize(reverse(ex1), initials=[3, 4])
    assert det.n == 1
    assert det.labels == (frozenset(),)
    assert not det.finals
    assert not accepts(det, "abcd")


def test_phi_is_ordinary_nonfinal_sink(ex1):
    drd = determinize(reverse(ex1))
    phi = drd.labels.index(frozenset())
    assert phi not in drd.finals
    for a in drd.alphabet:
        assert drd.delta(a).map[phi] == phi


# --- minimization -----------------------------------------------------------


def test_minimize_example_already_minimal(ex1):
    m = minimize(ex1)
    assert m.n == 3
    assert is_isomorphic(m, ex1)
    # pairwise distinguishability oracle
    for p, q in itertools.combinations(range(ex1.n), 2):
        assert any(
            (ex1.run(w, start=p) in ex1.finals) != (ex1.run(w, start=q) in ex1.finals)
            for l in range(0, 5)
            for w in itertools.product(ex1.alphabet, repeat=l)
        )


def test_minimize_merges_duplicate_states():
    # states 1 and 2 are identical
    d = make_dfa(3, [(1, 2, 1), (2, 1, 2)], finals=[1, 2])
    assert minimize(d).n == 2


def test_minimize_unreachable_dropped():
    d = make_dfa(3, [(0, 2, 1)], finals=[0])
    assert minimize(d).n == 1


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_minimize_idempotent(d):
    m = minimize(d)
    again = minimize(m)
    assert again.n == m.n
    assert again == m  # canonical numbering makes this equality


@settings(max_examples=40, deadline=None)
@given(dfas(max_n=3, max_k=2))
def test_minimize_preserves_language(d):
    m = minimize(d)
    for l in range(0, 2 * d.n + 1):
        for w in itertools.product(d.alphabet, repeat=l):
            assert accepts(d, w) == accepts(m, w)


@settings(max_examples=40, deadline=None)
@given(dfas(max_n=4, max_k=2))
def test_reverse_reverse_same_language(d):
    rr = determinize(reverse(determinize(reverse(d))))
    assert is_isomorphic(rr, minimize(d))
    for l in range(0, 2 * d.n + 1):
        for w in itertools.product(d.alphabet, repeat=l):
            assert accepts(rr, w) == accepts(d, w)


def test_brzozowski_minimality():
    # determinizing the reversal of a trim DFA gives a minimal DFA
    for d in random_dfas(seed=99, count=80, max_n=5):
        det = determinize(reverse(minimize(d)))
        assert minimize(det).n == det.n


# --- integer-table kernels against the frozenset/dict references -------------


def assert_same_dfa(got, want):
    assert got == want  # n, alphabet, deltas, initial and finals
    assert got.labels == want.labels  # not part of Dfa equality


def check_kernels(nfa):
    det = determinize(nfa)
    assert_same_dfa(det, reference_determinize(nfa))
    assert_same_dfa(minimize(det), reference_minimize(det))


def random_nfa(rng, states):
    alphabet = tuple("abc"[: rng.randint(1, 3)])

    def subset():
        return frozenset(q for q in states if rng.random() < rng.choice((0.1, 0.3)))

    eta = {(q, a): subset() for q in states for a in alphabet}
    return Nfa(states, alphabet, eta, subset(), subset())


def test_kernels_match_references_on_random_dfas():
    for d in random_dfas(seed=7, count=400, max_n=5):
        assert_same_dfa(minimize(d), reference_minimize(d))
        check_kernels(reverse(d))
        check_kernels(reverse(reverse(d)))  # the DFA itself, as an NFA


def test_kernels_match_references_on_atom_nfas():
    for d in random_dfas(seed=8, count=40, max_n=4):
        am = build_atomaton(d)
        for s in am.states:
            # the NFA over atom bitmasks that atom_minimal_dfa walks, from s
            from_s = replace(am.nfa, initials=frozenset([s.bits]))
            check_kernels(from_s)
            assert_same_dfa(determinize(am.nfa, initials=[s.bits]), determinize(from_s))


def test_kernels_match_references_on_random_nfas():
    # up to 40 states, so subsets span several 8-state label chunks; many
    # successor sets are empty, and so are some initial sets (the Φ sink)
    rng = random.Random(9)
    for _ in range(200):
        check_kernels(random_nfa(rng, tuple(range(rng.randint(1, 40)))))


def test_kernels_match_references_on_unusual_nfas(ex1):
    rng = random.Random(10)
    names = tuple(f"q{i}" for i in range(12))
    pairs = tuple((i, str(i)) for i in range(10))
    sets = tuple(StateSet.from_bits(4, b) for b in range(16))
    for states in (names, pairs, sets):
        for _ in range(30):
            check_kernels(random_nfa(rng, states))
    check_kernels(replace(reverse(ex1), initials=frozenset()))
    empty_moves = Nfa((0, 1), ("a",), {}, frozenset({0}), frozenset({1}))
    check_kernels(empty_moves)


def test_minimize_matches_reference_with_unreachable_states():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        # letters that never leave {0, 1}: states 2.. are unreachable
        maps = [
            tuple(rng.randrange(2) if q < 2 else rng.randrange(n) for q in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        d = make_dfa(n, maps, finals=[q for q in range(n) if rng.random() < 0.5])
        assert_same_dfa(minimize(d), reference_minimize(d))


def test_kernels_match_references_at_one_state():
    for maps, finals in (([(0,)], []), ([(0,)], [0]), ([(0,), (0,)], [0])):
        d = make_dfa(1, maps, finals=finals)
        assert_same_dfa(minimize(d), reference_minimize(d))
        check_kernels(reverse(d))
    check_kernels(Nfa((0,), ("a",), {}, frozenset(), frozenset()))


# --- quotient complexity ----------------------------------------------------


def test_quotient_complexity(ex1):
    assert quotient_complexity(ex1) == 3
    assert quotient_complexity(determinize(reverse(ex1))) == 8
    empty = make_dfa(1, [(0,)], finals=[])
    assert quotient_complexity(empty) == 1


# --- isomorphism ------------------------------------------------------------


def test_isomorphic_permuted_numbering(ex1):
    # renumber states 0,1,2 -> 2,0,1
    perm = {0: 2, 1: 0, 2: 1}
    inv = {v: k for k, v in perm.items()}
    maps = [
        tuple(perm[t.map[inv[q]]] for q in range(3))
        for t in ex1.deltas
    ]
    d2 = make_dfa(3, maps, initial=perm[0], finals=[perm[2]], letters=ex1.alphabet)
    assert is_isomorphic(ex1, d2)
    for l in range(4):
        for w in itertools.product(ex1.alphabet, repeat=l):
            assert accepts(ex1, w) == accepts(d2, w)


def test_isomorphic_different_sizes(ex1):
    assert not is_isomorphic(ex1, determinize(reverse(ex1)))


def test_isomorphic_prop3_instance(ex1):
    lhs = minimize(determinize(reverse(ex1)))
    rhs = determinize(reverse(ex1))
    assert is_isomorphic(lhs, rhs)


def test_not_isomorphic_same_size():
    d1 = make_dfa(2, [(1, 0)], finals=[0])
    d2 = make_dfa(2, [(1, 0)], finals=[1])
    assert not is_isomorphic(d1, d2)


# --- acceptance -------------------------------------------------------------


def test_accepts_examples(ex1):
    assert accepts(ex1, "ab")
    assert not accepts(ex1, "a")
    assert accepts(ex1, "") == (ex1.initial in ex1.finals) == False
    with pytest.raises(UnknownLetterError):
        accepts(ex1, "ax")


def test_accepts_epsilon():
    d = make_dfa(1, [(0,)], finals=[0])
    assert accepts(d, "")


def test_is_minimal(ex1):
    assert is_minimal(ex1)
    assert not is_minimal(make_dfa(3, [(1, 2, 1), (2, 1, 2)], finals=[1, 2]))
