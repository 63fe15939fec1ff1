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
from atomata.automata import Nfa, _minimal_maps, _reversal_table, _subset_walk
from atomata.errors import UnknownLetterError
from conftest import (
    make_dfa,
    random_dfas,
    reference_determinize,
    reference_minimize,
    subset_of,
)


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


# --- constructor checks -----------------------------------------------------

_T2 = Transformation((1, 0))


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, ("a",), (), 0, StateSet(0)), "a DFA needs at least one state"),
        ((2, (), (), 0, StateSet(2)), "alphabet letters must be distinct and non-empty"),
        (
            (2, ("a", "a"), (_T2, _T2), 0, StateSet(2)),
            "alphabet letters must be distinct and non-empty",
        ),
        ((2, ("",), (_T2,), 0, StateSet(2)), "empty letter name"),
        ((2, ("a", "b"), (_T2,), 0, StateSet(2)), "one transformation per letter required"),
        (
            (3, ("a",), (_T2,), 0, StateSet(3)),
            "transformation for 'a' has degree 2, expected 3",
        ),
        ((2, ("a",), (_T2,), 2, StateSet(2)), "initial state 2 out of range"),
        ((2, ("a",), (_T2,), -1, StateSet(2)), "initial state -1 out of range"),
        (
            (2, ("a",), (_T2,), 0, StateSet(3)),
            "final-state set universe does not match state count",
        ),
        ((2, ("a",), (_T2,), 0, StateSet(2), (1,)), "labels must align with states"),
    ],
)
def test_dfa_constructor_errors(args, message):
    with pytest.raises(ValueError) as err:
        Dfa(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        (((), ("a",), {}, (), ()), "states must be distinct and non-empty"),
        (((0, 0), ("a",), {}, (), ()), "states must be distinct and non-empty"),
        (((0,), (), {}, (), ()), "alphabet letters must be distinct and non-empty"),
        (((0,), ("a", "a"), {}, (), ()), "alphabet letters must be distinct and non-empty"),
        (((0,), ("a",), {}, {1}, ()), "initial/final states must be states"),
        (((0,), ("a",), {}, (), {1}), "initial/final states must be states"),
        (
            ((0, 1), ("a",), {(1, "a"): {2}}, (), ()),
            "transition from 1 on 'a' leaves the state set",
        ),
    ],
)
def test_nfa_constructor_errors(args, message):
    with pytest.raises(ValueError) as err:
        Nfa(*args)
    assert str(err.value) == message


# --- reversal ---------------------------------------------------------------


def test_reverse_matches_golden_table(ex1):
    r = reverse(ex1)
    assert set(r.states) == set(G.TABLE_DR)
    assert set(r.initials) == G.TABLE_DR_INITIALS
    assert set(r.finals) == G.TABLE_DR_FINALS
    for q, row in G.TABLE_DR.items():
        for a, targets in row.items():
            assert set(r.eta[(q, a)]) == targets, (q, a)


def test_reverse_of_a_dfa_equals_reverse_of_the_same_nfa():
    for d in random_dfas(seed=12, count=60):
        states = tuple(range(d.n))
        eta = {(q, a): {t.map[q]} for a, t in zip(d.alphabet, d.deltas) for q in states}
        as_nfa = Nfa(states, d.alphabet, eta, {d.initial}, d.finals.members())
        assert reverse(d) == reverse(as_nfa)


def test_reverse_one_state_self_loop():
    d = make_dfa(1, [(0,)], finals=[0])
    r = reverse(d)
    assert set(r.initials) == {0} and set(r.finals) == {0}
    assert r.eta[(0, "a")] == frozenset({0})


def test_reverse_names_a_determinize_output_by_its_labels(ex1):
    for d in [ex1, *random_dfas(seed=14, count=40)]:
        det = determinize(reverse(d))
        rev = reverse(det)
        assert rev.states == det.labels
        assert rev.initials == {det.labels[q] for q in det.finals}
        assert rev.finals == {det.labels[det.initial]}
        flipped = {(q, a, p) for (q, a), ps in rev.eta.items() for p in ps}
        assert flipped == {
            (det.labels[t.map[q]], a, det.labels[q])
            for a, t in zip(det.alphabet, det.deltas)
            for q in range(det.n)
        }
        # determinizing again: bit j of a label stands for rev.states[j]
        check_kernels(rev)


def test_reverse_reverse_language(ex1):
    rr = determinize(reverse(determinize(reverse(ex1))))
    assert is_isomorphic(rr, ex1)
    for w in itertools.product(ex1.alphabet, repeat=3):
        assert accepts(rr, w) == accepts(ex1, w)


# --- determinization --------------------------------------------------------


def test_determinize_matches_golden_table(ex1):
    r = reverse(ex1)
    drd = determinize(r)
    assert drd.n == 8
    labels = [subset_of(r, s) for s in drd.labels]
    by_label = {lab: i for i, lab in enumerate(labels)}
    assert set(by_label) == set(G.TABLE_DRD)
    assert labels[drd.initial] == G.TABLE_DRD_INITIAL
    finals = {labels[q] for q in drd.finals.members()}
    assert finals == G.TABLE_DRD_FINALS
    for sub, row in G.TABLE_DRD.items():
        for a, target in row.items():
            got = labels[drd.delta(a).map[by_label[sub]]]
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
    r = reverse(ex1)
    det = determinize(r, initials=())
    with pytest.raises(ValueError, match="initial"):
        determinize(r, initials=[3, 4])
    assert det.n == 1
    assert [subset_of(r, s) for s in det.labels] == [frozenset()]
    assert not det.finals
    assert not accepts(det, "abcd")


def test_phi_is_ordinary_nonfinal_sink(ex1):
    r = reverse(ex1)
    drd = determinize(r)
    phi = [subset_of(r, s) for s in drd.labels].index(frozenset())
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


def assert_same_dfa(got, want, nfa=None):
    assert got == want  # n, alphabet, deltas, initial and finals
    # labels are not part of Dfa equality; the reference's are the frozensets
    # of nfa's states that determinize's bitmasks name
    labels = got.labels if nfa is None else tuple(subset_of(nfa, s) for s in got.labels)
    assert labels == want.labels


def check_kernels(nfa):
    det = determinize(nfa)
    assert_same_dfa(det, reference_determinize(nfa), nfa)
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
    # up to 40 states, so labels have up to 40 members; many
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


def test_raw_kernels_match_references():
    """``_minimal_maps`` and ``_subset_walk`` with no Dfa around them, from
    every initial state and with the empty final set too; the random DFAs
    include one-state ones, and unreachable states come from the initials
    other than 0 and from the DFA whose letters never leave {0, 1}."""
    dfas = [*random_dfas(seed=12, count=150, max_n=5), make_dfa(4, [(1, 0, 1, 2)], finals=[3])]
    assert any(d.n == 1 for d in dfas)
    for d in dfas:
        maps = [t.map for t in d.deltas]
        for fbits in {d.finals.bits, 0}:
            for initial in range(d.n):
                finals = StateSet.from_bits(d.n, fbits)
                want = reference_minimize(replace(d, initial=initial, finals=finals))
                got = _minimal_maps(d.n, maps, fbits, initial)
                assert got == (tuple(t.map for t in want.deltas), want.finals.bits)
            rev = replace(reverse(d), initials=frozenset(StateSet.from_bits(d.n, fbits)))
            want = reference_determinize(rev)
            order, cols = _subset_walk(_reversal_table(d.n, maps), d.n, len(maps), fbits)
            assert [subset_of(rev, s) for s in order] == list(want.labels)
            assert [tuple(col) for col in cols] == [t.map for t in want.deltas]


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


def _agree_on_short_words(d1, d2):
    """Whether d1 and d2 accept the same words shorter than n1 + n2.

    Two languages that differ are told apart by a word of length at most
    n1 + n2 - 2, so over one alphabet this decides equal languages, that is
    isomorphic minimal DFAs, without minimizing."""
    maps1 = [t.map for t in d1.deltas]
    maps2 = [t.map for t in d2.deltas]
    level = {(d1.initial, d2.initial)}
    for _ in range(d1.n + d2.n):
        if any((p in d1.finals) != (q in d2.finals) for p, q in level):
            return False
        level = {(m1[p], m2[q]) for p, q in level for m1, m2 in zip(maps1, maps2)}
    return True


def _random_dfa(rng, n, k):
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
    finals = [q for q in range(n) if rng.random() < 0.5]
    return make_dfa(n, maps, initial=rng.randrange(n), finals=finals)


def test_isomorphic_matches_short_word_oracle():
    rng = random.Random(14)
    verdicts = []
    for _ in range(1000):
        n1, k = rng.randint(1, 3), rng.randint(1, 2)
        d1 = _random_dfa(rng, n1, k)
        if rng.random() < 0.3:
            # the same DFA with its states renumbered: state q becomes perm[q]
            perm = rng.sample(range(n1), n1)
            old = sorted(range(n1), key=perm.__getitem__)
            maps = [tuple(perm[t.map[q]] for q in old) for t in d1.deltas]
            finals = [perm[q] for q in d1.finals.members()]
            d2 = make_dfa(n1, maps, initial=perm[d1.initial], finals=finals)
        else:
            d2 = _random_dfa(rng, rng.randint(1, 3), k)
        verdict = is_isomorphic(d1, d2)
        assert verdict == _agree_on_short_words(d1, d2), (d1, d2)
        verdicts.append(verdict)
    assert 300 < sum(verdicts) < 700


def test_isomorphism_needs_the_same_alphabet_order():
    d1 = make_dfa(2, [(1, 0), (0, 0)], finals=[1], letters="ab")
    d2 = make_dfa(2, [(0, 0), (1, 0)], finals=[1], letters="ba")
    assert all(accepts(d1, w) == accepts(d2, w) for l in range(4)
               for w in itertools.product("ab", repeat=l))
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


def test_accepts_on_nfas_against_dfa_runs(ex1):
    """An atomaton accepts the language, and a reversal the reversed words;
    ``Dfa.run`` is the oracle."""
    for d in [ex1, *random_dfas(seed=61, count=30, max_n=4)]:
        atomaton, rev = build_atomaton(d).nfa, reverse(d)
        for length in range(6):
            for w in itertools.product(d.alphabet, repeat=length):
                expected = d.run(w) in d.finals
                assert accepts(atomaton, w) == expected, (d, w)
                assert accepts(rev, w[::-1]) == expected, (d, w)


def test_accepts_refuses_unknown_letters_and_non_automata(ex1):
    with pytest.raises(UnknownLetterError, match="letter 'x' not in alphabet"):
        accepts(reverse(ex1), "ax")
    with pytest.raises(TypeError, match="cannot run str"):
        accepts("ab", "ab")
    with pytest.raises(TypeError, match="cannot reverse int"):
        reverse(42)


def test_is_minimal(ex1):
    assert is_minimal(ex1)
    assert not is_minimal(make_dfa(3, [(1, 2, 1), (2, 1, 2)], finals=[1, 2]))
