import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from atomata import (
    StateSet,
    Transformation,
    compose,
    decompose_singular_perm,
    generates_full,
    identity,
    make_constant,
    make_cycle,
    make_singular,
    make_transposition,
    semigroup_summary,
    syntactic_complexity,
    transition_semigroup,
    word_for,
)
from atomata.errors import ClosureCapError, DegreeMismatchError
from atomata.search import (
    all_maps,
    witness_max_semigroup,
)
from atomata.semigroup import (  # noqa: SLF001 - exercised directly
    MAX_CLOSURE,
    _close,
    _closure,
    _generates_full_raw,
    _set_transitive,
)
from atomata.transformations import inverse
from conftest import full_semigroup_transition_tuples, make_dfa, worklist_closure


def test_example1_closure_size(ex1):
    sg = transition_semigroup(ex1)
    assert len(sg) == 27
    assert sg.is_full
    assert syntactic_complexity(ex1) == 27


def test_identity_letter_only():
    d = make_dfa(3, [(0, 1, 2)], finals=[0])
    # non-empty words only: closure of {identity} is {identity}
    assert len(transition_semigroup(d)) == 1


def test_classic_t3_generators():
    gens = [make_transposition(3, 0, 1), make_cycle(3, (0, 1, 2)), make_singular(3, 2, 0)]
    assert generates_full(gens, 3)
    d = make_dfa(3, [t.map for t in gens], finals=[2])
    assert len(transition_semigroup(d)) == 27


def test_permutations_only_not_full():
    gens = [make_transposition(3, 0, 1), make_cycle(3, (0, 1, 2))]
    assert not generates_full(gens, 3)
    named = [("a", gens[0]), ("b", gens[1])]
    elements, _ = _closure(named, 3, witnesses=False)
    assert len(elements) == 6  # the whole symmetric group, nothing more


def test_constant_alone():
    assert not generates_full([make_constant(3, 1)], 3)


def test_generates_full_edge_cases():
    assert not generates_full([], 3)
    assert generates_full([identity(1)], 1)
    with pytest.raises(DegreeMismatchError):
        generates_full([identity(2)], 3)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (1, 2, 3, 4) for k in (1, 2)] + [(3, 3)]
)
def test_full_criterion_matches_closure_exhaustive(n, k):
    """The generator criterion agrees with the closure on every letter
    tuple."""
    for maps in itertools.product(all_maps(n), repeat=k):
        closure = worklist_closure(maps)
        assert _generates_full_raw(maps, n) == (len(closure) == n**n), maps


# --- the k-set orbit test ----------------------------------------------------
#
# Its oracle lists the group with the reference closure, which shares no code
# with the orbit walk, and reads every orbit off the group's elements.


def _orbits_are_full(perms, n):
    """Whether each orbit of {0..k-1}, k <= n/2, under the closed group has
    C(n, k) members."""
    group = worklist_closure(perms)
    return all(
        len({frozenset(g[:k]) for g in group}) == math.comb(n, k) for k in range(1, n // 2 + 1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_set_transitive_matches_closure_on_every_pair(n):
    """No permutation, one, and every ordered pair."""
    perms = list(itertools.permutations(range(n)))
    verdicts = []
    for size in (0, 1, 2):
        for gens in itertools.product(perms, repeat=size):
            verdicts.append(_set_transitive(gens, n))
            assert verdicts[-1] == _orbits_are_full(gens, n), gens
    assert any(verdicts) and (n < 2 or not all(verdicts))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    )
)
def test_set_transitive_matches_closure_drawn(drawn):
    n, perms = drawn
    perms = [tuple(p) for p in perms]
    assert _set_transitive(perms, n) == _orbits_are_full(perms, n)


def _projective_inverse(x):
    """x -> -1/x on the projective line over GF(5), infinity as 5."""
    return 5 if x == 0 else 0 if x == 5 else -pow(x, -1, 5) % 5


@pytest.mark.parametrize(
    "gens, order, transitive",
    [
        # AGL(1,5): x + 1 and 2x on Z_5, 2-transitive
        ([[(x + 1) % 5 for x in range(5)], [2 * x % 5 for x in range(5)]], 20, True),
        # PGL(2,5): x + 1, 2x and -1/x on the projective line over GF(5), 3-transitive
        (
            [
                [(x + 1) % 5 for x in range(5)] + [5],
                [2 * x % 5 for x in range(5)] + [5],
                [_projective_inverse(x) for x in range(6)],
            ],
            120,
            True,
        ),
        # D_5: x + 1 and -x on Z_5; {0, 1} and {0, 2} lie in different orbits
        ([[(x + 1) % 5 for x in range(5)], [-x % 5 for x in range(5)]], 10, False),
    ],
    ids=["AGL(1,5)", "PGL(2,5)", "D_5"],
)
def test_set_transitive_on_named_groups(gens, order, transitive):
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    assert len(worklist_closure(gens)) == order
    assert _set_transitive(gens, n) == _orbits_are_full(gens, n) == transitive


# sha256 of the verdicts of _generates_full_raw on all (3^3)^3 letter triples,
# one byte each in lexicographic order, as recorded before the group of units
# became its own kernel
FULL_N3K3_VERDICTS_SHA256 = "d7bc2e068f23bb65e723b8ae91964be3f891af3a7fe0ce182031d14e9a235515"


def test_full_criterion_verdicts_are_pinned_n3():
    verdicts = bytes(
        _generates_full_raw(maps, 3) for maps in itertools.product(all_maps(3), repeat=3)
    )
    assert sum(verdicts) == 972
    assert hashlib.sha256(verdicts).hexdigest() == FULL_N3K3_VERDICTS_SHA256


def test_generates_full_matches_closure_on_witness_letters():
    """Every non-empty subset of the witness letters, against the closure."""
    for n in range(2, 7):
        letters = witness_max_semigroup(n).deltas
        for size in (1, 2, 3):
            for gens in itertools.combinations(letters, size):
                want = len(worklist_closure([t.map for t in gens])) == n**n
                assert generates_full(gens, n) == want, (n, gens)


def test_single_state():
    d = make_dfa(1, [(0,)], finals=[0])
    assert syntactic_complexity(d) == 1


def test_close_at_degree_one():
    elements, words = _close([(0,)], 1)
    assert [tuple(e) for e in elements] == [(0,)] and words is None
    elements, words = _close([(0,), (0,)], 5, "ab")
    assert [tuple(e) for e in elements] == [(0,)] and words == ["a"]
    assert _close([], 1) == ([], None)
    assert _generates_full_raw([(0,)], 1)
    w = witness_max_semigroup(1)
    assert len(transition_semigroup(w)) == 1


def shortest_word_lengths(maps):
    """Length of a shortest word inducing each element, level by level."""
    lengths = {}
    level, length = set(maps), 1
    while level:
        lengths.update(dict.fromkeys(level, length))
        level = {tuple(g[v] for v in t) for t in level for g in maps} - lengths.keys()
        length += 1
    return lengths


@pytest.mark.parametrize("n", range(2, 7))
def test_close_words_on_witness_letters(n):
    """Each first word induces its element and is a shortest one; the
    elements come in length-then-alphabet order of their words."""
    letters = {a: t.map for a, t in zip("abc", witness_max_semigroup(n).deltas)}
    elements, words = _close(list(letters.values()), n**n, "abc")
    elements = [tuple(e) for e in elements]
    assert set(elements) == worklist_closure(list(letters.values()))
    assert len(elements) == len(set(elements)) == n**n
    lengths = shortest_word_lengths(list(letters.values()))
    for t, w in zip(elements, words):
        image = list(range(n))
        for a in w:
            image = [letters[a][q] for q in image]
        assert tuple(image) == t, (t, w)
        assert len(w) == lengths[t], (t, w)
    assert all((len(w1), w1) < (len(w2), w2) for w1, w2 in zip(words, words[1:]))


def test_close_refuses_degrees_past_byte_maps():
    with pytest.raises(ClosureCapError, match="degree 300"):
        _close([tuple(range(300))], 1)
    flip = tuple(reversed(range(256)))
    elements, _ = _close([flip], 2)
    assert [tuple(e) for e in elements] == [flip, tuple(range(256))]


# the witnesses of T_n, and a converse finding: its letters generate A_3 and
# one rank-2 map, 24 of the 27 maps
ORACLE_DFAS = [(witness_max_semigroup(n), n**n) for n in range(2, 6)] + [
    (make_dfa(3, [(0, 0, 1), (1, 2, 0)], finals=[0]), 24)
]


@pytest.mark.parametrize("d, size", ORACLE_DFAS, ids=["T2", "T3", "T4", "T5", "converse3"])
def test_semigroup_readers_match_worklist_closure(d, size):
    """Elements, ranks, membership and first words of the closure, each
    against the worklist oracle over all n^n maps."""
    n = d.n
    letters = dict(zip(d.alphabet, (t.map for t in d.deltas)))
    want = worklist_closure(list(letters.values()))
    assert len(want) == size
    lengths = shortest_word_lengths(list(letters.values()))
    sg = transition_semigroup(d, witnesses=True)
    assert len(sg) == len(want) and sg.is_full == (len(want) == n**n)
    assert len(sg.elements) == len(set(sg.elements))
    assert {t.map for t in sg.elements} == want
    ranks = {}
    for m in want:
        ranks[len(set(m))] = ranks.get(len(set(m)), 0) + 1
    assert sg.rank_histogram() == ranks

    def induced(w):
        image = list(range(n))
        for a in w:
            image = [letters[a][q] for q in image]
        return tuple(image)

    for m in itertools.product(range(n), repeat=n):
        t = Transformation(m)
        assert (t in sg) == (m in want), m
        w = sg.witness(t)
        if m in want:
            assert induced(w) == m and len(w) == lengths[m], (m, w)
        else:
            assert w is None, m
    pairs = sg.word_witnesses()
    assert [p.transformation for p in pairs] == sg.elements
    assert [p.word for p in pairs] == [sg.witness(t) for t in sg.elements]
    assert identity(n + 1) not in sg and "not a map" not in sg
    assert Transformation(range(300)) not in sg  # past what a byte map holds


def test_syntactic_complexity_minimizes_first():
    # the language is "all non-empty words"; its two-state minimal DFA has
    # the constant map as its only induced transformation
    d = make_dfa(3, [(1, 2, 1), (2, 1, 2)], finals=[1, 2])
    assert len(transition_semigroup(d)) > 1  # non-minimal input would mislead
    assert syntactic_complexity(d) == 1
    summary = semigroup_summary(d)
    assert summary.minimized_input
    assert summary.n == 2 and summary.size == 1


def test_word_witnesses(ex1):
    sg = transition_semigroup(ex1, witnesses=True)
    assert sg.witness(make_constant(3, 1)) == "d"
    assert sg.witness(identity(3)) == "aa"
    for t in sg:
        w = sg.witness(t)
        assert w, "non-empty words only"
        assert ex1.transform_of_word(w) == t
    plain = transition_semigroup(ex1)
    for read in (lambda: plain.witness(identity(3)), plain.word_witnesses):
        with pytest.raises(ValueError, match="^closure was computed without witnesses$"):
            read()


def test_word_for_absent():
    d = make_dfa(2, [(0, 1)], finals=[0])
    assert word_for(d, make_transposition(2, 0, 1)) is None
    assert word_for(d, identity(2)) == "a"


def test_witness_order_is_length_then_alphabet(ex1):
    sg = transition_semigroup(ex1, witnesses=True)
    words = [sg.witness(t) for t in sg]
    # discovery order: lengths never decrease, and same-length words ascend
    for w1, w2 in zip(words, words[1:]):
        assert (len(w1), w1) < (len(w2), w2)


def test_close_bound_is_checked_before_any_product():
    letters = [make_transposition(3, 0, 1).map, make_cycle(3, (0, 1, 2)).map]
    assert len(_close(letters, MAX_CLOSURE)[0]) == 6
    with pytest.raises(ClosureCapError, match=f"{MAX_CLOSURE + 1} elements.*{MAX_CLOSURE}"):
        _close(letters, MAX_CLOSURE + 1)


def test_closure_bound_on_degrees_9_and_11(closure_bound):
    # n^n closures stop at n = 8: 9^9 = 387420489 elements is over the bound
    w9 = witness_max_semigroup(9)
    with pytest.raises(ClosureCapError, match="degree 9 could reach 387420489 elements"):
        transition_semigroup(w9)
    # a transposition and a 9-cycle generate S_9, and c has rank 8
    assert generates_full(w9.deltas, 9)
    # (0 1 2) and the 9-cycle are even, so they generate at most A_9
    even = [make_cycle(9, (0, 1, 2)), make_cycle(9, range(9)), make_singular(9, 8, 0)]
    assert not generates_full(even, 9)
    # 11! = 39916800 permutations are over the bound
    gens11 = [make_transposition(11, 0, 1), make_cycle(11, range(11)), make_singular(11, 10, 0)]
    with pytest.raises(ClosureCapError, match="degree 11 could reach 39916800 elements"):
        generates_full(gens11, 11)


def test_rank_histogram_full(ex1):
    summary = semigroup_summary(ex1)
    hist = summary.rank_histogram
    assert summary.is_full
    assert hist[3] == math.factorial(3)
    assert sum(hist.values()) == 27
    assert hist == {1: 3, 2: 18, 3: 6}  # 3 constants, 18 rank-2 maps, 6 permutations


def test_summary_fields(ex1):
    s = semigroup_summary(ex1)
    assert s.n == 3 and s.size == 27 and s.is_full
    assert s.generator_count == 4
    assert not s.minimized_input
    d = s.to_dict()
    assert d["size"] == 27 and d["rank_histogram"]["3"] == 6


def test_closure_is_closed_under_compose(ex1):
    sg = transition_semigroup(ex1)
    rng = random.Random(3)
    elems = sg.elements
    for _ in range(200):
        s, t = rng.choice(elems), rng.choice(elems)
        assert compose(s, t) in sg


def test_image_size_monotone(ex1):
    sg = transition_semigroup(ex1)
    rng = random.Random(4)
    for _ in range(200):
        s, t = rng.choice(sg.elements), rng.choice(sg.elements)
        assert compose(s, t).rank() <= min(s.rank(), t.rank())


def test_rank_decomposition_word_exists_exhaustive_n3():
    """Every full-semigroup minimal DFA has a rank-(n-1) letter whose
    singular/permutation factorization is witnessed by a word inducing the
    permutation's inverse."""
    n = 3
    checked = 0
    for deltas in full_semigroup_transition_tuples(n, 3):
        d = make_dfa(n, [t.map for t in deltas], finals=[n - 1])
        rank_n1 = [t for t in deltas if t.rank() == n - 1]
        assert rank_n1, "full semigroup forces a rank n-1 letter"
        alpha, pi = decompose_singular_perm(rank_n1[0])
        assert compose(alpha, pi) == rank_n1[0]
        w = word_for(d, inverse(pi))
        assert w is not None
        assert d.transform_of_word(w) == inverse(pi)
        checked += 1
    assert checked == 972  # number of generating triples of T_3
