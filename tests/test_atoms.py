import itertools
import warnings

import pytest

import _golden as G
from atomata import (
    StateSet,
    atom_count,
    atom_minimal_dfa,
    atom_quotient_complexity,
    atoms_of,
    build_atomaton,
    determinize,
    interval_reach_count,
    membership_in_atom,
    minimize,
    quotient_complexity,
    reverse,
)
from atomata.errors import NotAnAtomError
from conftest import make_dfa, random_dfas


def _sets(n, members):
    return StateSet(n, members)


# --- atomaton construction ---------------------------------------------------


def test_atomaton_matches_golden_table(ex1):
    am = build_atomaton(ex1)
    labels = {s.bits: s for s in am.states}
    assert len(am.states) == 8
    got_initials = {frozenset(s.members()) for s in am.initials}
    got_finals = {frozenset(s.members()) for s in am.finals}
    assert got_initials == G.TABLE_ATOMATON_INITIALS
    assert got_finals == G.TABLE_ATOMATON_FINALS
    for sub, row in G.TABLE_ATOMATON.items():
        s = _sets(3, sub)
        for a, collection in row.items():
            got = {frozenset(t.members()) for t in am.eta(s, a)}
            assert got == collection, (sub, a)


def test_atomaton_spot_cells(ex1):
    am = build_atomaton(ex1)
    eta_d_012 = {t.label() for t in am.eta(_sets(3, [0, 1, 2]), "d")}
    assert eta_d_012 == {"1", "01", "12", "012"}
    assert am.eta(_sets(3, [0]), "d") == frozenset()
    eta_c_phi = {t.label() for t in am.eta(StateSet.empty(3), "c")}
    assert eta_c_phi == {"Φ", "2"}
    assert {t.label() for t in am.eta(_sets(3, [0]), "a")} == {"1"}


def test_atomaton_universal_language():
    d = make_dfa(1, [(0,)], finals=[0])
    am = build_atomaton(d)
    assert len(am.states) == 1
    (s,) = am.states
    assert s in am.initials and s in am.finals


def test_negative_atom_has_no_incoming_edges(ex1):
    for d in [ex1, *random_dfas(seed=23, count=30, max_n=4)]:
        am = build_atomaton(d)
        phi = StateSet.empty(am.n)
        if not am.has_atom(phi):
            continue
        for s in am.states:
            if s == phi:
                continue
            for a in am.alphabet:
                assert phi not in am.eta(s, a)


# --- atoms_of ----------------------------------------------------------------


def test_atoms_of_example1(ex1):
    reports = atoms_of(ex1)
    assert len(reports) == 8
    by_label = {rep.label.label(): rep for rep in reports}
    assert set(by_label) == {"Φ", "0", "1", "2", "01", "02", "12", "012"}
    for rep in reports:
        assert rep.r == 3 - len(rep.label)
        assert rep.complexity == G.EXAMPLE1_ATOM_COMPLEXITY_BY_SIZE[len(rep.label)]
        assert rep.is_maximal
    assert by_label["Φ"].is_negative
    neg = by_label["Φ"]
    assert not neg.is_initial and not neg.is_final
    assert by_label["2"].is_final
    assert sum(rep.is_final for rep in reports) == 1
    assert {lab for lab, rep in by_label.items() if rep.is_initial} == {
        "0",
        "01",
        "02",
        "012",
    }


def test_atoms_of_empty_language():
    d = make_dfa(1, [(0,)], finals=[])
    reports = atoms_of(d)
    assert len(reports) == 1
    (rep,) = reports
    assert rep.is_negative
    assert not rep.is_final  # no final atom when the language is empty
    # the atomaton still makes F's atom final, here the negative atom
    assert build_atomaton(d).finals == {StateSet.empty(1)}


def test_atom_count_equals_reverse_complexity():
    for d in random_dfas(seed=31, count=60, max_n=5):
        assert atom_count(d) == quotient_complexity(determinize(reverse(d)))


# --- atom minimal DFAs and complexities ---------------------------------------


def test_atom_minimal_dfa_errors(ex1):
    with pytest.raises(NotAnAtomError):
        atom_minimal_dfa(ex1, StateSet(4, [0]))
    # StateSet(4, [0]) has the bits of StateSet(3, [0]), an atom of ex1
    am = build_atomaton(ex1)
    assert am.has_atom(StateSet(3, [0]))
    assert not am.has_atom(StateSet(4, [0]))
    with pytest.raises(NotAnAtomError):
        am.eta(StateSet(4, [0]), "a")
    with pytest.raises(ValueError):
        interval_reach_count(ex1, StateSet(4, [0]))
    d2 = make_dfa(2, [(0, 1), (0, 0)], finals=[1])
    labels = {s.label() for s in build_atomaton(d2).states}
    assert "01" not in labels  # {0,1} is not an atom of this language
    with pytest.raises(NotAnAtomError):
        atom_minimal_dfa(d2, StateSet(2, [0, 1]))


def test_atom_complexities_example1(ex1):
    assert atom_quotient_complexity(ex1, StateSet.full(3)) == 7
    assert atom_quotient_complexity(ex1, StateSet(3, [0, 1])) == 10
    assert atom_quotient_complexity(ex1, StateSet.empty(3)) == 7


def test_atom_determinization_already_minimal(ex1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the diagnostic must not fire
        for d in [ex1, *random_dfas(seed=51, count=40, max_n=4)]:
            for rep in atoms_of(d):
                atom_minimal_dfa(d, rep.label)


def test_atom_language_against_membership_oracle(ex1):
    """The language of each atom's minimal DFA is its defining intersection."""
    for d in [ex1, *random_dfas(seed=8, count=12, max_n=3, max_k=2)]:
        dm = minimize(d)
        for rep in atoms_of(dm):
            adfa = atom_minimal_dfa(dm, rep.label)
            for l in range(0, 7):
                for w in itertools.product(dm.alphabet, repeat=l):
                    expected = membership_in_atom(dm, rep.label, w)
                    assert (adfa.run(w) in adfa.finals) == expected, (rep.label, w)


def test_atoms_partition_words(ex1):
    """Each word lies in exactly one atom."""
    for d in [ex1, *random_dfas(seed=13, count=10, max_n=3, max_k=2)]:
        dm = minimize(d)
        labels = [rep.label for rep in atoms_of(dm)]
        for l in range(0, 7):
            for w in itertools.product(dm.alphabet, repeat=l):
                hits = [s for s in labels if membership_in_atom(dm, s, w)]
                assert len(hits) == 1, (w, hits)


def test_membership_examples(ex1):
    assert membership_in_atom(ex1, StateSet(3, [2]), "")
    for bits in range(8):
        if bits != 0b100:
            assert not membership_in_atom(ex1, StateSet.from_bits(3, bits), "")
    assert membership_in_atom(ex1, StateSet(3, [1]), "b")


def test_full_semigroup_top_atom_hits_power_bound():
    from atomata.search import witness_max_semigroup

    for n in (2, 3, 4):
        d = witness_max_semigroup(n)
        assert atom_quotient_complexity(d, StateSet.full(n)) == 2**n - 1


def test_atom_labels_use_callers_numbering():
    """A minimal DFA whose breadth-first renumbering is not the identity:
    labels must still refer to the caller's state numbers."""
    # initial state 0 goes to 2 under a, so BFS order is 0,2,1
    d = make_dfa(3, [(2, 1, 0), (0, 2, 1), (1, 1, 1), (0, 1, 0)], finals=[1])
    assert minimize(d).n == 3
    am = build_atomaton(d)
    for s in am.states:
        for a in d.alphabet:
            got = set(am.eta(s, a))
            # pipeline definition in the caller's coordinates: T maps to s
            # exactly when the preimage of T under delta_a is s
            t_all = (StateSet.from_bits(3, b) for b in range(8))
            from atomata import preimage_of_set

            expected = {
                t
                for t in t_all
                if am.has_atom(t) and preimage_of_set(d.delta(a), t) == s
            }
            assert got == expected, (s, a)
