from math import comb

import pytest

from atomata import is_maximal_atoms, max_atom_complexity, max_over_r
from atomata.search import example1, witness_max_semigroup
from conftest import make_dfa, random_dfas
from atomata.atoms import atoms_of
from atomata.bounds import max_atom_complexities


@pytest.mark.parametrize(
    "n, expected",
    [(4, 43), (5, 141), (6, 501), (7, 1548)],
)
def test_known_maxima(n, expected):
    assert max_over_r(n)[1] == expected


def test_edge_values():
    assert max_atom_complexity(3, 0) == 7
    assert max_atom_complexity(3, 3) == 7
    assert max_atom_complexity(3, 1) == 10
    assert max_atom_complexity(3, 2) == 10
    assert max_atom_complexity(4, 2) == 43
    assert max_over_r(4) == (2, 43)
    assert max_over_r(1) == (0, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_boundary_cases_power_of_two(n):
    assert max_atom_complexity(n, 0) == 2**n - 1
    assert max_atom_complexity(n, n) == 2**n - 1


def paper_bound(n, r):
    """The paper's double sum, term by term: the oracle for the row."""
    if r in (0, n):
        return 2**n - 1
    return 1 + sum(
        comb(n, h) * comb(h, k) for k in range(1, r + 1) for h in range(k + 1, k + n - r + 1)
    )


def test_row_equals_the_double_sum():
    for n in range(1, 40):
        row = max_atom_complexities(n)
        assert row == [paper_bound(n, r) for r in range(n + 1)], n


def test_range_errors():
    with pytest.raises(ValueError):
        max_atom_complexity(3, 4)
    with pytest.raises(ValueError):
        max_atom_complexity(3, -1)
    with pytest.raises(ValueError):
        max_atom_complexity(0, 0)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        max_over_r(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetry(n):
    for r in range(n + 1):
        assert max_atom_complexity(n, r) == max_atom_complexity(n, n - r)


def test_is_maximal_atoms_on_example1():
    ok, reports = is_maximal_atoms(example1())
    assert ok
    assert len(reports) == 8


def test_is_maximal_atoms_minimizes_once(monkeypatch):
    """n comes from the atom labels: the input is minimized once, by the
    atomaton; a non-minimal input gets the minimal DFA's verdict."""
    import atomata.atoms
    import atomata.automata

    ex1 = example1()
    # example1 plus an unreachable copy of its state 0
    padded = make_dfa(
        4, [t.map + (t.map[0],) for t in ex1.deltas], finals=ex1.finals.members()
    )
    calls = []
    real = atomata.automata.minimize

    def counted(d):
        calls.append(d.n)
        return real(d)

    monkeypatch.setattr(atomata.automata, "minimize", counted)
    monkeypatch.setattr(atomata.atoms, "minimize", counted)
    ok, reports = is_maximal_atoms(padded)
    assert ok and len(reports) == 8 and {rep.label.n for rep in reports} == {3}
    assert calls == [4]


def test_is_maximal_atoms_witnesses():
    for n in (2, 3, 4):
        ok, reports = is_maximal_atoms(witness_max_semigroup(n))
        assert ok and len(reports) == 2**n


def test_two_letter_converse_witness():
    # cycle + singular: the semigroup stays below 27 (three letters are
    # needed to generate all of T_3) yet every atom meets its bound
    from atomata import syntactic_complexity

    d = make_dfa(3, [(1, 2, 0), (0, 0, 2)], finals=[2])
    assert syntactic_complexity(d) < 27
    ok, _ = is_maximal_atoms(d)
    assert ok


def test_not_maximal_single_letter():
    d = make_dfa(3, [(1, 2, 0)], finals=[2])
    ok, reports = is_maximal_atoms(d)
    assert not ok
    assert len(reports) == 3  # far short of the 8 atoms needed


def test_dominance_on_random_dfas():
    for d in random_dfas(seed=17, count=40, max_n=4):
        for rep in atoms_of(d):
            assert rep.complexity <= rep.bound
