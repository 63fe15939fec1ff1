import random

import pytest

from atomata import Dfa, StateSet, Transformation
from atomata.search import example1, random_dfa


@pytest.fixture
def ex1() -> Dfa:
    return example1()


def make_dfa(n, maps, initial=0, finals=(), letters=None):
    """Shorthand DFA builder for tests."""
    letters = tuple(letters or "abcdefgh"[: len(maps)])
    return Dfa(
        n,
        letters,
        tuple(Transformation(m) for m in maps),
        initial,
        StateSet(n, finals),
    )


def random_dfas(seed, count, max_n=4, max_k=3):
    """Deterministic stream of random DFAs for property tests."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        k = rng.randint(1, max_k)
        yield random_dfa(rng, n, k)


def worklist_closure(maps):
    """Every map that a non-empty word over ``maps`` induces.

    A plain worklist with no early stop, sharing no code with the package's
    closure: the oracle for it and for the full-semigroup criterion.
    """
    seen = set(maps)
    work = list(seen)
    while work:
        t = work.pop()
        for g in maps:
            comp = tuple(g[v] for v in t)
            if comp not in seen:
                seen.add(comp)
                work.append(comp)
    return seen
