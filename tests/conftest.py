import itertools
import random

import pytest

from atomata import Dfa, StateSet, Transformation
from atomata.search import example1, random_dfa
from atomata.errors import ClosureCapError
from atomata.semigroup import MAX_CLOSURE, _close, _generates_full_raw


@pytest.fixture
def ex1() -> Dfa:
    return example1()


@pytest.fixture
def closure_bound():
    """Fails unless ``_close`` refuses a limit past ``MAX_CLOSURE``.

    Tests that expect the refusal of a closure of millions of elements use
    it, so that a missing check fails here instead of building that closure."""
    with pytest.raises(ClosureCapError):
        _close([(1, 0)], MAX_CLOSURE + 1)


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


def full_semigroup_transition_tuples(n, k):
    """All k-letter transition tuples generating the full semigroup, in
    lexicographic order."""
    for combo in itertools.product(itertools.product(range(n), repeat=n), repeat=k):
        if _generates_full_raw(combo, n):
            yield tuple(Transformation(m) for m in combo)


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


def reference_determinize(m):
    """Subset construction on frozensets of NFA states, as the package did
    it before its integer-table kernel: the oracle for ``determinize``."""
    init = frozenset(m.initials)
    order = [init]
    index = {init: 0}
    rows = []
    for subset in order:
        row = []
        for a in m.alphabet:
            target = frozenset(q2 for q in subset for q2 in m.eta[(q, a)])
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        rows.append(row)
    n = len(order)
    deltas = tuple(
        Transformation(tuple(rows[q][ai] for q in range(n)))
        for ai in range(len(m.alphabet))
    )
    finals = StateSet(n, (i for i, sub in enumerate(order) if sub & m.finals))
    return Dfa(n, m.alphabet, deltas, 0, finals, labels=tuple(order))


def reference_minimize(d):
    """Moore refinement on dicts with a signature generator per state, then
    the canonical breadth-first renumbering: the oracle for ``minimize``."""
    order = [d.initial]
    seen = {d.initial}
    for q in order:
        for t in d.deltas:
            r = t.map[q]
            if r not in seen:
                seen.add(r)
                order.append(r)

    cls = {q: (1 if q in d.finals else 0) for q in order}
    ncls = len(set(cls.values()))
    while True:
        sigs = {}
        new = {}
        for q in order:
            key = (cls[q], *(cls[t.map[q]] for t in d.deltas))
            new[q] = sigs.setdefault(key, len(sigs))
        if len(sigs) == ncls:
            cls = new
            break
        cls, ncls = new, len(sigs)

    rep = {}
    for q in order:
        rep.setdefault(cls[q], q)
    corder = [cls[d.initial]]
    cseen = {cls[d.initial]}
    for c in corder:
        q = rep[c]
        for t in d.deltas:
            c2 = cls[t.map[q]]
            if c2 not in cseen:
                cseen.add(c2)
                corder.append(c2)
    renum = {c: i for i, c in enumerate(corder)}
    nn = len(corder)
    deltas = tuple(
        Transformation(tuple(renum[cls[t.map[rep[c]]]] for c in corder))
        for t in d.deltas
    )
    finals = StateSet(nn, (renum[c] for c in corder if rep[c] in d.finals))
    return Dfa(nn, d.alphabet, deltas, 0, finals)
