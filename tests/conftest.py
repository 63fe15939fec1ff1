import itertools
import random

import pytest

from atomata import Dfa, Nfa, StateSet, Transformation, determinize, minimize, reverse
from atomata.search import (
    _admit,
    _make_dfa,
    all_maps,
    example1,
    random_dfa,
    witness_max_semigroup,
)
from atomata.errors import ClosureCapError
from atomata.semigroup import MAX_CLOSURE, _close, _generates_full_raw
from atomata.transformations import make_cycle, make_singular


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


def reference_draw(rng, n, k):
    """The sampling draw as ``random.Random.randrange`` makes it: a uniform
    map per letter, then a uniform final-set bitmask.  The oracle for
    ``search._draw``, which must give the same numbers from a seed."""
    maps = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    return maps, rng.randrange(1 << n)


def enumerate_dfas(n, k):
    """Every DFA with states {0..n-1}, k letters, initial 0, in lexicographic
    order: letter transformations vary first (leftmost slowest), then the
    final-state bitmask counts up.  Refused past the campaigns' cap."""
    _admit(n, k, "exhaustive")
    for combo in itertools.product(all_maps(n), repeat=k):
        for fbits in range(2**n):
            yield _make_dfa(n, k, combo, fbits)


def sample_full_semigroup_dfa(n, rng, *, k=3):
    """A random minimal DFA whose transition semigroup is all of T_n.

    Accept-reject: two random permutations plus a random singular map (plus
    uniform extra letters beyond three); accepted once the letters generate
    the full semigroup.  Finals are a uniform proper non-empty subset,
    which keeps the DFA minimal.
    """
    if n >= 3 and k < 3:
        raise ValueError(f"at least 3 letters are needed for a full semigroup at n={n}")
    if n < 2:
        return witness_max_semigroup(n)
    while True:
        maps = [tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))]
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        sing = list(range(n))
        sing[i] = j
        maps.append(tuple(sing))
        while len(maps) < k:
            maps.append(tuple(rng.randrange(n) for _ in range(n)))
        if _generates_full_raw(maps[:k], n):
            return _make_dfa(n, k, maps[:k], rng.randrange(1, 2**n - 1))


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


def alternating_witness(n):
    """Letters (0 1 2), the n-cycle for odd n or (1 2 ... n-1) for even n, and
    n-1 -> 0, as map tuples.  Both cycles are even, and they generate A_n."""
    cycle = range(n) if n % 2 else range(1, n)
    return tuple(
        t.map for t in (make_cycle(n, (0, 1, 2)), make_cycle(n, cycle), make_singular(n, n - 1, 0))
    )


def subset_of(m, mask):
    """The frozenset of ``m.states`` that a ``determinize`` label names: bit
    j of the mask stands for ``m.states[j]``."""
    return frozenset(q for j, q in enumerate(m.states) if mask >> j & 1)


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


def reference_atomaton_nfa(d):
    """The atomaton's NFA built by re-keying every arc of the second reversal
    by the middle DFA's subset bitmasks, as the package did before ``reverse``
    named a labelled DFA's states by its labels: the oracle for
    ``build_atomaton``."""
    dm = minimize(d)
    if dm.n == d.n:
        dm = d
    drd = determinize(reverse(dm))
    masks = drd.labels
    rev = reverse(Dfa(drd.n, drd.alphabet, drd.deltas, drd.initial, drd.finals))
    eta = {
        (masks[q], a): frozenset(masks[p] for p in rev.eta[(q, a)])
        for q in range(drd.n)
        for a in drd.alphabet
    }
    initials = frozenset(masks[q] for q in rev.initials)
    finals = frozenset(masks[q] for q in rev.finals)
    return Nfa(masks, drd.alphabet, eta, initials, finals)


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
