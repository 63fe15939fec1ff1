"""Complete DFAs, NFAs, and the constructions connecting them.

Conventions used throughout:

* determinization keeps only subsets reachable from the initial subset,
  breadth-first with letters in alphabet order, but the empty subset (the
  Φ state), if reached, is kept as an ordinary non-final sink;
* minimization returns the canonical form: states numbered breadth-first
  from the initial state with letters in alphabet order, so isomorphic
  minimal DFAs are equal.

Each construction is one raw kernel on maps and bitmasks (``_subset_walk``,
``_minimal_maps``) under an object wrapper (``determinize``, ``minimize``) that
builds the Dfa from its result; the prop campaigns call the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterable

from .errors import UnknownLetterError
from .stateset import StateSet
from .transformations import Transformation, compose, identity

Word = Iterable[str]  # sequence of letter names; a plain str iterates per character


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: one total transformation of {0..n-1} per letter.

    ``labels[i]``, when given, is the name of state i, which ``reverse``
    gives that state; ``determinize`` sets the labels to its subset bitmasks.
    """

    n: int
    alphabet: tuple[str, ...]
    deltas: tuple[Transformation, ...]
    initial: int
    finals: StateSet
    labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a DFA needs at least one state")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet letters must be distinct and non-empty")
        if any(not a for a in self.alphabet):
            raise ValueError("empty letter name")
        if len(self.deltas) != len(self.alphabet):
            raise ValueError("one transformation per letter required")
        for a, t in zip(self.alphabet, self.deltas):
            if t.n != self.n:
                raise ValueError(f"transformation for {a!r} has degree {t.n}, expected {self.n}")
        if not 0 <= self.initial < self.n:
            raise ValueError(f"initial state {self.initial} out of range")
        if self.finals.n != self.n:
            raise ValueError("final-state set universe does not match state count")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must align with states")

    def letter_index(self, a: str) -> int:
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise UnknownLetterError(f"letter {a!r} not in alphabet {list(self.alphabet)}") from None

    def delta(self, a: str) -> Transformation:
        return self.deltas[self.letter_index(a)]

    def step(self, q: int, a: str) -> int:
        return self.delta(a).map[q]

    def run(self, w: Word, start: int | None = None) -> int:
        q = self.initial if start is None else start
        for a in w:
            q = self.step(q, a)
        return q

    def transform_of_word(self, w: Word) -> Transformation:
        t = identity(self.n)
        for a in w:
            t = compose(self.delta(a), t)
        return t

@dataclass(eq=True)
class Nfa:
    """An NFA with initial-state *sets*; treat instances as immutable.

    ``eta`` maps every (state, letter) pair to a frozenset of successor
    states, possibly empty.  State labels can be any hashable values (the
    atomaton's are the ints ``S.bits`` of its atom labels S).
    """

    states: tuple
    alphabet: tuple[str, ...]
    eta: dict
    initials: frozenset
    finals: frozenset

    def __post_init__(self):
        if len(set(self.states)) != len(self.states) or not self.states:
            raise ValueError("states must be distinct and non-empty")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet letters must be distinct and non-empty")
        universe = set(self.states)
        if not set(self.initials) <= universe or not set(self.finals) <= universe:
            raise ValueError("initial/final states must be states")
        complete = {}
        for q in self.states:
            for a in self.alphabet:
                targets = frozenset(self.eta.get((q, a), ()))
                if not targets <= universe:
                    raise ValueError(f"transition from {q!r} on {a!r} leaves the state set")
                complete[(q, a)] = targets
        self.eta = complete
        self.initials = frozenset(self.initials)
        self.finals = frozenset(self.finals)


def reverse(m: Dfa | Nfa) -> Nfa:
    """Swap initial and final states and flip every arc.

    A Dfa's arcs are q —a→ δ_a(q), its states named by its ``labels`` (the
    subset bitmasks of a ``determinize`` output), else 0..n-1; an Nfa's are
    its ``eta`` entries.  The flipped arcs are gathered in one dict of sets,
    which ``Nfa`` completes and freezes.
    """
    if isinstance(m, Dfa):
        states = m.labels or tuple(range(m.n))
        arcs = {
            (p, a): (states[r],)
            for a, t in zip(m.alphabet, m.deltas)
            for p, r in zip(states, t.map)
        }
        initials, finals = tuple(map(states.__getitem__, m.finals)), (states[m.initial],)
    elif isinstance(m, Nfa):
        states, arcs, initials, finals = m.states, m.eta, m.finals, m.initials
    else:
        raise TypeError(f"cannot reverse {type(m).__name__}")
    eta = {(q, a): set() for q in states for a in m.alphabet}
    for (p, a), targets in arcs.items():
        for q in targets:
            eta[(q, a)].add(p)
    return Nfa(states, m.alphabet, eta, initials, finals)


def _reversal_table(n: int, maps) -> dict[int, int]:
    """What ``determinize(reverse(d))`` packs for a DFA with these letter maps:
    q's predecessors under letter a in bits a*n.., keyed by q's own bit."""
    packed = dict.fromkeys([1 << q for q in range(n)], 0)
    for shift, m in zip(range(0, len(maps) * n, n), maps):
        for p, r in enumerate(m):
            packed[1 << r] |= 1 << p + shift
    return packed


def _subset_walk(packed: dict[int, int], width: int, letters: int, init: int):
    """Subset construction over ``width`` states; ``packed[1 << j]`` holds j's
    successors, letter a in bits a*width...  Returns the subsets reachable from
    ``init`` in breadth-first order, and per letter each one's target index."""
    shifts = range(0, letters * width, width)
    full = (1 << width) - 1
    order, index = [init], {init: 0}
    cols: list[list[int]] = [[] for _ in shifts]
    for subset in order:
        union = 0
        while subset:
            low = subset & -subset
            union |= packed[low]
            subset ^= low
        for shift, col in zip(shifts, cols):
            target = union >> shift & full
            try:
                col.append(index[target])
            except KeyError:
                index[target] = len(order)
                col.append(len(order))
                order.append(target)
    return order, cols


def determinize(m: Nfa, initials: Iterable | None = None) -> Dfa:
    """Subset construction from the initial set; keeps subset labels.

    ``initials``, when given, is the initial set in place of ``m.initials``.
    The walk numbers the NFA's states by their position in ``m.states`` and
    runs on bitmasks over those numbers.  State i of the result carries
    ``labels[i]``, the bitmask of the subset it stands for: bit j stands for
    ``m.states[j]``.  The empty subset, if reached, stays as a non-final sink.
    """
    width = len(m.states)
    bit = {q: 1 << i for i, q in enumerate(m.states)}
    # q's successors under every letter in one int keyed by q's own bit, a in bits a*width..
    packed = {}
    for q in m.states:
        union = shift = 0
        for a in m.alphabet:
            union |= sum(map(bit.__getitem__, m.eta[(q, a)])) << shift
            shift += width
        packed[bit[q]] = union
    if initials is None:
        initials = m.initials
    else:
        initials = frozenset(initials)
        if not bit.keys() >= initials:
            raise ValueError("initial states must be states")
    order, cols = _subset_walk(packed, width, len(m.alphabet), sum(map(bit.__getitem__, initials)))
    n = len(order)
    fmask = sum(map(bit.__getitem__, m.finals))
    finals = StateSet(n, (i for i, s in enumerate(order) if s & fmask))
    return Dfa(n, m.alphabet, tuple(map(Transformation, cols)), 0, finals, labels=tuple(order))


def _minimal_maps(n: int, maps, fbits: int, initial: int = 0):
    """The canonical minimal DFA as ``(maps, fbits)``: Moore refinement over
    every state (unreachable ones only add classes that the renumbering never
    reaches), then breadth-first renumbering from the initial state's class."""
    cls = [fbits >> q & 1 for q in range(n)]
    ncls = len(set(cls))
    while True:
        # a state's signature: its class, then its successors' classes
        keys = list(zip(cls, *[[cls[r] for r in m] for m in maps]))
        sigs = dict(zip(dict.fromkeys(keys), count()))
        cls = list(map(sigs.__getitem__, keys))
        # stable once no class splits, or once every class is one state
        if len(sigs) == ncls or len(sigs) == n:
            break
        ncls = len(sigs)

    # equal states have equal successors' classes, so any member of a class
    # can stand for it
    rep = dict(zip(cls, range(n)))
    corder = [cls[initial]]
    renum = {corder[0]: 0}
    for c in corder:
        q = rep[c]
        for m in maps:
            c2 = cls[m[q]]
            if c2 not in renum:
                renum[c2] = len(corder)
                corder.append(c2)
    reps = [rep[c] for c in corder]
    finals = sum(1 << i for i, q in enumerate(reps) if fbits >> q & 1)
    return tuple(tuple([renum[cls[m[q]]] for q in reps]) for m in maps), finals


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA: language-equivalent, reachable, no equal states,
    numbered breadth-first, so any two language-equal inputs over the same
    alphabet give the same object."""
    maps, fbits = _minimal_maps(d.n, [t.map for t in d.deltas], d.finals.bits, d.initial)
    nn = len(maps[0])
    return Dfa(nn, d.alphabet, tuple(map(Transformation, maps)), 0, StateSet.from_bits(nn, fbits))


def quotient_complexity(d: Dfa) -> int:
    """Number of distinct left quotients of the language: the minimal state count."""
    return minimize(d).n


def is_minimal(d: Dfa) -> bool:
    return minimize(d).n == d.n


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """Whether two DFAs have identical structure up to renaming of states.

    Inputs are minimized first; canonical minimal DFAs are isomorphic iff equal.
    """
    return minimize(d1) == minimize(d2)


def accepts(m: Dfa | Nfa, w: Word) -> bool:
    """Run a word; unknown letters raise UnknownLetterError."""
    if isinstance(m, Dfa):
        return m.run(w) in m.finals
    if isinstance(m, Nfa):
        current = set(m.initials)
        for a in w:
            if a not in m.alphabet:
                raise UnknownLetterError(f"letter {a!r} not in alphabet {list(m.alphabet)}")
            current = {q2 for q in current for q2 in m.eta[(q, a)]}
        return bool(current & set(m.finals))
    raise TypeError(f"cannot run {type(m).__name__}")
