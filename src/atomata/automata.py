"""Complete DFAs, NFAs, and the constructions connecting them.

Conventions used throughout:

* determinization keeps only subsets reachable from the initial subset,
  breadth-first with letters in alphabet order, but the empty subset (the
  Φ state), if reached, is kept as an ordinary non-final sink;
* minimization returns the canonical form: states numbered breadth-first
  from the initial state with letters in alphabet order, so isomorphic
  minimal DFAs are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable

from .errors import UnknownLetterError
from .stateset import StateSet
from .transformations import Transformation, compose, identity

Word = Iterable[str]  # sequence of letter names; a plain str iterates per character


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: one total transformation of {0..n-1} per letter."""

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

    def successors(self, q, a: str) -> frozenset:
        if a not in self.alphabet:
            raise UnknownLetterError(f"letter {a!r} not in alphabet {list(self.alphabet)}")
        return self.eta[(q, a)]


def reverse(m: Dfa | Nfa) -> Nfa:
    """Swap initial and final states and flip every transition."""
    if isinstance(m, Dfa):
        states = tuple(range(m.n))
        eta: dict = {}
        for ai, a in enumerate(m.alphabet):
            t = m.deltas[ai]
            pre: dict[int, set[int]] = {q: set() for q in states}
            for q in states:
                pre[t.map[q]].add(q)
            for q in states:
                eta[(q, a)] = frozenset(pre[q])
        return Nfa(states, m.alphabet, eta, frozenset(m.finals.members()), frozenset({m.initial}))
    if isinstance(m, Nfa):
        eta = {(q, a): set() for q in m.states for a in m.alphabet}
        for (p, a), targets in m.eta.items():
            for q in targets:
                eta[(q, a)].add(p)
        eta = {k: frozenset(v) for k, v in eta.items()}
        return Nfa(m.states, m.alphabet, eta, m.finals, m.initials)
    raise TypeError(f"cannot reverse {type(m).__name__}")


def determinize(m: Nfa, initials: Iterable | None = None) -> Dfa:
    """Subset construction from the initial set; keeps subset labels.

    ``initials``, when given, is the initial set in place of ``m.initials``.
    State i of the result carries ``labels[i]``, the frozenset of NFA states
    it stands for.  The empty subset, if reached, stays as a non-final sink.
    The walk numbers the NFA's states by their position in ``m.states`` and
    runs on bitmasks over those numbers; the labels are built at the end.
    """
    states = m.states
    width = len(states)
    bit = {q: 1 << i for i, q in enumerate(states)}
    # the successors of a state under every letter packed in one int, letter
    # a in bits a*width.., keyed by the state's own bit
    packed = {}
    for q in states:
        union = 0
        shift = 0
        for a in m.alphabet:
            union |= sum(map(bit.__getitem__, m.eta[(q, a)])) << shift
            shift += width
        packed[bit[q]] = union
    shifts = range(0, len(m.alphabet) * width, width)
    full = (1 << width) - 1
    if initials is None:
        initials = m.initials
    else:
        initials = frozenset(initials)
        if not bit.keys() >= initials:
            raise ValueError("initial states must be states")
    init = sum(map(bit.__getitem__, initials))
    order = [init]
    index = {init: 0}
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
    n = len(order)
    fmask = sum(map(bit.__getitem__, m.finals))
    # a label is the union of the frozensets of the mask's 8-bit chunks, each
    # built once; set union reuses the members' stored hashes, where building
    # every label from its members would hash them again
    chunks: dict[int, frozenset] = {}
    labels = []
    for s in order:
        parts = []
        while s:
            low = s & -s
            chunk = s & low * 255
            s ^= chunk
            part = chunks.get(chunk)
            if part is None:
                i = low.bit_length() - 1
                part = chunks[chunk] = frozenset(
                    q for j, q in enumerate(states[i : i + 8]) if chunk >> i + j & 1
                )
            parts.append(part)
        labels.append(parts[0] if len(parts) == 1 else frozenset().union(*parts))
    finals = StateSet(n, (i for i, s in enumerate(order) if s & fmask))
    return Dfa(
        n, m.alphabet, tuple(map(Transformation, cols)), 0, finals, labels=tuple(labels)
    )


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA: language-equivalent, reachable, no equal states.

    Partition refinement, then breadth-first renumbering of the classes
    reachable from the initial one; the result is the same object for any
    two language-equal inputs over the same alphabet.
    """
    maps = [t.map for t in d.deltas]
    fbits = d.finals.bits
    # Moore refinement over every state: unreachable ones only add classes
    # that the renumbering below never reaches
    cls = [fbits >> q & 1 for q in range(d.n)]
    ncls = len(set(cls))
    while True:
        # a state's signature: its class, then its successors' classes
        keys = list(zip(cls, *[[cls[r] for r in m] for m in maps]))
        sigs = dict(zip(dict.fromkeys(keys), count()))
        cls = list(map(sigs.__getitem__, keys))
        # stable once no class splits, or once every class is one state
        if len(sigs) == ncls or len(sigs) == d.n:
            break
        ncls = len(sigs)

    # equal states have equal successors' classes, so any member of a class
    # can stand for it
    rep = dict(zip(cls, range(d.n)))
    corder = [cls[d.initial]]
    renum = {corder[0]: 0}
    for c in corder:
        q = rep[c]
        for m in maps:
            c2 = cls[m[q]]
            if c2 not in renum:
                renum[c2] = len(corder)
                corder.append(c2)
    nn = len(corder)
    deltas = tuple(
        Transformation(tuple([renum[cls[m[rep[c]]]] for c in corder])) for m in maps
    )
    finals = StateSet(nn, (renum[c] for c in corder if fbits >> rep[c] & 1))
    return Dfa(nn, d.alphabet, deltas, 0, finals)


def quotient_complexity(d: Dfa) -> int:
    """Number of distinct left quotients of the language: the minimal state count."""
    return minimize(d).n


def is_minimal(d: Dfa) -> bool:
    return minimize(d).n == d.n


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """Whether two DFAs have identical structure up to renaming of states.

    Inputs are minimized first; a parallel breadth-first traversal then
    builds the state bijection or fails.
    """
    d1 = minimize(d1)
    d2 = minimize(d2)
    if d1.n != d2.n or d1.alphabet != d2.alphabet:
        return False
    if (d1.initial in d1.finals) != (d2.initial in d2.finals):
        return False
    mapping = {d1.initial: d2.initial}
    queue = deque([(d1.initial, d2.initial)])
    while queue:
        p, q = queue.popleft()
        for t1, t2 in zip(d1.deltas, d2.deltas):
            p2, q2 = t1.map[p], t2.map[q]
            if p2 in mapping:
                if mapping[p2] != q2:
                    return False
            else:
                if (p2 in d1.finals) != (q2 in d2.finals):
                    return False
                mapping[p2] = q2
                queue.append((p2, q2))
    return len(set(mapping.values())) == len(mapping)


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
