"""Atoms of a regular language and the atomaton that organizes them.

An atom is a non-empty intersection that takes each left quotient of the
language either plain or complemented; it is identified here by the set S
of states (= quotients) taken plain.  The atomaton is the NFA whose states
are the atoms; it is built as reverse → determinize → reverse of the
minimal DFA, carrying the subset labels through, which lands each atom on
its label S, held as the bitmask S.bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .automata import Dfa, Nfa, Word, determinize, minimize, reverse
from .bounds import max_atom_complexity
from .errors import NotAnAtomError, UnknownLetterError
from .stateset import StateSet


@dataclass
class Atomaton:
    """NFA over atoms; treat as immutable.

    ``nfa`` has one state per atom, the bitmask ``S.bits`` of its label S of
    plain quotients: the numbering of the collection walks.  Initial states
    are the atoms whose intersection keeps the language itself plain (q0 in
    S); the single final state is the atom of the final-state set F, which
    is Φ when the language is empty.  ``states``, ``initials``, ``finals``,
    ``eta`` and ``has_atom`` speak in StateSets over the n quotients.
    """

    n: int
    alphabet: tuple[str, ...]
    source: Dfa  # the minimal DFA the atomaton was built from
    nfa: Nfa

    def _labels(self, masks) -> frozenset:
        return frozenset(StateSet.from_bits(self.n, m) for m in masks)

    @property
    def states(self) -> tuple[StateSet, ...]:
        return tuple(sorted(self._labels(self.nfa.states), key=lambda s: (len(s), s.members())))

    @property
    def initials(self) -> frozenset:
        return self._labels(self.nfa.initials)

    @property
    def finals(self) -> frozenset:
        return self._labels(self.nfa.finals)

    def eta(self, s: StateSet, a: str) -> frozenset:
        if a not in self.alphabet:
            raise UnknownLetterError(f"letter {a!r} not in alphabet {list(self.alphabet)}")
        if not self.has_atom(s):
            raise NotAnAtomError(f"{s} does not label an atom")
        return self._labels(self.nfa.eta[(s.bits, a)])

    def has_atom(self, s: StateSet) -> bool:
        # bitmasks collide across universes: {0} has bits 1 for every n
        return s.n == self.n and (s.bits, self.alphabet[0]) in self.nfa.eta


@dataclass(frozen=True)
class AtomReport:
    """Everything measured about one atom."""

    label: StateSet
    r: int  # number of complemented quotients, n - |S|
    is_negative: bool
    is_initial: bool
    is_final: bool
    complexity: int
    bound: int
    is_maximal: bool

    def to_dict(self) -> dict:
        return {
            "atom": self.label.label(),
            "r": self.r,
            "is_negative": self.is_negative,
            "is_initial": self.is_initial,
            "is_final": self.is_final,
            "complexity": self.complexity,
            "bound": self.bound,
            "is_maximal": self.is_maximal,
        }


def build_atomaton(d: Dfa) -> Atomaton:
    """Reverse, determinize, reverse again; number each atom by its label's bitmask."""
    dm = minimize(d)
    if dm.n == d.n:
        dm = d  # already minimal: atom labels keep the caller's numbering
    drd = determinize(reverse(dm))
    assert drd.labels is not None
    masks = tuple(sum(1 << q for q in lab) for lab in drd.labels)

    rev = reverse(drd)  # NFA over drd's state indices
    eta = {
        (masks[q], a): frozenset(masks[p] for p in rev.eta[(q, a)])
        for q in range(drd.n)
        for a in drd.alphabet
    }
    initials = frozenset(masks[q] for q in rev.initials)
    # the final state is the atom containing the empty word, labeled by the
    # final-state set F; when L is empty that is the negative atom
    finals = frozenset(masks[q] for q in rev.finals)
    nfa = Nfa(masks, drd.alphabet, eta, initials, finals)
    return Atomaton(n=dm.n, alphabet=drd.alphabet, source=dm, nfa=nfa)


def _resolve_label(am: Atomaton, s: StateSet) -> StateSet:
    if s.n != am.n:
        raise NotAnAtomError(f"{s!r} lives in a universe of size {s.n}, expected {am.n}")
    if not am.has_atom(s):
        raise NotAnAtomError(f"{s.label()} does not label an atom of this language")
    return s


def atom_minimal_dfa(d: Dfa, s: StateSet, *, _atomaton: Optional[Atomaton] = None) -> Dfa:
    """Minimal DFA of the atom labeled s.

    Determinizes the atomaton started at {s}; that determinization is
    expected to already be minimal (atoms are disjoint, so distinct
    collections of them have distinct unions).  A mismatch is reported as a
    diagnostic warning and the minimized automaton is returned regardless.
    """
    am = _atomaton if _atomaton is not None else build_atomaton(d)
    s = _resolve_label(am, s)
    det = determinize(am.nfa, initials=[s.bits])
    mini = minimize(det)
    if mini.n != det.n:
        warnings.warn(
            f"atom {s.label()}: determinization had {det.n} states but minimizes "
            f"to {mini.n}; returning the minimized DFA",
            RuntimeWarning,
            stacklevel=2,
        )
    return mini


def atom_quotient_complexity(d: Dfa, s: StateSet) -> int:
    return atom_minimal_dfa(d, s).n


def atoms_of(d: Dfa) -> list[AtomReport]:
    """One report per atom, ordered by (|S|, members).

    The negative atom (all quotients complemented), when the language has
    one, is included and flagged; its label is the empty set.
    """
    am = build_atomaton(d)
    dm = am.source
    n = am.n
    nonempty = bool(dm.finals)
    reports = []
    for s in am.states:
        r = n - len(s)
        complexity = atom_minimal_dfa(d, s, _atomaton=am).n
        bound = max_atom_complexity(n, r)
        reports.append(
            AtomReport(
                label=s,
                r=r,
                is_negative=not s,
                is_initial=s.bits in am.nfa.initials,
                # no atom is flagged final for the empty language (the atom
                # containing the empty word would be the negative one)
                is_final=s.bits in am.nfa.finals and nonempty,
                complexity=complexity,
                bound=bound,
                is_maximal=complexity == bound,
            )
        )
    return reports


def atom_count(d: Dfa) -> int:
    """Number of atoms: the state count of the determinized reversal."""
    return determinize(reverse(minimize(d))).n


def _reachable_collections(etas, start: int, successors: Optional[dict] = None) -> list[int]:
    """Collections of atoms reachable from ``start`` in the determinized
    atomaton, in breadth-first order from ``start`` itself.

    A collection is a mask with bit S set for each member atom S, and
    ``etas[a][S]`` is the mask of atom S's successors under letter a.  The
    count is the quotient complexity of the atom when ``start`` = 1 << S:
    the determinization is already minimal because atoms are disjoint and
    non-empty.  ``successors``, when given, maps each collection met so
    far to its successors, one per letter; walks from several starts over
    the same ``etas`` can share it, so each collection's successors are
    computed once.
    """
    if successors is None:
        successors = {}
    seen = {start}
    order = [start]
    for cm in order:
        nxts = successors.get(cm)
        if nxts is None:
            nxts = []
            for eta in etas:
                nxt = 0
                m = cm
                while m:
                    b = m & -m
                    nxt |= eta[b.bit_length() - 1]
                    m ^= b
                nxts.append(nxt)
            successors[cm] = nxts
        for nxt in nxts:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def membership_in_atom(d: Dfa, s: StateSet, w: Word) -> bool:
    """Direct definition check: w belongs to quotient K_i exactly for i in s.

    Runs the minimal DFA from every state; no atomaton involved, which makes
    this the independent oracle for the constructions above.
    """
    dm = minimize(d)
    if dm.n == d.n:
        dm = d
    if s.n != dm.n:
        raise ValueError(f"state set universe {s.n} does not match {dm.n} quotients")
    w = list(w)
    for i in range(dm.n):
        if (dm.run(w, start=i) in dm.finals) != (i in s):
            return False
    return True
