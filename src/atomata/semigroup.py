"""Transition semigroups, syntactic complexity, and word witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .automata import Dfa, minimize
from .errors import ClosureCapError, DegreeMismatchError
from .transformations import Transformation

# Refuse closures whose worst case n^n would exceed this many elements.
DEFAULT_CLOSURE_CAP = 10**8


@dataclass(frozen=True)
class SemigroupSummary:
    """Headline numbers for a transition semigroup."""

    n: int
    size: int
    is_full: bool
    generator_count: int
    rank_histogram: dict[int, int] = field(compare=False)
    minimized_input: bool = False

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "size": self.size,
            "is_full": self.is_full,
            "generator_count": self.generator_count,
            "rank_histogram": {str(r): c for r, c in sorted(self.rank_histogram.items())},
            "minimized_input": self.minimized_input,
        }


@dataclass(frozen=True)
class WordWitness:
    """A non-empty word together with the transformation it induces."""

    transformation: Transformation
    word: str


class TransitionSemigroup:
    """Closure of the letter transformations under composition.

    Elements are listed in discovery order of the breadth-first walk over
    words (shorter words first, alphabet order within a length), so the
    witness attached to each element is the first word that induces it.
    """

    def __init__(
        self,
        n: int,
        alphabet: Sequence[str],
        elements: list[Transformation],
        words: Optional[list[str]],
        generators: Sequence[Transformation] = (),
        minimized_input: bool = False,
    ):
        self.n = n
        self.alphabet = tuple(alphabet)
        self.elements = elements
        self.words = words
        self.generators = tuple(generators)
        self.minimized_input = minimized_input
        self._index = {t.map: i for i, t in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t: Transformation) -> bool:
        return isinstance(t, Transformation) and t.map in self._index

    @property
    def is_full(self) -> bool:
        return len(self.elements) == self.n**self.n

    def witness(self, t: Transformation) -> Optional[str]:
        if self.words is None:
            raise ValueError("closure was computed without witnesses")
        i = self._index.get(t.map)
        return None if i is None else self.words[i]

    def word_witnesses(self) -> list[WordWitness]:
        if self.words is None:
            raise ValueError("closure was computed without witnesses")
        return [WordWitness(t, w) for t, w in zip(self.elements, self.words)]

    def rank_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for t in self.elements:
            hist[t.rank()] = hist.get(t.rank(), 0) + 1
        return hist

    def summary(self) -> SemigroupSummary:
        return SemigroupSummary(
            n=self.n,
            size=len(self.elements),
            is_full=self.is_full,
            generator_count=len(self.generators),
            rank_histogram=self.rank_histogram(),
            minimized_input=self.minimized_input,
        )


def _check_cap(n: int, cap: int) -> None:
    if n**n > cap:
        raise ClosureCapError(
            f"closure of degree {n} could reach {n**n} elements, over the cap {cap}; "
            "raise the cap to proceed"
        )


def _close(
    maps: Sequence[tuple[int, ...]],
    limit: int,
    letters: Optional[Sequence[str]] = None,
) -> tuple[list[tuple[int, ...]], Optional[list[str]]]:
    """Breadth-first closure of map tuples under composition.

    Elements come in discovery order: the distinct generators, then each
    known element, in order, composed with every generator in turn, so the
    first word reaching an element is a shortest one.  The walk stops once
    ``limit`` elements are known; pass the largest size the closure can
    have.  When ``letters`` names the generators, the first word inducing
    each element comes back too.
    """
    elements = list(dict.fromkeys(maps))
    words = None if letters is None else [letters[maps.index(g)] for g in elements]
    if elements and len(elements[0]) == 1:
        # degree 1: the one map (0,) is closed already, and itemgetter with
        # one index would return a scalar, not a tuple
        return elements, words
    index = set(elements)
    # elements double as the breadth-first queue: each level is appended
    # after the one it extends
    for i, base in enumerate(elements):
        if len(elements) >= limit:
            break
        # word extended on the right by letter j: q goes to g(base(q))
        after = itemgetter(*base)
        for j, g in enumerate(maps):
            comp = after(g)
            if comp not in index:
                index.add(comp)
                elements.append(comp)
                if words is not None:
                    words.append(words[i] + letters[j])
    return elements, words


def _closure(
    generators: Sequence[tuple[str, Transformation]],
    n: int,
    *,
    witnesses: bool,
    cap: int,
) -> tuple[list[Transformation], Optional[list[str]]]:
    _check_cap(n, cap)
    maps, words = _close(
        [t.map for _, t in generators],
        n**n,
        [a for a, _ in generators] if witnesses else None,
    )
    return [Transformation(m) for m in maps], words


def transition_semigroup(
    d: Dfa, *, witnesses: bool = False, cap: int = DEFAULT_CLOSURE_CAP
) -> TransitionSemigroup:
    """All transformations of the state set induced by non-empty words.

    The caller is expected to pass a minimal DFA (``syntactic_complexity``
    minimizes for you); the closure itself is well-defined either way.
    """
    gens = list(zip(d.alphabet, d.deltas))
    elements, words = _closure(gens, d.n, witnesses=witnesses, cap=cap)
    return TransitionSemigroup(
        d.n, d.alphabet, elements, words, generators=dict.fromkeys(d.deltas)
    )


def syntactic_complexity(d: Dfa, *, cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Size of the transition semigroup of the minimal DFA of the language.

    A full semigroup is recognised from its letters, so n^n comes without a
    closure; any other size is counted by closing the letters.
    """
    dm = minimize(d)
    if generates_full(dm.deltas, dm.n, cap=cap):
        return dm.n**dm.n
    return len(transition_semigroup(dm, cap=cap))


def semigroup_summary(d: Dfa, *, cap: int = DEFAULT_CLOSURE_CAP) -> SemigroupSummary:
    """Summary computed on the minimal DFA; notes whether input was minimized."""
    dm = minimize(d)
    sg = transition_semigroup(dm, cap=cap)
    return replace(sg.summary(), minimized_input=dm.n != d.n)


def _generates_full_raw(maps: Sequence[tuple[int, ...]], n: int) -> bool:
    """Whether the map tuples generate all n^n self-maps of {0..n-1}.

    For n >= 2 a set of maps generates T_n exactly when its permutations
    generate S_n and one of its maps has rank n-1 (Howie, Fundamentals of
    Semigroup Theory, 1995; Ganyushkin & Mazorchuk, Classical Finite
    Transformation Semigroups, 2009).  Only the permutations are closed, a
    group of at most n! elements instead of n^n.
    """
    if n == 1:
        return bool(maps)
    perms = []
    has_rank_n1 = False
    for m in maps:
        rank = len(set(m))
        if rank == n:
            perms.append(m)
        elif rank == n - 1:
            has_rank_n1 = True
    if not has_rank_n1:
        return False
    order = factorial(n)
    return len(_close(perms, order)[0]) == order


def generates_full(
    gens: Iterable[Transformation], n: int, *, cap: int = DEFAULT_CLOSURE_CAP
) -> bool:
    """Whether the given transformations generate all n^n self-maps."""
    gens = list(gens)
    for t in gens:
        if t.n != n:
            raise DegreeMismatchError(f"generator degree {t.n} != {n}")
    if not gens:
        return False
    _check_cap(n, cap)
    return _generates_full_raw([t.map for t in gens], n)


def word_for(
    d: Dfa, t: Transformation, *, cap: int = DEFAULT_CLOSURE_CAP
) -> Optional[str]:
    """First word (length, then alphabet order) inducing t, or None."""
    sg = transition_semigroup(d, witnesses=True, cap=cap)
    return sg.witness(t)
