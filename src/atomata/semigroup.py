"""Transition semigroups, syntactic complexity, and word witnesses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .automata import Dfa, minimize
from .errors import ClosureCapError, DegreeMismatchError
from .transformations import Transformation, _check_degree_cap

# The closure holds each map as a byte string, so no degree past this.
MAX_BYTE_DEGREE = 256
# The most elements a closure may hold, |T_8|; the closure of the n = 8
# witness peaks near 1.5 GB of RSS.  It admits n^n closures up to n = 8;
# the full-semigroup test asks for at most 121 permutations.
MAX_CLOSURE = 8**8


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
    The closure is held as byte maps (byte q of a map is the image of
    state q); the ``Transformation`` objects and the map-to-position index
    are built the first time something reads them.
    """

    def __init__(
        self,
        n: int,
        alphabet: Sequence[str],
        maps: list[bytes],
        words: Optional[list[str]],
        generators: Sequence[Transformation] = (),
    ):
        self.n = n
        self.alphabet = tuple(alphabet)
        self.maps = maps
        self.words = words
        self.generators = tuple(generators)

    @cached_property
    def elements(self) -> list[Transformation]:
        return list(map(Transformation, self.maps))

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return dict(zip(self.maps, range(len(self.maps))))

    def _position(self, t: Transformation) -> Optional[int]:
        if not isinstance(t, Transformation) or t.n != self.n:
            return None
        return self._index.get(bytes(t.map))

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t: Transformation) -> bool:
        return self._position(t) is not None

    @property
    def is_full(self) -> bool:
        return len(self.maps) == self.n**self.n

    def witness(self, t: Transformation) -> Optional[str]:
        if self.words is None:
            raise ValueError("closure was computed without witnesses")
        i = self._position(t)
        return None if i is None else self.words[i]

    def word_witnesses(self) -> list[WordWitness]:
        if self.words is None:
            raise ValueError("closure was computed without witnesses")
        return [WordWitness(t, w) for t, w in zip(self.elements, self.words)]

    def rank_histogram(self) -> dict[int, int]:
        return dict(Counter(map(len, map(set, self.maps))))

    def summary(self) -> SemigroupSummary:
        return SemigroupSummary(
            n=self.n,
            size=len(self.maps),
            is_full=self.is_full,
            generator_count=len(self.generators),
            rank_histogram=self.rank_histogram(),
        )


def _close(
    maps: Sequence[Sequence[int]],
    limit: int,
    letters: Optional[Sequence[str]] = None,
) -> tuple[list[bytes], Optional[list[str]]]:
    """Breadth-first closure of maps under composition.

    Each map is held as a byte string (byte q is the image of q), so a
    product is one ``bytes.translate`` call.  Elements come in discovery
    order: the distinct generators, then each known element, in order,
    composed with every generator in turn, so the first word reaching an
    element is a shortest one.  The walk stops once ``limit`` elements are
    known; pass the largest size the closure can have.  A ``limit`` over
    ``MAX_CLOSURE`` is refused before any product.  When ``letters`` names
    the generators, the first word inducing each element comes back too.
    """
    if not maps:
        return [], None if letters is None else []
    n = len(maps[0])
    if n > MAX_BYTE_DEGREE:
        raise ClosureCapError(
            f"closure of degree {n}: byte maps hold degree at most {MAX_BYTE_DEGREE}"
        )
    if limit > MAX_CLOSURE:
        raise ClosureCapError(
            f"closure of degree {n} could reach {limit} elements, "
            f"over the bound of {MAX_CLOSURE}"
        )
    gens = list(map(bytes, maps))
    elements = list(dict.fromkeys(gens))
    words = None if letters is None else [letters[gens.index(g)] for g in elements]
    # translate table of a generator: byte v goes to g(v); the bytes past the
    # degree are never read
    tables = [g.ljust(256, b"\0") for g in gens]
    index = set(elements)
    # elements double as the breadth-first queue: each level is appended
    # after the one it extends
    for i, base in enumerate(elements):
        if len(elements) >= limit:
            break
        # word extended on the right by letter j: q goes to g(base(q))
        for j, table in enumerate(tables):
            comp = base.translate(table)
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
) -> tuple[list[bytes], Optional[list[str]]]:
    return _close(
        [t.map for _, t in generators],
        n**n,
        [a for a, _ in generators] if witnesses else None,
    )


def transition_semigroup(d: Dfa, *, witnesses: bool = False) -> TransitionSemigroup:
    """All transformations of the state set induced by non-empty words.

    The caller is expected to pass a minimal DFA (``syntactic_complexity``
    minimizes for you); the closure itself is well-defined either way.
    Past n = 8, where n^n exceeds ``MAX_CLOSURE``, it raises
    ``ClosureCapError``.
    """
    gens = list(zip(d.alphabet, d.deltas))
    maps, words = _closure(gens, d.n, witnesses=witnesses)
    return TransitionSemigroup(
        d.n, d.alphabet, maps, words, generators=dict.fromkeys(d.deltas)
    )


def syntactic_complexity(d: Dfa) -> int:
    """Size of the transition semigroup of the minimal DFA of the language.

    A full semigroup is recognised from its letters, so n^n comes without a
    closure; any other size is counted by closing the letters.
    """
    dm = minimize(d)
    if generates_full(dm.deltas, dm.n):
        return dm.n**dm.n
    return len(transition_semigroup(dm))


def semigroup_summary(d: Dfa) -> SemigroupSummary:
    """Summary computed on the minimal DFA; notes whether input was minimized."""
    dm = minimize(d)
    sg = transition_semigroup(dm)
    return replace(sg.summary(), minimized_input=dm.n != d.n)


# Beaumont & Peterson (Set-transitive permutation groups, Canad. J. Math. 1955): the groups
# transitive on k-subsets for every k are A_n, S_n, AGL(1,5), PGL(2,5), PGL(2,8), PΓL(2,8).
# With an odd permutation only S_n, AGL(1,5) (n = 5, order 20) and PGL(2,5) (n = 6, order 120).
def _set_transitive(perms: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the group the permutations of degree n generate is transitive on k-subsets
    for every k: whether the orbit of {0..k-1} has C(n, k) members for k <= n/2, the rest
    by complement.  Inverses are powers, so the orbit is walked under the generators."""
    tables = [[0] * (1 << n) for _ in perms]  # per permutation, each subset bitmask's image
    for p, image in zip(perms, tables):
        for s in range(1, 1 << n):  # s without its lowest state comes first
            image[s] = image[s & s - 1] | 1 << p[(s & -s).bit_length() - 1]
    for k in range(1, n // 2 + 1):
        orbit, seen = [(1 << k) - 1], {(1 << k) - 1}  # the breadth-first queue, as a set
        for s in orbit:
            for image in tables:
                if image[s] not in seen:
                    seen.add(image[s])
                    orbit.append(image[s])
        if len(orbit) != comb(n, k):
            return False
    return True


def _generates_full_raw(maps: Sequence[tuple[int, ...]], n: int) -> bool:
    """Whether the map tuples generate all n^n self-maps of {0..n-1}.

    For n >= 2 exactly when a map has rank n-1 and the permutations generate S_n (Howie,
    Fundamentals of Semigroup Theory, 1995; Ganyushkin & Mazorchuk, Classical Finite
    Transformation Semigroups, 2009): two are distinct (S_n is not cyclic for n >= 3), one
    is odd (an odd number of inversions), their group is set-transitive, and at n = 5 and 6
    its closure, asked for at most 121 elements, passes the order of the odd exception.
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
    if not has_rank_n1 or n > 2 and len(set(perms)) < 2:
        return False
    if not any(sum(a > b for a, b in combinations(p, 2)) & 1 for p in perms):
        return False
    order = {5: 20, 6: 120}.get(n)  # AGL(1,5) and PGL(2,5)
    return _set_transitive(perms, n) and (order is None or len(_close(perms, order + 1)[0]) > order)


def generates_full(gens: Iterable[Transformation], n: int) -> bool:
    """Whether the given transformations generate all n^n self-maps; no closure is asked
    for more than 121 elements (``_generates_full_raw``).  The degree cap bounds the
    orbit walk's tables of 2^n subsets per permutation letter."""
    _check_degree_cap(n)
    gens = list(gens)
    for t in gens:
        if t.n != n:
            raise DegreeMismatchError(f"generator degree {t.n} != {n}")
    if not gens:
        return False
    return _generates_full_raw([t.map for t in gens], n)


def word_for(d: Dfa, t: Transformation) -> Optional[str]:
    """First word (length, then alphabet order) inducing t, or None."""
    sg = transition_semigroup(d, witnesses=True)
    return sg.witness(t)
