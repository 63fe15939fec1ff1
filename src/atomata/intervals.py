"""Interval calculus for atomaton transitions of maximal-complexity languages.

When a language's transition semigroup is the full one (size n^n), the
atomaton's transition function sends every state set to an *interval*
[V,U] = {T : V ⊆ T ⊆ U} (or to nothing), and whole intervals map to
intervals.  Walking collections of state sets interval-by-interval and
counting what is reachable reproduces the atom complexity bounds; every
step of the walk re-verifies that the collection really is an interval, so
the walk doubles as an executable check of the closed-form rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Optional

from .atoms import _reachable_collections, _resolve_label, build_atomaton
from .automata import Dfa, Word, minimize
from .bounds import max_atom_complexity
from .errors import FullSemigroupError, IntervalConsistencyError
from .semigroup import generates_full
from .stateset import StateSet
from .transformations import Transformation, apply_to_set, coimage, is_preimage


@dataclass(frozen=True)
class Interval:
    """The collection of all sets between lower and upper, inclusive."""

    lower: StateSet
    upper: StateSet

    def __post_init__(self):
        if self.lower.n != self.upper.n:
            raise ValueError("interval bounds must share a universe")

    @property
    def n(self) -> int:
        return self.lower.n

    @property
    def is_empty(self) -> bool:
        return not self.lower.issubset(self.upper)

    @property
    def type(self) -> Optional[tuple[int, int]]:
        """(|V|, |U|) for a non-empty interval; empty intervals have no type."""
        if self.is_empty:
            return None
        return (len(self.lower), len(self.upper))

    def size(self) -> int:
        if self.is_empty:
            return 0
        return 1 << (len(self.upper) - len(self.lower))

    def __contains__(self, s: StateSet) -> bool:
        return (
            s.n == self.n
            and not self.is_empty
            and self.lower.issubset(s)
            and s.issubset(self.upper)
        )

    def members(self) -> Iterator[StateSet]:
        """All member sets, by ascending bit pattern."""
        if self.is_empty:
            return
        lo, hi = self.lower.bits, self.upper.bits
        free = hi & ~lo
        sub = 0
        while True:
            yield StateSet.from_bits(self.n, lo | sub)
            if sub == free:
                return
            sub = (sub - free) & free

    def __repr__(self) -> str:
        return f"Interval[{self.lower.label()},{self.upper.label()}]"


@lru_cache(maxsize=1024)
def _require_full(d: Dfa) -> None:
    """Raise unless d is minimal with a full transition semigroup."""
    if minimize(d).n != d.n:
        raise FullSemigroupError(
            f"DFA is not minimal ({d.n} states, {minimize(d).n} needed); "
            "interval rules apply to minimal DFAs with full semigroup"
        )
    if not generates_full(d.deltas, d.n):
        raise FullSemigroupError(
            f"transition semigroup is not the full one of {d.n ** d.n} elements; "
            "interval rules require maximal syntactic complexity"
        )


def eta_letter(d: Dfa, s: StateSet, a: str) -> Optional[Interval]:
    """Atomaton transition of a single state set under one letter.

    [t(S), t(S) ∪ coim t] when S is a preimage of the letter's
    transformation t, otherwise None (the empty collection).
    """
    _require_full(d)
    t = d.delta(a)
    if not is_preimage(t, s):
        return None
    lo = apply_to_set(t, s)
    return Interval(lo, lo | coimage(t))


def _check_interval_preimages(t: Transformation, iv: Interval) -> None:
    """Verify that every member of iv is a preimage of t, or raise.

    Members are enumerated: callers run ``_require_full`` first, whose
    full-semigroup test closes n! permutations under the closure bound and
    so keeps n <= 10; an interval has at most 2^10 members.
    """
    for member in iv.members():
        if not is_preimage(t, member):
            raise FullSemigroupError(f"{member.label()} in {iv!r} is not a preimage of {t}")


def eta_letter_on_interval(d: Dfa, iv: Interval, a: str) -> Optional[Interval]:
    """Atomaton transition of a whole interval under one letter.

    Requires every member of the interval to be a preimage of the letter's
    transformation; the image is then [t(V), t(U) ∪ coim t].
    """
    _require_full(d)
    if iv.is_empty:
        return None
    t = d.delta(a)
    _check_interval_preimages(t, iv)
    return Interval(
        apply_to_set(t, iv.lower),
        apply_to_set(t, iv.upper) | coimage(t),
    )


def eta_word_perm(d: Dfa, iv: Interval, w: Word) -> Interval:
    """Atomaton transition of an interval under a word inducing a permutation.

    Permutations relabel: [V,U] goes to [t(V), t(U)].
    """
    _require_full(d)
    t = d.transform_of_word(w)
    if not t.is_permutation():
        raise ValueError(f"word {''.join(w)!r} induces {t}, not a permutation")
    return Interval(apply_to_set(t, iv.lower), apply_to_set(t, iv.upper))


def _interval_of_mask(n: int, cm: int) -> tuple[int, int]:
    """(V,U) bits of a collection mask, raising unless it is a full interval."""
    lo = (1 << n) - 1
    hi = 0
    count = 0
    m = cm
    while m:
        b = m & -m
        t_bits = b.bit_length() - 1
        lo &= t_bits
        hi |= t_bits
        count += 1
        m ^= b
    if count != 1 << (hi & ~lo).bit_count():
        raise IntervalConsistencyError(
            f"reachable collection {cm:#x} of {count} sets is not the interval "
            f"[{lo:#x},{hi:#x}]; the closed-form transition rule is violated"
        )
    return lo, hi


def _interval_walk(d: Dfa, s: StateSet) -> tuple[int, set[tuple[int, int]], bool]:
    """Breadth-first walk over collections from {s}; see interval_reach_count."""
    _require_full(d)
    am = build_atomaton(d)
    _resolve_label(am, s)
    nfa = am.nfa
    etas = [{q: sum(1 << p for p in nfa.eta[(q, a)]) for q in nfa.states} for a in am.alphabet]
    collections = _reachable_collections(etas, 1 << s.bits)
    types: set[tuple[int, int]] = set()
    for cm in collections:
        if cm:
            lo, hi = _interval_of_mask(am.n, cm)
            types.add((lo.bit_count(), hi.bit_count()))
    return len(collections), types, 0 in collections


def interval_reach_count(d: Dfa, s: StateSet) -> int:
    """Number of collections reachable from {s} in the determinized atomaton.

    Every step applies the exact collection-to-collection map of the subset
    construction; each reached collection is verified to be an interval (or
    the empty sink, counted once).  On full-semigroup inputs this equals the
    quotient complexity of the atom labeled s.
    """
    count, _, _ = _interval_walk(d, s)
    return count


def interval_reach_types(d: Dfa, s: StateSet) -> set[tuple[int, int]]:
    """Types (|V|,|U|) of the intervals reachable from {s} (sink excluded)."""
    _, types, _ = _interval_walk(d, s)
    return types


def interval_reach_report(d: Dfa, s: StateSet) -> dict:
    """Count, sorted type list, and sink flag from one walk, JSON-friendly."""
    count, types, sink = _interval_walk(d, s)
    return {
        "atom": s.label(),
        "count": count,
        "types": sorted(types),
        "sink": sink,
    }


def type_reachability(n: int, s: int) -> set[tuple[int, int]]:
    """Closure of {(s,s)} under (v,u) -> (v-1,u) for v >= 2 and (v,u) -> (v,u+1)
    for u <= n-2: the interval types reachable from [S,S] with |S| = s."""
    if not 0 <= s <= n:
        raise ValueError(f"s must be in 0..{n}, got {s}")
    seen = {(s, s)}
    stack = [(s, s)]
    while stack:
        v, u = stack.pop()
        if v >= 2 and (v - 1, u) not in seen:
            seen.add((v - 1, u))
            stack.append((v - 1, u))
        if u <= n - 2 and (v, u + 1) not in seen:
            seen.add((v, u + 1))
            stack.append((v, u + 1))
    return seen


def count_from_types(n: int, s: int) -> int:
    """Predicted atom complexity from reachable interval types.

    Sums C(n,u)*C(u,v) over the reachable types, plus one for the empty sink
    exactly when 0 < n-s < n.  The result is asserted against the closed-form
    bound rather than assumed.
    """
    types = type_reachability(n, s)
    total = sum(comb(n, u) * comb(u, v) for v, u in types)
    r = n - s
    if 0 < r < n:
        total += 1
    expected = max_atom_complexity(n, r)
    if total != expected:
        raise IntervalConsistencyError(
            f"type count {total} for n={n}, s={s} does not match the bound {expected}"
        )
    return total
