"""Order-free subsets of a finite state universe, backed by bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DegreeMismatchError


class StateSet:
    """An immutable subset of the states {0..n-1} of an n-state universe.

    Equality is extensional (same universe, same members).  Set algebra
    (union, intersection, difference, complement) is defined with respect
    to the universe, so two StateSets can only be combined when their
    universes agree.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, members: Iterable[int] = ()):
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        bits = 0
        for q in members:
            if not 0 <= q < n:
                raise ValueError(f"state {q} out of range for universe of size {n}")
            bits |= 1 << q
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "StateSet":
        if bits < 0 or bits >> n:
            raise ValueError(f"bitmask {bits:#x} out of range for universe of size {n}")
        s = cls.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "bits", bits)
        return s

    @classmethod
    def empty(cls, n: int) -> "StateSet":
        return cls.from_bits(n, 0)

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls.from_bits(n, (1 << n) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("StateSet is immutable")

    def members(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if self.bits >> q & 1)

    def __iter__(self) -> Iterator[int]:
        b = self.bits
        while b:
            low = b & -b
            yield low.bit_length() - 1
            b ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, q: int) -> bool:
        return 0 <= q < self.n and bool(self.bits >> q & 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def _check(self, other: "StateSet") -> None:
        if not isinstance(other, StateSet):
            raise TypeError(f"expected StateSet, got {type(other).__name__}")
        if other.n != self.n:
            raise DegreeMismatchError(f"universe mismatch: {self.n} vs {other.n}")

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet.from_bits(self.n, self.bits | other.bits)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet.from_bits(self.n, self.bits & other.bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet.from_bits(self.n, self.bits & ~other.bits)

    def complement(self) -> "StateSet":
        return StateSet.from_bits(self.n, ~self.bits & ((1 << self.n) - 1))

    def issubset(self, other: "StateSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def issuperset(self, other: "StateSet") -> bool:
        self._check(other)
        return other.bits & ~self.bits == 0

    __le__ = issubset
    __ge__ = issuperset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSet) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def label(self) -> str:
        """Compact rendering: "012" for {0,1,2} (universes up to 10), "Φ" for ∅."""
        return format_subset_label(self)

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"StateSet({self.n}, {{{','.join(map(str, self.members()))}}})"


def format_subset_label(s: StateSet) -> str:
    """Render a state set the compact way: digit string for small universes."""
    if not s:
        return "Φ"
    if s.n <= 10:
        return "".join(str(q) for q in s.members())
    return "[" + ",".join(str(q) for q in s.members()) + "]"


def parse_subset_label(text: str, n: int) -> StateSet:
    """Inverse of :func:`format_subset_label`; also accepts "phi" and "{0,1}", checked alike."""
    text = text.strip()
    if text in ("Φ", "phi", "Phi", "PHI", "∅", ""):
        return StateSet.empty(n)
    if text[0] + text[-1] in ("[]", "{}"):
        body = text[1:-1].strip()
        tokens = [tok.strip() for tok in body.split(",")] if body else []
    else:
        tokens = list(text)
    if not all(tok.isdecimal() for tok in tokens):
        raise ValueError(f"cannot parse state-set label {text!r}")
    members = [int(tok) for tok in tokens]
    if len(set(members)) != len(members):
        raise ValueError(f"repeated state in label {text!r}")
    return StateSet(n, members)
