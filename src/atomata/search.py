"""Enumeration and sampling campaigns over DFA space.

The campaigns scan DFAs for two kinds of evidence: that maximal syntactic
complexity forces all 2^n atoms to exist at their complexity bounds
(zero violations expected), and that the converse fails (counterexample
findings expected).  Hot loops run on raw transition tuples and bitmasks;
findings and violations are re-expressed as ordinary Dfa values so every
stored record can be recomputed with the public API.  The tests check the
engine's kernels against oracles that share no code with them: the closure
against a plain worklist closure, minimality and the atom count against
``minimize`` and ``determinize(reverse(.))``, and the collection walk
against each atom's determinized atomaton (``atoms_of``).

Every campaign's preconditions are checked before any work (``_admit``).
Both campaigns run in two stages.  The letter stage holds the filter that
depends on the letter tuple alone (full semigroup or not) and runs once
per tuple.  Minimality comes next, with one kernel for every mode:
reachability and the pair graph decide all 2^n final sets of a tuple at
once (``_minimal_finals``), and a sampled draw reads its one final set off
that mask.  The final-set stage holds the filters that also depend on the
final states (the atom count, every atom at its bound) and runs on each
minimal DFA of a tuple that the letter stage let through, on the preimage
tables built once for the tuple.

The converse then asks the letters whether a minimal DFA with them is
maximally atomic, that is, has all 2^n atoms, each at its bound
(Brzozowski & Davies, Maximally atomic languages, AFL 2014).  That depends
on the letters alone, so a tuple the verdict rules out has its minimal
DFAs counted and none visited.  Only the DFAs it admits are walked atom by
atom, which confirms each finding and measures the complexities its record
carries; a DFA the letters admit but the walk refutes becomes a violation
record.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional

from .atoms import _reachable_collections
from .automata import Dfa, _minimal_maps, _reversal_table, _subset_walk
from .bounds import max_atom_complexities
from .document import serialize_dfa
from .errors import ClosureCapError, EnumerationCapError
from .semigroup import (
    MAX_CLOSURE, _close, _generates_full_raw, _set_transitive, syntactic_complexity
)
from .stateset import StateSet
from .transformations import Transformation, identity, make_cycle, make_singular

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"

# Exhaustive campaigns refuse to scan more DFAs than this: (4^4)^3 * 2^4,
# the count at n = 4, k = 3.
MAX_ENUM_DFAS = 1 << 28

# The largest n with n! <= MAX_CLOSURE: the full-semigroup test closes the permutation letters.
MAX_CAMPAIGN_N = 10

# Entries kept by each of the engine's per-letter-tuple caches.  Hits come
# only from the consecutive final-state sets of one letter tuple (sampled
# draws at n >= 4 repeat no tuple), so a handful keeps every hit.  Both
# caches stay while the benchmark's tracer reads their cache_info().
CACHE_MAXSIZE = 1 << 4


# ---------------------------------------------------------------------------
# records and reports


@dataclass(frozen=True)
class CampaignRecord:
    """One scanned DFA worth keeping, with every metric the scan computed.

    ``atom_complexities`` is the tuple the atom walk returned, atom S at index
    ``S.bits`` as in ``Atomaton.nfa``, or ``()`` if the scan measured no atom;
    ``to_dict``, the library form, attaches the labels; ``record_lines`` writes its JSON.
    """

    dfa: str  # canonical text document
    n: int
    alphabet_size: int
    syntactic_complexity: int
    atom_count: int
    atom_complexities: tuple[int, ...]  # indexed by the atom's bitmask
    is_maximal_atoms: bool
    timestamp: str
    campaign: str
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "type": "campaign-record",
            "dfa": self.dfa,
            "n": self.n,
            "alphabet_size": self.alphabet_size,
            "syntactic_complexity": self.syntactic_complexity,
            "atom_count": self.atom_count,
            "atom_complexities": dict(zip(_atom_labels(self.n), self.atom_complexities)),
            "is_maximal_atoms": self.is_maximal_atoms,
            "timestamp": self.timestamp,
            "campaign": self.campaign,
            "seed": self.seed,
        }


@dataclass
class CampaignReport:
    """Outcome of one campaign run; serializes to JSONL, summary line last."""

    campaign: str
    mode: str
    params: dict
    scanned: int = 0
    tested: int = 0
    violations: list[CampaignRecord] = field(default_factory=list)
    findings: list[CampaignRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    timestamp: str = ""
    # (scanned, tested, violations) at each finding of a run under a limit
    marks: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_dict(self) -> dict:
        return {
            "type": "campaign-summary",
            "campaign": self.campaign,
            "mode": self.mode,
            "params": self.params,
            "scanned": self.scanned,
            "tested": self.tested,
            "violations": len(self.violations),
            "findings": len(self.findings),
            "ok": self.ok,
            "timestamp": self.timestamp,
            **self.extra,
        }

    def record_lines(self) -> Iterator[str]:
        """Each record's JSONL line, violations first, with the bytes of
        ``json.dumps(rec.to_dict(), sort_keys=True)`` but from one template.
        Every string goes through ``json.dumps``; ``atom_complexities`` is
        encoded once per distinct tuple, and the record's own ``campaign``,
        ``timestamp`` and ``seed`` once per distinct triple."""
        dumps, encoded = json.dumps, {}
        for rec in itertools.chain(self.violations, self.findings):
            comps, head = (rec.n, rec.atom_complexities), (rec.campaign, rec.timestamp, rec.seed)
            if comps not in encoded:
                encoded[comps] = dumps(dict(zip(_atom_labels(rec.n), comps[1])), sort_keys=True)
            if head not in encoded:
                encoded[head] = tuple(map(dumps, head))
            campaign, timestamp, seed = encoded[head]
            yield _RECORD_LINE % (
                rec.alphabet_size, encoded[comps], rec.atom_count, campaign, dumps(rec.dfa),
                "true" if rec.is_maximal_atoms else "false", rec.n, seed,
                rec.syntactic_complexity, timestamp,
            )

    def to_jsonl_lines(self) -> Iterator[str]:
        yield from self.record_lines()
        yield json.dumps(self.summary_dict(), sort_keys=True)


# what json.dumps(rec.to_dict(), sort_keys=True) writes, for record_lines
_RECORD_LINE = (
    '{"alphabet_size": %d, "atom_complexities": %s, "atom_count": %d, "campaign": %s, "dfa": %s, '
    '"is_maximal_atoms": %s, "n": %d, "seed": %s, "syntactic_complexity": %d, "timestamp": %s, '
    '"type": "campaign-record"}'
)


def _now(timestamp: Optional[str]) -> str:
    if timestamp is not None:
        return timestamp
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# named witnesses


def example1() -> Dfa:
    """The 3-state, 4-letter DFA whose transition semigroup is all of T_3:
    a = (0,1), b = (1,2), c = (2->0), d = (Q->1), initial 0, final 2."""
    return Dfa(
        n=3,
        alphabet=("a", "b", "c", "d"),
        deltas=(
            Transformation((1, 0, 2)),
            Transformation((0, 2, 1)),
            Transformation((0, 1, 0)),
            Transformation((1, 1, 1)),
        ),
        initial=0,
        finals=StateSet(3, [2]),
    )


def witness_max_semigroup(n: int) -> Dfa:
    """An n-state DFA with syntactic complexity exactly n^n.

    Letters: a = (0,1), b = (0,1,...,n-1), c = (n-1 -> 0); degenerate
    letters collapse to the identity at n = 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        a = b = c = identity(1)
    else:
        a = make_cycle(n, (0, 1))
        b = make_cycle(n, range(n))
        c = make_singular(n, n - 1, 0)
    return Dfa(n, ("a", "b", "c"), (a, b, c), 0, StateSet(n, [n - 1]))


# ---------------------------------------------------------------------------
# enumeration and sampling


def _admit(n: int, k: int, mode: str, samples=None, limit=None) -> None:
    """Refuse a campaign run that cannot start, before any work; each
    message names the argument and its bound.  None leaves a count unset."""
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in (("n", n), ("samples", samples), ("limit", limit)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 1 <= k <= len(LETTER_NAMES):
        raise ValueError(f"k must be between 1 and {len(LETTER_NAMES)}, got {k}")
    if n > MAX_CAMPAIGN_N:
        raise ClosureCapError(
            f"n must be at most {MAX_CAMPAIGN_N}, got {n}: a group of units of degree {n} "
            f"could reach n! elements, over the closure bound of {MAX_CLOSURE}"
        )
    if mode == "exhaustive" and (count := (n**n) ** k * 2**n) > MAX_ENUM_DFAS:
        raise EnumerationCapError(
            f"exhaustive enumeration at n={n}, k={k} is over the cap: "
            f"estimated {count} DFAs, more than {MAX_ENUM_DFAS}"
        )


def all_maps(n: int) -> list[tuple[int, ...]]:
    """All n^n transformation map tuples of degree n, lexicographic."""
    return list(itertools.product(range(n), repeat=n))


def _maps_between(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """``all_maps(n)[lo:hi]`` without building the other maps: each map is
    the base-n digits of its high part joined to one of n^(n//2) tails."""
    tails = list(itertools.product(range(n), repeat=n // 2))
    width = len(tails)

    def block(high: int):
        head = tuple(high // n**j % n for j in reversed(range(n - n // 2)))
        return map(head.__add__, tails[max(lo - high * width, 0) : hi - high * width])

    return itertools.chain.from_iterable(map(block, range(lo // width, -(-hi // width))))


def _below(bits: Callable[[int], int], m: int) -> int:
    """``rng.randrange(m)``, or ``rng.randint(1, m) - 1``, bit for bit from ``rng.getrandbits``."""
    if m < 1:
        raise ValueError(f"empty range: no integer in [0, {m})")
    r = bits(width := m.bit_length())
    while r >= m:
        r = bits(width)
    return r


def _draw(bits: Callable[[int], int], n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Uniform letter maps, then a uniform final-set bitmask, from ``bits = rng.getrandbits``."""
    width, maps = n.bit_length(), []
    for _ in range(k):
        row = []
        for _ in range(n):
            r = bits(width)  # _below(bits, n), inlined
            while r >= n:
                r = bits(width)
            row.append(r)
        maps.append(tuple(row))
    return tuple(maps), _below(bits, 1 << n)


def random_dfa(rng: random.Random, n: int, k: int) -> Dfa:
    """Uniform over transition tuples and final sets; initial state 0.  Drawn through
    ``rng.getrandbits``, each number as ``rng.randrange`` would draw it from the same seed."""
    return _make_dfa(n, k, *_draw(rng.getrandbits, n, k))


def _make_dfa(n: int, k: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> Dfa:
    return Dfa(
        n,
        tuple(LETTER_NAMES[:k]),
        tuple(Transformation(m) for m in maps),
        0,
        StateSet.from_bits(n, fbits),
    )


# ---------------------------------------------------------------------------
# raw-tuple engine (hot loops; checked against independent oracles in tests)


# a function of its own because the tracer's search.closure metric reads it
@lru_cache(maxsize=CACHE_MAXSIZE)
def _closure_size(maps: tuple[tuple[int, ...], ...], n: int) -> int:
    """Size of the semigroup generated by the given map tuples."""
    return len(_close(maps, n**n)[0])


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The state pairs p < q; for each, the mask of the final sets (bit F
    for the final-set bitmask F) that contain exactly one of p and q; and
    the index of the pair {r, s} at r * n + s, or the pair count if r = s."""
    pairs = tuple(itertools.combinations(range(n), 2))
    splits = tuple(
        sum(1 << f for f in range(1 << n) if (f >> p ^ f >> q) & 1) for p, q in pairs
    )
    index = [len(pairs)] * (n * n)
    for i, (p, q) in enumerate(pairs):
        index[p * n + q] = index[q * n + p] = i
    return pairs, splits, tuple(index)


def _minimal_finals(n: int, maps: tuple[tuple[int, ...], ...]) -> int:
    """Mask over the 2^n final sets: bit F is set when the DFA with these
    letters, initial state 0 and final-set bitmask F is minimal: 0 when a
    state is unreachable from 0, and else the rule is the pair graph.

    A final set F tells states p != q apart iff some pair {r, s} that a
    word takes {p, q} to has exactly one member in F (F splits it).  So the
    final sets that tell p and q apart are the least fixed point of
    D(p, q) = split(p, q) | OR over letters a of D(a(p), a(q)), where a
    letter that maps p and q onto one state adds nothing.  The DFA is
    minimal iff F tells every pair apart: the AND of D over the C(n, 2)
    pairs, every final set when there are none.
    """
    seen, stack = 1, [0]
    while stack:
        q = stack.pop()
        for m in maps:
            r = m[q]
            if not seen >> r & 1:
                seen |= 1 << r
                stack.append(r)
    if seen != (1 << n) - 1:
        return 0
    pairs, splits, index = _pair_tables(n)
    collapsed = len(pairs)
    # D(p, q) takes in D(a(p), a(q)): one edge per letter
    edges = []
    for i, (p, q) in enumerate(pairs):
        for m in maps:
            j = index[m[p] * n + m[q]]
            if j != i and j != collapsed:
                edges.append((i, j))
    told = list(splits)
    while True:
        before = told.copy()
        for i, j in edges:
            told[i] |= told[j]
        if told == before:
            break
    mask = (1 << (1 << n)) - 1
    for d in told:
        mask &= d
    return mask


# sample mode's question, kept by name for the tracer's search.minimal metric
def _is_minimal_raw(n: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> bool:
    """Whether the DFA with final-set bitmask ``fbits`` is minimal."""
    return bool(_minimal_finals(n, maps) >> fbits & 1)


def _pre_tables(n: int, maps: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Per letter, the bitmask of the preimage of every subset T of states."""
    size = 1 << n
    tables = []
    for m in maps:
        pre = [0] * size
        for q in range(n):
            target_bit = 1 << m[q]
            qbit = 1 << q
            for t_bits in range(size):
                if t_bits & target_bit:
                    pre[t_bits] |= qbit
        tables.append(tuple(pre))
    return tuple(tables)


def _reach_subsets(n: int, pres: tuple[tuple[int, ...], ...], start_bits: int) -> int:
    """How many subsets the determinized reversal reaches from the final set."""
    seen = {start_bits}
    stack = [start_bits]
    while stack:
        s = stack.pop()
        for pre in pres:
            s2 = pre[s]
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
    return len(seen)


def _eta_tables(n: int, pres: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Per letter, the atomaton transition of each subset S as a collection
    mask over subsets T (bit T set iff the preimage of T is S).

    Valid whenever the atomaton has all 2^n subsets as states.
    """
    size = 1 << n
    tables = []
    for pre in pres:
        eta = [0] * size
        for t_bits in range(size):
            eta[pre[t_bits]] |= 1 << t_bits
        tables.append(eta)
    return tables


# cached, and read by the tracer's search.atom_walk metric
@lru_cache(maxsize=CACHE_MAXSIZE)
def _atom_complexities(pres: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """Quotient complexity of the atom labeled S, indexed by S's bitmask,
    from the letters' preimage tables (``_pre_tables``).

    Only meaningful when all 2^n subsets are atoms.
    """
    etas = _eta_tables(n, pres)
    successors: dict[int, list[int]] = {}
    return tuple(
        len(_reachable_collections(etas, 1 << s_bits, successors)) for s_bits in range(1 << n)
    )


def _maximally_atomic_raw(maps: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether a minimal DFA with these letters has all 2^n atoms, each at
    its complexity bound.

    Brzozowski & Davies (Maximally atomic languages, AFL 2014): it does
    exactly when one letter has rank n-1 and the group of units G, which
    the permutation letters generate, is transitive on the k-subsets of the
    states for every k (``_set_transitive``).  Unlike the full test, one
    permutation can pass: at n = 3 the 3-cycle generates A_3, which is
    transitive on 1- and 2-subsets.
    """
    ranks = [len(set(m)) for m in maps]
    if n - 1 not in ranks or n not in ranks:
        return False
    return _set_transitive([m for m, rank in zip(maps, ranks) if rank == n], n)


@lru_cache(maxsize=None)
def _atom_labels(n: int) -> tuple[str, ...]:
    """Label of the atom of each subset, indexed by the subset's bitmask."""
    return tuple(StateSet.from_bits(n, b).label() for b in range(1 << n))


# one call per record, read by the tracer's search.records metric
def _record_from_metrics(report: CampaignReport, d: Dfa, found: tuple) -> CampaignRecord:
    sc, atoms, comps, is_max = found
    return CampaignRecord(
        dfa=serialize_dfa(d),
        n=d.n,
        alphabet_size=len(d.alphabet),
        syntactic_complexity=sc,
        atom_count=atoms,
        atom_complexities=comps,
        is_maximal_atoms=is_max,
        timestamp=report.timestamp,
        campaign=report.campaign,
        seed=report.params.get("seed"),
    )


def _file_record(report: CampaignReport, d: Dfa, found: tuple) -> bool:
    """File the record of a checked DFA; True once the record limit is reached.

    ``found`` is ``(syntactic complexity, atom count, atom complexities by
    bitmask or (), all atoms maximal)``.  The record goes to
    ``report.findings`` when all its atoms are maximal, else to
    ``report.violations``.  Under ``params["limit"]`` each finding notes
    ``(scanned, tested, violations)`` in ``report.marks``.
    """
    records = report.findings if found[3] else report.violations
    records.append(_record_from_metrics(report, d, found))
    limit = report.params.get("limit")
    if not found[3] or limit is None:
        return False
    report.marks.append((report.scanned, report.tested, len(report.violations)))
    return len(records) >= limit


def _atom_count_raw(n: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> int:
    """``atom_count`` with initial state 0: minimize, then walk the reversal's subsets."""
    maps, fbits = _minimal_maps(n, maps, fbits)
    n = len(maps[0])
    return len(_subset_walk(_reversal_table(n, maps), n, len(maps), fbits)[0])


def _reverse_complexity_raw(n: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> int:
    """Quotient complexity of the reverse language, with initial state 0:
    walk the reversal's subsets, then minimize; final subsets hold state 0."""
    order, cols = _subset_walk(_reversal_table(n, maps), n, len(maps), fbits)
    rfbits = sum(1 << i for i, s in enumerate(order) if s & 1)
    return len(_minimal_maps(len(order), cols, rfbits)[0][0])


def _atom_bounds(n: int) -> tuple[int, ...]:
    """Complexity bound of the atom labeled S, indexed by S's bitmask."""
    row = max_atom_complexities(n)
    return tuple(row[n - s.bit_count()] for s in range(1 << n))


def _scan(report: CampaignReport, letters, check, rules_out=None) -> None:
    """Run the two stages of the campaign that ``report.params`` describes.

    ``letters(maps)`` is the letter stage: False passes over the letter
    tuple.  Minimality is decided next, and ``rules_out(maps)``, when
    given, can then rule the letter tuple out.  ``check(maps, pres,
    fbits)`` is the final-set stage, run on each minimal DFA of a tuple
    that was not ruled out, with the tuple's preimage tables
    (``_pre_tables``), built once just before its first visit.  It returns
    None, or the metrics of a DFA worth a record, which ``_file_record``
    files as every campaign's records are filed.  ``_admit`` refuses the
    run before it starts, and the scan stops once ``params["limit"]`` findings exist.

    ``report.scanned`` counts every DFA of the space, and
    ``report.tested`` every minimal one among those whose letter tuple
    passed the letter stage, ruled out or not.  Both count up to and
    including the DFA whose record reaches the limit, as a scan that
    visits each DFA in turn would.

    Exhaustive mode walks this shard's contiguous block of first-letter
    indices in lexicographic order (the whole space without
    ``params["shard"]``), runs ``letters`` once per tuple, and decides the
    minimality of all its final sets at once (``_minimal_finals``).  It
    runs ``check`` on the minimal ones in bitmask order and counts the
    others without a visit.  ``scanned`` is set from the scan position:
    before a visit it counts the tuple's final sets up to the visited one,
    after the tuple all 2^n of them.  Sample mode draws the letter maps
    and then the final set from ``params["seed"]``, and reads that one
    final set off the same mask (``_is_minimal_raw``).
    """
    params = report.params
    n, k = params["n"], params["k"]
    _admit(n, k, report.mode, params.get("samples"), params.get("limit"))
    sigma, filed = tuple(LETTER_NAMES[:k]), [None, ()]  # last letter tuple filed, its deltas

    def visit(maps: tuple[tuple[int, ...], ...], pres, fbits: int) -> bool:
        """Check one minimal DFA; True when the record limit is reached.  The
        record DFAs of one letter tuple share its Transformations."""
        found = check(maps, pres, fbits)
        if found is None:
            return False
        if filed[0] is not maps:
            filed[:] = maps, tuple(map(Transformation, maps))
        return _file_record(report, Dfa(n, sigma, filed[1], 0, StateSet.from_bits(n, fbits)), found)

    if report.mode == "exhaustive":
        size = 1 << n
        # the shard's block: the first maps i with i * num_shards // n^n == shard
        shard, num_shards = params.get("shard", 0), params.get("num_shards", 1)
        lo, hi = (-(-s * n**n // num_shards) for s in (shard, shard + 1))
        maps_list = all_maps(n) if k > 1 else []  # k > 1 only at n <= 4, by the caps
        for first in _maps_between(n, lo, hi):
            for rest in itertools.product(maps_list, repeat=k - 1):
                maps = (first, *rest)
                base = report.scanned
                minimal = _minimal_finals(n, maps) if letters(maps) else 0
                if minimal and rules_out is not None and rules_out(maps):
                    report.tested += minimal.bit_count()
                elif minimal:
                    pres = _pre_tables(n, maps)
                    while minimal:
                        low = minimal & -minimal
                        minimal ^= low
                        fbits = low.bit_length() - 1
                        report.scanned = base + fbits + 1
                        report.tested += 1
                        if visit(maps, pres, fbits):
                            return
                report.scanned = base + size
    else:
        bits = random.Random(params["seed"]).getrandbits
        for _ in range(params["samples"]):
            maps, fbits = _draw(bits, n, k)
            report.scanned += 1
            if not letters(maps) or not _is_minimal_raw(n, maps, fbits):
                continue
            report.tested += 1
            if rules_out is not None and rules_out(maps):
                continue
            if visit(maps, _pre_tables(n, maps), fbits):
                return


# ---------------------------------------------------------------------------
# campaigns


def _atom_campaign(
    name: str, n: int, k: int, mode: str, samples: int, seed: int, timestamp, **params
) -> tuple[CampaignReport, Callable]:
    """The report of an admitted theorem3 or converse run, and ``measure(pres,
    fbits)``: the atom count, each atom's complexity when all 2^n atoms exist
    (else ``()``), and whether every atom is at its bound."""
    if mode == "sample":
        params.update(samples=samples, seed=seed)
    _admit(n, k, mode, params.get("samples"), params.get("limit"))  # before the 2^n bounds
    name = f"{name}-n{n}k{k}-{mode}"
    report = CampaignReport(name, mode, {"n": n, "k": k, **params}, timestamp=_now(timestamp))
    bounds = _atom_bounds(n)

    def measure(pres, fbits: int) -> tuple[int, tuple[int, ...], bool]:
        atoms = _reach_subsets(n, pres, fbits)
        comps = _atom_complexities(pres, n) if atoms == 1 << n else ()
        return atoms, comps, comps == bounds

    return report, measure


def verify_theorem3(
    n: int,
    k: int,
    *,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
    timestamp: Optional[str] = None,
    shard: int = 0,
    num_shards: int = 1,
) -> CampaignReport:
    """Check that every minimal DFA with full transition semigroup has all
    2^n atoms, each at its complexity bound.  Violations (none expected for
    n >= 2) are dumped as records; at n = 1 a one-state language has one
    atom, not two, so violations there are expected."""
    report, measure = _atom_campaign(
        "theorem3", n, k, mode, samples, seed, timestamp, shard=shard, num_shards=num_shards
    )

    def check(maps: tuple[tuple[int, ...], ...], pres, fbits: int):
        atoms, comps, maximal = measure(pres, fbits)
        return None if maximal else (n**n, atoms, comps, False)

    _scan(report, lambda maps: _generates_full_raw(maps, n), check)
    return report


def find_converse_counterexamples(
    n: int,
    k: int,
    *,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
    limit: Optional[int] = None,
    timestamp: Optional[str] = None,
    shard: int = 0,
    num_shards: int = 1,
) -> CampaignReport:
    """Minimal DFAs whose atoms are all maximal although the syntactic
    complexity is below n^n.  Findings land in the report together with the
    multiset of syntactic complexities observed among them.

    The letter stage keeps the tuples that do not generate T_n.  Each
    minimal DFA counts in ``tested``; then the letters decide whether it is
    maximally atomic (``_maximally_atomic_raw``).  Most tuples are ruled
    out there, before any preimage table or atom walk.  The atom count and
    the walk over every atom confirm each DFA the letters admit, and give
    its record the measured complexities.  One they refute, where the
    letter test and the walk disagree, is recorded as a violation; none is
    expected.
    """
    report, measure = _atom_campaign(
        "search-converse", n, k, mode, samples, seed, timestamp,
        limit=limit, shard=shard, num_shards=num_shards,
    )
    _scan(
        report,
        lambda maps: not _generates_full_raw(maps, n),
        lambda maps, pres, fbits: (_closure_size(maps, n), *measure(pres, fbits)),
        rules_out=lambda maps: not _maximally_atomic_raw(maps, n),
    )
    hist = Counter(rec.syntactic_complexity for rec in report.findings)
    report.extra["syntactic_complexities"] = {str(s): c for s, c in sorted(hist.items())}
    return report


# at module level, so that a process pool can pickle it
def _run_shard(campaign_func, n: int, k: int, kwargs: dict, shard: int) -> CampaignReport:
    return campaign_func(n, k, shard=shard, **kwargs)


def run_sharded(
    campaign_func, n: int, k: int, *, workers: int, **kwargs
) -> Iterator[Iterable[str]]:
    """Run a campaign; yield the JSONL lines of each shard's records as the
    shard ends, in shard order, then the summary line.

    An exhaustive scan is cut into min(n^n, 256) shards of consecutive
    first-letter indices, run in this process with ``workers=1`` and else
    by at most one process per CPU.  Only the counts and the histogram are
    kept from a shard.  Under ``limit`` the shard that reaches it is cut
    back to that finding's mark and no later shard starts, so the records
    and counts equal a one-process run's.  The summary names the shards
    ``"merged"`` of ``workers``, or 0 of 1 with ``workers=1``.  A sampled
    campaign runs as one call.
    """
    # one timestamp for every shard's records, even when none was given
    kwargs["timestamp"] = _now(kwargs.get("timestamp"))
    if kwargs.get("mode", "exhaustive") != "exhaustive":
        yield campaign_func(n, k, **kwargs).to_jsonl_lines()
        return
    _admit(n, k, "exhaustive", limit=kwargs.get("limit"))
    num_shards = min(n**n, 256)
    run = partial(_run_shard, campaign_func, n, k, dict(kwargs, num_shards=num_shards))
    limit = kwargs.get("limit")
    totals: Counter = Counter()
    histogram: Counter = Counter()
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
    try:
        for part in (pool.map if pool else map)(run, range(num_shards)):
            if limit is not None and totals["findings"] + len(part.findings) >= limit:
                keep = limit - totals["findings"]
                part.scanned, part.tested, seen = part.marks[keep - 1]
                del part.findings[keep:], part.violations[seen:]
            yield part.record_lines()
            totals.update(scanned=part.scanned, tested=part.tested, findings=len(part.findings))
            totals["violations"] += len(part.violations)
            histogram.update(str(rec.syntactic_complexity) for rec in part.findings)
            if totals["findings"] == limit:
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    summary = dict(part.summary_dict(), **totals, ok=not totals["violations"])
    shard, num_shards = ("merged", workers) if pool else (0, 1)
    summary["params"] = dict(part.params, shard=shard, num_shards=num_shards)
    if "syntactic_complexities" in summary:
        summary["syntactic_complexities"] = dict(histogram)
    yield [json.dumps(summary, sort_keys=True)]


def verify_prop1(
    n: int,
    *,
    k: int = 3,
    mode: str = "witness",
    timestamp: Optional[str] = None,
) -> CampaignReport:
    """Full syntactic complexity must force the reverse language to have 2^n
    quotients.  Witness mode checks the constructed witness; exhaustive mode
    then scans every DFA at (n, k) as ``verify_theorem3`` does, and checks
    each minimal one whose letters generate T_n.  The claim needs n >= 2: a
    one-state language has one atom, not two, so violations at n = 1 are
    expected."""
    if mode not in ("witness", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    report = CampaignReport(f"prop1-n{n}-{mode}", mode, {"n": n, "k": k}, timestamp=_now(timestamp))

    def check(maps: tuple[tuple[int, ...], ...], _pres, fbits: int):
        rev_qc = _reverse_complexity_raw(n, maps, fbits)
        return None if rev_qc == 1 << n else (n**n, rev_qc, (), False)

    w = witness_max_semigroup(n)
    report.scanned = report.tested = 1
    if found := check(tuple(t.map for t in w.deltas), None, w.finals.bits):
        _file_record(report, w, found)
    if mode == "exhaustive":
        _scan(report, lambda maps: _generates_full_raw(maps, n), check)
    return report


def verify_prop2(
    *,
    samples: int = 10_000,
    seed: int = 0,
    max_state_count: int = 5,
    max_alphabet: int = 3,
    timestamp: Optional[str] = None,
) -> CampaignReport:
    """Atom count must equal the quotient complexity of the reverse, for
    random DFAs.  The two sides go through different pipelines (minimize
    before reversing vs. after), so the comparison is informative.  Both run
    the kernels of ``minimize`` and ``determinize`` on the raw draw of
    ``random_dfa`` (``_draw``); only a violation's record builds a Dfa."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    campaign = f"prop2-samples{samples}-seed{seed}"
    params = {"samples": samples, "seed": seed, "max_n": max_state_count, "max_k": max_alphabet}
    report = CampaignReport(campaign, "sample", params, timestamp=_now(timestamp))
    bits = random.Random(seed).getrandbits
    for _ in range(samples):
        n, k = 1 + _below(bits, max_state_count), 1 + _below(bits, max_alphabet)
        maps, fbits = _draw(bits, n, k)
        atoms = _atom_count_raw(n, maps, fbits)
        if atoms != _reverse_complexity_raw(n, maps, fbits):
            d = _make_dfa(n, k, maps, fbits)
            _file_record(report, d, (syntactic_complexity(d), atoms, (), False))
    report.scanned = report.tested = samples
    return report
