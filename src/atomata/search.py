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

Both campaigns run in two stages.  The letter stage holds the filters that
depend on the letter tuple alone (full semigroup or not, reachability) and
runs once per tuple; the final-set stage holds those that also depend on
the final states (minimality, the atom count, every atom at its bound) and
runs once per final set of a tuple that the letter stage let through.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cache, lru_cache
from typing import Iterator, Optional

from .atoms import _reachable_collections
from .automata import Dfa, determinize, minimize, quotient_complexity, reverse
from .bounds import max_atom_complexity
from .document import serialize_dfa
from .errors import AtomataError, EnumerationCapError
from .semigroup import (
    DEFAULT_CLOSURE_CAP,
    _close,
    _generates_full_raw,
    syntactic_complexity,
)
from .stateset import StateSet
from .transformations import Transformation, identity, make_cycle, make_singular

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"

DEFAULT_MAX_ENUM_N = 4
DEFAULT_MAX_ENUM_K = 3

# Entries kept by each of the engine's per-letter-tuple caches.  Exhaustive
# campaigns repeat a letter tuple only across consecutive final-state sets,
# so the bound costs them no hits; it keeps memory flat over long campaigns.
CACHE_MAXSIZE = 1 << 14


# ---------------------------------------------------------------------------
# records and reports


@dataclass(frozen=True)
class CampaignRecord:
    """One scanned DFA worth keeping, with every metric the scan computed."""

    dfa: str  # canonical text document
    n: int
    alphabet_size: int
    syntactic_complexity: int
    atom_count: int
    atom_complexities: tuple[tuple[str, int], ...]  # (atom label, complexity)
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
            "atom_complexities": {label: c for label, c in self.atom_complexities},
            "is_maximal_atoms": self.is_maximal_atoms,
            "timestamp": self.timestamp,
            "campaign": self.campaign,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignRecord":
        return cls(
            dfa=data["dfa"],
            n=data["n"],
            alphabet_size=data["alphabet_size"],
            syntactic_complexity=data["syntactic_complexity"],
            atom_count=data["atom_count"],
            atom_complexities=tuple(sorted(data["atom_complexities"].items())),
            is_maximal_atoms=data["is_maximal_atoms"],
            timestamp=data["timestamp"],
            campaign=data["campaign"],
            seed=data.get("seed"),
        )


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

    def to_jsonl_lines(self) -> Iterator[str]:
        for rec in self.violations:
            yield json.dumps(rec.to_dict(), sort_keys=True)
        for rec in self.findings:
            yield json.dumps(rec.to_dict(), sort_keys=True)
        yield json.dumps(self.summary_dict(), sort_keys=True)


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


def witness_max_semigroup(n: int, *, cap: int = DEFAULT_CLOSURE_CAP) -> Dfa:
    """An n-state DFA with syntactic complexity exactly n^n.

    Letters: a = (0,1), b = (0,1,...,n-1), c = (n-1 -> 0); degenerate
    letters collapse to the identity at n = 1.  The construction is checked
    before returning: a wrong closure size raises.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        a = b = c = identity(1)
    else:
        a = make_cycle(n, (0, 1))
        b = make_cycle(n, range(n))
        c = make_singular(n, n - 1, 0)
    d = Dfa(n, ("a", "b", "c"), (a, b, c), 0, StateSet(n, [n - 1]))
    sc = syntactic_complexity(d, cap=cap)
    if sc != n**n:
        raise AtomataError(
            f"witness construction broke: syntactic complexity {sc} != {n ** n}"
        )
    return d


# ---------------------------------------------------------------------------
# enumeration and sampling


def _estimated_count(n: int, k: int) -> int:
    return (n**n) ** k * 2**n


def _check_enum_caps(n: int, k: int, max_n: int, max_k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if n > max_n or k > max_k:
        raise EnumerationCapError(
            f"exhaustive enumeration at n={n}, k={k} is over the caps "
            f"(n <= {max_n}, k <= {max_k}); estimated {_estimated_count(n, k)} DFAs"
        )


def all_maps(n: int) -> list[tuple[int, ...]]:
    """All n^n transformation map tuples of degree n, lexicographic."""
    return list(itertools.product(range(n), repeat=n))


def enumerate_dfas(
    n: int,
    k: int,
    *,
    max_n: int = DEFAULT_MAX_ENUM_N,
    max_k: int = DEFAULT_MAX_ENUM_K,
    canonical_letters: bool = False,
) -> Iterator[Dfa]:
    """Every DFA with states {0..n-1}, k letters, initial 0, in lexicographic
    order: letter transformations vary first (leftmost slowest), then the
    final-state bitmask counts up.

    ``canonical_letters`` keeps only non-decreasing letter tuples, a
    symmetry reduction over letter renaming (off by default).
    """
    _check_enum_caps(n, k, max_n, max_k)
    for combo in itertools.product(all_maps(n), repeat=k):
        if canonical_letters and any(combo[i] > combo[i + 1] for i in range(k - 1)):
            continue
        for fbits in range(2**n):
            yield _make_dfa(n, k, combo, fbits)


def _draw(rng: random.Random, n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Uniform letter maps, then a uniform final-set bitmask, in that order."""
    maps = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    return maps, rng.randrange(1 << n)


def random_dfa(rng: random.Random, n: int, k: int) -> Dfa:
    """Uniform over transition tuples and final sets; initial state 0."""
    return _make_dfa(n, k, *_draw(rng, n, k))


def _make_dfa(n: int, k: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> Dfa:
    return Dfa(
        n,
        tuple(LETTER_NAMES[:k]),
        tuple(Transformation(m) for m in maps),
        0,
        StateSet.from_bits(n, fbits),
    )


def sample_full_semigroup_dfa(
    n: int, rng: random.Random, *, k: int = 3, cap: int = DEFAULT_CLOSURE_CAP
) -> Dfa:
    """A random minimal DFA whose transition semigroup is all of T_n.

    Accept-reject: two random permutations plus a random singular map (plus
    uniform extra letters beyond three); accepted once the letters generate
    the full semigroup.
    Finals are a uniform proper non-empty subset, which keeps the DFA
    minimal.
    """
    if n >= 3 and k < 3:
        raise ValueError(f"at least 3 letters are needed for a full semigroup at n={n}")
    if n < 2:
        return witness_max_semigroup(n)
    while True:
        maps = [
            tuple(rng.sample(range(n), n)),
            tuple(rng.sample(range(n), n)),
        ]
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        sing = list(range(n))
        sing[i] = j
        maps.append(tuple(sing))
        while len(maps) < k:
            maps.append(tuple(rng.randrange(n) for _ in range(n)))
        if not _generates_full_raw(maps[:k], n):
            continue
        return _make_dfa(n, k, maps[:k], rng.randrange(1, 2**n - 1))


# ---------------------------------------------------------------------------
# raw-tuple engine (hot loops; checked against independent oracles in tests)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _closure_size(maps: tuple[tuple[int, ...], ...], n: int) -> int:
    """Size of the semigroup generated by the given map tuples."""
    return len(_close(maps, n**n)[0])


def _reachable_bits(n: int, maps: tuple[tuple[int, ...], ...]) -> int:
    seen = 1
    stack = [0]
    while stack:
        q = stack.pop()
        for m in maps:
            r = m[q]
            if not seen >> r & 1:
                seen |= 1 << r
                stack.append(r)
    return seen


def _is_minimal_raw(n: int, maps: tuple[tuple[int, ...], ...], fbits: int) -> bool:
    if _reachable_bits(n, maps) != (1 << n) - 1:
        return False
    cls = [fbits >> q & 1 for q in range(n)]
    ncls = len(set(cls))
    while True:
        sigs: dict[tuple, int] = {}
        new = [0] * n
        for q in range(n):
            key = (cls[q], *(cls[m[q]] for m in maps))
            new[q] = sigs.setdefault(key, len(sigs))
        if len(sigs) == ncls:
            return ncls == n
        cls, ncls = new, len(sigs)


def _pre_tables(n: int, maps: tuple[tuple[int, ...], ...]) -> list[list[int]]:
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
        tables.append(pre)
    return tables


def _reach_subsets(n: int, pres: list[list[int]], start_bits: int) -> int:
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


def _eta_tables(n: int, pres: list[list[int]]) -> list[list[int]]:
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


@lru_cache(maxsize=CACHE_MAXSIZE)
def _atom_complexities(maps: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """Quotient complexity of the atom labeled S, indexed by S's bitmask.

    Only meaningful when all 2^n subsets are atoms.
    """
    etas = _eta_tables(n, _pre_tables(n, maps))
    return tuple(
        len(_reachable_collections(etas, 1 << s_bits)) for s_bits in range(1 << n)
    )


def full_semigroup_transition_tuples(
    n: int,
    k: int,
    *,
    max_n: int = DEFAULT_MAX_ENUM_N,
    max_k: int = DEFAULT_MAX_ENUM_K,
) -> Iterator[tuple[Transformation, ...]]:
    """All k-letter transition tuples generating the full semigroup, in
    lexicographic order."""
    _check_enum_caps(n, k, max_n, max_k)
    for combo in itertools.product(all_maps(n), repeat=k):
        if _generates_full_raw(combo, n):
            yield tuple(Transformation(m) for m in combo)


def _record_from_metrics(
    d: Dfa,
    *,
    sc: int,
    atom_count: int,
    complexities: dict[str, int],
    is_max: bool,
    campaign: str,
    timestamp: str,
    seed: Optional[int],
) -> CampaignRecord:
    return CampaignRecord(
        dfa=serialize_dfa(d),
        n=d.n,
        alphabet_size=len(d.alphabet),
        syntactic_complexity=sc,
        atom_count=atom_count,
        atom_complexities=tuple(sorted(complexities.items())),
        is_maximal_atoms=is_max,
        timestamp=timestamp,
        campaign=campaign,
        seed=seed,
    )


def _atom_bounds(n: int) -> tuple[int, ...]:
    """Complexity bound of the atom labeled S, indexed by S's bitmask."""
    return tuple(max_atom_complexity(n, n - s.bit_count()) for s in range(1 << n))


def _scan(
    report: CampaignReport, records: list, letters, check, *, max_n: int, max_k: int
) -> None:
    """Run the two stages of the campaign that ``report.params`` describes,
    counting each DFA in ``report.scanned``.

    ``letters(maps)`` is the letter stage: None passes over the letter
    tuple, anything else is the tuple's state.  ``check(maps, state,
    fbits)`` is the final-set stage; it returns None, or ``(syntactic
    complexity, atom count, atom complexities by bitmask, all atoms
    maximal)`` for a DFA that is appended to ``records``.  The scan stops
    once ``params["limit"]`` records exist.  Exhaustive mode walks this
    shard's contiguous block of first-letter indices in lexicographic
    order, runs ``letters`` once per tuple and ``check`` on its final sets
    counting up.  Sample mode draws the letter maps and then the final set
    from ``params["seed"]``, and runs both stages on each draw.
    """
    params = report.params
    n, k = params["n"], params["k"]
    limit = params.get("limit")
    seed = params.get("seed")  # present in sample mode only
    labels = [StateSet.from_bits(n, b).label() for b in range(1 << n)]

    def visit(maps: tuple[tuple[int, ...], ...], state, fbits: int) -> bool:
        """Check one DFA; True when the record limit is reached."""
        report.scanned += 1
        found = check(maps, state, fbits)
        if found is None:
            return False
        sc, atoms, comps, is_max = found
        records.append(
            _record_from_metrics(
                _make_dfa(n, k, maps, fbits),
                sc=sc,
                atom_count=atoms,
                complexities={labels[b]: comps[b] for b in range(1 << n)},
                is_max=is_max,
                campaign=report.campaign,
                timestamp=report.timestamp,
                seed=seed,
            )
        )
        return limit is not None and len(records) >= limit

    if report.mode == "exhaustive":
        _check_enum_caps(n, k, max_n, max_k)
        maps_list = all_maps(n)
        shard, num_shards = params["shard"], params["num_shards"]
        for first_index, first in enumerate(maps_list):
            if first_index * num_shards // len(maps_list) != shard:
                continue
            for rest in itertools.product(maps_list, repeat=k - 1):
                maps = (first, *rest)
                state = letters(maps)
                if state is None:
                    report.scanned += 1 << n
                    continue
                for fbits in range(1 << n):
                    if visit(maps, state, fbits):
                        return
    elif report.mode == "sample":
        rng = random.Random(seed)
        for _ in range(params["samples"]):
            maps, fbits = _draw(rng, n, k)
            state = letters(maps)
            if state is None:
                report.scanned += 1
            elif visit(maps, state, fbits):
                return
    else:
        raise ValueError(f"unknown mode {report.mode!r}")


# ---------------------------------------------------------------------------
# campaigns


def verify_theorem3(
    n: int,
    k: int,
    *,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
    timestamp: Optional[str] = None,
    max_n: int = DEFAULT_MAX_ENUM_N,
    max_k: int = DEFAULT_MAX_ENUM_K,
    shard: int = 0,
    num_shards: int = 1,
) -> CampaignReport:
    """Check that every minimal DFA with full transition semigroup has all
    2^n atoms, each at its complexity bound.  Violations (none expected) are
    dumped as records."""
    params: dict = {"n": n, "k": k, "shard": shard, "num_shards": num_shards}
    if mode == "sample":
        params.update(samples=samples, seed=seed)
    campaign = f"theorem3-n{n}k{k}-{mode}"
    report = CampaignReport(campaign, mode, params, timestamp=_now(timestamp))
    bounds = _atom_bounds(n)

    def letters(maps: tuple[tuple[int, ...], ...]):
        if not _generates_full_raw(maps, n):
            return None
        return cache(lambda: _pre_tables(n, maps))

    def check(maps: tuple[tuple[int, ...], ...], pres, fbits: int):
        if not _is_minimal_raw(n, maps, fbits):
            return None
        report.tested += 1
        atoms = _reach_subsets(n, pres(), fbits)
        comps = _atom_complexities(maps, n)
        if atoms == 1 << n and comps == bounds:
            return None
        return n**n, atoms, comps, False

    _scan(report, report.violations, letters, check, max_n=max_n, max_k=max_k)
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
    max_n: int = DEFAULT_MAX_ENUM_N,
    max_k: int = DEFAULT_MAX_ENUM_K,
    shard: int = 0,
    num_shards: int = 1,
) -> CampaignReport:
    """Minimal DFAs whose atoms are all maximal although the syntactic
    complexity is below n^n.  Findings land in the report together with the
    multiset of syntactic complexities observed among them."""
    params: dict = {"n": n, "k": k, "limit": limit, "shard": shard, "num_shards": num_shards}
    if mode == "sample":
        params.update(samples=samples, seed=seed)
    campaign = f"search-converse-n{n}k{k}-{mode}"
    report = CampaignReport(campaign, mode, params, timestamp=_now(timestamp))
    bounds = _atom_bounds(n)

    def letters(maps: tuple[tuple[int, ...], ...]):
        if _reachable_bits(n, maps) != (1 << n) - 1 or _generates_full_raw(maps, n):
            return None
        return cache(lambda: _pre_tables(n, maps))

    def check(maps: tuple[tuple[int, ...], ...], pres, fbits: int):
        if not _is_minimal_raw(n, maps, fbits):
            return None
        report.tested += 1
        if _reach_subsets(n, pres(), fbits) != 1 << n:
            return None
        comps = _atom_complexities(maps, n)
        if comps != bounds:
            return None
        return _closure_size(maps, n), 1 << n, comps, True

    _scan(report, report.findings, letters, check, max_n=max_n, max_k=max_k)
    report.extra["syntactic_complexities"] = _complexity_histogram(report.findings)
    return report


def _complexity_histogram(findings: list[CampaignRecord]) -> dict[str, int]:
    hist: dict[int, int] = {}
    for rec in findings:
        hist[rec.syntactic_complexity] = hist.get(rec.syntactic_complexity, 0) + 1
    return {str(s): c for s, c in sorted(hist.items())}


def run_sharded(
    campaign_func,
    n: int,
    k: int,
    *,
    workers: int,
    **kwargs,
) -> CampaignReport:
    """Run an exhaustive campaign over worker processes, each shard taking
    a contiguous block of the first letter's transformation indices.

    Shards join in shard order, which is the order of a single-process
    run, and findings are cut to ``limit``, so the records equal that
    run's.  When the limit cuts the merge, ``scanned`` and ``tested``
    report the work the shards did, which can exceed the single run's.
    """
    if workers <= 1:
        return campaign_func(n, k, **kwargs)
    # one timestamp for every shard's records, even when none was given
    kwargs["timestamp"] = _now(kwargs.get("timestamp"))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(campaign_func, n, k, **dict(kwargs, shard=i, num_shards=workers))
            for i in range(workers)
        ]
        parts = [f.result() for f in futures]
    merged = parts[0]
    for part in parts[1:]:
        merged.scanned += part.scanned
        merged.tested += part.tested
        merged.violations.extend(part.violations)
        merged.findings.extend(part.findings)
    limit = kwargs.get("limit")
    if limit is not None:
        del merged.findings[limit:]
    if "syntactic_complexities" in merged.extra:
        merged.extra["syntactic_complexities"] = _complexity_histogram(merged.findings)
    merged.params["num_shards"] = workers
    merged.params["shard"] = "merged"
    return merged


def verify_prop1(
    n: int,
    *,
    k: int = 3,
    mode: str = "witness",
    timestamp: Optional[str] = None,
    cap: int = DEFAULT_CLOSURE_CAP,
    max_n: int = DEFAULT_MAX_ENUM_N,
    max_k: int = DEFAULT_MAX_ENUM_K,
) -> CampaignReport:
    """Full syntactic complexity must force the reverse language to have 2^n
    quotients.  Witness mode checks the constructed witness; exhaustive mode
    additionally scans every full-semigroup minimal DFA at (n, k)."""
    ts = _now(timestamp)
    campaign = f"prop1-n{n}-{mode}"
    report = CampaignReport(campaign, mode, {"n": n, "k": k}, timestamp=ts)

    def check(d: Dfa, sc: int) -> None:
        report.tested += 1
        rev_qc = quotient_complexity(determinize(reverse(d)))
        if rev_qc != 2**d.n:
            report.violations.append(
                _record_from_metrics(
                    d,
                    sc=sc,
                    atom_count=rev_qc,
                    complexities={},
                    is_max=False,
                    campaign=campaign,
                    timestamp=ts,
                    seed=None,
                )
            )

    w = witness_max_semigroup(n, cap=cap)
    report.scanned += 1
    check(w, n**n)
    if mode == "exhaustive":
        _check_enum_caps(n, k, max_n, max_k)
        for deltas in full_semigroup_transition_tuples(n, k):
            maps = tuple(t.map for t in deltas)
            for fbits in range(2**n):
                report.scanned += 1
                if not _is_minimal_raw(n, maps, fbits):
                    continue
                check(_make_dfa(n, k, maps, fbits), n**n)
    elif mode != "witness":
        raise ValueError(f"unknown mode {mode!r}")
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
    before reversing vs. after), so the comparison is informative."""
    ts = _now(timestamp)
    campaign = f"prop2-samples{samples}-seed{seed}"
    params = {
        "samples": samples,
        "seed": seed,
        "max_n": max_state_count,
        "max_k": max_alphabet,
    }
    report = CampaignReport(campaign, "sample", params, timestamp=ts)
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_state_count)
        k = rng.randint(1, max_alphabet)
        d = random_dfa(rng, n, k)
        report.scanned += 1
        report.tested += 1
        atoms = determinize(reverse(minimize(d))).n
        rev_qc = quotient_complexity(determinize(reverse(d)))
        if atoms != rev_qc:
            report.violations.append(
                _record_from_metrics(
                    d,
                    sc=syntactic_complexity(d),
                    atom_count=atoms,
                    complexities={},
                    is_max=False,
                    campaign=campaign,
                    timestamp=ts,
                    seed=seed,
                )
            )
    return report
