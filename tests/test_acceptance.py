"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  All comparisons are exact; the only tolerances here are
the two wall-clock limits stated inline.
"""

import random
import time
from contextlib import contextmanager

import _golden as G
from atomata import (
    StateSet,
    atom_quotient_complexity,
    atoms_of,
    build_atomaton,
    count_from_types,
    determinize,
    eta_letter,
    interval_reach_count,
    max_atom_complexity,
    max_over_r,
    minimize,
    quotient_complexity,
    reverse,
    syntactic_complexity,
)
from atomata.cli import parse_dfa
from atomata.search import (
    example1,
    find_converse_counterexamples,
    verify_prop1,
    verify_prop2,
    verify_theorem3,
    witness_max_semigroup,
)
from atomata.transformations import all_transformations, compose, decompose_singular_perm
from conftest import (
    full_semigroup_transition_tuples,
    make_dfa,
    sample_full_semigroup_dfa,
    subset_of,
)


@contextmanager
def criterion(num, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {description}")
        raise
    print(f"criterion {num}: PASS — {description} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_golden_fixture():
    with criterion(1, "golden fixture: tables and headline numbers, < 1 s"):
        t0 = time.perf_counter()
        d = example1()
        assert minimize(d).n == 3

        assert syntactic_complexity(d) == 27
        reports = atoms_of(d)
        assert len(reports) == 8

        # D^R table, cell for cell
        r = reverse(d)
        for q, row in G.TABLE_DR.items():
            for a, targets in row.items():
                assert set(r.eta[(q, a)]) == targets
        assert set(r.initials) == G.TABLE_DR_INITIALS
        assert set(r.finals) == G.TABLE_DR_FINALS

        # D^RD table, cell for cell
        drd = determinize(r)
        assert drd.n == 8
        labels = [subset_of(r, s) for s in drd.labels]
        by_label = {lab: i for i, lab in enumerate(labels)}
        assert set(by_label) == set(G.TABLE_DRD)
        assert labels[drd.initial] == G.TABLE_DRD_INITIAL
        assert {labels[q] for q in drd.finals.members()} == G.TABLE_DRD_FINALS
        for sub, row in G.TABLE_DRD.items():
            for a, target in row.items():
                assert labels[drd.delta(a).map[by_label[sub]]] == target

        # atomaton table, cell for cell
        am = build_atomaton(d)
        assert {frozenset(s.members()) for s in am.initials} == G.TABLE_ATOMATON_INITIALS
        assert {frozenset(s.members()) for s in am.finals} == G.TABLE_ATOMATON_FINALS
        for sub, row in G.TABLE_ATOMATON.items():
            s = StateSet(3, sub)
            for a, coll in row.items():
                assert {frozenset(t.members()) for t in am.eta(s, a)} == coll

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1 s"


def test_criterion_2_bound_values():
    with criterion(2, "closed-form bounds: 43/141/501/1548 and 2^n-1 edges"):
        assert max_over_r(4) == (2, 43)
        assert max_over_r(5)[1] == 141
        assert max_over_r(6)[1] == 501
        assert max_over_r(7)[1] == 1548
        for n in range(1, 9):
            assert max_atom_complexity(n, 0) == 2**n - 1
            assert max_atom_complexity(n, n) == 2**n - 1


def test_criterion_3_theorem3_exhaustive():
    with criterion(3, "exhaustive n=3, k=3: all full-semigroup minimal DFAs maximal"):
        profile = tuple(max_atom_complexity(3, r) for r in range(4))
        assert profile == (7, 10, 10, 7)
        report = verify_theorem3(3, 3, timestamp="acceptance")
        assert report.scanned == 157_464
        assert report.tested > 0
        assert report.violations == [], f"{len(report.violations)} violations"
        # spot-check the engine against the public pipeline on a few instances
        rng = random.Random(0)
        triples = list(full_semigroup_transition_tuples(3, 3))
        assert len(triples) * 6 == report.tested  # 6 proper final sets each
        for deltas in rng.sample(triples, 5):
            fbits = rng.randrange(1, 7)
            d = make_dfa(3, [t.map for t in deltas], finals=StateSet.from_bits(3, fbits).members())
            assert syntactic_complexity(d) == 27
            reps = atoms_of(d)
            assert len(reps) == 8
            assert all(rep.complexity == profile[rep.r] for rep in reps)


def test_criterion_4_theorem3_constructive():
    with criterion(4, "constructive witness n=4: 256, 16 atoms at bounds, < 1 min"):
        t0 = time.perf_counter()
        w4 = witness_max_semigroup(4)
        assert syntactic_complexity(w4) == 256
        reports = atoms_of(w4)
        assert len(reports) == 16
        for rep in reports:
            assert rep.complexity == max_atom_complexity(4, rep.r)
        assert {rep.complexity for rep in reports if rep.r in (0, 4)} == {15}
        assert {rep.complexity for rep in reports if rep.r == 2} == {43}
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60 s"


def test_criterion_5_converse_falsity():
    with criterion(5, "converse search n=3, k=3 finds syntactic complexity 24"):
        report = find_converse_counterexamples(3, 3, timestamp="acceptance")
        assert report.findings, "expected at least one counterexample"
        assert report.violations == []
        assert "24" in report.extra["syntactic_complexities"]
        # re-verify one finding end to end through the public pipeline
        rec = report.findings[0]
        d = parse_dfa(rec.dfa)
        assert minimize(d).n == 3
        assert syntactic_complexity(d) == rec.syntactic_complexity < 27
        reps = atoms_of(d)
        assert len(reps) == 8 and all(rep.is_maximal for rep in reps)


def test_criterion_6_prop1_prop2():
    with criterion(6, "prop1 witnesses n=2..4; prop2 on 10^4 random DFAs"):
        for n in (2, 3, 4):
            w = witness_max_semigroup(n)
            assert quotient_complexity(determinize(reverse(w))) == 2**n
            assert verify_prop1(n, timestamp="acceptance").violations == []
        report = verify_prop2(samples=10_000, seed=2024, timestamp="acceptance")
        assert report.scanned == 10_000
        assert report.violations == []


def _eta_bruteforce(am, s, a):
    """Collection reached from s under a in the atomaton built by the plain
    reverse-determinize-reverse pipeline."""
    return set(am.eta(s, a))


def _eta_formula(d, s, a):
    iv = eta_letter(d, s, a)
    return set() if iv is None else set(iv.members())


def test_criterion_7_eta_oracle_equivalence():
    with criterion(7, "closed-form eta equals pipeline eta on every (S, a)"):
        # every full-semigroup transition triple from the exhaustive scan
        mismatches = 0
        triples = list(full_semigroup_transition_tuples(3, 3))
        assert len(triples) == 972
        for deltas in triples:
            d = make_dfa(3, [t.map for t in deltas], finals=[2])
            am = build_atomaton(d)
            for bits in range(8):
                s = StateSet.from_bits(3, bits)
                for a in d.alphabet:
                    if _eta_formula(d, s, a) != _eta_bruteforce(am, s, a):
                        mismatches += 1
        assert mismatches == 0

        # the atomaton transition structure is shared by every final set
        rng = random.Random(7)
        for deltas in rng.sample(triples, 10):
            etas = []
            for fbits in range(1, 7):
                d = make_dfa(3, [t.map for t in deltas], finals=StateSet.from_bits(3, fbits).members())
                etas.append(build_atomaton(d).nfa.eta)
            assert all(e == etas[0] for e in etas)

        # >= 100 sampled full-semigroup DFAs at n = 4
        rng = random.Random(41)
        for _ in range(100):
            d = sample_full_semigroup_dfa(4, rng)
            am = build_atomaton(d)
            for bits in range(16):
                s = StateSet.from_bits(4, bits)
                for a in d.alphabet:
                    assert _eta_formula(d, s, a) == _eta_bruteforce(am, s, a)


def test_criterion_8_interval_counting():
    with criterion(8, "interval reach = atom complexity (n=3,4); type counts = bounds (n<=8)"):
        rng = random.Random(88)
        dfas = [witness_max_semigroup(3), witness_max_semigroup(4)]
        dfas += [sample_full_semigroup_dfa(3, rng) for _ in range(4)]
        dfas += [sample_full_semigroup_dfa(4, rng) for _ in range(2)]
        for d in dfas:
            for bits in range(2**d.n):
                s = StateSet.from_bits(d.n, bits)
                assert interval_reach_count(d, s) == atom_quotient_complexity(d, s)
        for n in range(1, 9):
            for s in range(n + 1):
                assert count_from_types(n, s) == max_atom_complexity(n, n - s)


def test_criterion_9_singular_permutation_factorization():
    with criterion(9, "rank n-1 factorization alpha∘pi, exhaustive for n <= 5"):
        for n in range(2, 6):
            checked = 0
            for t in all_transformations(n):
                if t.rank() != n - 1:
                    continue
                alpha, pi = decompose_singular_perm(t)
                assert pi.is_permutation()
                assert alpha.rank() == n - 1 and not alpha.is_permutation()
                assert sum(1 for q in range(n) if alpha.map[q] != q) == 1
                assert compose(alpha, pi) == t
                checked += 1
            # n * C(n,2) * (n-1)! maps of rank n-1
            import math

            assert checked == n * math.comb(n, 2) * math.factorial(n - 1)
