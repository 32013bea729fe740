"""The dominance cut and the ceiling in characteristic_sequence against
the uncut loop.

oracle_characteristic_sequence runs every candidate's image chain to the
end; the cut and the ceiling must give the same parts and the same
witness, on real algebras and on any order of the Jordan types the
proven rank bound allows, and they must actually stop the search early.
The ceiling's premise, rank R_x^j <= b_j, is checked on every candidate of
the uncut loop, and the greedy ceiling and the term rank against brute
force.
"""

import random
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import alg, case_algebra, random_invertible

from oracles import oracle_characteristic_sequence, oracle_charseq_candidates, oracle_right_type

from leibnizkit import invariants, linalg
from leibnizkit.catalog import FAMILIES
from leibnizkit.core import change_of_basis, direct_sum
from leibnizkit.invariants import central_series, characteristic_sequence, natural_graded

PARAMS = [(20, 1), (5, 1), (5, 2)]


def _cases(sizes):
    return [(family, n, alpha) for n in sizes for family in FAMILIES
            for alpha in (("-1", "1", "1i") if family == "M1alpha" else (None,))]


def _same(a):
    for trials, seed in PARAMS:
        assert characteristic_sequence(a, trials=trials, seed=seed) == \
            oracle_characteristic_sequence(a, trials=trials, seed=seed)


@pytest.mark.parametrize("family,n,alpha", _cases((7, 9, 11, 15)))
def test_cut_matches_uncut_loop_on_the_catalog(family, n, alpha):
    _same(case_algebra(family, n, alpha))


@pytest.mark.parametrize("family", FAMILIES)
def test_cut_matches_uncut_loop_on_dense_conjugates(family):
    a = alg(family, 7)
    assert a.dim <= 8
    rng = random.Random(7)
    for _ in range(2):
        _same(change_of_basis(a, random_invertible(rng, a.dim)))


@pytest.mark.parametrize("family,n,alpha", _cases((9,)))
def test_cut_matches_uncut_loop_on_gr(family, n, alpha):
    _same(natural_graded(case_algebra(family, n, alpha))[0])


@pytest.mark.parametrize("left,right", [("L1", "KF4"), ("N", "M"), ("NGF1", "N")])
def test_cut_matches_uncut_loop_on_a_pair_sum_witness(left, right):
    a = direct_sum(alg(left, 7), alg(right, 7))
    assert sum(1 for c in characteristic_sequence(a).witness if c) == 2
    _same(a)


def test_cut_matches_uncut_loop_on_a_random_witness():
    a = direct_sum(direct_sum(alg("L1", 7), alg("NGF1", 7)), alg("KF5", 7))
    assert sum(1 for c in characteristic_sequence(a).witness if c) == 20
    _same(a)


@pytest.mark.parametrize("sizes", [c for r in (2, 3) for c in combinations_with_replacement((1, 2, 3, 4), r)])
def test_cut_matches_uncut_loop_on_sums_of_null_filiform_algebras(sizes):
    # the pair sums and random candidates add up the blocks of the summands,
    # so the winner comes late and its ranks meet the bounds of the cut
    a = alg("nullfiliform-ml", sizes[0])
    for m in sizes[1:]:
        a = direct_sum(a, alg("nullfiliform-ml", m))
    _same(a)


def _count_chain_levels(monkeypatch):
    # one entry per image chain characteristic_sequence starts: its levels
    chain = invariants.image_chain
    yielded = []

    def counting(n, operators):
        yielded.append(0)
        for level in chain(n, operators):
            yielded[-1] += 1
            yield level

    monkeypatch.setattr(invariants, "image_chain", counting)
    return yielded


def test_ceiling_ends_the_m15_search_after_one_chain(monkeypatch):
    # M(15) is 3-filiform: its first candidate y1 has type (13, 1, 1, 1),
    # 14 levels down to 0, which is the ceiling, so no other chain runs
    a = alg("M", 15)
    central_series(a)
    assert invariants._ceiling(a.dim, invariants._rank_bound(a)) == (13, 1, 1, 1)
    yielded = _count_chain_levels(monkeypatch)
    assert characteristic_sequence(a).parts == (13, 1, 1, 1)
    assert yielded == [14]


def test_cut_stops_every_loser_of_dense_m9_by_level_1(monkeypatch):
    # a dense support has full term rank, so the ceiling (7, 2, 1) stays
    # above the first candidate's (7, 1, 1, 1): every candidate is drawn,
    # and every later one is dominated by level 1
    a = alg("M", 9)
    a = change_of_basis(a, random_invertible(random.Random(7), a.dim))
    central_series(a)
    assert invariants._ceiling(a.dim, invariants._rank_bound(a)) == (7, 2, 1)
    yielded = _count_chain_levels(monkeypatch)
    cs = characteristic_sequence(a)
    assert cs.parts == (7, 1, 1, 1)
    assert cs.witness == oracle_characteristic_sequence(a).witness
    assert yielded[0] == 8
    assert len(yielded) > 20 and max(yielded[1:]) <= 2


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _ranks(parts):
    # r_k = dim im(T^k) of a nilpotent T of Jordan type parts, down to 0
    return [sum(max(p - k, 0) for p in parts) for k in range(max(parts, default=0) + 1)]


@pytest.mark.parametrize("family,n", [("nullfiliform-ml", 7), ("M", 7)])
def test_cut_is_sound_on_random_rank_sequences(family, n, monkeypatch):
    # any Jordan type that fits under the proven bound (r_j <= b_j, which
    # is at most dim L^{j+1}) may turn up at any candidate: both loops read
    # seeded sequences of such types in place of the real chains, and must
    # keep the same first maximum
    a = alg(family, n)
    central_series(a)
    bound = invariants._rank_bound(a)
    fits = [p for p in _partitions(a.dim)
            if all(r <= (bound[j] if j < len(bound) else 0) for j, r in enumerate(_ranks(p)))]
    assert len(fits) >= 10
    rng = random.Random(5)
    for _ in range(400):
        trials = rng.randint(1, 4)
        seq = [rng.choice(fits) for _ in range(20)]
        for module in (invariants, linalg):
            types = iter(seq)
            monkeypatch.setattr(module, "image_chain", lambda n, ops, types=types: (
                [None] * r for r in _ranks(next(types))))
        got = characteristic_sequence(a, trials=trials)
        assert got == oracle_characteristic_sequence(a, trials=trials), seq


def _fits(parts, bound):
    return all(r <= (bound[j] if j < len(bound) else 0) for j, r in enumerate(_ranks(parts)))


def _within_the_ceiling(a):
    # the ceiling's premise, on every candidate of the uncut loop: its ranks
    # r_j = rank R_x^j are at most b_j, so its type is not lex above mu
    bound = invariants._rank_bound(a)
    ceiling = invariants._ceiling(a.dim, bound)
    for seed in (1, 2):
        for x in oracle_charseq_candidates(a, trials=20, seed=seed):
            parts = oracle_right_type(a, x)
            assert _fits(parts, bound), (x, parts, bound)
            assert parts <= ceiling


@pytest.mark.parametrize("family,n,alpha", _cases((7, 9, 11, 15)))
def test_rank_bound_holds_on_the_catalog(family, n, alpha):
    _within_the_ceiling(case_algebra(family, n, alpha))


@pytest.mark.parametrize("family", FAMILIES)
def test_rank_bound_holds_on_dense_conjugates(family):
    a = alg(family, 7)
    rng = random.Random(7)
    for _ in range(2):
        _within_the_ceiling(change_of_basis(a, random_invertible(rng, a.dim)))


@pytest.mark.parametrize("family,n,alpha", _cases((9,)))
def test_rank_bound_holds_on_gr(family, n, alpha):
    _within_the_ceiling(natural_graded(case_algebra(family, n, alpha))[0])


def test_rank_bound_holds_on_direct_sums():
    sums = [direct_sum(alg(left, 7), alg(right, 7)) for left, right in (("L1", "KF4"), ("N", "M"), ("NGF1", "N"))]
    sums.append(direct_sum(direct_sum(alg("L1", 7), alg("NGF1", 7)), alg("KF5", 7)))
    for sizes in combinations_with_replacement((1, 2, 3, 4), 3):
        a = alg("nullfiliform-ml", sizes[0])
        for m in sizes[1:]:
            a = direct_sum(a, alg("nullfiliform-ml", m))
        sums.append(a)
    for a in sums:
        _within_the_ceiling(a)


def test_ceiling_is_the_lex_max_partition_within_the_bound():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        bound = [n] + [rng.randint(0, n) for _ in range(rng.randint(0, n))]
        want = max(p for p in _partitions(n) if _fits(p, bound))
        assert invariants._ceiling(n, bound) == want, bound


def test_term_rank_is_the_largest_matching():
    # a square pattern's largest matching extends to a permutation, so it
    # is the most positions (sigma(c), c) any permutation puts in the pattern
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 6)
        cols = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        want = max(sum(cols[c] >> r & 1 for c, r in enumerate(perm)) for perm in permutations(range(n)))
        for cap in range(n + 1):
            assert invariants._term_rank(cols, cap) == min(cap, want), (cols, cap)
