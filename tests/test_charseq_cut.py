"""The dominance cut and the ceiling in characteristic_sequence against
the uncut loop.

oracle_characteristic_sequence runs every candidate's image chain to the
end; the cut and the ceiling must give the same parts and the same
witness, on real algebras and on any order of the Jordan types the
proven rank bound allows, and they must actually stop the search early.
The ceiling's premise, rank R_x^j <= b_j with b_1 sharpened by the kernel
maps of degree one, is checked on every candidate of the uncut loop, each
map on Scalars, and the greedy ceiling and the term rank against brute
force.  The sharpened bound is computed only where the term-rank ceiling
is not reached: never on the catalog bases, once on the dense M strata of
the benchmark, where it ends the search at the first candidate.
"""

import random
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import alg, case_algebra, catalog_cases, dense_basis_move, random_invertible, record_derivations

from oracles import (
    dense_vec,
    oracle_bracket,
    oracle_characteristic_sequence,
    oracle_charseq_candidates,
    oracle_kernel_map_holds,
    oracle_kernel_rank,
    oracle_rank,
    oracle_right_type,
    unit,
)

from leibnizkit import invariants, linalg
from leibnizkit.catalog import FAMILIES
from leibnizkit.core import change_of_basis, direct_sum, from_terms
from leibnizkit.invariants import central_series, characteristic_sequence, natural_graded
from leibnizkit.linalg import Matrix, gaussian_row
from leibnizkit.scalars import Scalar, parse_scalar

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


def test_sharpened_ceiling_ends_the_dense_m9_search_at_its_first_chain(monkeypatch):
    # a dense support has full term rank, so the term-rank ceiling (7, 2, 1)
    # stays above the first candidate's (7, 1, 1, 1); the kernel maps of
    # degree one at that candidate bring b_1 from 7 down to 6, whose ceiling
    # is (7, 1, 1, 1), so the first chain, 8 levels down to 0, ends the search
    a = alg("M", 9)
    a = change_of_basis(a, random_invertible(random.Random(7), a.dim))
    central_series(a)
    bound = invariants._rank_bound(a)
    assert invariants._ceiling(a.dim, bound) == (7, 2, 1)
    assert bound[1] == 7 and invariants._kernel_bound(a, next(invariants._candidates(a, 20, 1))) == 6
    bound[1] = 6
    assert invariants._ceiling(a.dim, bound) == (7, 1, 1, 1)
    yielded = _count_chain_levels(monkeypatch)
    cs = characteristic_sequence(a)
    assert cs.parts == (7, 1, 1, 1)
    assert cs.witness == oracle_characteristic_sequence(a).witness
    assert yielded == [8]


def _record_search(monkeypatch):
    # one [candidates drawn, sharpened bounds computed] per search
    searches = []
    candidates, kernel_bound = invariants._candidates, invariants._kernel_bound

    def drawing(algebra, trials, seed):
        searches.append([0, 0])
        for x in candidates(algebra, trials, seed):
            searches[-1][0] += 1
            yield x

    def bounding(algebra, x):
        searches[-1][1] += 1
        return kernel_bound(algebra, x)
    monkeypatch.setattr(invariants, "_candidates", drawing)
    monkeypatch.setattr(invariants, "_kernel_bound", bounding)
    return searches


# the strata of the benchmark's catalog-large workload
LARGE = (("N", None), ("M", None), ("M1alpha", "-1"), ("M1alpha", "1i"), ("L1", None), ("KF5", None),
         ("NGF1", None))


@pytest.mark.parametrize("family,n,alpha", catalog_cases() + [(f, 11, alpha) for f, alpha in LARGE]
                         + [(f, 15, alpha) for f, alpha in LARGE[:-1]])
def test_kernel_bound_is_never_computed_on_catalog_bases(family, n, alpha, monkeypatch):
    # the first candidate meets the term-rank ceiling: one candidate, no bound
    a = case_algebra(family, n, alpha)
    searches = _record_search(monkeypatch)
    characteristic_sequence(a)
    assert searches == [[1, 0]]


@pytest.mark.parametrize("family,alpha", [("M", None), ("M1alpha", "3+1i"), ("M1alpha", "-1")])
def test_sharpened_bound_ends_the_dense_m_strata_at_the_first_candidate(family, alpha, monkeypatch):
    # the benchmark's dense M strata, dim 6: the term-rank ceiling (3, 2, 1)
    # lies above the answer, and all 41 candidates were drawn without the
    # sharpened b_1; with it the first candidate ends the search
    a = case_algebra(family, 5, alpha)
    rng = random.Random(4)
    moved = [change_of_basis(a, dense_basis_move(rng, a.dim)) for _ in range(10)]
    for b in moved:
        central_series(b)
        assert invariants._ceiling(b.dim, invariants._rank_bound(b)) == (3, 2, 1)
    searches = _record_search(monkeypatch)
    for b in moved:
        cs = characteristic_sequence(b)
        assert cs.parts == (3, 1, 1, 1)
        assert cs == oracle_characteristic_sequence(b)
    assert searches == [[1, 1]] * 10


def test_a_later_best_sharpens_b_1_from_the_kept_kernel_maps(monkeypatch):
    # M(8) moved by a seeded dense P: at the first candidate the V x_0 leave
    # b_1 at 6 and the ceiling at (6, 2, 1); the second candidate reaches
    # (6, 1, 1, 1), a new best, and the V at it bring b_1 to 5, whose ceiling
    # it meets.  The V are solved for once, on the first call, and kept
    def moved():
        return change_of_basis(alg("M", 8), random_invertible(random.Random(16), 9))
    a = moved()
    central_series(a)
    bound = invariants._rank_bound(a)
    first, second = list(invariants._candidates(a, 20, 1))[:2]
    assert (bound[1], invariants._kernel_bound(a, first), invariants._kernel_bound(a, second)) == (6, 6, 5)
    derived = record_derivations(monkeypatch, invariants, "_kernel_maps")
    searches = _record_search(monkeypatch)
    b = moved()
    cs = characteristic_sequence(b)
    assert cs == oracle_characteristic_sequence(b) and cs.parts == (6, 1, 1, 1)
    assert searches == [[2, 2]] and derived == [b]
    characteristic_sequence(b, seed=2)
    assert derived == [b]


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
    bound[1] = min(bound[1], invariants._kernel_bound(a, next(invariants._candidates(a, 1, 1))))
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


def _kernel_maps_hold(a):
    # every map V of the sharpened bound sends L into span(e_C) and has
    # [V x, x] = 0 on Scalars; one entry changed, at a seeded (e_c, j) with
    # c in C, it adds x_j [e_c, x], nonzero as e_c is outside Ann_l, and fails
    pivots, maps = invariants._kernel_maps(a)
    for images in maps:
        assert all(set(image) <= set(pivots) for image in images)
        assert oracle_kernel_map_holds(a, images, seed=3)
    if pivots:
        rng = random.Random(a.dim)
        for images in maps[:2] + ((({},) * a.dim),):
            changed = [dict(image) for image in images]
            j, c = rng.randrange(a.dim), rng.choice(pivots)
            re, im = changed[j].get(c, (0, 0))
            changed[j][c] = (re + rng.choice((-1, 1)), im)
            assert not oracle_kernel_map_holds(a, changed, seed=3), (j, c)
    return pivots, maps


def _within_the_ceiling(a):
    # the ceiling's premise, on every candidate of the uncut loop: its ranks
    # r_j = rank R_x^j are at most b_j, b_1 sharpened to |C| - k by the rank
    # k of the V x_0 at any candidate x_0, so its type is not lex above mu
    pivots, maps = _kernel_maps_hold(a)
    bound = invariants._rank_bound(a)
    for seed in (1, 2):
        candidates = oracle_charseq_candidates(a, trials=20, seed=seed)
        first = gaussian_row(candidates[0])[1]
        assert invariants._kernel_bound(a, first) == len(pivots) - oracle_kernel_rank(maps, candidates[0], a.dim)
        sharp = list(bound)
        if len(sharp) > 1:
            sharp[1] = min(sharp[1], len(pivots) - max(oracle_kernel_rank(maps, x, a.dim) for x in candidates))
        ceiling = invariants._ceiling(a.dim, sharp)
        for x in candidates:
            parts = oracle_right_type(a, x)
            assert _fits(parts, sharp), (x, parts, sharp)
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


def test_sharpened_bound_holds_on_the_non_leibniz_table():
    # the CI's non-Leibniz guard: M^{1,3+i}(11) moved by the fixed dense P,
    # with [y1, y1] += y5.  It is not nilpotent, so it has no characteristic
    # sequence, but the sharpened bound uses no Leibniz identity: rank R_x
    # <= |C| - k holds at every x, checked here on Scalars at seeded x
    a = case_algebra("M1alpha", 11, "3+1i")
    n, v = a.dim, (1, -1, 2, -2)
    moved = change_of_basis(a, Matrix(n, n, [[Scalar(v[(n * r + c) ** 3 % 31 % 4]) for c in range(n)]
                                             for r in range(n)]))
    bad = from_terms(moved.labels, [(i, j, k, c) for i, j, ts in moved.products() for k, c in ts]
                     + [(1, 1, 5, parse_scalar("1"))])
    assert not central_series(bad).is_nilpotent
    pivots, maps = _kernel_maps_hold(bad)
    rng = random.Random(17)
    xs = [{i: parse_scalar("1")} for i in range(n)]
    xs += [{c: Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for c in range(n)} for _ in range(6)]
    ks = [oracle_kernel_rank(maps, x, n) for x in xs]
    assert invariants._kernel_bound(bad, gaussian_row(xs[0])[1]) == len(pivots) - ks[0]
    for x in xs:
        rank_r = oracle_rank([oracle_bracket(bad, unit(n, c), dense_vec(x, n)) for c in range(n)])
        assert rank_r <= len(pivots) - max(ks), (x, rank_r)


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
