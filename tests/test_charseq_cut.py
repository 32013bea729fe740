"""The dominance cut in characteristic_sequence against the uncut loop.

oracle_characteristic_sequence runs every candidate's image chain to the
end; the cut must give the same parts and the same witness, on real
algebras and on any order of the Jordan types the series allows, and it
must actually stop the losing candidates early.
"""

import random
from itertools import combinations_with_replacement

import pytest

from conftest import alg, case_algebra, random_invertible

from oracles import oracle_characteristic_sequence

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


def test_cut_stops_every_loser_of_m15_by_level_1(monkeypatch):
    # M(15) is 3-filiform: its first candidate y1 has type (13, 1, 1, 1),
    # 14 levels down to 0, and every later candidate is dominated by level 1
    a = alg("M", 15)
    central_series(a)
    chain = invariants.image_chain
    yielded = []

    def counting(n, operators):
        yielded.append(0)
        for level in chain(n, operators):
            yielded[-1] += 1
            yield level

    monkeypatch.setattr(invariants, "image_chain", counting)
    assert characteristic_sequence(a).parts == (13, 1, 1, 1)
    assert yielded[0] == 14
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
    # any Jordan type that fits under the series (r_j <= dim L^{j+1}) may
    # turn up at any candidate: both loops read seeded sequences of such
    # types in place of the real chains, and must keep the same first maximum
    a = alg(family, n)
    dims = central_series(a).dims
    fits = [p for p in _partitions(a.dim)
            if all(r <= (dims[j] if j < len(dims) else 0) for j, r in enumerate(_ranks(p)))]
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
