import random
import re
import tracemalloc

import pytest

from conftest import DATA, alg, cached_der, cached_inn, case_algebra
from oracles import oracle_diagonal_gradation, oracle_graded_derivation_split

from leibnizkit import gradations
from leibnizkit.catalog import FAMILIES, FamilySpec, build
from leibnizkit.cohomology import DerivationSpace
from leibnizkit.core import FormatError, from_terms
from leibnizkit.gradations import (
    WeightAssignment,
    graded_derivation_split,
    search_diagonal_gradation,
    verify_gradation,
    weights_dumps,
    weights_loads,
)
from leibnizkit.linalg import Matrix, rank
from leibnizkit.scalars import Scalar


def m_known_weights(n):
    # y_i -> i for i <= n-2, y_{n-1} -> -1, y_n -> 0, z_1 -> n-1
    return WeightAssignment(list(range(1, n - 1)) + [-1, 0, n - 1])


def space_of(*matrices):
    """A DerivationSpace built by hand: each n x n Matrix m as the row of
    d_m * m's entries at r * n + c, d_m the lcm of its denominators."""
    n = matrices[0].rows
    rows = []
    for m in matrices:
        d, cols = m.gaussian_columns()
        rows.append((d, tuple(sorted((r * n + c, v) for c, col in enumerate(cols) for r, v in col.items()))))
    return DerivationSpace(n, rows)


def test_verify_m7_known_certificate():
    rep = verify_gradation(alg("M", 7), m_known_weights(7))
    assert rep.valid and rep.connected
    assert rep.occupied == tuple(range(-1, 7))
    assert rep.length == 8
    assert rep.maximum_length


def test_verify_one_dim_abelian():
    rep = verify_gradation(alg("abelian", 1), WeightAssignment([1]))
    assert rep.valid and rep.maximum_length


def test_verify_trivial_weights_not_maximum():
    rep = verify_gradation(alg("M", 7), WeightAssignment([0] * 8))
    assert rep.valid
    assert rep.length == 1
    assert not rep.maximum_length


def test_verify_reports_violations():
    w = m_known_weights(7)
    bad = list(w.weights)
    bad[1] = 9                       # y2 leaves its slot
    rep = verify_gradation(alg("M", 7), WeightAssignment(bad))
    assert not rep.valid
    assert (0, 0) in rep.violations  # [y1, y1] = y2 no longer homogeneous


def test_verify_rejects_length_mismatch():
    with pytest.raises(ValueError):
        verify_gradation(alg("M", 7), WeightAssignment([1, 2, 3]))


def test_disconnected_occupied_set():
    rep = verify_gradation(alg("abelian", 2), WeightAssignment([0, 2]))
    assert rep.valid
    assert not rep.connected
    assert rep.length is None
    assert rep.occupied == (0, 2)


def test_reflection_preserves_validity():
    for n in (7, 9):
        a = alg("M", n)
        w = m_known_weights(n)
        assert verify_gradation(a, w).valid
        mirrored = WeightAssignment([-x for x in w.weights])
        assert verify_gradation(a, mirrored).valid


def test_search_recovers_m7_known_assignment():
    found = search_diagonal_gradation(alg("M", 7), 8)
    assert found == m_known_weights(7)


def test_search_abelian_plane():
    assert search_diagonal_gradation(alg("abelian", 2), 2).weights == (1, 2)


def test_search_l1_exhausts():
    for n in (7, 8, 9):
        assert search_diagonal_gradation(alg("L1", n), 2 * n) is None


def test_search_n_family_golden():
    for n in (7, 9):
        a = alg("N", n)
        found = search_diagonal_gradation(a)
        with open(f"{DATA}/n{n}_maxlen_weights.json") as fh:
            golden = weights_loads(fh.read(), a)
        assert found == golden
        rep = verify_gradation(a, found)
        assert rep.maximum_length


def test_search_result_always_verifies():
    for family, n in [("M", 8), ("M1alpha", 8), ("N", 7), ("nullfiliform-ml", 6)]:
        a = alg(family, n, **({"alpha": Scalar(1)} if family == "M1alpha" else {}))
        found = search_diagonal_gradation(a)
        assert found is not None
        assert verify_gradation(a, found).maximum_length


def test_search_rejects_bad_max_abs():
    with pytest.raises(ValueError):
        search_diagonal_gradation(alg("M", 7), 0)


@pytest.mark.parametrize("bad", [2.5, 8.5, True, "8"], ids=["float-small", "float", "bool", "str"])
def test_search_takes_only_exact_int_bounds(bad, monkeypatch):
    # 2.5 silently exhausted M(7) and 8.5 failed inside range(); the type is
    # checked before any interval is searched
    searched = []
    monkeypatch.setattr(gradations, "_search_interval", lambda *args: searched.append(args))
    with pytest.raises(TypeError, match="^max_abs must be an int, got %s$" % re.escape(repr(bad))):
        search_diagonal_gradation(alg("M", 7), bad)
    assert searched == []


def test_search_default_bound_on_empty_algebra():
    # the default bound is at least 1, so dim 0 exhausts instead of raising
    assert gradations.default_max_abs(0) == 1 and gradations.default_max_abs(8) == 16
    assert search_diagonal_gradation(from_terms([], [])) is None


@pytest.mark.parametrize("bad", [2.7, "1", True], ids=["float", "str", "bool"])
def test_weight_assignment_takes_only_exact_ints(bad):
    # the same rule as from_json_dict: no value is rounded or converted
    with pytest.raises(TypeError, match="^a weight must be an int, got %s$" % re.escape(repr(bad))):
        WeightAssignment([1, bad, 3])
    assert WeightAssignment([1, -2, 3]).weights == (1, -2, 3)


def test_search_interval_cannot_fit():
    assert search_diagonal_gradation(alg("M", 7), 3) is None   # 8 weights need span 8


def test_split_abelian_plane():
    a = alg("abelian", 2)
    der = cached_der(a)
    split = graded_derivation_split(a, WeightAssignment([1, 2]), der)
    assert split == {-1: 1, 0: 2, 1: 1}
    assert sum(split.values()) == 4


def test_split_m7_sums_to_der_dim():
    a = alg("M", 7)
    split = graded_derivation_split(a, m_known_weights(7), cached_der(a))
    assert sum(split.values()) == 13


def test_split_n7_sums_to_der_dim():
    a = alg("N", 7)
    w = search_diagonal_gradation(a)
    split = graded_derivation_split(a, w, cached_der(a))
    assert sum(split.values()) == 16


def test_split_counts_the_graded_hull_not_the_span():
    # d1 + d2, with d1 and d2 basis derivations of weights 3 and 4, spans a
    # line, but the smallest graded subspace that holds it is <d1, d2>
    a = alg("M", 7)
    w = search_diagonal_gradation(a)
    assert w.weights == (1, 2, 3, 4, 5, -1, 0, 6)

    def weights(m):
        return {w.weights[r] - w.weights[c] for r in range(8) for c in range(8) if m.data[r][c]}

    d1, d2 = ([m for m in cached_der(a).basis if weights(m) == {k}][0] for k in (3, 4))
    assert rank(Matrix(1, 64, [(d1 + d2).flat()])) == 1
    assert graded_derivation_split(a, w, space_of(d1 + d2)) == {3: 1, 4: 1}
    assert graded_derivation_split(a, w, space_of(d1, d2, d1 + d2)) == {3: 1, 4: 1}


def test_split_components_recombine(rng):
    a = alg("M", 7)
    w = m_known_weights(7)
    der = cached_der(a)
    for _ in range(20):
        m = Matrix.zero(8, 8)
        for b in der.basis:
            c = Scalar(rng.randint(-3, 3))
            m = m + b.scale(c)
        components = {}
        for r in range(8):
            for col in range(8):
                v = m.data[r][col]
                if v:
                    key = w.weights[r] - w.weights[col]
                    comp = components.setdefault(key, Matrix.zero(8, 8))
                    comp.data[r][col] = v
        total = Matrix.zero(8, 8)
        for comp in components.values():
            total = total + comp
        assert total == m


def test_split_rejects_invalid_gradation():
    a = alg("M", 7)
    with pytest.raises(ValueError):
        graded_derivation_split(a, WeightAssignment([1] * 7 + [2]), cached_der(a))


def test_split_rejects_non_derivation():
    a = alg("M", 7)
    bad = Matrix.zero(8, 8)
    bad.data[0][1] = Scalar(1)
    ok = graded_derivation_split(a, m_known_weights(7), cached_der(a))
    with pytest.raises(ValueError):
        graded_derivation_split(a, m_known_weights(7), space_of(bad))
    with pytest.raises(ValueError):   # the bad row after two good ones
        graded_derivation_split(a, m_known_weights(7), space_of(*cached_der(a).basis[:2], bad))
    assert sum(ok.values()) == 13


def test_split_rejects_a_space_of_another_size():
    a = alg("M", 7)
    with pytest.raises(ValueError):
        graded_derivation_split(a, m_known_weights(7), cached_der(alg("M", 9)))
    with pytest.raises(ValueError):
        graded_derivation_split(a, m_known_weights(7), DerivationSpace(7, ()))


@pytest.mark.parametrize("family, n, alpha", [
    (family, n, alpha) for n in (7, 9, 11)
    for family, alpha in (("M", None), ("M1alpha", "1"), ("M1alpha", "-1"), ("M1alpha", "1i"),
                          ("N", None), ("nullfiliform-ml", None))])
def test_split_of_der_and_inn_is_the_matrix_oracle(family, n, alpha):
    a = case_algebra(family, n, alpha)
    w = search_diagonal_gradation(a)
    assert verify_gradation(a, w).maximum_length
    for space in (cached_der(a), cached_inn(a)):
        split = graded_derivation_split(a, w, space)
        assert split == oracle_graded_derivation_split(w, space.basis)
        assert sum(split.values()) == space.dim   # Der and Inn are graded


def test_split_of_abelian_under_random_weights_is_the_matrix_oracle():
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 5):
        a = alg("abelian", n)
        der = cached_der(a)
        for _ in range(4):
            w = WeightAssignment([rng.randint(-3, 3) for _ in range(n)])
            split = graded_derivation_split(a, w, der)
            assert split == oracle_graded_derivation_split(w, der.basis)
            assert sum(split.values()) == n * n
            assert graded_derivation_split(a, w, cached_inn(a)) == {}


def test_weights_file_round_trip():
    a = alg("M", 7)
    w = m_known_weights(7)
    text = weights_dumps(a, w)
    assert weights_loads(text, a) == w


def test_weights_file_errors():
    a = alg("abelian", 2)
    with pytest.raises(FormatError):
        weights_loads('{"weights": {"c1": 1}}', a)                  # missing c2
    with pytest.raises(FormatError):
        weights_loads('{"weights": {"c1": 1, "c2": 2, "c3": 3}}', a)  # unknown label
    with pytest.raises(FormatError):
        weights_loads('{"weights": {"c1": 1, "c2": "x"}}', a)       # non-integer
    with pytest.raises(FormatError) as err:
        weights_loads('{"weights": {"c1": true, "c2": 2}}', a)      # bool is not a weight
    assert "weight of 'c1' must be an integer" in str(err.value)
    with pytest.raises(FormatError):
        weights_loads('[]', a)


# -- forward-checking search against the plain backtracking oracle -------------

def _table(d, products):
    """Algebra on e0..e{d-1} with [e_i, e_j] = c e_k per (i, j, k, c)."""
    return from_terms(["e%d" % t for t in range(d)], products)


def _random_tables(count, seed=1311):
    """(algebra, max_abs) for seeded sparse tables: d = 3..7, 1-7 single-term
    products with random coefficients, max_abs the default, 2 or 3."""
    rng = random.Random(seed)
    coeffs = (Scalar(1), Scalar(-1), Scalar(2), Scalar(1, 1))
    for _ in range(count):
        d = rng.randint(3, 7)
        pairs = {(rng.randrange(d), rng.randrange(d)): rng.randrange(d)
                 for _ in range(rng.randint(1, 7))}
        products = [(i, j, k, rng.choice(coeffs)) for (i, j), k in sorted(pairs.items())]
        yield _table(d, products), rng.choice((None, 2, 3))


def test_search_matches_oracle_on_random_tables():
    mismatches, found = [], 0
    for a, max_abs in _random_tables(1200):
        got = search_diagonal_gradation(a, max_abs)
        if got != oracle_diagonal_gradation(a, max_abs):
            mismatches.append((a.key(), max_abs, got))
        found += got is not None
    assert not mismatches
    assert found >= 100          # the pool holds positives, not only exhausted spaces


def test_search_matches_oracle_on_random_tables_at_a_wide_bound():
    # at max_abs = 4d the oracle tries every offset in [-4d, 3d + 1]; the
    # search only those in [2 - 2d, d - 1] of an algebra with a product
    mismatches, found = [], 0
    for a, _ in _random_tables(150, seed=1312):
        max_abs = 4 * a.dim
        got = search_diagonal_gradation(a, max_abs)
        if got != oracle_diagonal_gradation(a, max_abs):
            mismatches.append((a.key(), max_abs, got))
        found += got is not None
    assert not mismatches
    assert found >= 30


def test_the_offset_bound_is_attained():
    # [e0, e0] = e0 forces w0 = 0, the one offset in [2 - 2d, d - 1] at
    # d = 1; at d = 2 the squares [e0, e0] = e1 and [e1, e1] = e0 are first
    # graded at a = 1 = d - 1, and the lowest offset a = 2 - 2d = -2 holds
    # the second of them too
    for d, products, want in ((1, [(0, 0, 0)], (0,)), (2, [(0, 0, 1)], (1, 2)), (2, [(1, 1, 0)], (2, 1))):
        a = _table(d, [(i, j, k, Scalar(1)) for i, j, k in products])
        for max_abs in (None, 4 * d):
            assert search_diagonal_gradation(a, max_abs).weights == want
            assert oracle_diagonal_gradation(a, max_abs).weights == want
    triggers = gradations._triggers(gradations._homogeneity_forms(a), 2)
    assert gradations._search_interval(triggers, 2, -2) == [-2, -1]


def test_a_huge_bound_tries_at_most_3d_intervals(monkeypatch):
    # NGF1(41) has no diagonal maximum-length gradation; at max_abs = 10^9
    # only the offsets in [2 - 2d, d - 1] are searched, 3d - 2 of them
    a = build(FamilySpec("NGF1", 41))
    d = a.dim
    search = gradations._search_interval
    tried = []

    def record(triggers, dim, offset):
        tried.append(offset)
        return search(triggers, dim, offset)
    monkeypatch.setattr(gradations, "_search_interval", record)
    assert search_diagonal_gradation(a, 10 ** 9) is None
    assert len(tried) <= 3 * d
    assert all(2 - 2 * d <= offset <= d - 1 for offset in tried)
    assert tried == sorted(tried, key=lambda offset: (abs(offset - 1), 0 if offset >= 1 else 1))


def test_search_matches_oracle_on_late_binding_negatives():
    # [e_{d-1}, e_{d-1}] = [e_{d-2}, e_{d-2}] = e_0 forces w_{d-1} = w_{d-2}:
    # the plain search meets the clash only at position d-1 and grows about
    # x11 per step, so d = 9 runs on the three intervals of max_abs = 5
    for d, max_abs in ((6, None), (7, None), (8, None), (9, 5)):
        a = _table(d, [(d - 2, d - 2, 0, Scalar(1)), (d - 1, d - 1, 0, Scalar(1))])
        assert search_diagonal_gradation(a, max_abs) is None
        assert oracle_diagonal_gradation(a, max_abs) is None


def _no_interval(*args):
    raise AssertionError("an interval was searched")


def test_search_matches_oracle_on_equal_form_negatives(monkeypatch):
    # [e_{d-4}, e_{d-3}] = e_{d-2} and [e_{d-3}, e_{d-4}] = e_{d-1} force
    # w_{d-2} = w_{d-1}; the forms differ in that one position, so the
    # search answers before it tries any interval (16 s at d = 9 without)
    for d, max_abs in ((7, None), (8, None), (9, 5)):
        a = _table(d, [(d - 4, d - 3, d - 2, Scalar(1)), (d - 3, d - 4, d - 1, Scalar(1))])
        assert oracle_diagonal_gradation(a, max_abs) is None
        with monkeypatch.context() as m:
            m.setattr(gradations, "_search_interval", _no_interval)
            assert search_diagonal_gradation(a, max_abs) is None
            assert search_diagonal_gradation(a) is None


@pytest.mark.parametrize("d, max_abs", [(1, 1), (3, 1), (4, 2), (5, 2), (8, 5), (8, 16), (12, 7)])
def test_intervals_are_tried_in_the_oracle_order(d, max_abs, monkeypatch):
    # the offsets are made one at a time, in the order of the oracle's
    # sorted list: |a - 1| ascending, a >= 1 first on a tie
    tried = []

    def record(triggers, dim, a):
        tried.append(a)
    monkeypatch.setattr(gradations, "_search_interval", record)
    assert search_diagonal_gradation(_table(d, []), max_abs) is None
    assert tried == sorted(range(-max_abs, max_abs - d + 2),
                           key=lambda a: (abs(a - 1), 0 if a >= 1 else 1))


def test_a_huge_bound_costs_no_memory():
    # the first interval that fits M(7) is found long before the offsets
    # of max_abs = 10^9 run out, and none of them is made in advance
    a = alg("M", 7)
    want = search_diagonal_gradation(a)
    tracemalloc.start()
    try:
        assert search_diagonal_gradation(a, 10 ** 9) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_search_does_not_recurse_per_basis_position():
    # a search that recursed once per position hit the recursion limit
    # near dimension 990
    a = build(FamilySpec("nullfiliform-ml", 1500))
    found = search_diagonal_gradation(a)
    assert found.weights == tuple(range(1, 1501))
    assert verify_gradation(a, found).maximum_length


@pytest.mark.parametrize("n", (7, 9, 11, 15))
def test_search_matches_oracle_on_catalog(n):
    for family in FAMILIES:
        alphas = ("-1", "1", "1i") if family == "M1alpha" else (None,)
        for alpha in alphas:
            a = case_algebra(family, n, alpha)
            assert search_diagonal_gradation(a) == oracle_diagonal_gradation(a), (family, n, alpha)
