"""Equations at L^2's pivot columns, annihilators on the generators.

A vector of L^2 is zero iff its entries at the pivot columns of L^2's
echelon are (SparseEchelon.pivots).  Every product lies in L^2, so the
annihilator systems and the kernel-map equations of invariants keep only
those coordinates, and so does Der's E(w_k, g) when G is smaller than the
basis, since d_u then maps L^2 into itself.  On a Leibniz algebra whose
certified G is smaller than the basis, Ann_l and R(L) are cut out by the
generators' operators alone (core.generator_operators), and the center is
their intersection.  No answer changes: the center, R(L), the kernel maps,
the Der basis and the characteristic sequence (parts and witness) equal
the oracles, which impose every equation in every coordinate, on every
catalog family at n = 5 to 13, on seeded dense conjugates whose matrices
hold zeros, on the CI's non-Leibniz table and on mutated tables, on direct
sums and on algebras whose G is every index.

The cost tests pin the rows the echelons are handed on the benchmark's
dense-basis jobs (perfbench/workloads.py, seed 1, 4 rounds), recorded by
the function that hands them over.
"""

import random
import sys
from collections import Counter

import pytest

from conftest import alg, dense_basis_move, mutated_m7, random_invertible

from oracles import (
    oracle_center,
    oracle_characteristic_sequence,
    oracle_derivation_space,
    oracle_kernel_maps,
    oracle_right_annihilator,
    oracle_square_pivots,
)

from leibnizkit import catalog, invariants, linalg
from leibnizkit.catalog import _FAMILY_TABLE, FAMILIES, FamilySpec
from leibnizkit.cohomology import derivation_space, inner_derivation_space
from leibnizkit.core import (
    change_of_basis,
    direct_sum,
    from_terms,
    generating_set,
    generator_operators,
    is_leibniz,
    leibniz_residual,
    square_span,
)
from leibnizkit.invariants import center, central_series, characteristic_sequence, natural_graded, right_annihilator
from leibnizkit.linalg import Matrix, scalar_vector
from leibnizkit.scalars import Scalar, parse_scalar


def fresh(a):
    """An equal algebra with no memo filled."""
    return from_terms(a.labels, [(i, j, k, c) for i, j, terms in a.products() for k, c in terms])


def lie_ex():
    """[e, x] = e, [x, e] = -e: not nilpotent, so G is every index."""
    return from_terms(["e", "x"], [(0, 1, 0, Scalar(1)), (1, 0, 0, Scalar(-1))])


def catalog_algebra(family, n, alpha=None):
    return alg(family, n, **({"alpha": parse_scalar(alpha)} if alpha else {}))


def ci_dense(family, n, alpha=None):
    """The catalog table moved by the CI's fixed dense P."""
    a = catalog_algebra(family, n, alpha)
    m, v = a.dim, (1, -1, 2, -2)
    return change_of_basis(a, Matrix(m, m, [[Scalar(v[(m * r + c) ** 3 % 31 % 4]) for c in range(m)]
                                            for r in range(m)]))


def ci_not_leibniz():
    """The CI's non-Leibniz guard: dense M^{1,3+i}(11) with [y1, y1] += y5."""
    moved = ci_dense("M1alpha", 11, "3+1i")
    return from_terms(moved.labels, [(i, j, k, c) for i, j, ts in moved.products() for k, c in ts]
                      + [(1, 1, 5, Scalar(1))])


def normalized_map(images, n):
    """A map given by its images V e_j, dense or {index: (re, im)}, as one
    flat Scalar tuple divided by its first nonzero entry."""
    flat = [x for image in images
            for x in (scalar_vector(image.items(), 1, n) if isinstance(image, dict) else image)]
    lead = next(x for x in flat if x)
    return tuple(x / lead for x in flat)


def assert_matches_oracles(a):
    a = fresh(a)
    n = a.dim
    assert center(a) == oracle_center(a)
    assert right_annihilator(a) == oracle_right_annihilator(a)
    pivots, maps = invariants._kernel_maps(a)
    want_pivots, want_maps = oracle_kernel_maps(a)
    assert list(pivots) == want_pivots
    assert [normalized_map(m, n) for m in maps] == [normalized_map(m, n) for m in want_maps]
    if is_leibniz(a):
        assert derivation_space(a).basis == oracle_derivation_space(a).basis
    if central_series(a).is_nilpotent:
        assert characteristic_sequence(a) == oracle_characteristic_sequence(a)


CATALOG = [(family, n, alpha) for family in FAMILIES if family != "abelian"
           for _, least, odd in (_FAMILY_TABLE[family],) for n in range(max(5, least), 14) if n % 2 or not odd
           for alpha in (("3+1i", "-1", "0") if family == "M1alpha" else (None,))]


@pytest.mark.parametrize("family,n,alpha", CATALOG)
def test_catalog_matches_the_oracles(family, n, alpha):
    assert_matches_oracles(catalog_algebra(family, n, alpha))


@pytest.mark.parametrize("family,n,alpha", [("M", 5, None), ("M1alpha", 5, "3+1i"), ("NGF1", 5, None),
                                            ("L1", 7, None), ("KF4", 7, None), ("KF5", 7, None),
                                            ("N", 7, None), ("nullfiliform-ml", 6, None)])
def test_dense_conjugates_with_zero_entries_match_the_oracles(family, n, alpha):
    a = catalog_algebra(family, n, alpha)
    rng = random.Random("zeros/%s/%d" % (family, n))
    for _ in range(2):
        p = random_invertible(rng, a.dim)
        assert any(not x for x in p.flat())
        moved = change_of_basis(a, p)
        assert len(generating_set(moved)) < moved.dim
        assert_matches_oracles(moved)


def test_the_ci_dense_move_matches_the_oracles():
    for a in (ci_dense("M", 7), ci_dense("M1alpha", 7, "3+1i")):
        assert_matches_oracles(a)


def with_term(a, i, j, k):
    """a with [e_i, e_j] += e_k."""
    return from_terms(a.labels, [(x, y, z, c) for x, y, ts in a.products() for z, c in ts] + [(i, j, k, Scalar(1))])


def generators_only(a, index):
    """The kernel of the generators' operators alone at L^2's pivots."""
    keep = frozenset(square_span(a).pivots())
    return invariants._annihilator(a.dim, [index[g] for g in generating_set(a)], keep).kernel_basis()


def test_non_leibniz_tables_match_the_oracles():
    # G is certified on the first four, but no Leibniz identity holds, so
    # the annihilators keep every operator: the generators' alone would cut
    # out a larger Ann_l on the CI's table and a larger R(L) on the others
    ci = ci_not_leibniz()
    tables = [ci, with_term(catalog_algebra("M", 7), 2, 1, 4), with_term(catalog_algebra("L1", 7), 1, 0, 2),
              with_term(catalog_algebra("KF4", 7), 2, 1, 4)]
    for a in tables + [mutated_m7()]:
        assert not is_leibniz(a)
        assert_matches_oracles(a)
        assert len(generator_operators(a, a.by_right)) == a.dim
    assert all(len(generating_set(a)) < a.dim for a in tables)
    assert len(generators_only(ci, ci.by_right)) > ci.dim - len(oracle_kernel_maps(ci)[0])
    for a in tables[1:]:
        assert len(generators_only(a, a.by_left)) > len(oracle_right_annihilator(a))


def test_direct_sums_and_fallbacks_match_the_oracles():
    # the last three fall back to G = every index; moved by a dense P, the
    # L^2 of lie_ex is no longer spanned by a basis vector, so a coordinate
    # filter on Der would drop equations there
    sums = [direct_sum(catalog_algebra("N", 7), alg("abelian", 2)),
            direct_sum(catalog_algebra("M1alpha", 6, "3+1i"), catalog_algebra("L1", 7)),
            direct_sum(lie_ex(), catalog_algebra("M", 5)), lie_ex(),
            change_of_basis(lie_ex(), Matrix(2, 2, [[1, 2], [1, -1]]))]
    for a in sums:
        assert_matches_oracles(a)
    assert all(generating_set(fresh(a)) == tuple(range(a.dim)) for a in sums[2:])
    assert len(square_span(sums[-1]).gaussian_rows()[0]) == 2


@pytest.mark.parametrize("m", [0, 1, 3])
def test_abelian_matches_the_oracles(m):
    a = alg("abelian", m)
    assert generating_set(a) == tuple(range(m)) and generator_operators(a, a.by_left) is a.by_left
    assert_matches_oracles(a)


def test_graded_algebras_match_the_oracles():
    for family, n, alpha in (("L1", 9, None), ("M1alpha", 9, "1i"), ("KF5", 9, None)):
        assert_matches_oracles(natural_graded(ci_dense(family, n, alpha))[0])


def test_pivots_decide_every_vector_of_the_span():
    # a combination of L^2's RREF rows is zero iff its pivot entries are,
    # and the pivots are those of the oracle's echelon
    rng = random.Random(3)
    for a in (ci_dense("M", 11), ci_dense("L1", 9), catalog_algebra("N", 9)):
        span = square_span(a)
        pivots = span.pivots()
        assert list(pivots) == oracle_square_pivots(a) == [row[0][0] for row in span.gaussian_rows()]
        for _ in range(20):
            coefficients = {pc: (rng.randint(-2, 2), rng.randint(-1, 1)) for pc in pivots}
            v = linalg.gaussian_combination({pc: dict(row) for pc, row in zip(pivots, span.gaussian_rows())},
                                            {pc: c for pc, c in coefficients.items() if c != (0, 0)})
            assert (not v) == (not any(c in v for c in pivots))


# -- cost: rows handed to the echelons on the dense-basis jobs -------------

DENSE_STRATA = (("NGF1", 5, None), ("M", 5, None), ("M1alpha", 5, "3+1i"), ("M1alpha", 5, "-1"))


def dense_basis_jobs(seed, rounds):
    """The moved tables of the benchmark's first dense-basis rounds, each
    round the four strata in a seeded order and each move a seeded dense
    matrix with entries in {-2, -1, 1, 2}, moved from fresh catalog tables."""
    rng = random.Random("dense-basis:%d" % seed)
    built, jobs = {}, []
    for _ in range(rounds):
        for f, n, alpha in rng.sample(DENSE_STRATA, len(DENSE_STRATA)):
            if (f, n, alpha) not in built:
                built[(f, n, alpha)] = catalog.build(FamilySpec(f, n, {"alpha": parse_scalar(alpha)} if alpha else None))
            a = built[(f, n, alpha)]
            jobs.append(change_of_basis(a, dense_basis_move(rng, a.dim)))
    return jobs


@pytest.fixture
def handed(monkeypatch):
    """Rows handed to any SparseEchelon, counted by the function that hands
    them over; rows from invariants._annihilator are counted under it."""
    counts = Counter()
    add = linalg.SparseEchelon.add_gaussian

    def recording(self, row):
        caller = sys._getframe(1).f_code.co_name
        counts["_annihilator" if caller in ("_annihilator", "center") else caller] += 1
        return add(self, row)
    monkeypatch.setattr(linalg.SparseEchelon, "add_gaussian", recording)
    return counts


def test_rows_handed_to_the_echelons_on_the_dense_basis_jobs(handed):
    # per job, over the 16 jobs: annihilators 153.4 -> 32.0 (every operator
    # in every coordinate before), kernel-map pairs 59.1 -> 29.2, Der
    # 35.1 -> 20.2 and closure adds 14.4 -> 9.1 (the closure bracketed on
    # after it was full)
    for b in dense_basis_jobs(1, 4):
        assert leibniz_residual(b) == []
        central_series(b)
        center(b)
        right_annihilator(b)
        characteristic_sequence(b)
        derivation_space(b)
        inner_derivation_space(b)
    got = {name: handed[name] for name in ("_annihilator", "_kernel_maps", "derivation_space", "_close")}
    assert got == {"_annihilator": 512, "_kernel_maps": 467, "derivation_space": 323, "_close": 145}


def test_annihilator_rows_are_the_generators_at_the_pivots(handed):
    # on the CI's dense M(11), |G| = 3 and dim L^2 = 9: the echelons of
    # Ann_l and R(L), both kept on the first call, take |G| * 9 rows each
    # where they took n^2 = 144; the center then adds R(L)'s kept rows to a
    # copy of Ann_l's, where it took 288
    a = fresh(ci_dense("M", 11))
    g, l2 = len(generating_set(a)), len(square_span(a))
    assert (a.dim, g, l2) == (12, 3, 9)
    right_annihilator(a)
    assert handed["_annihilator"] == 2 * g * l2
    handed.clear()
    center(a)
    assert handed["_annihilator"] == len(invariants.memo(a, invariants._annihilators)[1])
