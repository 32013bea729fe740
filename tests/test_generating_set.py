"""The residual and Der(L) on a generating set, against the full loops.

core.is_leibniz decides from the triples whose third index is a generator,
and cohomology.derivation_space imposes the derivation identity only on
the pairs (w_k, e_g) of a closure word and a generator that made no word,
solved for the d(e_g) alone along core.generating_words.  tests/oracles.py keeps the loops over every triple
and every pair, in all dim^2 entries; both answers must be equal on every
catalog family at n = 7 to 12 and 15, on seeded dense conjugates, on gr L,
on direct sums with an abelian summand, on a non-nilpotent Lie algebra
(whose generating set falls back to the whole basis) and on thousands of
seeded mutated tables, most of them not Leibniz.
"""

import random

import pytest

from conftest import alg, record_derivations

from oracles import add_row, oracle_derivation_space, oracle_residual

from leibnizkit import core
from leibnizkit.catalog import FAMILIES
from leibnizkit.cohomology import derivation_space, is_derivation
from leibnizkit.core import (
    NotLeibnizError,
    change_of_basis,
    direct_sum,
    first_non_derivation,
    from_terms,
    generating_set,
    generating_words,
    leibniz_residual,
    require_leibniz,
    sparse_bracket,
)
from leibnizkit.invariants import central_series, natural_graded
from leibnizkit.linalg import Matrix, SparseEchelon, rank
from leibnizkit.scalars import Scalar, from_gaussian, parse_scalar

CATALOG = [(family, n, alpha) for n in (7, 8, 9, 10, 11, 12, 15) for family in FAMILIES
           if family != "N" or n % 2
           for alpha in (("-1", "1i", "1/2", "5/3", "3+1i") if family == "M1alpha" else (None,))]


def catalog_algebra(family, n, alpha=None):
    return alg(family, n, **({"alpha": parse_scalar(alpha)} if alpha else {}))


def fresh(a):
    """An equal algebra with no memo filled."""
    return from_terms(a.labels, [(i, j, k, c) for i, j, terms in a.products() for k, c in terms])


def lie_ex():
    """[e, x] = e, [x, e] = -e: a non-nilpotent Lie algebra, so Leibniz.
    L^2 = span e, and x alone spans its closure under R_x, so the
    generating set falls back to both indices."""
    return from_terms(["e", "x"], [(0, 1, 0, Scalar(1)), (1, 0, 0, Scalar(-1))])


def dense_invertible(rng, n):
    """A seeded invertible matrix with every entry in {1, -1, 2, -2}."""
    while True:
        m = Matrix(n, n, [[Scalar(rng.choice((1, -1, 2, -2))) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def codim_square(a):
    """dim L - dim L^2, L^2 the span of all products."""
    span = SparseEchelon(a.dim)
    for _, _, terms in a.products():
        add_row(span, dict(terms))
    return a.dim - len(span)


def assert_words(a):
    """The closure words are a basis of L: first the e_g, g in G, then
    each D * [w_p, e_g] of an earlier word p."""
    words = generating_words(a)
    generators = generating_set(a)
    assert len(words) == a.dim
    assert [(p, g, dict(w)) for p, g, w in words[:len(generators)]] == \
        [(None, g, {g: (1, 0)}) for g in generators]
    for k, (p, g, w) in enumerate(words[len(generators):], start=len(generators)):
        assert p is not None and 0 <= p < k and g in generators
        assert dict(w) == sparse_bracket(a, dict(words[p][2]), {g: (1, 0)})
    span = SparseEchelon(a.dim)
    assert all(span.add_gaussian(dict(w)) for _, _, w in words)


def assert_matches_oracles(a):
    """Residual and (for a Leibniz algebra) Der basis equal to the full
    loops, on a fresh copy: Der solved for the d(e_g) along the closure
    words against all dim^2 entries on all pairs; every Der basis element
    passes the all-pairs is_derivation."""
    a = fresh(a)
    want = oracle_residual(a)
    assert leibniz_residual(a) == want
    if want:
        with pytest.raises(NotLeibnizError):
            derivation_space(a)
        return
    der = derivation_space(a)
    assert der.basis == oracle_derivation_space(a).basis
    assert all(is_derivation(a, m) for m in der.basis)
    assert_words(a)


@pytest.mark.parametrize("family,n,alpha", CATALOG)
def test_catalog_family_matches_the_full_loops(family, n, alpha):
    a = catalog_algebra(family, n, alpha)
    assert_matches_oracles(a)
    # a complement of L^2 generates a nilpotent Leibniz algebra
    assert len(generating_set(a)) == codim_square(a)


@pytest.mark.parametrize("family,n,alpha", [("NGF1", 5, None), ("M", 5, None), ("M1alpha", 5, "3+1i"),
                                            ("M1alpha", 5, "-1"), ("L1", 7, None), ("KF5", 7, None),
                                            ("N", 7, None), ("M1alpha", 7, "5/3"), ("M", 6, None),
                                            ("M1alpha", 6, "3+1i"), ("nullfiliform-ml", 7, None)])
def test_dense_conjugates_match_the_full_loops(family, n, alpha):
    rng = random.Random("%s/%d/%s" % (family, n, alpha))
    a = catalog_algebra(family, n, alpha)
    for _ in range(2):
        moved = change_of_basis(a, dense_invertible(rng, a.dim))
        assert_matches_oracles(moved)
        assert len(generating_set(moved)) == codim_square(moved) < moved.dim


@pytest.mark.parametrize("family,n,alpha", [("L1", 9, None), ("N", 9, None), ("M1alpha", 9, "1i"),
                                            ("KF4", 9, None), ("NGF1", 11, None)])
def test_associated_graded_matches_the_full_loops(family, n, alpha):
    gr, _dims = natural_graded(catalog_algebra(family, n, alpha))
    assert_matches_oracles(gr)
    assert len(generating_set(gr)) == codim_square(gr)


@pytest.mark.parametrize("family,n,alpha,m", [("M", 7, None, 1), ("L1", 7, None, 2),
                                              ("M1alpha", 7, "5/3", 3), ("N", 7, None, 2)])
def test_direct_sum_with_an_abelian_summand_matches_the_full_loops(family, n, alpha, m):
    a = direct_sum(catalog_algebra(family, n, alpha), alg("abelian", m))
    assert_matches_oracles(a)
    generators = generating_set(a)
    assert len(generators) == codim_square(a) < a.dim
    assert set(range(a.dim - m, a.dim)) <= set(generators)   # each abelian vector is a generator


def test_non_nilpotent_lie_algebra_falls_back_to_every_index():
    a = lie_ex()
    assert central_series(a).nilindex is None
    assert codim_square(a) == 1
    assert generating_set(a) == (0, 1)
    assert generating_words(a) == ((None, 0, {0: (1, 0)}), (None, 1, {1: (1, 0)}))
    assert_matches_oracles(a)
    assert derivation_space(a).dim == 2   # the closure over x alone would admit dim 3


def test_fallback_inside_a_direct_sum():
    a = direct_sum(lie_ex(), catalog_algebra("M", 5))
    assert generating_set(a) == tuple(range(a.dim))
    assert_matches_oracles(a)


def test_abelian_and_empty_algebras():
    for m in (0, 1, 4):
        a = alg("abelian", m)
        assert generating_set(a) == tuple(range(m))
        assert_matches_oracles(a)


def test_generating_set_is_memoized_outside_equality_and_hash(monkeypatch):
    a, other = fresh(catalog_algebra("M", 7)), fresh(catalog_algebra("M", 7))
    before = (hash(a), a.key())
    derived = record_derivations(monkeypatch, core, "_generators")
    generators = generating_set(a)
    assert generating_set(a) is generators and len(derived) == 1 and derived[0] is a
    assert a == other and hash(a) == hash(other) == before[0] and a.key() == before[1]
    assert generating_set(other) == generators and len(derived) == 2 and derived[1] is other


def test_closure_words_are_read_only_and_derived_once(monkeypatch):
    a, other = fresh(catalog_algebra("N", 9)), fresh(catalog_algebra("N", 9))
    closures = record_derivations(monkeypatch, core, "_close")
    words = generating_words(a)
    assert generating_words(a) is words and len(closures) == 1
    with pytest.raises(TypeError):
        words[-1][2][0] = (1, 0)
    # G is read off the words with no parent, from the one closure
    generators = generating_set(other)
    assert generating_words(other) == words and len(closures) == 2 and closures[1] is other
    assert generators == tuple(g for p, g, _ in words if p is None) and generating_set(other) is generators


MUTATION_BASES = [("M", 5, None), ("NGF1", 5, None), ("M1alpha", 5, "1i"), ("M1alpha", 6, "-1"),
                  ("L1", 7, None), ("KF4", 7, None), ("KF5", 7, None), ("N", 7, None),
                  ("nullfiliform-ml", 6, None)]
COEFFICIENTS = (Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1), from_gaussian(1, 0, 2))


def mutate(rng, a):
    """a with one to three seeded changes: a product term added, scaled or
    removed.  Most results are not Leibniz."""
    terms = [(i, j, k, c) for i, j, ts in a.products() for k, c in ts]
    n = a.dim
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0 or not terms:
            terms.append((rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.choice(COEFFICIENTS)))
        elif kind == 1:
            t = rng.randrange(len(terms))
            i, j, k, c = terms[t]
            terms[t] = (i, j, k, c * rng.choice(COEFFICIENTS))
        else:
            terms.pop(rng.randrange(len(terms)))
    return from_terms(a.labels, terms)


@pytest.mark.parametrize("block", range(5))
def test_mutated_tables_match_the_full_loops(block):
    rng = random.Random(7100 + block)
    leibniz = 0
    for t in range(440):
        family, n, alpha = MUTATION_BASES[t % len(MUTATION_BASES)]
        a = mutate(rng, catalog_algebra(family, n, alpha))
        want = oracle_residual(a)
        assert leibniz_residual(a) == want
        if want:
            k = min(triple[2] for triple in want)
            with pytest.raises(NotLeibnizError, match="^R_%s is not" % a.labels[k]):
                require_leibniz(a)
        else:
            leibniz += 1
            assert derivation_space(a).basis == oracle_derivation_space(a).basis
    assert 0 < leibniz < 440


@pytest.mark.parametrize("block", range(2))
def test_first_non_derivation_names_the_least_k_of_the_full_loop(block):
    # a walk that is cut at the first failing map, here one that raises if
    # it is pulled any further, still returns that map's position
    rng = random.Random(7300 + block)
    late = 0
    for t in range(300):
        family, n, alpha = MUTATION_BASES[t % len(MUTATION_BASES)]
        a = mutate(rng, catalog_algebra(family, n, alpha))
        want = oracle_residual(a)
        k = min(triple[2] for triple in want) if want else None
        assert first_non_derivation(a, a.by_right) == k
        if k is not None:
            assert first_non_derivation(a, cut_after(a.by_right, k)) == k
            late += k > 0
    assert late >= 3   # some tables fail first past R_{e_0}


def cut_after(maps, last):
    """The maps up to position last, then an error if pulled further."""
    for position, m in enumerate(maps):
        if position > last:
            raise AssertionError("map %d was pulled past the first failure" % position)
        yield m


def test_the_walk_stops_before_a_map_that_cannot_be_read():
    # the maps after the first failure are never touched: here the next one
    # would fail to be read at all
    bad = from_terms(["a", "b", "c"], [(0, 1, 2, Scalar(1))])   # [a, b] = c
    shift = {0: ((1, (1, 0)),)}                                   # d a = b
    assert first_non_derivation(bad, iter([{}, shift, None])) == 1
    with pytest.raises(AttributeError):
        first_non_derivation(bad, iter([{}, {}, None]))


@pytest.mark.parametrize("family, n, alpha", CATALOG)
def test_every_right_operator_of_a_catalog_algebra_is_a_derivation(family, n, alpha):
    a = catalog_algebra(family, n, alpha)
    assert first_non_derivation(a, a.by_right) is None
    assert first_non_derivation(a, []) is None
