"""The central series on a generating set, and the one kept echelon of L^2.

On a Leibniz algebra whose generating set G is certified, invariants._series
runs the image chain of the R_g, g in G, from the kept L^2 on; every other
algebra keeps the chain of all the R_{e_j} from Q(i)^n, which
tests/oracles.py::oracle_series is.  Every level must be equal, on every
catalog family at n = 7, 9, 11 and 15, on seeded dense conjugates, on gr L,
on direct sums with an abelian summand, on a non-nilpotent Lie algebra
(the fallback) and on seeded random Leibniz tables; a table that is not
Leibniz must take the all-operator path, and the series finds that out
through core.is_leibniz, which walks the R_g, g in G, alone, and only up
to the first that is not a derivation.

core.square_span keeps L^2 on the algebra for generating_set, the series
and the characteristic-sequence candidates; generating_set extends a copy,
so the kept rows must still be those of a fresh L^2 after all three ran.
"""

import random

import pytest

from cases import catalog, catalog_algebra, ci_not_leibniz, moved
from conftest import alg, fresh, generator_walk, lie_ex, mutated_m7, record_walks

from oracles import oracle_residual, oracle_series

from leibnizkit import invariants
from leibnizkit.core import (
    change_of_basis,
    direct_sum,
    from_terms,
    generating_set,
    is_leibniz,
    leibniz_residual,
    square_span,
)
from leibnizkit.invariants import central_series, characteristic_sequence, natural_graded
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import Scalar

CATALOG = catalog((7, 9, 11, 15))
SMALL = catalog((7,))


def chains(monkeypatch):
    """Records (number of operators, whether a start level was given) for
    each image chain invariants starts."""
    chain = invariants.image_chain
    calls = []

    def recording(n, operators, level=None):
        calls.append((len(operators), level is not None))
        return chain(n, operators, level)

    monkeypatch.setattr(invariants, "image_chain", recording)
    return calls


def assert_series_matches_the_oracle(a):
    """Every level of the series of a fresh copy equals the all-operator
    chain's, and each sparse row is the RREF row times its positive lead."""
    a = fresh(a)
    series = central_series(a)
    assert (series.subspace_bases, series.dims, series.nilindex) == oracle_series(a)
    for level, basis in zip(series.levels, series.subspace_bases):
        for row, vec in zip(level, basis):
            (pivot, (lead, im)), rest = row[0], row[1:]
            assert lead > 0 and im == 0 and vec[pivot] == 1
            assert [c for c, _ in rest] == sorted(c for c, _ in rest) and all(c > pivot for c, _ in rest)
    return a


def series_path(a, monkeypatch):
    """Whether the series of a fresh copy runs its one chain on the R_g of
    a certified G from L^2; otherwise it must run on every R_{e_j} from
    Q(i)^n."""
    a = fresh(a)
    calls = chains(monkeypatch)
    central_series(a)
    generators = generating_set(a)
    if leibniz_residual(a) == [] and len(generators) < a.dim:
        assert calls == [(len(generators), True)]
        return True
    assert calls == [(a.dim, False)]
    return False


def assert_kept_square_is_fresh(a):
    """After generating_set, central_series and characteristic_sequence,
    the kept L^2 holds the rows and column index of a fresh one."""
    generating_set(a)
    series = central_series(a)
    if series.is_nilpotent:
        characteristic_sequence(a, trials=2)
    kept, new = square_span(a), square_span(fresh(a))
    assert square_span(a) is kept and kept is not new
    assert kept.gaussian_rows() == new.gaussian_rows() and kept._index == new._index
    if len(series.levels) > 1:
        assert series.levels[1] == new.gaussian_rows()


@pytest.mark.parametrize("family,n,alpha", CATALOG)
def test_catalog_family_series_matches_the_oracle(family, n, alpha, monkeypatch):
    a = catalog_algebra(family, n, alpha)
    assert_series_matches_the_oracle(a)
    assert series_path(a, monkeypatch) == (family != "abelian")
    assert_kept_square_is_fresh(fresh(a))


@pytest.mark.parametrize("family,n,alpha", SMALL)
def test_dense_conjugates_match_the_oracle(family, n, alpha, monkeypatch):
    for k in moved(family, n, alpha, "small", "series/%s/%d/%s" % (family, n, alpha), 2):
        assert central_series(assert_series_matches_the_oracle(k.b)).dims == central_series(k.a).dims
        assert series_path(k.b, monkeypatch) == (family != "abelian")
        assert_kept_square_is_fresh(fresh(k.b))


@pytest.mark.parametrize("family,alpha", [(f, a) for f, _, a in SMALL])
def test_associated_graded_series_matches_the_oracle(family, alpha, monkeypatch):
    a = catalog_algebra(family, 9, alpha)
    gr, dims = natural_graded(a)
    assert central_series(assert_series_matches_the_oracle(gr)).dims == central_series(a).dims
    assert dims == tuple(d - e for d, e in zip(central_series(a).dims, central_series(a).dims[1:] + (0,)))
    assert series_path(gr, monkeypatch) == (family != "abelian")


@pytest.mark.parametrize("family,n,alpha,m", [("M", 7, None, 1), ("L1", 7, None, 2),
                                              ("M1alpha", 7, "1i", 3), ("N", 9, None, 2),
                                              ("KF5", 7, None, 1)])
def test_direct_sum_with_an_abelian_summand_matches_the_oracle(family, n, alpha, m, monkeypatch):
    a = direct_sum(catalog_algebra(family, n, alpha), alg("abelian", m))
    assert_series_matches_the_oracle(a)
    assert series_path(a, monkeypatch)
    assert_kept_square_is_fresh(fresh(a))


def test_lie_algebra_falls_back_to_every_operator(monkeypatch):
    # [e, x] = e: Leibniz but not nilpotent, and G falls back to both indices
    a = lie_ex()
    series = central_series(assert_series_matches_the_oracle(a))
    assert series.dims == (2, 1) and series.nilindex is None
    assert not series_path(a, monkeypatch)
    assert generating_set(a) == (0, 1)
    assert_kept_square_is_fresh(fresh(a))


def mutate(rng, a):
    """a with one or two seeded product terms added or scaled."""
    terms = [(i, j, k, c) for i, j, ts in a.products() for k, c in ts]
    n = a.dim
    for _ in range(rng.randint(1, 2)):
        if rng.randrange(2) or not terms:
            terms.append((rng.randrange(n), rng.randrange(n), rng.randrange(n), Scalar(rng.choice((1, -1, 2)))))
        else:
            t = rng.randrange(len(terms))
            terms[t] = terms[t][:3] + (terms[t][3] * rng.choice((2, -1, Scalar(0, 1))),)
    return from_terms(a.labels, terms)


def test_mutated_tables_take_every_operator(monkeypatch):
    # not Leibniz: the generator theorem does not apply, even where G
    # passes its closure test
    bad = mutated_m7()
    assert leibniz_residual(bad)
    assert_series_matches_the_oracle(bad)
    assert not series_path(bad, monkeypatch)
    rng = random.Random(2130)
    certified = 0
    for t in range(120):
        a = mutate(rng, catalog_algebra(*SMALL[t % len(SMALL)]))
        if not oracle_residual(a):
            continue
        assert_series_matches_the_oracle(a)
        assert not series_path(a, monkeypatch)
        certified += len(generating_set(a)) < a.dim
    assert certified >= 20


def dense_not_leibniz():
    """The dense M^{1,3+i}(11) of the CI guard with [e_1, e_1] += e_5: not
    Leibniz, and its G keeps two of the 12 indices."""
    bad = ci_not_leibniz(0, 0, 4)
    assert len(generating_set(bad)) == 2
    return bad


def test_the_series_of_a_table_that_is_not_leibniz_forms_only_the_generator_triples(monkeypatch):
    # the R_g, g in G, decide, up to the first that fails, and no other
    # R_{e_k} of the whole residual is walked
    bad = dense_not_leibniz()
    walks, calls = record_walks(monkeypatch), chains(monkeypatch)
    series = central_series(bad)
    decide = generator_walk(bad)
    assert walks == [decide] and calls == [(bad.dim, False)]
    assert is_leibniz(bad) is False and walks == [decide]   # the no is kept
    assert (series.subspace_bases, series.dims, series.nilindex) == oracle_series(bad)
    assert oracle_residual(bad)


def test_is_leibniz_forms_only_the_generator_triples_of_a_dense_table(monkeypatch):
    # the no is memoized: the R_g decide once, then the residual walks
    # every R_{e_k} and lists every triple, in lexicographic order, as the
    # full loop of the oracle does
    bad = dense_not_leibniz()
    walks = record_walks(monkeypatch)
    decide = generator_walk(bad)
    assert is_leibniz(bad) is False and is_leibniz(bad) is False and walks == [decide]
    residual = leibniz_residual(bad)
    assert walks == [decide, list(range(bad.dim))]
    assert residual == oracle_residual(bad) and residual
    assert [t[:3] for t in residual] == sorted(t[:3] for t in residual)


def test_abelian_and_empty_algebras_take_every_operator(monkeypatch):
    for m in (0, 1, 3):
        assert_series_matches_the_oracle(alg("abelian", m))
        assert not series_path(alg("abelian", m), monkeypatch)


def random_graded_table(rng):
    """A seeded table on d = 4..9 vectors whose products [e_i, e_j] have a
    term in e_{i+j+1} and sometimes in e_{i+j+2}: nilpotent, often not
    Leibniz."""
    d = rng.randint(4, 9)
    pairs = [(i, j) for i in range(d) for j in range(d) if i + j + 1 < d]
    terms = []
    for i, j in rng.sample(pairs, rng.randint(2, min(len(pairs), 2 * d))):
        terms.append((i, j, i + j + 1, Scalar(rng.choice((1, -1, 2)), rng.choice((0, 0, 1)))))
        if rng.randrange(3) == 0 and i + j + 2 < d:
            terms.append((i, j, i + j + 2, Scalar(rng.choice((1, -1)))))
    return from_terms(["e%d" % t for t in range(d)], terms)


def random_moved_quotient(rng):
    """A seeded quotient L/L^k, k at most 3 below the length of the series
    (at its length L itself), of a catalog family at n = 7 or 9, moved by
    a seeded triangular matrix with a few entries above the diagonal:
    Leibniz, and its series is deep.  The catalog bases are graded, so L^k
    is spanned by basis vectors, whose oracle RREF rows are unit vectors."""
    family, _, alpha = rng.choice([case for case in SMALL if case[0] != "abelian"])
    a = catalog_algebra(family, rng.choice((7, 9)), alpha)
    bases, dims, _ = oracle_series(a)
    k = rng.randint(max(2, len(dims) - 3), len(dims))
    drop = {next(c for c, x in enumerate(v) if x) for v in (bases[k - 1] if k < len(dims) else ())}
    keep = [t for t in range(a.dim) if t not in drop]
    at = {t: pos for pos, t in enumerate(keep)}
    q = from_terms([a.labels[t] for t in keep],
                   [(at[i], at[j], at[t], c) for i, j, terms in a.products() for t, c in terms
                    if i in at and j in at and t in at])
    n = q.dim
    rows = [[Scalar(0)] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = Scalar(rng.choice((1, -1, 2)), rng.choice((0, 1)))
    for _ in range(rng.randint(1, n)):
        r, c = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        rows[r][c] = rows[r][c] + Scalar(rng.choice((1, -1, 2)), rng.choice((0, 0, 1)))
    return change_of_basis(q, Matrix(n, n, rows))


@pytest.mark.parametrize("block", range(4))
def test_random_leibniz_tables_match_the_oracle(block, monkeypatch):
    rng = random.Random(2100 + block)
    tables = [random_graded_table(rng) for _ in range(300)] + [random_moved_quotient(rng) for _ in range(30)]
    leibniz = deep = 0
    for a in tables:
        if oracle_residual(a):
            continue
        leibniz += 1
        a = assert_series_matches_the_oracle(a)
        if series_path(a, monkeypatch) and len(central_series(a).dims) > 3:
            deep += 1
        assert_kept_square_is_fresh(fresh(a))
    assert leibniz >= 50 and deep >= 15
