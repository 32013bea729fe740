"""The results core.memo keeps on an Algebra: the decision of
core.is_leibniz, the central series, the closure words, the generating set
read off them, the echelon of L^2 and the echelons of Ann_l and R(L).
Each is computed once per algebra, which a recording deriver counts: the
decision walks the R_g, g in the generating set, through
core.first_non_derivation once, up to the first that fails, whether it is
a yes or a no (on a no the guard then walks the R_{e_k} up to the least
failing k on each call, and leibniz_residual every R_{e_k}).  A false
result, a no, an empty echelon or no words, stays kept as well.  The memo
never leaks into equality, hashing or what a caller can modify.  The
Gaussian-integer table is stored when the algebra is built, not
memoized."""

import io
import sys
import threading
from fractions import Fraction

import pytest

from conftest import alg, fresh, generator_walk, mutated_m7, record_derivations, record_walks

from leibnizkit import cohomology, core, invariants
from leibnizkit.catalog import FamilySpec, build
from leibnizkit.cli import main
from leibnizkit.core import (
    NotLeibnizError,
    generating_set,
    generating_words,
    is_leibniz,
    leibniz_residual,
    require_leibniz,
    square_span,
)
from leibnizkit.invariants import central_series, fingerprint
from leibnizkit.scalars import Scalar

NOT_LEIBNIZ = "R_y1 is not a derivation; the algebra is not Leibniz"
DERIVERS = {"leibniz": (core, "_decide_leibniz"), "series": (invariants, "_series"),
            "words": (core, "_close"), "generators": (core, "_generators"), "square": (core, "_square"),
            "annihilators": (invariants, "_annihilators")}
ONCE = {name: 1 for name in DERIVERS}


@pytest.fixture
def computations(monkeypatch):
    """Records the maps each walk of core.derivation_defects pulled (by
    first_non_derivation or the residual; see conftest.record_walks) and,
    per deriver that core.memo keeps, the algebras it computed for."""
    computed = {name: record_derivations(monkeypatch, module, attr)
                for name, (module, attr) in DERIVERS.items()}
    return {"walks": record_walks(monkeypatch), **computed}


def counts(computations):
    return {name: len(computations[name]) for name in DERIVERS}


def test_fingerprint_computes_each_memo_entry_once(computations):
    a = fresh(alg("M", 7))
    first = fingerprint(a)
    assert computations["walks"] == [list(generating_set(a))] and counts(computations) == ONCE
    assert fingerprint(a) == first
    assert computations["walks"] == [list(generating_set(a))] and counts(computations) == ONCE
    assert all(computations[name] == [a] for name in DERIVERS)


def test_cli_der_computes_residual_once(computations, tmp_path):
    path = tmp_path / "m7.json"
    core.save(fresh(alg("M", 7)), path)
    out = io.StringIO()
    assert main(["der", str(path)], out=out) == 0
    assert out.getvalue() == "dim Der: 13\ndim Inn: 2\ndim H1: 11\n"
    assert len(computations["walks"]) == 1


@pytest.mark.parametrize("entry", [
    require_leibniz,
    cohomology.derivation_space,
    cohomology.inner_derivation_space,
    cohomology.h1_dimension,
    fingerprint,
], ids=["require_leibniz", "derivation_space", "inner_derivation_space", "h1_dimension",
        "fingerprint"])
def test_non_leibniz_raises_the_same_message_every_call(entry, computations):
    bad = mutated_m7()
    decide = generator_walk(bad)
    for call in range(1, 4):
        with pytest.raises(NotLeibnizError) as info:
            entry(bad)
        assert str(info.value) == NOT_LEIBNIZ
        # the no is kept: the R_g decide on the first call alone, up to the
        # first that fails, and the guard walks the R_{e_k} only up to R_y1,
        # k = 0, on each call
        assert computations["walks"] == [decide] + [[0]] * call
        assert computations["leibniz"] == [bad]


def test_is_leibniz_memoizes_a_yes_and_a_no(computations):
    a, bad = fresh(alg("M", 7)), mutated_m7()
    assert is_leibniz(a) is True and computations["leibniz"] == [a]
    assert is_leibniz(a) is True and leibniz_residual(a) == []
    assert computations["walks"] == [list(generating_set(a))] and computations["leibniz"] == [a]
    for _ in range(3):
        assert is_leibniz(bad) is False
        assert computations["walks"] == [list(generating_set(a)), generator_walk(bad)]
        assert computations["leibniz"] == [a, bad]


def test_false_results_stay_memoized(computations):
    # a no, an empty echelon and no words are kept like any other value
    bad = mutated_m7()
    decide, calls = generator_walk(bad), 0
    for _ in range(2):
        for entry in (require_leibniz, cohomology.derivation_space, cohomology.h1_dimension, fingerprint):
            with pytest.raises(NotLeibnizError, match=NOT_LEIBNIZ):
                entry(bad)
            calls += 1
            assert computations["walks"] == [decide] + [[0]] * calls
    assert computations["leibniz"] == [bad]

    abelian = build(FamilySpec("abelian", 5))
    span = square_span(abelian)
    assert len(span) == 0 and square_span(abelian) is span
    assert [x for x in computations["square"] if x is abelian] == [abelian]

    empty = build(FamilySpec("abelian", 0))
    assert generating_words(empty) == () and generating_words(empty) == () and generating_set(empty) == ()
    assert [x for x in computations["words"] if x is empty] == [empty]


def test_caller_cannot_change_the_next_residual():
    bad = mutated_m7()
    first = leibniz_residual(bad)
    want = [(i, j, k, list(vec)) for i, j, k, vec in first]
    assert want
    first[0][3][0] = first[0][3][0] + 1
    first.clear()
    assert leibniz_residual(bad) == want

    good = fresh(alg("M", 7))
    assert leibniz_residual(good) == []
    leibniz_residual(good).append("junk")
    assert leibniz_residual(good) == []


def test_cached_series_is_immutable():
    a = fresh(alg("M", 7))
    series = central_series(a)
    assert central_series(a) is series
    with pytest.raises(TypeError):
        series.subspace_bases[0] = ()
    with pytest.raises(TypeError):
        series.subspace_bases[1][0] = series.subspace_bases[1][1]
    with pytest.raises(TypeError):
        series.subspace_bases[1][0][0] = series.subspace_bases[1][0][1]
    with pytest.raises(AttributeError):
        series.dims = ()
    assert central_series(a).dims == (8, 5, 3, 2, 1)


def test_tables_are_read_only():
    a = fresh(alg("M", 7))
    key, vec = sorted(a.gamma.items())[0]
    with pytest.raises(TypeError):
        a.gamma[key] = vec
    with pytest.raises(TypeError):
        a.by_left[0] = {}
    with pytest.raises(TypeError):
        a.by_right[0] = {}
    assert a.gamma == dict(a.gamma)


def assert_memo_filled_and_fresh_empty(computations, a, fresh):
    """Another fingerprint of a computes nothing, and one of fresh
    computes each memo entry once: a's memo is filled and fresh's empty."""
    fingerprint(a)
    assert counts(computations) == ONCE
    fingerprint(fresh)
    for name in DERIVERS:
        first, second = computations[name]   # exactly two: a's, then fresh's
        assert first is a and second is fresh


def test_memo_does_not_affect_equality_or_hash(computations):
    a = fresh(alg("M", 7))
    fingerprint(a)
    copy = fresh(alg("M", 7))
    assert a == copy and copy == a
    assert hash(a) == hash(copy)
    assert a.key() == copy.key()
    assert_memo_filled_and_fresh_empty(computations, a, copy)


def test_memo_beside_a_stored_denominator_does_not_affect_equality_or_hash(computations):
    # M^{1,alpha} at alpha = 1/2 - i/3 has denominators, so its table is
    # stored over D = 6 when it is built; filling the memo changes neither
    # that table nor equality, hashing or key()
    spec = FamilySpec("M1alpha", 7, {"alpha": Scalar(Fraction(1, 2), Fraction(-1, 3))})
    a, fresh = build(spec), build(spec)
    before = (hash(a), a.key(), a.by_left)
    fingerprint(a)
    assert a.denominator == fresh.denominator == 6 and a.by_left == before[2]
    assert a == fresh and fresh == a
    assert hash(a) == hash(fresh) == before[0]
    assert a.key() == fresh.key() == before[1]
    assert all(type(c) is Scalar for _, _, terms in a.products() for _, c in terms)
    assert_memo_filled_and_fresh_empty(computations, a, fresh)


def test_threads_racing_to_fill_the_memo_agree():
    # no lock: racing threads compute equal values and store them
    a, bad = fresh(alg("M", 7)), mutated_m7()
    want_fp, want_bad = fingerprint(fresh(alg("M", 7))), leibniz_residual(mutated_m7())
    results, errors = [], []

    def work():
        try:
            results.append((fingerprint(a), central_series(a), leibniz_residual(bad)))
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 6
    for fp, series, residual in results:
        # every thread gets the series stored first
        assert fp == want_fp and series is central_series(a) and residual == want_bad
    assert is_leibniz(a) is True and is_leibniz(bad) is False
