"""The four results memoized on an Algebra: an empty Leibniz residual, the
central series, the Gaussian-integer table and the generating set.  Each is
computed once per algebra, a non-empty residual is recomputed on every
call, and the memo never leaks into equality, hashing or what a caller can
modify."""

import io
import sys
import threading
from fractions import Fraction

import pytest

from conftest import mutated_m7

from leibnizkit import cohomology, core, invariants
from leibnizkit.catalog import FamilySpec, build
from leibnizkit.cli import main
from leibnizkit.core import NotLeibnizError, leibniz_residual, require_leibniz
from leibnizkit.invariants import central_series, fingerprint
from leibnizkit.scalars import Scalar

NOT_LEIBNIZ = "R_y1 is not a derivation; the algebra is not Leibniz"


def fresh_m7():
    # not the shared conftest instance, whose memo other tests may have filled
    return build(FamilySpec("M", 7))


@pytest.fixture
def computations(monkeypatch):
    """Counts the residual and series computations behind the memos."""
    counts = {"residual": 0, "series": 0}

    def counting(name, fn):
        def wrapper(algebra):
            counts[name] += 1
            return fn(algebra)
        return wrapper

    monkeypatch.setattr(core, "_residual", counting("residual", core._residual))
    monkeypatch.setattr(invariants, "_series", counting("series", invariants._series))
    return counts


def test_fingerprint_computes_residual_and_series_once(computations):
    a = fresh_m7()
    first = fingerprint(a)
    assert computations == {"residual": 1, "series": 1}
    assert fingerprint(a) == first
    assert computations == {"residual": 1, "series": 1}


def test_cli_der_computes_residual_once(computations, tmp_path):
    path = tmp_path / "m7.json"
    core.save(fresh_m7(), path)
    out = io.StringIO()
    assert main(["der", str(path)], out=out) == 0
    assert out.getvalue() == "dim Der: 13\ndim Inn: 2\ndim H1: 11\n"
    assert computations["residual"] == 1


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
    for call in range(1, 4):
        with pytest.raises(NotLeibnizError) as info:
            entry(bad)
        assert str(info.value) == NOT_LEIBNIZ
        assert computations["residual"] == call   # a non-empty residual is not cached


def test_caller_cannot_change_the_next_residual():
    bad = mutated_m7()
    first = leibniz_residual(bad)
    want = [(i, j, k, list(vec)) for i, j, k, vec in first]
    assert want
    first[0][3][0] = first[0][3][0] + 1
    first.clear()
    assert leibniz_residual(bad) == want

    good = fresh_m7()
    assert leibniz_residual(good) == []
    leibniz_residual(good).append("junk")
    assert leibniz_residual(good) == []


def test_cached_series_is_immutable():
    a = fresh_m7()
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
    a = fresh_m7()
    key, vec = sorted(a.gamma.items())[0]
    with pytest.raises(TypeError):
        a.gamma[key] = vec
    with pytest.raises(TypeError):
        a.by_left[0] = {}
    with pytest.raises(TypeError):
        a.by_right[0] = {}
    assert a.gamma == dict(a.gamma)


def test_memo_does_not_affect_equality_or_hash():
    a = fresh_m7()
    fingerprint(a)
    fresh = fresh_m7()
    assert a._leibniz and a._series is not None and a._gaussian is not None and a._generators is not None
    assert not fresh._leibniz and fresh._series is None and fresh._gaussian is None and fresh._generators is None
    assert a == fresh and fresh == a
    assert hash(a) == hash(fresh)
    assert a.key() == fresh.key()


def test_gaussian_table_memo_does_not_affect_equality_or_hash():
    # M^{1,alpha} at alpha = 1/2 - i/3 has denominators, so D = 6 scales the table
    spec = FamilySpec("M1alpha", 7, {"alpha": Scalar(Fraction(1, 2), Fraction(-1, 3))})
    a, fresh = build(spec), build(spec)
    before = (hash(a), a.key())
    table = core.gaussian_table(a)
    assert table[0] == 6 and core.gaussian_table(a) is table
    assert a._gaussian is table and fresh._gaussian is None
    assert a == fresh and fresh == a
    assert hash(a) == hash(fresh) == before[0]
    assert a.key() == fresh.key() == before[1]
    assert all(type(c) is Scalar for _, _, terms in a.products() for _, c in terms)


def test_threads_racing_to_fill_the_memo_agree():
    # no lock: racing threads compute equal values and store them
    a, bad = fresh_m7(), mutated_m7()
    want_fp, want_bad = fingerprint(fresh_m7()), leibniz_residual(mutated_m7())
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
        assert fp == want_fp and series == central_series(a) and residual == want_bad
    assert a._leibniz and not bad._leibniz
