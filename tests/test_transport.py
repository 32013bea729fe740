"""change_of_basis, gr L and verify_certificate against their Scalar oracles.

All three run on Gaussian integers with the denominators of the structure
constants (D) and of the maps (d_P, d_inv) cleared once; change_of_basis
and natural_graded share core.transport.  The oracles in tests/oracles.py
form every bracket and every product by P or P^-1 on Scalars.  The cases
cover every catalog family at n = 7 and 9, M1alpha at alpha = -1, i and
5/3 (so D > 1), and four kinds of map: dense integer (d_P = 1),
Gaussian-rational with denominators up to 7 (d_P > 1), unitriangular, and
monomial (a permutation times a Gaussian-rational diagonal: sparse
columns).  Tables are compared by key(), which holds the denominator, as
well as by dumps.  core.transport inverts through linalg.gaussian_inverse,
which substitutes on columns with distinct pivots and eliminates
otherwise: on the lifts of every catalog case and of a dense conjugate,
the lifts times that inverse are d times the identity, with d least.  A
recorder on linalg.SparseEchelon shows the branch: no echelon is built for
the lifts, the closure words of N(41) and M(41), or the CI's monomial and
triangular maps; one is built for KF5's words, whose pivots repeat, and for
the CI's I + superdiagonal and dense maps.
"""

import random
from math import gcd, lcm

import pytest

from conftest import alg, case_algebra, catalog_cases, dense_rational_move

from oracles import oracle_change_of_basis, oracle_natural_graded, oracle_verify_certificate

from leibnizkit import linalg
from leibnizkit.catalog import FAMILIES
from leibnizkit.core import change_of_basis, dumps, from_terms, generating_words
from leibnizkit.invariants import central_series, natural_graded
from leibnizkit.iso import IsoCertificate, verify_certificate
from leibnizkit.linalg import (
    Matrix,
    SingularMatrixError,
    gaussian_combination,
    gaussian_inverse,
    rank,
)
from leibnizkit.scalars import Scalar, from_gaussian, parse_scalar

CASES = [(family, n, alpha) for n in (7, 9) for family in FAMILIES
         for alpha in (("-1", "1i", "5/3") if family == "M1alpha" else (None,))]
KINDS = ("dense-integer", "gaussian-rational", "unitriangular", "monomial")


def _entry(rng, kind):
    if kind == "dense-integer":
        return Scalar(rng.choice((1, -1, 2, -2)))
    return from_gaussian(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(1, 7))


def _map(rng, n, kind):
    while True:
        if kind == "monomial":
            perm = rng.sample(range(n), n)
            diag = [_entry(rng, kind) or from_gaussian(1, 1, 2) for _ in range(n)]
            rows = [[diag[c] if r == perm[c] else Scalar(0) for c in range(n)] for r in range(n)]
        elif kind == "unitriangular":
            rows = [[Scalar(1) if r == c else _entry(rng, kind) if r < c else Scalar(0)
                     for c in range(n)] for r in range(n)]
        else:
            rows = [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        p = Matrix(n, n, rows)
        if rank(p) == n:
            return p


def _case(family, n, alpha, kind):
    a = case_algebra(family, n, alpha)
    rng = random.Random("%s:%d:%s:%s" % (family, n, alpha, kind))
    return a, _map(rng, a.dim, kind), rng


def _same_report(cert):
    got, want = verify_certificate(cert), oracle_verify_certificate(cert)
    assert (got.accepted, got.reason, got.pair) == (want.accepted, want.reason, want.pair)
    return got


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family,n,alpha", CASES)
def test_transport_and_certificate_match_the_scalar_oracles(family, n, alpha, kind):
    a, p, rng = _case(family, n, alpha, kind)
    moved, want = change_of_basis(a, p), oracle_change_of_basis(a, p)
    assert (moved.key(), dumps(moved)) == (want.key(), dumps(want))
    assert _same_report(IsoCertificate(moved, a, p)).accepted

    # one source constant perturbed (a new product of the abelian table):
    # reject at the same first pair
    products = moved.products() or [(0, 0, ((0, None),))]
    i, j, terms = products[rng.randrange(len(products))]
    k = terms[0][0]
    bumped = from_terms(moved.labels, [(x, y, z, c) for x, y, t in moved.products() for z, c in t]
                        + [(i, j, k, from_gaussian(1, 1, 3))])
    assert not _same_report(IsoCertificate(bumped, a, p)).accepted

    # one map entry perturbed: the same reason and pair, a bracket mismatch
    # or a singular map
    r, c = rng.randrange(a.dim), rng.randrange(a.dim)
    q = Matrix(a.dim, a.dim, [row[:] for row in p.data])
    q.data[r][c] = q.data[r][c] + from_gaussian(2, -1, 5)
    _same_report(IsoCertificate(moved, a, q))


@pytest.mark.parametrize("family,n,alpha", CASES)
def test_singular_map(family, n, alpha):
    a, p, rng = _case(family, n, alpha, "gaussian-rational")
    s = Matrix(a.dim, a.dim, [row[:] for row in p.data])
    c, d = rng.sample(range(a.dim), 2)
    for row in s.data:
        row[d] = row[c] * from_gaussian(3, 1, 7)   # column d a multiple of column c
    report = _same_report(IsoCertificate(a, a, s))
    assert (report.accepted, report.reason, report.pair) == (False, "singular map", None)
    with pytest.raises(SingularMatrixError):
        change_of_basis(a, s)
    with pytest.raises(SingularMatrixError):
        oracle_change_of_basis(a, s)


def _same_graded(a):
    (got, dims), (want, want_dims) = natural_graded(a), oracle_natural_graded(a)
    assert (got.key(), dumps(got), dims) == (want.key(), dumps(want), want_dims)


@pytest.mark.parametrize("family,n,alpha", catalog_cases())
def test_natural_graded_matches_the_scalar_oracle(family, n, alpha):
    _same_graded(case_algebra(family, n, alpha))


@pytest.mark.parametrize("family,n,alpha", [c for c in catalog_cases() if c[1] == 7])
def test_natural_graded_of_dense_rational_conjugates_matches_the_scalar_oracle(family, n, alpha):
    # the lifts of a dense table are dense rows over leads > 1: d_P > 1 on
    # every table but the abelian one
    a = case_algebra(family, n, alpha)
    rng = random.Random("%s:%d:%s" % (family, n, alpha))
    _same_graded(change_of_basis(a, dense_rational_move(rng, a.dim)))


def _lift_columns(a):
    """The columns of d_P * P that natural_graded moves the algebra along:
    the series rows whose pivot is no pivot of the next level."""
    levels = central_series(a).levels
    lifts = [row for level, deeper in zip(levels, levels[1:] + ((),))
             for pivots in ({r[0][0] for r in deeper},) for row in level if row[0][0] not in pivots]
    d_p = lcm(*(row[0][1][0] for row in lifts))
    return [{r: (x * s, y * s) for r, (x, y) in row} for row in lifts for s in (d_p // row[0][1][0],)]


def _echelons_built(monkeypatch, cols):
    """How many SparseEchelons gaussian_inverse builds on cols, none when it
    substitutes and one when it eliminates, once its answer is checked: the
    columns times the inverse are d times the identity, and no part of the
    inverse shares a factor with d, so no smaller d would do."""
    built = []

    class Recording(linalg.SparseEchelon):
        def __init__(self, ncols):
            built.append(ncols)
            super().__init__(ncols)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "SparseEchelon", Recording)
        d, inv = gaussian_inverse(cols)
    assert all(gaussian_combination(cols, column) == {r: (d, 0)} for r, column in enumerate(inv))
    assert gcd(d, *(p for column in inv for v in column.values() for p in v)) == 1
    return len(built)


def _ci_map(n, kind):
    """The maps of the CI's transport round-trip and dense-basis guards."""
    if kind == "superdiagonal":   # I + superdiagonal: every pivot but the first repeats
        rows = [[int(c in (r, r + 1)) for c in range(n)] for r in range(n)]
    elif kind == "monomial":
        v = ("1+1i", "1/2-1i", "2i", "-3/2")
        rows = [[v[c % 4] if r == (5 * c + 1) % n else "0" for c in range(n)] for r in range(n)]
    elif kind == "triangular":
        v = ("2", "-1", "1+2i", "1/2")
        rows = [[v[c % 4] if r == c else "1-1i" if r == c + 1 and c % 2 == 0
                 else "-1/3" if r == c + 5 and c % 3 == 0 else "0" for c in range(n)] for r in range(n)]
    else:   # dense: every entry in {1, -1, 2, -2}
        v = (1, -1, 2, -2)
        rows = [[v[(n * r + c) ** 3 % 31 % 4] for c in range(n)] for r in range(n)]
    return Matrix(n, n, [[parse_scalar(str(x)) for x in row] for row in rows])


@pytest.mark.parametrize("family,n,alpha", catalog_cases())
def test_lifts_times_their_triangular_inverse_is_d_times_the_identity(monkeypatch, family, n, alpha):
    # the lifts have distinct pivots, so they are inverted by substitution
    a = case_algebra(family, n, alpha)
    assert _echelons_built(monkeypatch, _lift_columns(a)) == 0
    rng = random.Random("lifts:%s:%d:%s" % (family, n, alpha))
    cols = _lift_columns(change_of_basis(a, dense_rational_move(rng, a.dim)))
    assert not a.products() or cols[0][min(cols[0])] != (1, 0)   # the dense lifts: d_P > 1
    assert _echelons_built(monkeypatch, cols) == 0


@pytest.mark.parametrize("family,n,built", [("N", 41, 0), ("M", 41, 0), ("KF5", 11, 1)])
def test_closure_words_are_inverted_by_substitution_unless_pivots_repeat(monkeypatch, family, n, built):
    # N's words include -1 pivots; two of KF5's words pivot on the same row
    words = [w for _, _, w in generating_words(alg(family, n))]
    assert _echelons_built(monkeypatch, words) == built


@pytest.mark.parametrize("kind,n,built", [("monomial", 42, 0), ("triangular", 42, 0),
                                          ("superdiagonal", 42, 1), ("dense", 12, 1)])
def test_ci_maps_take_the_branch_their_pivots_name(monkeypatch, kind, n, built):
    # the dense map moves M^{1,3+i}(11), dim 12; the others M(41), dim 42
    p = _ci_map(n, kind)
    assert _echelons_built(monkeypatch, p.gaussian_columns()[1]) == built
    if kind == "triangular":
        assert all(not p.data[r][c] for c in range(n) for r in range(c))   # lower triangular
        assert all(p.data[c][c] for c in range(n))
        assert {p.data[c][c] for c in range(n)} >= {Scalar(-1), Scalar(1, 2)}
        assert sum(1 for c in range(n) if sum(1 for v in p.column(c) if v) > 1) >= n // 2


def test_monomial_maps_have_sparse_gaussian_rational_columns():
    _, p, _ = _case("M1alpha", 7, "5/3", "monomial")
    assert all(sum(1 for v in p.column(c) if v) == 1 for c in range(p.cols))
    assert any(v.d > 1 for v in p.flat()) and any(v.b for v in p.flat())


def test_cases_clear_denominators():
    # the alpha = 5/3 tables have D > 1 and the Gaussian-rational maps d_P > 1,
    # so every scale factor of the integer comparisons is exercised
    a, p, _ = _case("M1alpha", 7, "5/3", "gaussian-rational")
    assert any(c.d > 1 for _, _, terms in a.products() for _, c in terms)
    assert any(v.d > 1 for v in p.flat())
    assert any(v.b for v in p.flat())
