"""change_of_basis and verify_certificate against their Scalar oracles.

Both run on Gaussian integers with the denominators of the structure
constants (D) and of the maps (d_P, d_inv) cleared once.  The oracles in
tests/oracles.py form every bracket and every product by P or P^-1 on
Scalars.  The cases cover every catalog family at n = 7 and 9, M1alpha at
alpha = -1, i and 5/3 (so D > 1), and three kinds of map: dense integer
(d_P = 1), Gaussian-rational with denominators up to 7 (d_P > 1) and
unitriangular.
"""

import random

import pytest

from conftest import case_algebra

from oracles import oracle_change_of_basis, oracle_verify_certificate

from leibnizkit.catalog import FAMILIES
from leibnizkit.core import change_of_basis, dumps, from_terms
from leibnizkit.iso import IsoCertificate, verify_certificate
from leibnizkit.linalg import Matrix, SingularMatrixError, rank
from leibnizkit.scalars import Scalar, from_gaussian

CASES = [(family, n, alpha) for n in (7, 9) for family in FAMILIES
         for alpha in (("-1", "1i", "5/3") if family == "M1alpha" else (None,))]
KINDS = ("dense-integer", "gaussian-rational", "unitriangular")


def _entry(rng, kind):
    if kind == "dense-integer":
        return Scalar(rng.choice((1, -1, 2, -2)))
    return from_gaussian(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(1, 7))


def _map(rng, n, kind):
    while True:
        if kind == "unitriangular":
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
    moved = change_of_basis(a, p)
    assert dumps(moved) == dumps(oracle_change_of_basis(a, p))
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


def test_cases_clear_denominators():
    # the alpha = 5/3 tables have D > 1 and the Gaussian-rational maps d_P > 1,
    # so every scale factor of the integer comparisons is exercised
    a, p, _ = _case("M1alpha", 7, "5/3", "gaussian-rational")
    assert any(c.d > 1 for _, _, terms in a.products() for _, c in terms)
    assert any(v.d > 1 for v in p.flat())
    assert any(v.b for v in p.flat())
