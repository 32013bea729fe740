import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import oracle_residual

from leibnizkit import core
from leibnizkit.catalog import FAMILIES, FamilySpec, build
from leibnizkit.cohomology import derivation_space, inner_derivation_space
from leibnizkit.core import Algebra, generating_set
from leibnizkit.linalg import Matrix, rank
from leibnizkit.scalars import ONE, ZERO, Scalar, parse_scalar

DATA = os.path.join(os.path.dirname(__file__), "data")

_algebras = {}
_der_cache = {}
_inn_cache = {}


def alg(family, n, **params):
    """Cached catalog construction keyed by (family, n, params)."""
    key = (family, n, tuple(sorted((k, str(Scalar(v) if isinstance(v, int) else v))
                                   for k, v in params.items())))
    if key not in _algebras:
        _algebras[key] = build(FamilySpec(family, n, params or None))
    return _algebras[key]


def catalog_cases():
    """(family, n, alpha) for every catalog family at n = 7-9: N at odd n
    only, M1alpha at alpha = -1, 1 and i; alpha is scalar text or None."""
    cases = []
    for n in (7, 8, 9):
        for family in FAMILIES:
            if family == "N" and n % 2 == 0:
                continue
            if family == "M1alpha":
                cases += [(family, n, alpha) for alpha in ("-1", "1", "1i")]
            else:
                cases.append((family, n, None))
    return cases


def case_algebra(family, n, alpha):
    """The algebra of one catalog_cases() entry."""
    return alg(family, n, **({"alpha": parse_scalar(alpha)} if alpha else {}))


def cached_der(algebra):
    key = algebra.key()
    if key not in _der_cache:
        _der_cache[key] = derivation_space(algebra)
    return _der_cache[key]


def cached_inn(algebra):
    key = algebra.key()
    if key not in _inn_cache:
        _inn_cache[key] = inner_derivation_space(algebra)
    return _inn_cache[key]


def zero_vec(n):
    return [ZERO] * n


def mutated_m7():
    """M(7) with the extra product [y2, y6] = y1: the negative control."""
    m7 = alg("M", 7)
    gamma = dict(m7.gamma)
    v = zero_vec(8)
    v[0] = ONE
    gamma[(1, 5)] = tuple(v)
    return Algebra(m7.labels, gamma)


def record_walks(monkeypatch):
    """Records each walk of core.derivation_defects, behind
    first_non_derivation and the residual: a list per walk of the k of
    each R_{e_k} pulled from its maps (None for any other map), appended
    as the map is pulled, so a map never pulled is never listed."""
    walks, defects = [], core.derivation_defects

    def recording(algebra, maps):
        walked = []
        walks.append(walked)

        def pulled():
            for m in maps:
                walked.append(next((k for k, col in enumerate(algebra.by_right) if col is m), None))
                yield m
        return defects(algebra, pulled())
    monkeypatch.setattr(core, "derivation_defects", recording)
    return walks


def record_derivations(monkeypatch, module, name):
    """Records each algebra that the deriver module.name, which core.memo
    keeps the result of, computes for: a list appended on each computation,
    so an algebra listed once was derived once and then read from its memo."""
    derived, derive = [], getattr(module, name)

    def recording(algebra):
        derived.append(algebra)
        return derive(algebra)
    monkeypatch.setattr(module, name, recording)
    return derived


def generator_walk(algebra):
    """The k of the R_g that core.is_leibniz pulls: g in generating_set in
    order, through the first g that the full loop, oracle_residual, finds
    failing, or all of them."""
    failing = {k for _, _, k, _ in oracle_residual(algebra)}
    walk = []
    for g in generating_set(algebra):
        walk.append(g)
        if g in failing:
            break
    return walk


def random_vector(rng, n, lo=-3, hi=3):
    return [Scalar(rng.randint(lo, hi), rng.randint(-1, 1)) for _ in range(n)]


def random_invertible(rng, n, lo=-2, hi=2):
    while True:
        m = Matrix(n, n, [[Scalar(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def dense_rational_move(rng, n):
    """An invertible n x n matrix of Gaussian rationals, every entry nonzero."""
    while True:
        m = Matrix(n, n, [[Scalar(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                                  Fraction(rng.randint(-1, 1), rng.randint(1, 2)))
                           for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def random_structured_invertible(rng, n):
    """Permutation x diagonal x one shear: invertible, sparse columns.

    Transported structure constants stay sparse, so bulk property sampling
    stays fast; mix in a few dense random_invertible samples for coverage.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [Scalar(rng.choice((1, -1, 2, -2, 3))) for _ in range(n)]
    m = Matrix.zero(n, n)
    for j in range(n):
        m.data[perm[j]][j] = diag[j]
    r, s = rng.randrange(n), rng.randrange(n)
    if r != s:
        m.data[perm[r]][s] = m.data[perm[r]][s] + Scalar(rng.randint(-2, 2)) * diag[r]
    return m


@pytest.fixture
def rng():
    return random.Random(20240811)
