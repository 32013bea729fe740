import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import oracle_residual

from leibnizkit import core
from leibnizkit.catalog import FamilySpec, build
from leibnizkit.core import from_terms, generating_set
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import ONE, ZERO, Scalar

DATA = os.path.join(os.path.dirname(__file__), "data")

_algebras = {}


def alg(family, n, **params):
    """Cached catalog construction keyed by (family, n, params)."""
    key = (family, n, tuple(sorted((k, str(Scalar(v) if isinstance(v, int) else v))
                                   for k, v in params.items())))
    if key not in _algebras:
        _algebras[key] = build(FamilySpec(family, n, params or None))
    return _algebras[key]


def fresh(a, *terms):
    """An equal algebra with no memo filled, or with the (left, right,
    result, coefficient) terms added."""
    return from_terms(a.labels, [(i, j, k, c) for i, j, ts in a.products() for k, c in ts] + list(terms))


def lie_ex():
    """[e, x] = e, [x, e] = -e: a non-nilpotent Lie algebra, so Leibniz.
    L^2 = span e, and x alone spans its closure under R_x, so the
    generating set falls back to both indices."""
    return from_terms(["e", "x"], [(0, 1, 0, Scalar(1)), (1, 0, 0, Scalar(-1))])


def ci_move(n):
    """The dense P of the CI's dense-basis guards, every entry in (1, -1, 2, -2)."""
    v = (1, -1, 2, -2)
    return Matrix(n, n, [[Scalar(v[(n * r + c) ** 3 % 31 % 4]) for c in range(n)] for r in range(n)])


def zero_vec(n):
    return [ZERO] * n


def mutated_m7():
    """M(7) with the extra product [y2, y6] = y1: the negative control."""
    return fresh(alg("M", 7), (1, 5, 0, ONE))


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


def random_structured_invertible(rng, n):
    """Permutation x diagonal x one shear: invertible, sparse columns.

    Transported structure constants stay sparse, so bulk property sampling
    stays fast; mix in a few dense cases.random_invertible samples for coverage.
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
