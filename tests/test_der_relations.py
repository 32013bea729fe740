"""Der(L) on the closure's relations only.

cohomology.derivation_space imposes the derivation identity E(w_k, g) on
the closure words w_k of core.generating_words, and only on the pairs
(k, g) whose bracket made no word: a pair that made the word D * [w_k, e_g]
holds by construction, since that word's d is defined by the identity.
The words are a basis of L and E(., g) is linear, so the kernel, and with
it the Der basis, is that of the all-pairs system in tests/oracles.py,
which tests/test_generating_set.py compares on the catalog, dense
conjugates, direct sums and the algebras whose G is every index.

A recorder on the echelon that derivation_space builds sees every row it
is handed: none is empty, and they are exactly the nonzero coordinate
forms of E(w_k, g) on the pairs that made no word, which
oracles.oracle_word_relations computes on Scalars, up to a common scale.
When G is smaller than the basis, E(w_k, g) lies in L^2, so only its forms
at L^2's pivot columns are handed over (oracles.oracle_square_pivots);
when G is every index, all of them are.
"""

from collections import Counter

import pytest

from cases import case
from conftest import alg, fresh, lie_ex

from oracles import oracle_square_pivots, oracle_word_relations

from leibnizkit import cohomology
from leibnizkit.core import direct_sum, generating_set, generating_words
from leibnizkit.linalg import SparseEchelon, scalar_vector


@pytest.fixture
def system_rows(monkeypatch):
    """The rows derivation_space hands its own echelon, the Der system."""
    handed = []

    class Recording(SparseEchelon):
        def add_gaussian(self, row):
            handed.append(dict(row))
            return super().add_gaussian(row)

    monkeypatch.setattr(cohomology, "SparseEchelon", Recording)
    return handed


def normalized(vector):
    """A dense vector divided by its first nonzero entry."""
    lead = next(x for x in vector if x)
    return tuple(x / lead for x in vector)


def word_pairs(a):
    return {(p, g) for p, g, _ in generating_words(a) if p is not None}


RECORDED = {
    "M(8)": lambda: alg("M", 8),
    "N(9)": lambda: alg("N", 9),
    "L1(8)": lambda: alg("L1", 8),
    "KF5(7)": lambda: alg("KF5", 7),
    "NGF1(8)": lambda: alg("NGF1", 8),
    "M1alpha(7, 1/2)": lambda: case("M1alpha", 7, "1/2").a,
    "nullfiliform-ml(7)": lambda: alg("nullfiliform-ml", 7),
    "dense M1alpha(5, 3+i)": lambda: case("M1alpha", 5, "3+1i", "rational", "M1alpha/5/3+1i").b,
    "dense N(7)": lambda: case("N", 7, None, "rational", "N/7/None").b,
    "N(7) + abelian(2)": lambda: direct_sum(alg("N", 7), alg("abelian", 2)),
    "lie": lie_ex,
    "abelian(3)": lambda: alg("abelian", 3),
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_only_the_pairs_that_made_no_word_are_handed_to_the_echelon(case, system_rows):
    a = fresh(RECORDED[case]())
    relations = oracle_word_relations(a)
    made = word_pairs(a)
    assert len(made) == a.dim - len(generating_set(a))
    assert all(not relations[pair] for pair in made)   # they hold by construction
    cohomology.derivation_space(a)
    assert all(system_rows)
    ncols = a.dim * len(generating_set(a))
    got = Counter(normalized(scalar_vector(row.items(), 1, ncols)) for row in system_rows)
    coordinates = oracle_square_pivots(a) if len(generating_set(a)) < a.dim else range(a.dim)
    want = Counter(normalized(forms[c]) for pair, forms in relations.items() if pair not in made
                   for c in coordinates if c in forms)
    assert got == want


@pytest.mark.parametrize("family,rows,enlarging", [("N", 539, 149), ("M", 398, 199)])
def test_der_system_row_counts_at_n_101(family, rows, enlarging, system_rows):
    a = fresh(alg(family, 101))
    der = cohomology.derivation_space(a)
    generators = generating_set(a)
    assert len(system_rows) == rows and all(system_rows)
    assert rows <= a.dim * (a.dim * len(generators) - len(word_pairs(a)))
    echelon = SparseEchelon(a.dim * len(generators))
    assert sum(echelon.add_gaussian(row) for row in system_rows) == enlarging
    assert der.dim == a.dim * len(generators) - enlarging
