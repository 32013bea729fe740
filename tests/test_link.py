"""The link of a moved algebra to its sparsest known isomorphic table.

core.change_of_basis links the moved algebra to the algebra it moved, or
to that algebra's own link when it was moved itself.  Two readers use the
link, only when the linked table has strictly fewer terms: the Leibniz
decision, which asks the source, and derivation_space, which stops
eliminating once its rank reaches |G| * n - dim Der(source).  The oracle
for each moved algebra is the same table read back through
core.loads(core.dumps(...)), which carries no link: every answer must be
the same.  The counts check that the link saves what it should and is set
nowhere else.
"""

import random

import pytest

from cases import case, catalog, catalog_algebra, ci_not_leibniz, dense_basis_move, draw, moved
from conftest import alg, mutated_m7

from oracles import inverse

from leibnizkit import cohomology, core
from leibnizkit.catalog import FamilySpec, build
from leibnizkit.core import NotLeibnizError, change_of_basis, from_terms
from leibnizkit.invariants import natural_graded
from leibnizkit.scalars import parse_scalar


def link(x):
    """The table change_of_basis linked x to, or x itself."""
    return x if x._source is None else x._source


def round_trip(b):
    """The same table with no link."""
    return core.loads(core.dumps(b))


def _answers(b):
    """Everything the link may change the work of: Der's rows and dim, the
    decision, the residual and the guard's message."""
    der = None
    try:
        core.require_leibniz(b)
        message = None
        der = cohomology.derivation_space(b)
        der = (der.rows, der.dim)
    except NotLeibnizError as exc:
        message = str(exc)
    return der, core.is_leibniz(b), core.leibniz_residual(b), message


def assert_same_as_round_trip(b, c=None):
    """c, if given, is b read back, from the case table."""
    c = round_trip(b) if c is None else c
    assert link(c) is c and b == c
    assert _answers(b) == _answers(c)


@pytest.mark.parametrize("family,n,alpha", catalog((5, 6, 7, 8, 9, 11), ("-1", "3+1i")))
def test_a_moved_catalog_algebra_answers_as_its_round_trip(family, n, alpha):
    for k in moved(family, n, alpha, "bench", n, 2 if n == 11 else 3):
        assert link(k.b) is k.a
        # the abelian table has no terms in any basis, so it stays unlinked
        assert core.sparser_source(k.b) is (None if family == "abelian" else k.a)
        assert_same_as_round_trip(k.b, k.c)


def test_two_chained_moves_link_to_the_first_source():
    a = alg("M1alpha", 7, alpha=parse_scalar("3+1i"))
    rng = random.Random(2)
    b = change_of_basis(a, dense_basis_move(rng, a.dim))
    c = change_of_basis(b, dense_basis_move(rng, a.dim))
    assert core.sparser_source(b) is a and core.sparser_source(c) is a
    assert_same_as_round_trip(c)
    # a table read back has no link, and a move of it links to it alone
    d = change_of_basis(round_trip(b), dense_basis_move(rng, a.dim))
    assert link(d) == b and link(d) is not b
    assert_same_as_round_trip(d)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_chained_gaussian_moves_answer_as_their_round_trips(n):
    # every family at every n it has, moved once, twice and three times by
    # P with Gaussian and fractional entries, all drawn in turn from one
    # stream: each move links to the first source, whose dim Der ends the
    # moved table's elimination
    dims = ()
    for family, _, alpha in catalog((n,), ("1+1i",)):
        a = b = catalog_algebra(family, n, alpha)
        for _ in range(3):
            dims += (a.dim,)
            b = change_of_basis(b, draw("gaussian", 30 + n, dims)[0])
            assert core.sparser_source(b) is (None if family == "abelian" else a)
            assert_same_as_round_trip(b)


def test_a_move_back_to_the_catalog_basis_does_not_use_the_link(monkeypatch):
    a = build(FamilySpec("M", 7))
    p = case("M", 7, None, "bench", 3).p
    b = change_of_basis(a, p)
    back = change_of_basis(b, inverse(p))
    assert back == a and link(back) is a
    assert core.sparser_source(back) is None   # the moved table is as sparse as its link
    walked = _record_decisions(monkeypatch)
    assert_same_as_round_trip(back)
    assert walked[0] is back   # the decision ran on the moved table itself


@pytest.mark.parametrize("seed", [5, 6])
def test_the_ci_non_leibniz_table_moved_answers_as_its_round_trip(seed):
    bad = ci_not_leibniz()
    b = change_of_basis(bad, draw("bench", seed, (bad.dim,))[0])
    assert link(b) is bad
    assert_same_as_round_trip(b)


def test_a_sparse_non_leibniz_source_decides_and_the_moved_table_names_its_own_k():
    bad = mutated_m7()
    for seed in (7, 8, 9):
        b = change_of_basis(bad, dense_basis_move(random.Random(seed), bad.dim))
        assert core.sparser_source(b) is bad
        assert_same_as_round_trip(b)
        assert core.leibniz_residual(b) and not core.is_leibniz(b)


def _record_decisions(monkeypatch):
    """The algebra of each core.first_non_derivation run."""
    walked, check = [], core.first_non_derivation

    def recording(algebra, maps):
        walked.append(algebra)
        return check(algebra, maps)
    monkeypatch.setattr(core, "first_non_derivation", recording)
    return walked


def test_the_decision_runs_once_on_the_source_and_never_on_the_moved_table(monkeypatch):
    a = build(FamilySpec("M", 7))
    b = change_of_basis(a, dense_basis_move(random.Random(4), a.dim))
    walked = _record_decisions(monkeypatch)
    for _ in range(2):
        assert core.is_leibniz(b) and core.leibniz_residual(b) == []
        core.require_leibniz(b)
        cohomology.derivation_space(b)
        cohomology.h1_dimension(b)
    assert walked == [a]

    bad = mutated_m7()
    moved = change_of_basis(bad, dense_basis_move(random.Random(4), bad.dim))
    del walked[:]
    assert not core.is_leibniz(moved) and not core.is_leibniz(moved)
    with pytest.raises(NotLeibnizError):
        core.require_leibniz(moved)
    # the no comes from the source; the guard's message walks the moved table
    assert walked == [bad, moved]


def _record_ranks(monkeypatch):
    """Per echelon that derivation_space makes, in the order they are made,
    its rank after each equation handed to it."""
    ranks = []

    class Recording(cohomology.SparseEchelon):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.ranks = []
            ranks.append(self.ranks)

        def add_gaussian(self, row):
            added = super().add_gaussian(row)
            self.ranks.append(len(self))
            return added
    monkeypatch.setattr(cohomology, "SparseEchelon", Recording)
    return ranks


def test_der_of_a_moved_dense_m5_hands_the_echelon_fewer_equations(monkeypatch):
    a = build(FamilySpec("M", 5))
    b = change_of_basis(a, dense_basis_move(random.Random(1), a.dim))
    ranks = _record_ranks(monkeypatch)
    der = cohomology.derivation_space(b)
    linked = ranks[-1]   # b's echelon is made after the source's Der
    want = cohomology.derivation_space(round_trip(b))
    full = ranks[-1]
    assert (der.rows, der.dim) == (want.rows, want.dim) and der.dim == 11
    assert core.memo(a, cohomology._dimension) == der.dim
    # the same equations in the same order, up to the first that reaches
    # the whole system's rank, and none after it
    target = b.dim * len(core.generating_set(b)) - der.dim
    assert full[-1] == target and len(linked) < len(full)
    assert linked == full[:full.index(target) + 1]


def test_no_other_constructor_sets_a_link():
    a = alg("M", 7)
    b = change_of_basis(a, dense_basis_move(random.Random(10), a.dim))
    gr = natural_graded(b)[0]   # gr L is not isomorphic to L in general
    rebuilt = core.from_table(b.labels, {(i, j): dict(t) for i, j, t in b._table()}, b.denominator)
    for x in (gr, core.direct_sum(b, b), core.direct_sum(a, b), rebuilt, round_trip(b),
              from_terms(b.labels, [(i, j, k, c) for i, j, ts in b.products() for k, c in ts])):
        assert link(x) is x and core.sparser_source(x) is None
    assert rebuilt == b


def test_equality_hash_and_key_ignore_the_link():
    a = alg("N", 9)
    b = change_of_basis(a, dense_basis_move(random.Random(12), a.dim))
    c = round_trip(b)
    assert link(b) is a and link(c) is c
    assert b == c and c == b and hash(b) == hash(c) and b.key() == c.key()
    assert b != a


def test_the_link_stays_out_of_the_memo():
    a = alg("M", 7)
    b = change_of_basis(a, dense_basis_move(random.Random(13), a.dim))
    assert b._source is a and b._memo == {}   # the memo holds only what is derived
    assert a._source is None and cohomology.derivation_space(b).dim == cohomology.derivation_space(a).dim
