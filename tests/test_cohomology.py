import random

import pytest

from conftest import (
    alg,
    cached_der,
    cached_inn,
    case_algebra,
    catalog_cases,
    dense_rational_move,
    mutated_m7,
    random_invertible,
    random_vector,
)

from oracles import mul_vec, oracle_der_dim, oracle_inner_dim, oracle_inner_outside_der, oracle_is_derivation, unit

from leibnizkit import NotLeibnizError
from leibnizkit.cohomology import (
    derivation_space,
    h1_dimension,
    inner_derivation_space,
    is_derivation,
)
from leibnizkit.core import change_of_basis, right_operator
from leibnizkit.invariants import fingerprint, right_annihilator
from leibnizkit.linalg import Matrix, span_echelon
from leibnizkit.scalars import Scalar, from_gaussian


def test_der_dim_n_family():
    for n in (7, 9):
        der = cached_der(alg("N", n))
        assert der.dim == 3 * (n - 1) // 2 + 7


def test_der_dim_abelian_is_full_matrix_space():
    for k in (2, 3, 4):
        assert derivation_space(alg("abelian", k)).dim == k * k


def test_der_dim_m_family():
    for n in (7, 8):
        assert cached_der(alg("M", n)).dim == n + 6
        for a in (Scalar(1), Scalar(1, 2)):
            assert cached_der(alg("M1alpha", n, alpha=a)).dim == n + 5


def test_der_dim_against_independent_assembly():
    m7 = alg("M", 7)
    assert cached_der(m7).dim == oracle_der_dim(m7) == 13
    m11 = alg("M1alpha", 7, alpha=Scalar(1))
    assert cached_der(m11).dim == oracle_der_dim(m11) == 12


def _perturbed(m, rng):
    """m with one seeded entry changed by a nonzero Gaussian rational."""
    data = [list(row) for row in m.data]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    data[r][c] = data[r][c] + from_gaussian(rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1), rng.randint(1, 3))
    return Matrix(m.rows, m.cols, data)


@pytest.mark.parametrize("family,n,alpha", [case for case in catalog_cases() if case[1] != 8])
def test_is_derivation_matches_the_pair_by_pair_oracle(family, n, alpha):
    # the one defect loop against n^2 bracket pairs, on every Der basis
    # element and on two one-entry perturbations of each; at n = 7 the first
    # case of each family is also moved to two dense Gaussian-rational bases
    rng = random.Random("%s %d %s" % (family, n, alpha))
    base = case_algebra(family, n, alpha)
    algebras = [base]
    if n == 7 and alpha in (None, "-1"):
        algebras += [change_of_basis(base, dense_rational_move(rng, base.dim)) for _ in range(2)]
    for a in algebras:
        for m in derivation_space(a).basis:
            assert is_derivation(a, m) and oracle_is_derivation(a, m)
            for _ in range(2):
                p = _perturbed(m, rng)
                assert is_derivation(a, p) == oracle_is_derivation(a, p)


def test_every_der_basis_element_is_a_derivation():
    for family, n in [("M", 7), ("N", 7), ("L1", 7), ("KF5", 7)]:
        a = alg(family, n)
        for m in cached_der(a).basis:
            assert is_derivation(a, m)


def test_der_and_inn_bases_are_square_matrices_of_scalars():
    # both bases come from rows that are already Scalars, taken as they are:
    # they must equal the matrices the checking constructor builds
    a = change_of_basis(alg("M1alpha", 5, alpha=Scalar(3, 1)), random_invertible(random.Random(4), 6))
    for space in (derivation_space(a), inner_derivation_space(a)):
        assert space.dim and len(space.basis) == space.dim
        for m in space.basis:
            assert (m.rows, m.cols) == (6, 6) and all(len(row) == 6 for row in m.data)
            assert all(type(v) is Scalar for v in m.flat())
            assert m == Matrix(6, 6, m.flat())
        assert len({id(row) for m in space.basis for row in m.data}) == 6 * space.dim


def test_inner_dim_abelian_zero():
    assert inner_derivation_space(alg("abelian", 3)).dim == 0


def test_inner_m7_spanned_by_two_right_operators():
    m7 = alg("M", 7)
    inn = cached_inn(m7)
    assert inn.dim == 2 == oracle_inner_dim(m7)
    # and the span is exactly <R_{y1}, R_{y6}>
    r1 = right_operator(m7, unit(8, 0)).flat()
    r6 = right_operator(m7, unit(8, 5)).flat()
    expected = span_echelon([r1, r6], 64)
    got = span_echelon([m.flat() for m in inn.basis], 64)
    assert expected.basis_rows() == got.basis_rows()


def test_inner_m1alpha_dim_three():
    a = alg("M1alpha", 7, alpha=Scalar(1))
    assert cached_inn(a).dim == 3 == oracle_inner_dim(a)


def test_h1_m_family():
    for n in (7, 8):
        m = alg("M", n)
        assert h1_dimension(m, der=cached_der(m), inn=cached_inn(m)) == n + 4
        a = alg("M1alpha", n, alpha=Scalar(1))
        assert h1_dimension(a, der=cached_der(a), inn=cached_inn(a)) == n + 2


def test_h1_nonnegative_and_contained():
    for family, n in [("M", 7), ("N", 7), ("L1", 7), ("KF4", 7), ("NGF1", 7)]:
        a = alg(family, n)
        h1 = h1_dimension(a, der=cached_der(a), inn=cached_inn(a))
        assert h1 >= 0


def test_der_rejects_non_leibniz():
    with pytest.raises(NotLeibnizError):
        derivation_space(mutated_m7())


def test_inner_rejects_non_leibniz_naming_first_operator():
    # every entry point guards through core.require_leibniz, so all of
    # them name the same operator in the same words
    bad = mutated_m7()
    for entry in (inner_derivation_space, derivation_space, h1_dimension, fingerprint):
        with pytest.raises(NotLeibnizError) as info:
            entry(bad)
        assert str(info.value) == "R_y1 is not a derivation; the algebra is not Leibniz", entry


@pytest.mark.parametrize("family,n,alpha", catalog_cases())
def test_inner_derivations_lie_in_der(family, n, alpha):
    # h1_dimension subtracts dims without a containment check; this pins
    # the theorem it relies on against derivation_space's assembly
    a = case_algebra(family, n, alpha)
    assert oracle_inner_outside_der(a, cached_der(a)) == []


@pytest.mark.parametrize("family,n,alpha", catalog_cases())
def test_inner_dim_is_dim_minus_right_annihilator(family, n, alpha):
    # the kernel of x -> R_x is R(L); with dim Der(N) on its formula this
    # pins dim H1(N) = (n+13)/2, not the stated (n+19)/2
    a = case_algebra(family, n, alpha)
    assert cached_inn(a).dim == a.dim - len(right_annihilator(a))
    if family == "N":
        assert h1_dimension(a, der=cached_der(a), inn=cached_inn(a)) == (n + 13) // 2


@pytest.mark.parametrize("family,n,params", [
    ("L1", 7, {}), ("KF4", 7, {}), ("KF5", 7, {}), ("NGF1", 5, {}), ("N", 7, {}),
    ("M", 5, {}), ("M1alpha", 5, {"alpha": Scalar(-1)}), ("nullfiliform-ml", 6, {}),
])
def test_inner_derivations_lie_in_der_dense_basis(family, n, params, rng):
    a = alg(family, n, **params)
    moved = change_of_basis(a, random_invertible(rng, a.dim))
    assert oracle_inner_outside_der(moved, derivation_space(moved)) == []


def test_commutator_with_inner_is_inner(rng):
    # d R_x - R_x d = R_{d(x)}: inner derivations form an ideal of Der
    m7 = alg("M", 7)
    der = cached_der(m7)
    for _ in range(25):
        d = der.basis[rng.randrange(len(der.basis))]
        x = random_vector(rng, 8)
        rx = right_operator(m7, x)
        lhs = d * rx - rx * d
        rhs = right_operator(m7, mul_vec(d, x))
        assert lhs == rhs


def test_der_dim_invariant_under_change_of_basis(rng):
    l1 = alg("L1", 7)
    base = cached_der(l1).dim
    for _ in range(3):
        p = random_invertible(rng, 7)
        assert derivation_space(change_of_basis(l1, p)).dim == base
