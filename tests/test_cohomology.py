import pytest

from conftest import alg, cached_der, cached_inn, mutated_m7, random_invertible, random_vector

from oracles import oracle_der_dim, oracle_inner_dim

from leibnizkit.cohomology import (
    InternalInconsistencyError,
    derivation_space,
    h1_dimension,
    inner_derivation_space,
    is_derivation,
)
from leibnizkit.core import change_of_basis, right_operator
from leibnizkit.invariants import NotLeibnizError
from leibnizkit.linalg import Matrix, basis_vec, span_echelon
from leibnizkit.scalars import Scalar


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


def test_every_der_basis_element_is_a_derivation():
    for family, n in [("M", 7), ("N", 7), ("L1", 7), ("KF5", 7)]:
        a = alg(family, n)
        for m in cached_der(a).basis:
            assert is_derivation(a, m)


def test_inner_dim_abelian_zero():
    assert inner_derivation_space(alg("abelian", 3)).dim == 0


def test_inner_m7_spanned_by_two_right_operators():
    m7 = alg("M", 7)
    inn = cached_inn(m7)
    assert inn.dim == 2 == oracle_inner_dim(m7)
    # and the span is exactly <R_{y1}, R_{y6}>
    r1 = right_operator(m7, basis_vec(8, 0)).flat()
    r6 = right_operator(m7, basis_vec(8, 5)).flat()
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
    with pytest.raises(InternalInconsistencyError) as info:
        inner_derivation_space(mutated_m7())
    assert str(info.value) == "R_y1 is not a derivation; the algebra is not Leibniz"


def test_containment_failure_aborts_loudly():
    m7 = alg("M", 7)
    fake_inn = inner_derivation_space(m7)
    fake_inn.basis = [Matrix.identity(8)]
    fake_inn.dim = 1
    with pytest.raises(InternalInconsistencyError):
        h1_dimension(m7, inn=fake_inn)


def test_commutator_with_inner_is_inner(rng):
    # d R_x - R_x d = R_{d(x)}: inner derivations form an ideal of Der
    m7 = alg("M", 7)
    der = cached_der(m7)
    for _ in range(25):
        d = der.basis[rng.randrange(len(der.basis))]
        x = random_vector(rng, 8)
        rx = right_operator(m7, x)
        lhs = d * rx - rx * d
        rhs = right_operator(m7, d.mul_vec(x))
        assert lhs == rhs


def test_der_dim_invariant_under_change_of_basis(rng):
    l1 = alg("L1", 7)
    base = cached_der(l1).dim
    for _ in range(3):
        p = random_invertible(rng, 7)
        assert derivation_space(change_of_basis(l1, p)).dim == base
