import io
import random

import pytest

from cases import case, catalog, catalog_algebra, kept, moved
from conftest import alg, fresh, mutated_m7, random_vector

from oracles import mul_vec, oracle_der_dim, oracle_inner_dim, oracle_inner_outside_der, oracle_is_derivation, unit

from leibnizkit import NotLeibnizError, cohomology, core
from leibnizkit.cli import main
from leibnizkit.cohomology import (
    derivation_space,
    h1_dimension,
    inner_derivation_space,
    is_derivation,
)
from leibnizkit.core import right_operator
from leibnizkit.invariants import fingerprint, right_annihilator
from leibnizkit.linalg import Matrix, span_echelon
from leibnizkit.scalars import Scalar, from_gaussian


def test_der_dim_n_family():
    for n in (7, 9):
        der = kept(alg("N", n)).get("der")
        assert der.dim == 3 * (n - 1) // 2 + 7


def test_der_dim_abelian_is_full_matrix_space():
    for k in (2, 3, 4):
        assert derivation_space(alg("abelian", k)).dim == k * k


def test_der_dim_m_family():
    for n in (7, 8):
        assert kept(alg("M", n)).get("der").dim == n + 6
        for a in (Scalar(1), Scalar(1, 2)):
            assert kept(alg("M1alpha", n, alpha=a)).get("der").dim == n + 5


def test_der_dim_against_independent_assembly():
    m7 = alg("M", 7)
    assert kept(m7).get("der").dim == oracle_der_dim(m7) == 13
    m11 = alg("M1alpha", 7, alpha=Scalar(1))
    assert kept(m11).get("der").dim == oracle_der_dim(m11) == 12


def _perturbed(m, rng):
    """m with one seeded entry changed by a nonzero Gaussian rational."""
    data = [list(row) for row in m.data]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    data[r][c] = data[r][c] + from_gaussian(rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1), rng.randint(1, 3))
    return Matrix(m.rows, m.cols, data)


@pytest.mark.parametrize("family,n,alpha", catalog((7, 9)))
def test_is_derivation_matches_the_pair_by_pair_oracle(family, n, alpha):
    # the one defect loop against n^2 bracket pairs, on every Der basis
    # element and on two one-entry perturbations of each; at n = 7 the first
    # case of each family is also moved to two dense Gaussian-rational bases
    seed = "%s %d %s" % (family, n, alpha)
    algebras, rng = [catalog_algebra(family, n, alpha)], random.Random(seed)
    if n == 7 and alpha in (None, "-1"):
        dense = moved(family, n, alpha, "rational", seed, 2)
        algebras += [k.b for k in dense]
        rng = dense[-1].rng()
    for a in algebras:
        for m in derivation_space(a).basis:
            assert is_derivation(a, m) and oracle_is_derivation(a, m)
            for _ in range(2):
                p = _perturbed(m, rng)
                assert is_derivation(a, p) == oracle_is_derivation(a, p)


def test_every_der_basis_element_is_a_derivation():
    for family, n in [("M", 7), ("N", 7), ("L1", 7), ("KF5", 7)]:
        a = alg(family, n)
        for m in kept(a).get("der").basis:
            assert is_derivation(a, m)


def test_der_and_inn_bases_are_square_matrices_of_scalars():
    # both bases come from rows that are already Scalars, taken as they are:
    # they must equal the matrices the checking constructor builds
    a = case("M1alpha", 5, "3+1i", "small", 4).b
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
    inn = kept(m7).get("inn")
    assert inn.dim == 2 == oracle_inner_dim(m7)
    # and the span is exactly <R_{y1}, R_{y6}>
    r1 = right_operator(m7, unit(8, 0)).flat()
    r6 = right_operator(m7, unit(8, 5)).flat()
    expected = span_echelon([r1, r6], 64)
    got = span_echelon([m.flat() for m in inn.basis], 64)
    assert expected.basis_rows() == got.basis_rows()


def test_inner_m1alpha_dim_three():
    a = alg("M1alpha", 7, alpha=Scalar(1))
    assert kept(a).get("inn").dim == 3 == oracle_inner_dim(a)


def test_h1_m_family():
    for n in (7, 8):
        m = alg("M", n)
        assert h1_dimension(m, der=kept(m).get("der"), inn=kept(m).get("inn")) == n + 4
        a = alg("M1alpha", n, alpha=Scalar(1))
        assert h1_dimension(a, der=kept(a).get("der"), inn=kept(a).get("inn")) == n + 2


def test_h1_nonnegative_and_contained():
    for family, n in [("M", 7), ("N", 7), ("L1", 7), ("KF4", 7), ("NGF1", 7)]:
        a = alg(family, n)
        h1 = h1_dimension(a, der=kept(a).get("der"), inn=kept(a).get("inn"))
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


@pytest.mark.parametrize("family,n,alpha", catalog((7, 8, 9)))
def test_inner_derivations_lie_in_der(family, n, alpha):
    # h1_dimension subtracts dims without a containment check; this pins
    # the theorem it relies on against derivation_space's assembly
    a = catalog_algebra(family, n, alpha)
    assert oracle_inner_outside_der(a, kept(a).get("der")) == []


@pytest.mark.parametrize("family,n,alpha", catalog((7, 8, 9)))
def test_inner_dim_is_dim_minus_right_annihilator(family, n, alpha):
    # the kernel of x -> R_x is R(L); with dim Der(N) on its formula this
    # pins dim H1(N) = (n+13)/2, not the stated (n+19)/2
    a = catalog_algebra(family, n, alpha)
    assert kept(a).get("inn").dim == a.dim - len(right_annihilator(a))
    if family == "N":
        assert h1_dimension(a, der=kept(a).get("der"), inn=kept(a).get("inn")) == (n + 13) // 2


@pytest.mark.parametrize("family,n,params", [
    ("L1", 7, {}), ("KF4", 7, {}), ("KF5", 7, {}), ("NGF1", 5, {}), ("N", 7, {}),
    ("M", 5, {}), ("M1alpha", 5, {"alpha": Scalar(-1)}), ("nullfiliform-ml", 6, {}),
])
def test_inner_derivations_lie_in_der_dense_basis(family, n, params):
    # moved by the first draw of the rng fixture's stream
    b = case(family, n, "-1" if params else None, "small", 20240811).b
    assert oracle_inner_outside_der(b, derivation_space(b)) == []


def test_commutator_with_inner_is_inner(rng):
    # d R_x - R_x d = R_{d(x)}: inner derivations form an ideal of Der
    m7 = alg("M", 7)
    der = kept(m7).get("der")
    for _ in range(25):
        d = der.basis[rng.randrange(len(der.basis))]
        x = random_vector(rng, 8)
        rx = right_operator(m7, x)
        lhs = d * rx - rx * d
        rhs = right_operator(m7, mul_vec(d, x))
        assert lhs == rhs


def test_der_dim_invariant_under_change_of_basis():
    # moved by the first three draws of the rng fixture's stream
    base = kept(alg("L1", 7)).get("der").dim
    for k in moved("L1", 7, None, "small", 20240811, 3):
        assert derivation_space(k.b).dim == base


# -- the dimension without the basis: Der's rows are built on their first read


def _record_rows(monkeypatch):
    """Each Der basis that cohomology builds, recorded by its ncols."""
    built, rref = [], cohomology.reversed_rref

    def recording(rows, ncols):
        built.append(ncols)
        return rref(rows, ncols)
    monkeypatch.setattr(cohomology, "reversed_rref", recording)
    return built


@pytest.mark.parametrize("family,n,alpha", catalog((7, 8, 9)))
def test_der_dim_is_the_number_of_rows_it_builds(family, n, alpha):
    k = case(family, n, alpha, "rational", n)
    ders = [kept(b).get("der") for b in (k.a, k.c)]
    assert ders[0].dim == ders[1].dim
    for der in ders:
        assert der.dim == len(der.rows)


def test_dim_h1_and_fingerprint_build_no_der_rows(monkeypatch):
    built = _record_rows(monkeypatch)
    for b, dim in ((alg("M", 7), 13), (fresh(case("N", 7, None, "rational", 4).c), 16)):
        der = derivation_space(b)
        assert der.dim == dim
        h1_dimension(b)
        fingerprint(b)
        assert built == []
        rows = der.rows
        assert built == [b.dim ** 2] and der.rows is rows   # built once, then kept
        built.clear()


def test_the_der_verb_builds_rows_only_for_its_dump(tmp_path, monkeypatch):
    path = tmp_path / "n7_dense.json"
    core.save(case("N", 7, None, "rational", 5).c, path)
    built = _record_rows(monkeypatch)
    for argv in (["der", str(path)], ["h1", str(path)]):
        assert main(argv, out=io.StringIO()) == 0
    assert built == []
    assert main(["der", str(path), "--dump"], out=io.StringIO()) == 0
    assert built == [64]
