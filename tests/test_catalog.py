import pytest

from conftest import DATA, alg, zero_vec

from leibnizkit.catalog import (
    FAMILIES,
    FamilyError,
    FamilySpec,
    admissible_param_check,
    build,
    param_names,
)
from leibnizkit.core import dumps, leibniz_residual
from leibnizkit.scalars import ONE, Scalar, parse_scalar


def test_m7_exact_table():
    m7 = alg("M", 7)
    assert len(m7.gamma) == 6
    want = {}
    for i in range(4):                         # [y_i, y_1] = y_{i+1}, i = 1..4
        v = zero_vec(8)
        v[i + 1] = ONE
        want[(i, 0)] = tuple(v)
    v = zero_vec(8)
    v[6] = ONE                                 # [y_1, y_6] = y_7
    want[(0, 5)] = tuple(v)
    v = zero_vec(8)
    v[4] = ONE                                 # [z_1, y_6] = y_5
    want[(7, 5)] = tuple(v)
    assert m7.gamma == want


def test_abelian_zero_gamma():
    assert alg("abelian", 3).gamma == {}


@pytest.mark.parametrize("family,n,dim", [
    ("L1", 7, 7), ("L1", 10, 10),
    ("N", 7, 8), ("N", 9, 10),
    ("M", 7, 8), ("M1alpha", 9, 10),
    ("NGF1", 8, 8), ("KF4", 9, 9), ("KF5", 9, 9),
    ("nullfiliform-ml", 5, 5), ("abelian", 4, 4),
])
def test_dimension_contract(family, n, dim):
    assert alg(family, n).dim == dim


def test_n_is_antisymmetric_on_all_pairs():
    for n in (7, 9, 11):
        a = alg("N", n)
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = list(a.gamma_vec(i, j))
                rhs = [-x for x in a.gamma_vec(j, i)]
                assert lhs == rhs, (n, a.labels[i], a.labels[j])


def test_n_listed_products_present():
    a = alg("N", 9)
    n = 9
    e = {i: i for i in range(n)}
    assert a.gamma_vec(e[1], e[0])[2] == 1            # [e1, e0] = e2
    assert a.gamma_vec(e[n - 3], e[1])[n - 1] == Scalar(-1)   # [e_{n-3}, e_1] = -e_{n-1}
    assert a.gamma_vec(e[n - 4], e[2])[n - 1] == 1    # [e_{n-4}, e_2] = e_{n-1}
    assert a.gamma_vec(e[3], e[n - 5])[n - 1] == 1    # [e_3, e_4] = e_8 at n = 9
    assert a.gamma_vec(a.index("f1"), e[0])[n - 1] == 1       # [f1, e0] = e_{n-1}


def test_n7_alternating_range_is_empty():
    # at n = 7 the range 3 <= i <= floor((n-3)/2) = 2 is empty: the only
    # e_{n-1}-products are the two listed ones and the f1 chain, plus mirrors
    a = alg("N", 7)
    top = [key for key, vec in a.gamma.items() if vec[6]]
    assert sorted(top) == [(0, 7), (1, 4), (2, 3), (3, 2), (4, 1), (7, 0)]


def test_n_rejects_even_n():
    with pytest.raises(FamilyError):
        build(FamilySpec("N", 8))


def test_l1_range_enforced():
    with pytest.raises(FamilyError):
        build(FamilySpec("L1", 6))


def test_zero_param_catalog_is_leibniz():
    for family in FAMILIES:
        if family == "abelian":
            n = 3
        elif family == "N":
            n = 9
        elif family == "nullfiliform-ml":
            n = 6
        else:
            n = 8
        assert leibniz_residual(alg(family, n)) == [], family


def test_admissible_kf4_zero_params():
    assert admissible_param_check(FamilySpec("KF4", 9)) == []


def test_admissible_m1alpha_any_alpha():
    assert admissible_param_check(FamilySpec("M1alpha", 8, {"alpha": parse_scalar("5/3")})) == []


def test_inadmissible_kf5_beta3():
    # located by scanning single nonzero parameters: beta_3 = 1 breaks the
    # identity on (e8, e1, e8) at n = 9
    res = admissible_param_check(FamilySpec("KF5", 9, {"beta_3": Scalar(1)}))
    assert res
    a = build(FamilySpec("KF5", 9, {"beta_3": Scalar(1)}))
    triples = {(a.labels[i], a.labels[j], a.labels[k]) for (i, j, k, _v) in res}
    assert ("e8", "e1", "e8") in triples


def test_admissible_top_coefficient_params():
    # the top-weight coefficients are unconstrained by the identity
    spec = FamilySpec("KF4", 9, {"alpha_7": Scalar(2), "beta_7": Scalar(1, 1), "gamma_7": Scalar(-3)})
    assert admissible_param_check(spec) == []


def test_unknown_param_rejected():
    with pytest.raises(FamilyError):
        build(FamilySpec("KF4", 9, {"delta_3": Scalar(1)}))
    with pytest.raises(FamilyError):
        build(FamilySpec("KF4", 9, {"alpha_8": Scalar(1)}))   # out of range at n = 9
    with pytest.raises(FamilyError):
        build(FamilySpec("M", 7, {"alpha": Scalar(1)}))       # M takes no parameters


def test_unknown_family_rejected():
    with pytest.raises(FamilyError):
        FamilySpec("X9", 7)


def test_param_names_kf_ranges():
    names = param_names("KF4", 8)
    assert "alpha_3" in names and "alpha_6" in names and "alpha_7" not in names
    assert "beta_2_4" in names and "beta_2_6" in names and "beta_2_7" not in names
    assert "beta_4_6" in names and "beta_5_7" not in names
    assert "gamma_4" in names and "gamma_6" in names and "gamma_3" not in names


def test_m1alpha_defaults_to_alpha_zero():
    a = alg("M1alpha", 7)
    assert (8 - 1, 8 - 3) not in a.gamma      # no [z1, y6] product at alpha = 0
    assert a.gamma_vec(5, 7)[4] == 1          # [y6, z1] = y5 still present


def test_catalog_output_byte_stable():
    text1 = dumps(build(FamilySpec("M", 7)))
    text2 = dumps(build(FamilySpec("M", 7)))
    assert text1 == text2
    with open(f"{DATA}/m7.json", "rb") as fh:
        assert fh.read() == text1.encode()
    with open(f"{DATA}/n9.json", "rb") as fh:
        assert fh.read() == dumps(build(FamilySpec("N", 9))).encode()


def test_nullfiliform_charseq_is_single_block():
    from leibnizkit.invariants import characteristic_sequence

    cs = characteristic_sequence(alg("nullfiliform-ml", 6))
    assert cs.parts == (6,)


def test_n_is_maximum_length_lie_algebra():
    from leibnizkit.gradations import search_diagonal_gradation, verify_gradation

    a = alg("N", 7)
    found = search_diagonal_gradation(a)
    assert verify_gradation(a, found).maximum_length
