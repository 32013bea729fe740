import random
from fractions import Fraction
from math import lcm

import pytest

from cases import case, catalog, dense_rational_move, random_invertible
from conftest import DATA, alg, mutated_m7, random_vector, zero_vec
from oracles import inverse, mul_vec, oracle_bracket, oracle_residual_by_definition, unit

from leibnizkit.catalog import FamilySpec, build
from leibnizkit.core import (
    Algebra,
    FormatError,
    bracket,
    change_of_basis,
    derivation_defects,
    direct_sum,
    dumps,
    from_terms,
    leibniz_residual,
    load,
    left_operator,
    loads,
    operator_columns,
    right_operator,
    save,
    sparse_bracket,
)
from leibnizkit.invariants import natural_graded
from leibnizkit.linalg import (
    Matrix,
    SingularMatrixError,
    gaussian_combination,
    span_echelon,
)
from leibnizkit.scalars import Scalar


def test_bracket_m7_chain():
    m7 = alg("M", 7)
    y1 = unit(8, 0)
    assert bracket(m7, y1, y1) == unit(8, 1)          # [y1, y1] = y2


def test_bracket_right_zero():
    m7 = alg("M", 7)
    assert bracket(m7, unit(8, 0), zero_vec(8)) == zero_vec(8)


def test_bracket_l1_mixed_argument():
    # [e1 + f2, e1] = [e1, e1] = e2 since f2 never multiplies e1 from the left
    l1 = alg("L1", 7)
    x = [a + b for a, b in zip(unit(7, 0), unit(7, l1.index("f2")))]
    assert bracket(l1, x, unit(7, 0)) == unit(7, 1)


def test_bracket_bilinearity_randomized(rng):
    l1 = alg("L1", 7)
    for _ in range(60):
        x, y, z = (random_vector(rng, 7) for _ in range(3))
        a, b = Scalar(rng.randint(-3, 3)), Scalar(rng.randint(-3, 3))
        ax_bz = [a * u + b * v for u, v in zip(x, z)]
        lhs = bracket(l1, ax_bz, y)
        rhs = [a * u + b * v for u, v in zip(bracket(l1, x, y), bracket(l1, z, y))]
        assert lhs == rhs


def test_residual_empty_for_m7():
    assert leibniz_residual(alg("M", 7)) == []


def test_residual_empty_for_abelian():
    assert leibniz_residual(alg("abelian", 4)) == []


def test_mutated_m7_is_the_dense_adapters_build():
    # the gamma of M(7) with [y2, y6] = y1 put in, through Algebra(labels, gamma)
    m7 = alg("M", 7)
    gamma = dict(m7.gamma)
    gamma[(1, 5)] = tuple(Scalar(int(k == 0)) for k in range(8))
    assert mutated_m7() == Algebra(m7.labels, gamma)


def test_residual_nonempty_for_mutated_m7():
    bad = mutated_m7()
    res = leibniz_residual(bad)
    assert res
    triples = {(i, j, k) for (i, j, k, _vec) in res}
    assert all(0 <= t < 8 for trip in triples for t in trip)


def _random_sparse_table(rng, d, products):
    gamma = {}
    for _ in range(products):
        vec = zero_vec(d)
        for _ in range(rng.randint(1, 2)):
            vec[rng.randrange(d)] = Scalar(rng.choice((-2, -1, 1, 2)), rng.choice((0, 0, 1)))
        gamma[(rng.randrange(d), rng.randrange(d))] = vec
    return Algebra(["e%d" % t for t in range(d)], gamma)


def _random_terms(rng, d, count):
    """(i, j, k, c) terms with repeats and cancelling pairs, some c plain ints."""
    terms = []
    for _ in range(count):
        a = rng.choice((-2, -1, 1, 2))
        c = rng.choice((a, Scalar(a, rng.choice((0, 1)))))
        term = (rng.randrange(d), rng.randrange(d), rng.randrange(d), c)
        terms.append(term)
        if rng.random() < 0.3:
            terms.append(term)
        if rng.random() < 0.3:
            terms.append(term[:3] + (-c,))
    rng.shuffle(terms)
    return terms


def test_from_terms_and_dense_adapter_agree():
    rng = random.Random(13)
    cancelled = 0
    for _ in range(300):
        d = rng.randint(1, 5)
        terms = _random_terms(rng, d, rng.randint(0, 10))
        sums = {}
        for i, j, k, c in terms:
            vec = sums.setdefault((i, j), zero_vec(d))
            vec[k] = vec[k] + c
        labels = ["e%d" % t for t in range(d)]
        a, b = from_terms(labels, terms), Algebra(labels, sums)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()
        assert dumps(a) == dumps(b)
        nonzero = {key for key, vec in sums.items() if any(vec)}
        assert {(i, j) for i, j, _ in a.products()} == nonzero
        cancelled += len(sums) - len(nonzero)
        assert all(type(c) is Scalar for x in (a, b) for _, _, ts in x.products() for _, c in ts)
    assert cancelled > 0


def test_residual_matches_oracle_exactly():
    rng = random.Random(11)
    bad = mutated_m7()
    cases = [bad, change_of_basis(bad, random_invertible(rng, 8))]
    while len(cases) < 8:
        table = _random_sparse_table(rng, rng.randint(3, 6), rng.randint(3, 10))
        if oracle_residual_by_definition(table):
            cases.append(table)
    for a in cases:
        res = leibniz_residual(a)
        assert res
        assert res == oracle_residual_by_definition(a)


def test_integer_residual_matches_oracle_on_dense_conjugates():
    # the residual runs on D * gamma and divides by D^2: on Leibniz algebras
    # moved to dense Gaussian-rational bases it must stay empty, and on the
    # same tables with one product changed it must equal the oracle entry
    # for entry
    rng = random.Random(23)
    for family, n, params in [("M", 5, {}), ("M1alpha", 5, {"alpha": Scalar(3, 1)}), ("NGF1", 5, {}),
                              ("L1", 7, {}), ("N", 7, {})]:
        base = alg(family, n, **params)
        a = change_of_basis(base, dense_rational_move(rng, base.dim))
        assert a.denominator > 1   # the move brings denominators
        assert leibniz_residual(a) == [] == oracle_residual_by_definition(a)
        terms = [(i, j, k, c) for i, j, product in a.products() for k, c in product]
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        bad = from_terms(a.labels, terms + [(i, j, k, Scalar(Fraction(1, 7), Fraction(-2, 5)))])
        res = leibniz_residual(bad)
        assert res and res == oracle_residual_by_definition(bad)


def test_right_operator_of_top_vector_is_zero():
    m7 = alg("M", 7)
    assert right_operator(m7, unit(8, 6)) == Matrix.zero(8)      # y_n never on the right


def test_right_operator_linear_in_x():
    m7 = alg("M", 7)
    assert right_operator(m7, zero_vec(8)) == Matrix.zero(8)


def test_right_operator_l1_image():
    l1 = alg("L1", 7)
    op = right_operator(l1, unit(7, 0))
    image = span_echelon([op.column(c) for c in range(7)], 7)
    expected = span_echelon([unit(7, 1), unit(7, 2), unit(7, 3)], 7)
    assert len(image) == 3
    assert image.basis_rows() == expected.basis_rows()


def test_right_operator_matches_bracket(rng):
    m7 = alg("M", 7)
    for _ in range(40):
        x = random_vector(rng, 8)
        y = random_vector(rng, 8)
        assert mul_vec(right_operator(m7, x), y) == bracket(m7, y, x)


def _gaussian_rational_vector(rng, n):
    return [Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(n)]


@pytest.mark.parametrize("family,n,alpha", catalog((7, 8, 9)))
def test_operators_match_bracket_on_gaussian_rationals(family, n, alpha):
    # left_operator and right_operator share core.operator_columns, run on
    # by_left and by_right: L_x y = [x, y] and R_x y = [y, x], on the catalog
    # table and on a dense Gaussian-rational conjugate of it
    k = case(family, n, alpha, "rational", "%s %d %s" % (family, n, alpha))
    rng = k.rng()
    for a in (k.a, k.b):
        for _ in range(4):
            x, y = _gaussian_rational_vector(rng, a.dim), _gaussian_rational_vector(rng, a.dim)
            assert mul_vec(left_operator(a, x), y) == bracket(a, x, y) == oracle_bracket(a, x, y)
            assert mul_vec(right_operator(a, x), y) == bracket(a, y, x) == oracle_bracket(a, y, x)


def test_change_of_basis_identity():
    m7 = alg("M", 7)
    assert change_of_basis(m7, Matrix.identity(8)) == m7


def test_change_of_basis_round_trip(rng):
    m7 = alg("M", 7)
    for _ in range(10):
        p = random_invertible(rng, 8)
        assert change_of_basis(change_of_basis(m7, p), inverse(p)) == m7


def test_change_of_basis_rescaling_preserves_residual():
    # y1 -> 2 y1, everything else fixed: the transported law stays Leibniz;
    # [u1, u1] = 4 [y1, y1] = 4 y2 and y2 is unscaled, so the new
    # coefficient is exactly 4
    m7 = alg("M", 7)
    p = Matrix.identity(8)
    p.data[0][0] = Scalar(2)
    moved = change_of_basis(m7, p)
    assert leibniz_residual(moved) == []
    v = zero_vec(8)
    v[1] = Scalar(4)
    assert list(moved.gamma[(0, 0)]) == v


def test_change_of_basis_rejects_singular():
    with pytest.raises(SingularMatrixError):
        change_of_basis(alg("M", 7), Matrix.zero(8, 8))


def test_direct_sum_with_zero_dim_is_identity():
    m7 = alg("M", 7)
    assert direct_sum(m7, alg("abelian", 0)) == m7


def test_direct_sum_dims_add():
    s = direct_sum(alg("NGF1", 8), alg("abelian", 2))
    assert s.dim == 10
    assert leibniz_residual(s) == []


def test_direct_sum_kf4_plus_line_is_leibniz():
    s = direct_sum(alg("KF4", 9), alg("abelian", 1))
    assert leibniz_residual(s) == []


def test_direct_sum_associative_up_to_relabeling():
    a, b, c = alg("M", 7), alg("abelian", 2), alg("NGF1", 7)
    left = direct_sum(direct_sum(a, b), c)
    right = direct_sum(a, direct_sum(b, c))
    assert left.dim == right.dim
    assert len(leibniz_residual(left)) == len(leibniz_residual(right)) == 0
    assert sorted(left.gamma) == sorted(right.gamma)


def test_direct_sum_renames_label_collisions():
    s = direct_sum(alg("NGF1", 4), alg("NGF1", 4))
    assert len(set(s.labels)) == 8
    assert "e1'" in s.labels


def test_json_round_trip_all_families():
    for family, n in [("M", 7), ("M1alpha", 7), ("N", 7), ("L1", 8), ("KF4", 8),
                      ("KF5", 7), ("NGF1", 7), ("nullfiliform-ml", 5), ("abelian", 3)]:
        a = alg(family, n, **({"alpha": Scalar(1)} if family == "M1alpha" else {}))
        assert loads(dumps(a)) == a


def test_json_golden_m7():
    with open(f"{DATA}/m7.json", "rb") as fh:
        assert fh.read() == dumps(alg("M", 7)).encode()


def test_json_omitted_products_are_zero():
    a = loads('{"dim": 2, "basis": ["a", "b"], "products": []}')
    assert bracket(a, unit(2, 0), unit(2, 1)) == zero_vec(2)


@pytest.mark.parametrize("doc,fragment", [
    ('{"dim": 2, "basis": ["a", "a"]}', "duplicate"),
    ('{"dim": 3, "basis": ["a", "b"]}', "dim"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "x", "right": "a", "result": []}]}', "'x'"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "a", "right": "a", "result": [["a", "1/0"]]}]}', "1/0"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "a", "right": "a", "result": [["b", "1"]]}]}', "'b'"),
    ('{"basis": ["a"]}', "dim"),
    ('[1, 2]', "object"),
    ('{"dim": true, "basis": ["a"]}', "dim must be an integer"),
    ('{"dim": 2, "basis": ["a", "b"], "products": 5}', "'products' must be a list"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "a", "right": "a", "result": 3}]}',
     "products[0]: 'result'"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": ["a"], "right": "a", "result": []}]}',
     "products[0]: labels must be strings"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "a", "right": ["a"], "result": []}]}',
     "products[0]: labels must be strings"),
    ('{"dim": 1, "basis": ["a"], "products": [{"left": "a", "right": "a", "result": [[["a"], "1"]]}]}',
     "products[0]: labels must be strings"),
    ('{"dim": 1,\n "basis": [}', "<algebra>: line 2: Expecting value"),
    # json.loads raises RecursionError and int()'s digit-limit ValueError here
    ("[" * 100000, "<algebra>: JSON nested too deeply"),
    ('{"dim": %s, "basis": []}' % ("1" * 5000), "<algebra>: Exceeds the limit"),
], ids=["dup-label", "dim-mismatch", "bad-left", "zero-den", "bad-term", "no-dim", "not-object",
        "bool-dim", "products-not-list", "result-not-list", "list-left", "list-right",
        "list-term-label", "syntax", "deep-nesting", "long-integer"])
def test_json_errors_name_the_offender(doc, fragment):
    with pytest.raises(FormatError) as err:
        loads(doc)
    assert fragment in str(err.value)


def test_json_duplicate_product_rejected():
    doc = ('{"dim": 2, "basis": ["a", "b"], "products": ['
           '{"left": "a", "right": "a", "result": [["b", "1"]]},'
           '{"left": "a", "right": "a", "result": [["b", "2"]]}]}')
    with pytest.raises(FormatError) as err:
        loads(doc)
    assert "duplicate product" in str(err.value)


def test_from_terms_adds_the_terms_of_one_product():
    a = from_terms(["x", "y"], [(0, 0, 1, Scalar(1)), (0, 0, 0, Scalar(0, 1)), (0, 0, 1, Scalar(2))])
    assert a.gamma == {(0, 0): (Scalar(0, 1), Scalar(3))}
    assert a.denominator == 1 and a.by_left[0][0] == ((0, (0, 1)), (1, (3, 0)))
    assert a.products() == [(0, 0, ((0, Scalar(0, 1)), (1, Scalar(3))))]


ALPHA = Scalar(Fraction(1, 2), Fraction(-1, 3))


def _m1alpha7():
    return build(FamilySpec("M1alpha", 7, {"alpha": ALPHA}))


def _reduced_lcm(algebra):
    # independent of Scalar's fields: the lcm of the denominators of the
    # reduced real and imaginary parts of every coefficient of the view
    return lcm(*[q.denominator for _, _, terms in algebra.products() for _, c in terms for q in (c.re, c.im)])


def test_denominator_is_the_lcm_of_the_reduced_denominators():
    # M^{1,alpha}(7) at alpha = 1/2 - i/3 stores D = 6, by every route that builds a table
    a = _m1alpha7()
    n = a.dim
    swap = Matrix(n, n, [[Scalar(int(c == (r + 1) % n)) for c in range(n)] for r in range(n)])
    quarter = from_terms(["z"], [(0, 0, 0, Scalar(Fraction(1, 4)))])
    routes = {
        "from_terms": (from_terms(a.labels, [(i, j, k, c) for i, j, t in a.products() for k, c in t]), 6),
        "dense adapter": (Algebra(a.labels, a.gamma), 6),
        "loads": (loads(dumps(a)), 6),
        "change_of_basis": (change_of_basis(a, Matrix.identity(n)), 6),
        "change_of_basis, permuted": (change_of_basis(a, swap), 6),
        "direct_sum": (direct_sum(a, a), 6),
        "direct_sum, two denominators": (direct_sum(a, quarter), 12),
        "natural_graded": (natural_graded(from_terms(["x", "y"], [(0, 0, 1, ALPHA)]))[0], 6),
        "integral": (alg("M", 7), 1),
    }
    assert a.denominator == _reduced_lcm(a) == 6
    for route, (b, d) in routes.items():
        assert b.denominator == _reduced_lcm(b) == d, route


def test_terms_summed_to_a_smaller_denominator_store_the_reduced_one():
    # 1/3 + 1/6 = 1/2: D is 2, not lcm(3, 6)
    a = from_terms(["x"], [(0, 0, 0, Scalar(Fraction(1, 3))), (0, 0, 0, Scalar(Fraction(1, 6)))])
    assert a.denominator == 2 and a.by_left[0][0] == ((0, (1, 0)),)
    assert a == from_terms(["x"], [(0, 0, 0, Scalar(Fraction(1, 2)))])


def test_products_and_gamma_are_scalar_views_of_the_terms_handed_in():
    terms = [(0, 0, 1, Scalar(Fraction(1, 2), Fraction(-1, 3))), (0, 1, 0, Scalar(3)),
             (1, 0, 1, Scalar(0, Fraction(1, 4))), (1, 0, 0, Scalar(-1))]
    a = from_terms(["x", "y"], terms)
    assert a.denominator == 12
    assert a.by_left[0] == {0: ((1, (6, -4)),), 1: ((0, (36, 0)),)}
    assert a.by_right[0] == {0: ((1, (6, -4)),), 1: ((0, (-12, 0)), (1, (0, 3)))}
    assert a.products() == [(0, 0, ((1, terms[0][3]),)), (0, 1, ((0, terms[1][3]),)),
                            (1, 0, ((0, terms[3][3]), (1, terms[2][3])))]
    assert a.gamma == {(0, 0): (Scalar(0), terms[0][3]), (0, 1): (terms[1][3], Scalar(0)),
                       (1, 0): (terms[3][3], terms[2][3])}
    assert all(type(c) is Scalar for _, _, ts in a.products() for _, c in ts)
    assert all(type(c) is Scalar for vec in a.gamma.values() for c in vec)


def test_equality_compares_the_denominator():
    # equal int terms over D = 1 and D = 2 are different tables
    one = from_terms(["x"], [(0, 0, 0, 1)])
    half = from_terms(["x"], [(0, 0, 0, Fraction(1, 2))])
    assert one.by_left == half.by_left and (one.denominator, half.denominator) == (1, 2)
    assert one != half and half != one
    assert one.key() != half.key()


def test_equal_algebras_built_by_different_routes_hash_equal(tmp_path):
    a = _m1alpha7()
    terms = [(i, j, k, c) for i, j, t in a.products() for k, c in t]
    path = tmp_path / "m1alpha.json"
    save(a, path)
    same = [
        from_terms(a.labels, terms[::-1]),        # another insertion order
        from_terms(a.labels, terms + [(0, 0, 1, Scalar(Fraction(1, 3))), (0, 0, 1, Scalar(Fraction(-1, 3)))]),
        Algebra(a.labels, a.gamma),
        loads(dumps(a)),
        load(path),
        change_of_basis(a, Matrix.identity(a.dim)),
    ]
    for b in same:
        assert b == a and a == b
        assert hash(b) == hash(a) and b.key() == a.key()


def test_from_terms_drops_a_product_whose_terms_cancel():
    a = from_terms(["x", "y"], [(0, 1, 0, Scalar(2)), (1, 0, 0, Scalar(1)), (0, 1, 0, Scalar(-2))])
    assert a.gamma == {(1, 0): (Scalar(1), Scalar(0))}
    assert a.by_left[0] == {} and a.by_right[1] == {}
    assert from_terms(["x"], []) == from_terms(["x"], [(0, 0, 0, Scalar(0))])


def test_no_zero_entry_survives_products_that_cancel():
    # [e_0, e_0] = e_1 and [e_3, e_0] = -e_1, so x = e_0 + e_3 has [x, e_0] = 0;
    # [e_1, e_0] = e_2 gives R_x a defect on (e_0, e_0) and (e_3, e_0) whose
    # terms cancel, as the algebra is Leibniz
    a = from_terms(["e0", "e1", "e2", "e3"], [(0, 0, 1, 1), (1, 0, 2, 1), (3, 0, 1, -1)])
    x = {0: (1, 0), 3: (1, 0)}
    right_x = operator_columns(a.by_right, x)
    defects = next(derivation_defects(a, [right_x]))
    assert leibniz_residual(a) == []
    assert sparse_bracket(a, x, {0: (1, 0)}) == {}
    assert operator_columns(a.by_left, x) == {}   # the one column of L_x cancels and goes
    assert gaussian_combination([dict(a.by_right[0].get(i, ())) for i in range(a.dim)], x) == {}
    assert right_x == {0: ((1, (1, 0)),), 1: ((2, (1, 0)),), 3: ((1, (-1, 0)),)}
    assert defects == {(0, 0): {}, (3, 0): {}}


@pytest.mark.parametrize("term", [(2, 0, 0), (0, -1, 0), (0, 0, 2), (0, 0, -1)],
                         ids=["left", "right", "result", "negative-result"])
def test_from_terms_rejects_an_index_out_of_range(term):
    with pytest.raises(ValueError, match="out of range for dim 2"):
        from_terms(["x", "y"], [term + (Scalar(1),)])


def test_dense_adapter_checks_indices_and_coordinate_count():
    with pytest.raises(ValueError, match="out of range for dim 2"):
        Algebra(["x", "y"], {(2, 0): zero_vec(2)})      # an all-zero product is checked too
    with pytest.raises(ValueError, match="has 1 coordinates, need 2"):
        Algebra(["x", "y"], {(0, 0): [Scalar(1)]})


def test_residual_invariant_under_change_of_basis(rng):
    m7 = alg("M", 7)
    for _ in range(5):
        p = random_invertible(rng, 8)
        assert leibniz_residual(change_of_basis(m7, p)) == []
