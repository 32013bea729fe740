import random
import re

import pytest

from conftest import DATA, alg, case_algebra, catalog_cases, mutated_m7, random_invertible

from oracles import in_span, oracle_partition, oracle_rank, oracle_series_dims

from leibnizkit import NotLeibnizError, invariants, linalg
from leibnizkit.core import (
    Algebra,
    bracket,
    change_of_basis,
    leibniz_residual,
    right_operator,
    sparse_bracket,
)
from leibnizkit.invariants import (
    CharSeq,
    center,
    central_series,
    characteristic_sequence,
    fingerprint,
    natural_graded,
    p_filiform_class,
    right_annihilator,
)
from leibnizkit.linalg import (
    NotNilpotentError,
    basis_vec,
    image_chain,
    jordan_type,
    nilpotent_partition,
    span_echelon,
    sparse_vec,
)
from leibnizkit.scalars import ONE, Scalar


def _contains(vectors, dim, target):
    return in_span(span_echelon(vectors, dim), sparse_vec(target))


def test_series_abelian():
    a = alg("abelian", 3)
    levels = image_chain(3, a.by_right)
    assert [list(level) for level in levels] == [[{0: ONE}, {1: ONE}, {2: ONE}], []]
    s = central_series(a)
    assert s.dims == (3,)
    assert s.nilindex == 1
    assert len(s.subspace_bases[0]) == 3
    assert characteristic_sequence(a) == CharSeq((1, 1, 1), tuple(basis_vec(3, 0)))


def test_series_m7_against_brute_force():
    m7 = alg("M", 7)
    assert oracle_series_dims(m7) == (8, 5, 3, 2, 1)
    s = central_series(m7)
    assert s.dims == (8, 5, 3, 2, 1)
    assert s.nilindex == 5


def test_series_l1_nilindex():
    assert central_series(alg("L1", 7)).nilindex == 4    # n - 3


def test_series_strictly_decreasing_for_catalog():
    for family, n in [("M", 8), ("N", 9), ("KF4", 8), ("KF5", 9), ("NGF1", 8), ("L1", 9)]:
        dims = central_series(alg(family, n)).dims
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_series_detects_non_nilpotent():
    # [a, a] = a, [c, a] = b: L^2 = <a, b>, L^3 = L^4 = <a>; the repeated
    # L^4 ends the image chain and is not part of the report
    z = Scalar(0)
    a = Algebra(["a", "b", "c"], {(0, 0): (ONE, z, z), (2, 0): (z, ONE, z)})
    assert [len(level) for level in image_chain(3, a.by_right)] == [3, 2, 1, 1]
    s = central_series(a)
    assert s.nilindex is None
    assert not s.is_nilpotent
    assert s.dims == (3, 2, 1) and len(s.subspace_bases) == 3
    assert oracle_series_dims(a) == (3, 2, 1, "stuck")


def test_series_of_the_zero_algebra():
    s = central_series(alg("abelian", 0))
    assert (s.subspace_bases, s.dims, s.nilindex) == (((),), (0,), 1)
    assert characteristic_sequence(alg("abelian", 0)) == CharSeq((), ())


def test_right_annihilator_abelian_is_everything():
    assert len(right_annihilator(alg("abelian", 3))) == 3


def test_right_annihilator_l1_membership():
    l1 = alg("L1", 7)
    rann = right_annihilator(l1)
    assert len(rann) == 5
    for label in ("e2", "e3", "e4", "f3"):
        assert _contains(rann, 7, basis_vec(7, l1.index(label)))


def test_right_annihilator_m7_dim():
    m7 = alg("M", 7)
    rann = right_annihilator(m7)
    # oracle: stack the left-multiplication matrices and row-reduce
    from leibnizkit.core import left_operator

    rows = []
    for i in range(8):
        rows.extend(left_operator(m7, basis_vec(8, i)).data)
    assert len(rann) == 8 - oracle_rank(rows) == 6


def test_center_abelian_is_everything():
    assert len(center(alg("abelian", 3))) == 3


def test_center_l1_contains_top_vector():
    l1 = alg("L1", 7)
    assert _contains(center(l1), 7, basis_vec(7, l1.index("e4")))   # e_{n-3}


def test_center_m7_membership():
    m7 = alg("M", 7)
    c = center(m7)
    assert _contains(c, 8, basis_vec(8, m7.index("y7")))            # y_n
    assert _contains(c, 8, basis_vec(8, m7.index("y5")))            # y_{n-2}
    assert len(c) == 2


def test_annihilator_and_center_are_ideals(rng):
    m7 = alg("M", 7)
    for name, vectors in (("rann", right_annihilator(m7)), ("center", center(m7))):
        span = span_echelon(vectors, 8)
        for v in vectors:
            for j in range(8):
                w = bracket(m7, v, basis_vec(8, j))
                assert in_span(span, sparse_vec(w)), name
                w = bracket(m7, basis_vec(8, j), v)
                assert in_span(span, sparse_vec(w)), name


def test_charseq_m7():
    cs = characteristic_sequence(alg("M", 7))
    assert cs.parts == (5, 1, 1, 1)                       # (n-2, 1, 1, 1): 3-filiform
    assert list(cs.witness) == basis_vec(8, 0)            # witnessed by y1


def test_charseq_abelian():
    cs = characteristic_sequence(alg("abelian", 4))
    assert cs.parts == (1, 1, 1, 1)


def test_charseq_l1():
    assert characteristic_sequence(alg("L1", 7)).parts == (4, 1, 1, 1)


@pytest.mark.parametrize("family,n,alpha", catalog_cases())
def test_charseq_sparse_path_matches_dense_and_oracle(family, n, alpha):
    # the sparse R_x columns characteristic_sequence hands to jordan_type
    # give the Jordan type of the dense right_operator matrix, by the
    # engine and by explicit powers; the series matches brute-force spans
    a = case_algebra(family, n, alpha)
    assert central_series(a).dims == oracle_series_dims(a)
    cs = characteristic_sequence(a)
    xs = {c: (v.a, v.b) for c, v in sparse_vec(cs.witness).items()}   # witnesses have integer entries
    sparse = jordan_type([sparse_bracket(a, {c: (1, 0)}, xs) for c in range(a.dim)])
    dense = right_operator(a, cs.witness)
    assert sparse == cs.parts == nilpotent_partition(dense) == oracle_partition(dense)


def test_charseq_builds_no_matrix(monkeypatch):
    a = alg("M", 7)
    central_series(a)

    def no_matrix(*args, **kwargs):
        raise AssertionError("characteristic_sequence built a Matrix")

    monkeypatch.setattr(linalg.Matrix, "__init__", no_matrix)
    assert characteristic_sequence(a).parts == (5, 1, 1, 1)


def test_charseq_rejects_non_nilpotent():
    a = Algebra(["e1"], {(0, 0): (ONE,)})
    with pytest.raises(NotNilpotentError):
        characteristic_sequence(a)


def test_charseq_rejects_zero_trials():
    with pytest.raises(ValueError):
        characteristic_sequence(alg("abelian", 2), trials=0)


@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_charseq_takes_only_exact_int_trials(bad, monkeypatch):
    # a float count never reached 0 and hung the draws on a dense conjugate
    # of M(5), whose candidates never reach the ceiling; the type is checked
    # before any candidate is drawn
    a = change_of_basis(alg("M", 5), random_invertible(random.Random(5), 6))
    drawn = []
    monkeypatch.setattr(invariants, "_candidates", lambda *args: drawn.append(args) or iter(()))
    with pytest.raises(TypeError, match="^trials must be an int, got %s$" % re.escape(repr(bad))):
        characteristic_sequence(a, trials=bad)
    assert drawn == []


def test_charseq_invariant_under_change_of_basis(rng):
    m7 = alg("M", 7)
    base = characteristic_sequence(m7).parts
    for _ in range(8):
        p = random_invertible(rng, 8)
        moved = change_of_basis(m7, p)
        assert characteristic_sequence(moved).parts == base


@pytest.mark.parametrize("parts,p", [
    ((5, 1, 1, 1), 3),
    ((4,), 0),
    ((3, 2), None),
    ((1,), 0),
    ((6, 1), 1),
])
def test_p_filiform_class(parts, p):
    assert p_filiform_class(CharSeq(parts, ())) == p


def test_family_p_classes():
    # advertised p for the Leibniz families; N is the exception: its computed
    # characteristic sequence (n-2, 2, 1) is not of p-filiform shape at all
    for n in range(7, 13):
        for family, p in (("L1", 3), ("M", 3), ("NGF1", 1), ("KF4", 2), ("KF5", 2)):
            cs = characteristic_sequence(alg(family, n))
            assert p_filiform_class(cs) == p, (family, n, cs.parts)
        cs = characteristic_sequence(alg("M1alpha", n, alpha=Scalar(1)))
        assert p_filiform_class(cs) == 3
    for n in (7, 9):
        cs = characteristic_sequence(alg("N", n))
        assert cs.parts == (n - 2, 2, 1)
        assert p_filiform_class(cs) is None


def test_natural_graded_l1_component_dims():
    gr, dims = natural_graded(alg("L1", 7))
    assert dims == (3, 2, 1, 1)
    assert leibniz_residual(gr) == []


def test_natural_graded_abelian_is_identity():
    a = alg("abelian", 4)
    gr, dims = natural_graded(a)
    assert gr == a
    assert dims == (4,)


def test_natural_graded_m7_is_leibniz():
    gr, dims = natural_graded(alg("M", 7))
    assert leibniz_residual(gr) == []
    assert sum(dims) == 8


def test_natural_graded_dims_sum_for_catalog():
    for family, n in [("M", 8), ("KF4", 8), ("KF5", 8), ("NGF1", 8), ("N", 9)]:
        a = alg(family, n)
        gr, dims = natural_graded(a)
        assert sum(dims) == a.dim
        assert leibniz_residual(gr) == []


def test_natural_graded_rejects_non_nilpotent():
    a = Algebra(["e1"], {(0, 0): (ONE,)})
    with pytest.raises(NotNilpotentError):
        natural_graded(a)


def test_fingerprint_golden_records():
    with open(f"{DATA}/fingerprints.txt") as fh:
        golden = dict(line.strip().split(" ", 1) for line in fh if line.strip())
    assert fingerprint(alg("M", 7)).record() == golden["M7"]
    assert fingerprint(alg("M1alpha", 7, alpha=Scalar(1))).record() == golden["M1a1_7"]
    assert fingerprint(alg("N", 7)).record() == golden["N7"]
    assert fingerprint(alg("L1", 7)).record() == golden["L1_7"]


def test_fingerprint_separates_m_from_m1alpha():
    fp_m = fingerprint(alg("M", 7))
    fp_a = fingerprint(alg("M1alpha", 7, alpha=Scalar(1)))
    assert fp_m != fp_a
    assert fp_m.dim_der == 13 and fp_a.dim_der == 12     # n+6 vs n+5


def test_fingerprint_alpha_independent():
    one = fingerprint(alg("M1alpha", 7, alpha=Scalar(1)))
    two = fingerprint(alg("M1alpha", 7, alpha=Scalar(2)))
    assert one == two


def test_fingerprint_invariant_under_change_of_basis(rng):
    l1 = alg("L1", 7)
    base = fingerprint(l1)
    for _ in range(3):
        p = random_invertible(rng, 7)
        assert fingerprint(change_of_basis(l1, p)) == base


def test_fingerprint_rejects_non_leibniz():
    with pytest.raises(NotLeibnizError):
        fingerprint(mutated_m7())
